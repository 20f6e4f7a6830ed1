"""Parsing, normalization, relabeling, and connectivity."""

from __future__ import annotations

import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bcshatter.graph import (
    Graph,
    GraphFormatError,
    GraphParseError,
    GraphRangeError,
    VertexPermutation,
    bfs_order,
    connected_components,
    normalize_edges,
    parse_edge_list,
    parse_graph,
    parse_metis,
    relabel,
    to_edge_list,
)

from conftest import random_graph


class TestParseEdgeList:
    def test_two_edge_path(self):
        g, report = parse_edge_list("0 1\n1 2")
        assert (g.n, g.m) == (3, 2)
        assert g.neighbors_of(1).tolist() == [0, 2]
        assert report.self_loops == 0 and report.duplicate_edges == 0

    def test_normalization_counts(self):
        g, report = parse_edge_list("0 1\n1 0\n0 0")
        assert (g.n, g.m) == (2, 1)
        assert report.duplicate_edges == 1
        assert report.self_loops == 1

    def test_comments_and_blank_lines(self):
        g, _ = parse_edge_list("# header\n0 1  # trailing\n\n1 2\n")
        assert (g.n, g.m) == (3, 2)

    def test_one_based(self):
        g, _ = parse_edge_list("1 2\n2 3", index_base=1)
        assert (g.n, g.m) == (3, 2)
        assert g.neighbors_of(1).tolist() == [0, 2]

    def test_malformed_line_reports_number(self):
        with pytest.raises(GraphParseError, match="line 2"):
            parse_edge_list("0 1\n0 1 2")
        with pytest.raises(GraphParseError, match="line 1"):
            parse_edge_list("zero one")

    def test_below_base_is_range_error(self):
        with pytest.raises(GraphRangeError):
            parse_edge_list("0 1", index_base=1)

    def test_id_beyond_int32_is_range_error(self):
        # rejected while parsing, before n = max id + 1 sizes any array
        with pytest.raises(GraphRangeError, match="line 2"):
            parse_edge_list("0 1\n0 2147483648")
        with pytest.raises(GraphRangeError, match="line 1"):
            parse_edge_list("2147483649 1", index_base=1)

    def test_empty_input(self):
        g, _ = parse_edge_list("")
        assert (g.n, g.m) == (0, 0)


def _normalize_by_set(raw, listed_twice):
    """The tuple definition: loops counted, orientations folded in a set."""
    loops = sum(u == v for u, v in raw)
    unique = {(min(u, v), max(u, v)) for u, v in raw if u != v}
    dups = max(0, len(raw) - loops - (2 if listed_twice else 1) * len(unique))
    return sorted(unique), loops, dups


def _raw_entries(seed: int) -> list[tuple[int, int]]:
    """Edges with self-loops and repeats in both orientations, shuffled."""
    rng = random.Random(seed)
    n = rng.randint(1, 12)
    raw = []
    for _ in range(rng.randint(0, 30)):
        u, v = rng.randrange(n), rng.randrange(n)
        raw.extend([(u, v)] * rng.randint(1, 3))
        if rng.random() < 0.5:
            raw.append((v, u))
    rng.shuffle(raw)
    return raw


class TestNormalizeEdges:
    @pytest.mark.parametrize("listed_twice", [False, True])
    @pytest.mark.parametrize("seed", range(40))
    def test_matches_set_counting(self, seed, listed_twice):
        raw = _raw_entries(seed)
        edges, report = normalize_edges(raw, listed_twice=listed_twice)
        unique, loops, dups = _normalize_by_set(raw, listed_twice)
        assert [tuple(e) for e in edges.tolist()] == unique
        assert (report.self_loops, report.duplicate_edges) == (loops, dups)

    @pytest.mark.parametrize("listed_twice", [False, True])
    def test_empty(self, listed_twice):
        edges, report = normalize_edges([], listed_twice=listed_twice)
        assert edges.shape == (0, 2)
        assert (report.self_loops, report.duplicate_edges) == (0, 0)
        assert Graph.from_edges(3, edges) == Graph.from_edges(3, [])

    def test_largest_ids_do_not_overflow(self):
        top = 2**31 - 1
        edges, report = normalize_edges([(top, top - 1), (top - 1, top), (0, top), (top, top)])
        assert edges.tolist() == [[0, top], [top - 1, top]]
        assert (report.self_loops, report.duplicate_edges) == (1, 1)


class TestParseMetis:
    def test_matches_edge_list(self):
        metis, _ = parse_metis("3 2\n2\n1 3\n2")
        edge, _ = parse_edge_list("0 1\n1 2")
        assert metis == edge

    def test_comment_lines(self):
        g, _ = parse_metis("% a comment\n3 2\n2\n1 3\n2")
        assert (g.n, g.m) == (3, 2)

    def test_neighbor_out_of_range(self):
        with pytest.raises(GraphRangeError):
            parse_metis("3 2\n2\n1 4\n2")

    def test_header_body_mismatch(self):
        with pytest.raises(GraphFormatError):
            parse_metis("3 3\n2\n1 3\n2")

    def test_missing_vertex_lines(self):
        with pytest.raises(GraphFormatError):
            parse_metis("3 2\n2\n1 3")

    def test_weighted_format_rejected(self):
        with pytest.raises(GraphFormatError):
            parse_metis("3 2 11\n2\n1 3\n2")

    @pytest.mark.parametrize("text", ["-1 0\n", "-5 0\n", "3 -1\n\n\n\n", "3 2 x\n2\n1 3\n2"])
    def test_bad_header_fields_rejected(self, text):
        with pytest.raises(GraphFormatError):
            parse_metis(text)

    def test_isolated_vertices_representable(self):
        g, _ = parse_metis("3 0\n\n\n\n")
        assert (g.n, g.m) == (3, 0)

    def test_round_trip_through_both_formats(self):
        g = random_graph(12, 0.3, seed=5)
        again, _ = parse_edge_list(to_edge_list(g))
        # edge lists cannot carry trailing isolated vertices; align n
        assert again.m == g.m
        metis_text = _render_metis(g)
        metis_g, _ = parse_metis(metis_text)
        assert metis_g == g


def _render_metis(g: Graph) -> str:
    lines = [f"{g.n} {g.m}"]
    for v in range(g.n):
        lines.append(" ".join(str(w + 1) for w in g.neighbors_of(v).tolist()))
    return "\n".join(lines)


class TestEdges:
    @pytest.mark.parametrize("seed", range(10))
    def test_matches_per_vertex_loop(self, seed):
        g = random_graph(15, 0.3, seed)
        by_loop = [(u, v) for u in range(g.n) for v in g.neighbors_of(u).tolist() if u < v]
        edges = g.edges()
        assert edges == by_loop
        assert all(type(u) is int and type(v) is int for u, v in edges)

    def test_no_edges(self):
        assert Graph.from_edges(0, []).edges() == []
        assert Graph.from_edges(3, []).edges() == []


class TestBfsOrder:
    def test_relabeled_path(self):
        # path labeled 2-0-1, BFS from 2 dequeues 2, 0, 1
        g, _ = parse_edge_list("2 0\n0 1")
        perm = bfs_order(g, start=2)
        assert perm.forward.tolist() == [1, 2, 0]

    def test_already_ordered_is_identity(self):
        g, _ = parse_edge_list("0 1\n0 2\n1 3")
        perm = bfs_order(g, start=0)
        assert perm.forward.tolist() == [0, 1, 2, 3]

    def test_disconnected_continues_at_lowest_unvisited(self):
        g, _ = parse_edge_list("0 1\n2 3")
        perm = bfs_order(g, start=0)
        assert perm.forward.tolist() == [0, 1, 2, 3]

    def test_start_out_of_range(self):
        g, _ = parse_edge_list("0 1")
        with pytest.raises(IndexError):
            bfs_order(g, start=5)

    @given(st.integers(2, 16), st.integers(0, 10_000))
    @settings(max_examples=40, deadline=None)
    def test_forward_is_permutation(self, n, seed):
        g = random_graph(n, 0.3, seed)
        perm = bfs_order(g, start=seed % n)
        assert sorted(perm.forward.tolist()) == list(range(n))
        perm.validate()


    def test_empty_graph(self):
        perm = bfs_order(Graph.from_edges(0, []))
        assert perm.forward.shape == perm.inverse.shape == (0,)

    def test_edgeless_starts_then_takes_lowest_ids(self):
        perm = bfs_order(Graph.from_edges(4, []), start=2)
        assert perm.inverse.tolist() == [2, 0, 1, 3]
        assert perm.forward.tolist() == [1, 2, 0, 3]

    def test_several_components(self):
        # {1, 4, 6} from the start, then {0, 5} and {2, 3} from their lowest ids
        g = Graph.from_edges(7, [(0, 5), (1, 6), (2, 3), (4, 6)])
        perm = bfs_order(g, start=6)
        assert perm.inverse.tolist() == [6, 1, 4, 0, 5, 2, 3]
        perm.validate()


def _permutation(forward) -> VertexPermutation:
    forward = np.asarray(forward, dtype=np.int64)
    return VertexPermutation(forward, np.argsort(forward))


class TestRelabel:
    def test_identity(self):
        g = random_graph(8, 0.4, seed=1)
        ident = _permutation(np.arange(8))
        assert relabel(g, ident) == g

    def test_reverse_path(self):
        g, _ = parse_edge_list("0 1\n1 2")
        rev = _permutation(np.array([2, 1, 0]))
        h = relabel(g, rev)
        assert h.neighbors_of(1).tolist() == [0, 2]
        assert sorted(np.diff(h.offsets).tolist()) == sorted(np.diff(g.offsets).tolist())

    @given(st.integers(2, 14), st.integers(0, 10_000))
    @settings(max_examples=40, deadline=None)
    def test_round_trip(self, n, seed):
        g = random_graph(n, 0.35, seed)
        perm = bfs_order(g, start=seed % n)
        inverse = _permutation(perm.inverse)
        assert relabel(relabel(g, perm), inverse) == g

    @given(st.integers(1, 16), st.integers(0, 10_000))
    @settings(max_examples=40, deadline=None)
    def test_random_permutation_matches_mapped_edges(self, n, seed):
        g = random_graph(n, 0.3, seed)
        forward = random.Random(seed).sample(range(n), n)
        h = relabel(g, _permutation(np.array(forward)))
        mapped = sorted((min(forward[u], forward[v]), max(forward[u], forward[v])) for u, v in g.edges())
        assert h == Graph.from_edges(n, mapped)
        h.validate()

    def test_size_mismatch(self):
        g, _ = parse_edge_list("0 1\n1 2")
        bad = _permutation(np.array([1, 0]))
        with pytest.raises(Exception):
            relabel(g, bad)


class TestConnectedComponents:
    def test_path(self):
        g, _ = parse_edge_list("0 1\n1 2")
        assert connected_components(g).tolist() == [0, 0, 0]

    def test_two_edges(self):
        g, _ = parse_edge_list("0 1\n2 3")
        assert connected_components(g).tolist() == [0, 0, 1, 1]

    def test_edgeless(self):
        g, _ = parse_metis("3 0\n\n\n\n")
        assert connected_components(g).tolist() == [0, 1, 2]

    def test_empty_graph(self):
        labels = connected_components(Graph.from_edges(0, []))
        assert labels.shape == (0,)

    def test_several_components_labelled_in_first_seen_order(self):
        g = Graph.from_edges(7, [(0, 5), (1, 6), (2, 3), (4, 6)])
        assert connected_components(g).tolist() == [0, 1, 2, 2, 1, 0, 1]


def test_graph_invariants_hold_after_parse():
    g, _ = parse_graph("0 1\n1 2\n2 0\n2 3", "edge-list")
    g.validate()
    assert g.offsets[-1] == 2 * g.m
