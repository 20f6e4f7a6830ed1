"""End-to-end pipeline checks across combinations."""

from __future__ import annotations

from itertools import accumulate

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bcshatter import kernels
from bcshatter.engine import NonFiniteScoresError, compute_scores
from bcshatter.graph import Graph, GraphInputError
from bcshatter.kernels import betweenness
from bcshatter.oracle import GraphSpec, bc_brute, generate
from bcshatter.reduction import PIECE_LIMIT, STANDARD_COMBINATIONS, WorkGraph, shatter_articulation

from conftest import kernel_args, layered_graph, random_graph, sorted_components

@given(st.integers(2, 16), st.integers(0, 10_000))
@settings(max_examples=60, deadline=None)
def test_all_combinations_match_brute_force(n, seed):
    g = random_graph(n, 0.3, seed)
    expected = bc_brute(g)
    for combo in STANDARD_COMBINATIONS:
        assert np.allclose(compute_scores(g, combo).scores, expected, atol=1e-9), combo


def test_family_graphs_match():
    cases = [
        GraphSpec("gnp", 40, 0.12, 1),
        GraphSpec("random-tree", 60, 0, 2),
        GraphSpec("bridged-blobs", 36, 5, 3),
        GraphSpec("planted-identical", 32, 0.2, 4),
        GraphSpec("planted-side", 32, 0.2, 5),
        GraphSpec("clique-chain", 30, 5, 6),
    ]
    for spec in cases:
        g = generate(spec)
        expected = bc_brute(g)
        for combo in STANDARD_COMBINATIONS:
            got = compute_scores(g, combo).scores
            assert np.allclose(got, expected, atol=1e-8, rtol=1e-9), (spec, combo)


def test_empty_graph():
    g = Graph.from_edges(0, [])
    result = compute_scores(g, "odbasi")
    assert result.scores.shape == (0,)
    assert result.component_count == 0


def test_single_vertex():
    g = Graph.from_edges(1, [])
    assert compute_scores(g, "odbasi").scores.tolist() == [0.0]


def test_disconnected_input():
    g = Graph.from_edges(7, [(0, 1), (1, 2), (3, 4), (4, 5), (5, 3)])
    expected = bc_brute(g)
    for combo in STANDARD_COMBINATIONS:
        assert np.allclose(compute_scores(g, combo).scores, expected, atol=1e-9)


def test_order_seed_changes_nothing_in_scores():
    g = random_graph(20, 0.25, seed=11)
    base = compute_scores(g, "odbasi").scores
    for seed in (1, 2, 3):
        seeded = compute_scores(g, "odbasi", order_seed=seed).scores
        assert np.allclose(seeded, base, atol=1e-9)


def test_empty_combination_is_plain_brandes():
    g = random_graph(15, 0.3, seed=4)
    assert np.allclose(compute_scores(g, "").scores, betweenness(g), atol=1e-12)


def test_unordered_flag_halves():
    g = random_graph(10, 0.4, seed=6)
    full = compute_scores(g, "odbasi").scores
    half = compute_scores(g, "odbasi", unordered=True).scores
    assert np.allclose(half * 2, full, atol=1e-12)


def test_timing_fields_consistent():
    g = random_graph(30, 0.2, seed=8)
    result = compute_scores(g, "odbasi")
    assert result.preprocess_seconds >= 0
    assert result.phase1_seconds >= 0
    assert result.phase2_seconds >= 0
    parts = result.preprocess_seconds + result.phase1_seconds + result.phase2_seconds
    assert result.total_seconds >= parts - 1e-4  # timer granularity slack


def test_result_reports_reduction_outcome():
    tree = generate(GraphSpec("random-tree", 50, 0, 9))
    result = compute_scores(tree, "od")
    assert result.remaining_edges == 0
    assert result.remaining_vertices == 0
    assert result.component_edges == []


def test_stats_final_row_carries_component_edges():
    g = generate(GraphSpec("bridged-blobs", 60, 0, 2))
    result = compute_scores(g, "odb")
    assert len(result.component_edges) == result.component_count > 1
    assert result.stats.component_edges == result.component_edges
    final = result.stats.csv_rows()[-1]
    assert final[0] == "final"
    assert final[5] == ";".join(str(x) for x in result.component_edges)


def test_component_edges_largest_first():
    # An edge at ids 0-1 and a triangle after it: listed by lowest id, the
    # edge would come first.
    g = Graph.from_edges(5, [(0, 1), (2, 3), (2, 4), (3, 4)])
    assert compute_scores(g, "").component_edges == [3, 1]
    g = generate(GraphSpec("bridged-blobs", 60, 0, 2))
    edges = compute_scores(g, "odba").component_edges
    assert len(edges) > 1 and edges == sorted(edges, reverse=True)


def _blocks_on_vertex_0(sizes) -> Graph:
    """K_{2,k} for each k in ``sizes``, each with vertex 0 among its k: ``a``
    gives each block a copy of 0, whose kernel total is not a whole number,
    as 0 lies on one of the k shortest paths between the block's other two."""
    edges, n = [], 1
    for k in sizes:
        edges += [(u, 0) for u in (n, n + 1)] + [(u, x) for u in (n, n + 1) for x in range(n + 2, n + k + 1)]
        n += k + 1
    return Graph.from_edges(n, edges)


def test_kernel_totals_are_added_in_component_then_id_order(monkeypatch):
    # four copies of 0 get totals with fractions 2/3, 2/5, 2/6 and 2/7, and
    # float addition is not associative: the order of the additions shows in
    # 0's last bits.  The pieces are those the one "a" pass leaves, which the
    # retirement step right after it takes.
    g = _blocks_on_vertex_0((3, 5, 6, 7))
    for lib in (kernels._kernel(), None):
        monkeypatch.setattr(kernels, "_compiled", lib)
        w, partial = WorkGraph.from_graph(g), np.zeros(g.n)
        shatter_articulation(w)
        rows, members = w.rows(), w.member_lists()
        additions = []  # (work vertex, kernel total), in (component first id, id) order
        for comp in sorted_components(rows):
            if len(comp) > 1:
                index = {v: i for i, v in enumerate(comp)}
                scores, _, _ = kernels.brandes(*kernel_args([sorted(index[x] for x in rows[v]) for v in comp],
                                                            w.reach[comp], w.ident[comp]))
                additions += [(v, amount) for v, amount in zip(comp, scores.tolist()) if amount]

        def reassembled(additions) -> bytes:
            final = partial.copy()
            for v, amount in additions:
                for m in members[v]:
                    final[m] += amount
            return final.tobytes()

        assert sum(0 in members[v] for v, _ in additions) == 4
        assert compute_scores(g, "a").scores.tobytes() == reassembled(additions) != reassembled(additions[::-1])


def test_every_piece_goes_to_one_kernel_call(monkeypatch):
    # on both forms, each kernels.brandes call runs over the pieces one
    # WorkGraph.split_off takes out of the work graph: after a split pass,
    # its components of at most PIECE_LIMIT vertices, and at the end all
    # that is left.  The call's bounds are theirs and its arcs, k * (row
    # lengths summed) per piece of k vertices, are counted here by a search
    # of this test's own; a combination without b or a makes one call.
    specs = [("planted-side", 120, 1), ("planted-identical", 120, 1), ("bridged-blobs", 80, 3)]
    graphs = [generate(GraphSpec(family, size, 0.0, seed)) for family, size, seed in specs]
    brandes, split_off = kernels.brandes, WorkGraph.split_off
    several = 0
    for lib in (kernels._kernel(), None):
        monkeypatch.setattr(kernels, "_compiled", lib)
        for g in graphs:
            for combo in ("odbasi", "odsi"):
                calls, taken = [], []

                def recorded(offsets, targets, reach, ident, bounds):
                    calls.append((bounds.tolist(), int(np.diff(bounds) @ np.diff(offsets[bounds]))))
                    return brandes(offsets, targets, reach, ident, bounds)

                def recorded_split(w, order):
                    taken.append((order.tolist(), w.rows()))
                    n = w.n
                    pieces = split_off(w, order)
                    assert w.n == n - len(order)  # taken once: gone from the work graph
                    return pieces

                monkeypatch.setattr(kernels, "brandes", recorded)
                monkeypatch.setattr(WorkGraph, "split_off", recorded_split)
                result = compute_scores(g, combo)
                expected = []
                for k, (order, rows) in enumerate(taken):
                    comps = sorted_components(rows)
                    pieces = comps if k == len(taken) - 1 else [c for c in comps if len(c) <= PIECE_LIMIT]
                    assert order == [v for c in pieces for v in c]
                    expected.append((list(accumulate(map(len, pieces), initial=0)),
                                     sum(len(c) * sum(len(rows[v]) for v in c) for c in pieces)))
                assert calls == expected and len(calls) == len(result.stats.retirements) + 1
                assert sum(len(bounds) - 1 for bounds, _ in calls) == result.component_count
                assert combo == "odbasi" or len(calls) == 1
                several += len(calls) > 1
    assert several  # the retirement steps made calls of their own


def test_larger_max_side_degree_still_exact():
    g = random_graph(18, 0.45, seed=13)
    expected = bc_brute(g)
    for cap in (1, 2, 6, 17):
        got = compute_scores(g, "odbas", max_side_degree=cap).scores
        assert np.allclose(got, expected, atol=1e-9)


@pytest.mark.parametrize("cap", [2.5, 3.0, "3", None])
def test_side_degree_cap_that_is_not_an_integer_is_refused_on_both_forms(monkeypatch, cap):
    # a float cap would reach the compiled side sweep's int64 parameter, which
    # ctypes refuses, while the Python sweep compares degrees with it; so
    # preprocess refuses it first, whatever the combination
    g = generate(GraphSpec("planted-side", 30, 0.2, 5))
    errors = set()
    for lib in (kernels._kernel(), None):
        monkeypatch.setattr(kernels, "_compiled", lib)
        for combo in ("", "o", "od", "s", "odbasi"):
            with pytest.raises(TypeError) as refused:
                compute_scores(g, combo, max_side_degree=cap)
            errors.add(str(refused.value))
        # an integer of another type is an integer
        assert compute_scores(g, "odbasi", max_side_degree=np.int64(3)).scores.tobytes() == compute_scores(
            g, "odbasi", max_side_degree=3).scores.tobytes()
    assert len(errors) == 1, errors


def test_every_combination_reads_a_graph_alike(monkeypatch):
    # int32 offsets are converted, and a neighbor naming no vertex is refused,
    # with or without the ordering that reads the graph first
    path = Graph(4, 3, np.array([0, 1, 3, 5, 6], dtype=np.int32), np.array([1, 0, 2, 1, 3, 2], dtype=np.int32))
    bad = Graph(3, 1, np.array([0, 1, 2, 2]), np.array([1, 3], dtype=np.int32))
    expected = bc_brute(Graph.from_edges(4, [(0, 1), (1, 2), (2, 3)]))
    errors = set()
    for lib in (kernels._kernel(), None):
        monkeypatch.setattr(kernels, "_compiled", lib)
        for combo in ("", "d", "od", "odbasi"):
            assert np.allclose(compute_scores(path, combo).scores, expected, atol=1e-12), combo
            with pytest.raises(GraphInputError) as refused:
                compute_scores(bad, combo)
            errors.add(str(refused.value))
    assert len(errors) == 1, errors


@pytest.mark.parametrize("combo", ["o", "odbasi"])
def test_overflowing_path_counts_are_refused(combo):
    # 1,100 layers: 3,300 vertices and 6,594 edges, and nothing reduces
    g = layered_graph(1100)
    assert (g.n, g.m) == (3300, 6594)
    with pytest.raises(NonFiniteScoresError, match="3294 of 3300 scores are not finite"):
        compute_scores(g, combo)
