"""Parsing, the edge-pair builder and its normalization, relabeling, and
connectivity."""

from __future__ import annotations

import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bcshatter import cli, graph, kernels
from bcshatter.graph import (
    Graph,
    GraphFormatError,
    GraphInputError,
    GraphParseError,
    GraphRangeError,
    VertexPermutation,
    bfs_order,
    connected_components,
    parse_edge_list,
    parse_graph,
    parse_metis,
    relabel,
    to_edge_list,
)
from bcshatter.engine import compute_scores
from bcshatter.oracle import FAMILIES, GraphSpec, bc_brute, generate

from conftest import random_graph


@pytest.fixture(params=["compiled", "python"])
def graph_form(request, monkeypatch):
    """Runs a test on the compiled graph layer and on its Python forms."""
    lib = request.getfixturevalue("compiled_library") if request.param == "compiled" else None
    monkeypatch.setattr(kernels, "_compiled", lib)


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

    @pytest.mark.parametrize(
        "text, index_base, line",
        [("0 1\n2 8\n", 0, 2), ("0 1\n# comment\n2 8\n", 0, 3), ("1 2\n9 3\n", 1, 2)],
    )
    def test_id_at_vertex_ceiling_is_range_error(self, monkeypatch, text, index_base, line):
        # a small ceiling stands in for the real one, so no test sizes a giant array
        monkeypatch.setattr(graph, "MAX_VERTICES", 8)
        with pytest.raises(GraphRangeError, match=f"line {line}: .*ceiling"):
            parse_edge_list(text, index_base=index_base)

    @pytest.mark.parametrize("text, index_base", [("0 1\n2 7\n", 0), ("0 1\n# c\n2 7\n", 0), ("1 8\n", 1)])
    def test_ids_below_vertex_ceiling_parse(self, monkeypatch, text, index_base):
        monkeypatch.setattr(graph, "MAX_VERTICES", 8)
        assert parse_edge_list(text, index_base=index_base)[0].n == 8


def _line_parser(text: str, index_base: int):
    """What parse_edge_list gives, or the exception it raises, with the
    array path turned off."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(graph, "_parse_plain_edge_list", lambda text, index_base: None)
        try:
            return parse_edge_list(text, index_base=index_base)
        except GraphInputError as exc:
            return exc


# Pieces that keep a text on the array path, and pieces that each send it
# to the line parser: comments, signs, other whitespace and line breaks
# (\x0b, \x0c and \x1c break lines for str.splitlines), non-ASCII digits.
_PLAIN_SEPS = [" ", "\t", "  ", " \t"]
_PLAIN_ENDS = ["\n", "\r\n", "\r", " \n", "\t\r\n", "\n\n", "\n \n"]
_ODD_SEPS = ["\x0b", "\x0c", "\x1c", "\u00a0"]
_ODD_ENDS = ["\x0b", "\x0c", "\x1c", " # note\n", "# a\u2028b\n", "#\n"]


def _random_text(rng: random.Random) -> str:
    odd_counts = rng.random() < 0.25
    odd_chars = rng.random() < 0.3
    seps = _PLAIN_SEPS + (_ODD_SEPS if odd_chars else [])
    ends = _PLAIN_ENDS + (_ODD_ENDS if odd_chars else [])
    lines = []
    for _ in range(rng.randint(0, 8)):
        ids = []
        for _ in range(rng.choice([1, 2, 3, 4]) if odd_counts else 2):
            tok = str(rng.randrange(10 ** rng.randint(1, 4)))
            if rng.random() < 0.1:
                tok = "0" * rng.randint(1, 3) + tok
            if odd_chars and rng.random() < 0.1:
                tok = rng.choice("+-") + tok
            if odd_chars and rng.random() < 0.05:
                tok = tok.replace("1", "\u0661")  # ARABIC-INDIC DIGIT ONE: int() reads it
            ids.append(tok)
        lines.append(rng.choice(["", " ", "\t"]) + rng.choice(seps).join(ids) + rng.choice(ends))
    return "".join(lines)


def _long_plain_text(rng: random.Random) -> str:
    """A plain text of 20,000 edges: ids of 1 to 6 digits from 1 up, so
    that both bases take them, some padded with zeros to 6 digits, spaces
    and tabs around and between them, the three line ends, and no end after
    the last line."""
    def token() -> str:
        v = rng.randint(1, 999_999)
        return f"{v:06d}" if rng.random() < 0.1 else str(v)

    def blanks(least: int) -> str:
        return "".join(rng.choice(" \t") for _ in range(rng.randint(least, 3)))

    lines = [blanks(0) + token() + blanks(1) + token() + blanks(0) for _ in range(20_000)]
    return "".join(line + rng.choice(["\n", "\r\n", "\r"]) for line in lines[:-1]) + lines[-1]


@pytest.mark.usefixtures("compiled_library")
class TestArrayPath:
    """The compiled path gives the line parser's graph and report, or declines."""

    @pytest.mark.parametrize("index_base", [0, 1])
    def test_matches_line_parser_or_declines(self, index_base):
        rng = random.Random(2024 + index_base)
        long_text = _long_plain_text(random.Random(31))
        fixed = ["", "\n", "0\n1\n", "0 1 2\n", "0 1 2 3\n", "0 1\r2 3", "0 1\x0b2 3\n", "0 1 # c\n", "\u0661 2\n",
                 "007 08\n", "1 1\n1 2\n2 1\n", "0 1\n\n\n1 2 \n", long_text]
        taken = 0
        for text in fixed + [_random_text(rng) for _ in range(400)]:
            got = graph._parse_plain_edge_list(text, index_base)
            if got is None:
                assert text is not long_text  # plain at both bases
                continue
            taken += 1
            expected = _line_parser(text, index_base)
            assert not isinstance(expected, Exception), (text, expected)
            assert got == expected, text
        assert taken > 100  # the random plain texts do reach the array path

    @pytest.mark.parametrize(
        "text",
        ["0 1\n", "0 1\r\n1 2\r\n", "0\t1\r2 3", "\n  0 01 \n\n1 2\n", "5 5\n3 4\n4 3\n", "0 1\n1 2",
         "0 " + "0" * 25 + "7\n"],
    )
    def test_plain_text_takes_array_path(self, text):
        got = graph._parse_plain_edge_list(text, 0)
        assert got is not None
        assert got == _line_parser(text, 0)

    def test_self_loops_and_duplicates_are_counted(self):
        text = "0 1\n1 0\n0 1\n2 2\n2 2\n1 2\n2 1\n3 3\n"
        g, report = graph._parse_plain_edge_list(text, 0)
        assert (report.self_loops, report.duplicate_edges) == (3, 3)
        assert (g, report) == _line_parser(text, 0)
        g.validate()

    @pytest.mark.parametrize("index_base", [0, 1])
    def test_ids_at_the_ceiling(self, monkeypatch, index_base):
        # the ceiling is read at call time, so the small one applies
        monkeypatch.setattr(graph, "MAX_VERTICES", 8)
        below = f"{index_base} {7 + index_base}\n"
        got = graph._parse_plain_edge_list(below, index_base)
        assert got is not None and got[0].n == 8
        assert got == _line_parser(below, index_base)
        assert graph._parse_plain_edge_list(f"{index_base} {8 + index_base}\n", index_base) is None

    @pytest.mark.parametrize(
        "text, index_base",
        [("0 1\n2\n", 0), ("0 1 2\n", 0), ("0 1\n# c\n", 0), ("-1 2\n", 0), ("+1 2\n", 0), ("0\x0c1\n", 0),
         ("\u0661 2\n", 0), ("\n \n", 0), ("0 99999999999999999999\n", 0), ("1 2\n0 1\n", 1), ("0 3", 1),
         (" \t \r\n  \n\t", 0), ("0 1\n" + "1" * 40 + " 2\n", 0), ("0 18446744073709551617\n", 0),
         ("0 1\n2", 0)],
    )
    def test_other_text_is_declined(self, text, index_base):
        assert graph._parse_plain_edge_list(text, index_base) is None


def _normalize_by_set(raw, listed_twice):
    """The tuple definition: loops counted, orientations folded in a set."""
    loops = sum(u == v for u, v in raw)
    unique = {(min(u, v), max(u, v)) for u, v in raw if u != v}
    dups = max(0, len(raw) - loops - (2 if listed_twice else 1) * len(unique))
    return sorted(unique), loops, dups


def _raw_entries(seed: int) -> tuple[int, list[tuple[int, int]]]:
    """A vertex count and edges on it with self-loops and repeats in both
    orientations, shuffled."""
    rng = random.Random(seed)
    n = rng.randint(1, 12)
    raw = []
    for _ in range(rng.randint(0, 30)):
        u, v = rng.randrange(n), rng.randrange(n)
        raw.extend([(u, v)] * rng.randint(1, 3))
        if rng.random() < 0.5:
            raw.append((v, u))
    rng.shuffle(raw)
    return n, raw


def _build(n: int, pairs) -> tuple[Graph, graph.NormalizationReport]:
    """The builder's graph and report on ``pairs``."""
    return graph._edge_csr(n, np.array(pairs, dtype=np.int32).reshape(-1))


def _metis_text(n: int, raw) -> str:
    """A METIS text listing each (u, v) of ``raw`` on u's line."""
    rows = [[] for _ in range(n)]
    for u, v in raw:
        rows[u].append(str(v + 1))
    return "".join(line + "\n" for line in [f"{n} {len(raw) // 2}", *map(" ".join, rows)])


def _forms():
    """The builder's forms here: the compiled library, when it loads, and
    the numpy form (None)."""
    lib = kernels._kernel()
    return [None] if lib is None else [lib, None]


class TestNormalizeEdges:
    """The builder drops self-loops and repeats of either orientation, as the
    tuple definition counts them, on both its forms; ``parse_metis``, whose
    body lists each edge from both ends, counts a repeat only past the
    second listing."""

    @pytest.mark.parametrize("listed_twice", [False, True])
    @pytest.mark.parametrize("seed", range(40))
    def test_matches_set_counting(self, seed, listed_twice, monkeypatch):
        n, raw = _raw_entries(seed)
        if listed_twice:
            raw += [(0, 0)] * (len(raw) % 2)  # a METIS body lists 2m entries
        unique, loops, dups = _normalize_by_set(raw, listed_twice)
        for lib in _forms():
            monkeypatch.setattr(kernels, "_compiled", lib)
            g, report = parse_metis(_metis_text(n, raw)) if listed_twice else _build(n, raw)
            assert g.n == n and g.edges() == unique
            assert (report.self_loops, report.duplicate_edges) == (loops, dups)
            g.validate()

    @pytest.mark.parametrize("listed_twice", [False, True])
    def test_empty(self, listed_twice, monkeypatch):
        for lib in _forms():
            monkeypatch.setattr(kernels, "_compiled", lib)
            g, report = parse_metis("3 0\n\n\n\n") if listed_twice else _build(3, [])
            assert (report.self_loops, report.duplicate_edges) == (0, 0)
            assert g == Graph.from_edges(3, []) and g.offsets.tolist() == [0, 0, 0, 0]

    def test_largest_ids_do_not_overflow(self, monkeypatch):
        # ids past int32 are refused before either form runs, never wrapped into range
        for pairs in ([(2**31 - 1, 0)], [(2**32 + 1, 0)], [(0, 1 - 2**32)]):
            with pytest.raises(GraphRangeError):
                Graph.from_edges(3, pairs)
        top = (1 << 16) - 1
        for lib in _forms():
            monkeypatch.setattr(kernels, "_compiled", lib)
            g, report = _build(top + 1, [(top, top - 1), (top - 1, top), (0, top), (top, top)])
            assert g.edges() == [(0, top), (top - 1, top)]
            assert (report.self_loops, report.duplicate_edges) == (1, 1)


def _same_build(lib, n: int, pairs) -> Graph:
    """The builder on ``pairs`` compiled and in numpy, asserted equal."""
    got = []
    with pytest.MonkeyPatch.context() as mp:
        for form in (lib, None):
            mp.setattr(kernels, "_compiled", form)
            got.append(_build(n, pairs))
    (ours, report), (numpy_form, numpy_report) = got
    assert report == numpy_report and (ours.n, ours.m) == (numpy_form.n, numpy_form.m)
    for a, b in ((ours.offsets, numpy_form.offsets), (ours.neighbors, numpy_form.neighbors)):
        assert a.dtype == b.dtype and np.array_equal(a, b)
    return ours


class TestBuilderForms:
    """``bcs_edge_csr`` and the builder's numpy form give equal arrays and
    counts."""

    @pytest.mark.parametrize("index_base", [0, 1])
    def test_array_path_texts(self, compiled_library, index_base):
        rng = random.Random(2024 + index_base)
        texts = ["0 1\r2 3", "007 08\n", "1 1\n1 2\n2 1\n", "0 1\n\n\n1 2 \n", _long_plain_text(random.Random(31))]
        taken = 0
        for text in texts + [_random_text(rng) for _ in range(400)]:
            parsed = graph._parse_plain_edge_list(text, index_base)
            if parsed is None:
                continue
            ids = [int(x) - index_base for x in text.split()]
            assert _same_build(compiled_library, parsed[0].n, list(zip(ids[::2], ids[1::2]))) == parsed[0]
            taken += 1
        assert taken > 100

    @pytest.mark.parametrize("seed", range(40))
    def test_normalization_cases(self, compiled_library, seed):
        _same_build(compiled_library, *_raw_entries(seed))

    @pytest.mark.parametrize("seed", range(60))
    def test_random_pairs(self, compiled_library, seed):
        # loops, repeats in both orientations, an isolated top id, and no pairs
        rng = random.Random(seed)
        n = rng.randint(1, 40)
        pairs = [(rng.randrange(n), rng.randrange(n)) for _ in range(rng.choice([0, 1, 5, 60]))]
        pairs += [(v, u) for u, v in rng.sample(pairs, len(pairs) // 3)] + pairs[: len(pairs) // 4]
        rng.shuffle(pairs)
        g = _same_build(compiled_library, n + 1, pairs)
        assert g.neighbors_of(n).size == 0
        g.validate()


class TestFromEdges:
    # a 4-cycle with one edge given again reversed, and a pendant vertex with a self-loop
    PAIRS = [(0, 1), (1, 2), (2, 3), (3, 0), (1, 0), (3, 4), (4, 4)]

    @pytest.mark.usefixtures("graph_form")
    def test_drops_loops_and_repeats_as_the_parsers_do(self):
        g = Graph.from_edges(5, self.PAIRS)
        parsed, report = parse_graph("".join(f"{u} {v}\n" for u, v in self.PAIRS))
        assert g == parsed and g.m == 5 and (report.self_loops, report.duplicate_edges) == (1, 1)
        g.validate()

    def test_scores_are_the_simple_graphs(self):
        g = Graph.from_edges(5, self.PAIRS)
        expected = bc_brute(g)
        assert expected.tolist() == [2.0, 1.0, 2.0, 7.0, 0.0]
        for combo in ("o", "odbasi"):
            assert np.allclose(compute_scores(g, combo).scores, expected)

    @pytest.mark.usefixtures("graph_form")
    @pytest.mark.parametrize("pairs", [[(0, 5)], [(0, -1)], [(3, 0)], [(0, 1), (1, 2), (2, 3)], [(0, 2**64)],
                                       [(0, 1.5)], np.array([[0, 2**63]], dtype=np.uint64)])
    def test_refuses_ids_outside_the_vertices(self, pairs):
        with pytest.raises(GraphRangeError):
            Graph.from_edges(3, pairs)


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

    @pytest.mark.usefixtures("graph_form")
    def test_comment_line_inside_the_body_is_skipped(self):
        g, _ = parse_metis("3 2\n2\n% vertex 2 next\n1 3\n2")
        assert g == parse_metis("3 2\n2\n1 3\n2")[0]

    @pytest.mark.usefixtures("graph_form")
    @pytest.mark.parametrize(
        "text, error",
        [("3 2\n2\n1 3\n2\n1\n", GraphFormatError), ("3 2\n2\n1 x\n2", GraphParseError),
         ("3\n2\n1 3\n2", GraphFormatError), ("3 2 0 1\n2\n1 3\n2", GraphFormatError)],
    )
    def test_refusals(self, text, error, tmp_path):
        with pytest.raises(error):
            parse_metis(text)
        path = tmp_path / "bad.graph"
        path.write_text(text)
        assert cli.main(["compute", str(path), "--format", "metis"]) == cli.EXIT_IO

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


def _oracle_union(case: int) -> Graph:
    """Two oracle graphs of neighboring families and up to three isolated
    vertices, under shuffled ids, so components interleave in id order."""
    rng = random.Random(case)
    parts = [generate(GraphSpec(FAMILIES[(case + k) % len(FAMILIES)], rng.randint(4, 12), 0.0, case)) for k in (0, 1)]
    n = sum(p.n for p in parts) + rng.randint(0, 3)
    ids = rng.sample(range(n), n)
    edges = [(ids[u + parts[0].n * k], ids[v + parts[0].n * k]) for k, p in enumerate(parts) for u, v in p.edges()]
    return Graph.from_edges(n, sorted((min(e), max(e)) for e in edges))


def _bfs_python(g: Graph, start: int) -> list[list[int]]:
    return kernels.bfs_python(g.offsets.tolist(), g.neighbors.tolist(), start)


@pytest.mark.usefixtures("graph_form")
class TestBfsForms:
    @pytest.mark.parametrize("case", range(30))
    def test_matches_bfs_components_from_every_start(self, case):
        g = _oracle_union(case)
        for start in range(g.n):
            perm = bfs_order(g, start)
            assert perm.inverse.tolist() == [v for comp in _bfs_python(g, start) for v in comp]
            perm.validate()
        labels = [0] * g.n
        for label, comp in enumerate(_bfs_python(g, 0)):
            for v in comp:
                labels[v] = label
        assert connected_components(g).tolist() == labels

    @pytest.mark.parametrize("n, edges, start, inverse", [
        (0, [], 0, []),
        (1, [], 0, [0]),
        (5, [(0, 1), (2, 3), (3, 4)], 4, [4, 3, 2, 0, 1]),  # a start in a later component
        (6, [(0, 5), (1, 2), (2, 3)], 3, [3, 2, 1, 0, 5, 4]),
    ])
    def test_edge_cases(self, n, edges, start, inverse):
        g = Graph.from_edges(n, edges)
        assert [v for comp in _bfs_python(g, start) for v in comp] == inverse
        perm = bfs_order(g, start)
        assert perm.inverse.tolist() == inverse and perm.inverse.dtype == perm.forward.dtype == np.int64
        perm.validate()

    def test_refuses_arrays_that_are_not_a_csr(self):
        bad = [Graph(3, 1, np.array([0, 1, 2, 2]), np.array([1, 3], dtype=np.int32)),
               Graph(3, 1, np.array([0, 2, 1, 2]), np.array([1, 0], dtype=np.int32)),
               Graph(3, 1, np.array([0, 1, 2, 3]), np.array([1, 0], dtype=np.int32)),
               Graph(3, 1, np.array([1, 1, 2, 2]), np.array([1, 0], dtype=np.int32))]
        for g in bad:
            for call in (bfs_order, connected_components, lambda g: relabel(g, _permutation(range(3)))):
                with pytest.raises(GraphInputError):
                    call(g)

    def test_converts_other_dtypes_and_refuses_what_the_conversion_changes(self):
        ok = Graph(3, 1, np.array([0, 1, 2, 2], dtype=np.int32), np.array([1, 0], dtype=np.int64))
        # offsets of another count than n + 1, and neighbors that int32 wraps or truncates into range
        bad = [Graph(3, 1, np.array([0, 1, 2]), np.array([1, 0], dtype=np.int32)),
               Graph(3, 1, np.array([0, 1, 2, 2, 2]), np.array([1, 0], dtype=np.int32)),
               Graph(3, 1, np.array([0, 1, 2, 2]), np.array([2**32 + 1, 0], dtype=np.int64)),
               Graph(3, 1, np.array([0, 1, 2, 2]), np.array([1.5, 0.0]))]
        calls = (lambda g: bfs_order(g).inverse.tolist(), lambda g: connected_components(g).tolist(),
                 lambda g: relabel(g, _permutation(range(3))))
        for call in calls:
            assert call(ok) == call(Graph.from_edges(3, [(0, 1)]))
            for g in bad:
                with pytest.raises(GraphInputError):
                    call(g)


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

    @pytest.mark.parametrize("case", range(30))
    def test_forms_give_the_same_arrays(self, case, compiled_library, monkeypatch):
        g = _oracle_union(case)
        perm = _permutation(random.Random(case).sample(range(g.n), g.n))
        got = []
        for lib in (compiled_library, None):
            monkeypatch.setattr(kernels, "_compiled", lib)
            got.append(relabel(g, perm))
        assert (got[0].n, got[0].m) == (got[1].n, got[1].m) == (g.n, g.m)
        for ours, numpy_form in ((got[0].offsets, got[1].offsets), (got[0].neighbors, got[1].neighbors)):
            assert ours.dtype == numpy_form.dtype and np.array_equal(ours, numpy_form)

    def test_forms_agree_on_an_asymmetric_csr(self, compiled_library, monkeypatch):
        # rows 0: [2, 2, 1], 1: [], 2: [0], 3: [3, 1]: a repeat, a loop, arcs one way only
        g = Graph(4, 3, np.array([0, 3, 3, 4, 6]), np.array([2, 2, 1, 0, 3, 1], dtype=np.int32))
        forward = [2, 0, 3, 1]
        transposed = [[] for _ in range(4)]
        for v in range(4):
            for w in g.neighbors_of(v).tolist():
                transposed[forward[w]].append(forward[v])
        for lib in (compiled_library, None):
            monkeypatch.setattr(kernels, "_compiled", lib)
            h = relabel(g, _permutation(forward))
            assert h.offsets.dtype == np.int64 and h.neighbors.dtype == np.int32
            assert [h.neighbors_of(v).tolist() for v in range(4)] == list(map(sorted, transposed))

    @pytest.mark.usefixtures("graph_form")
    @pytest.mark.parametrize(
        "forward, inverse",
        [([0, 0, 2], [0, 1, 2]), ([1, 2, 0], [1, 2, 0]), ([0, 1, 3], [0, 1, 2]), ([0, 1, 2], [0, 1, -1]),
         ([0.0, 1.0, 2.0], [0, 1, 2])],
    )
    def test_refuses_a_bad_permutation(self, forward, inverse):
        g, _ = parse_edge_list("0 1\n1 2")
        with pytest.raises(GraphInputError):
            relabel(g, VertexPermutation(np.array(forward), np.array(inverse)))

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


@pytest.mark.usefixtures("graph_form")
def test_unknown_format_and_base_are_refused():
    with pytest.raises(GraphInputError):
        parse_graph("0 1\n", "adjacency")
    with pytest.raises(GraphInputError):
        parse_edge_list("2 3\n", index_base=2)


def test_graph_invariants_hold_after_parse():
    g, _ = parse_graph("0 1\n1 2\n2 0\n2 3", "edge-list")
    g.validate()
    assert g.offsets[-1] == 2 * g.m
