"""Acceptance suite: one test per exit criterion, one PASS line each.

Criterion 4 needs the add32 benchmark graph (4,960 vertices, 9,462 edges in
METIS format); drop it at data/add32.graph or point BCSHATTER_DATA at a
directory containing it, otherwise that test skips.
"""

from __future__ import annotations

import os
import random
from pathlib import Path

import numpy as np
import pytest

from bcshatter import reduction
from bcshatter.bench import BenchRecord, performance_profile
from bcshatter.engine import compute_scores
from bcshatter.graph import Graph, bfs_order, connected_components, parse_metis, relabel
from bcshatter.kernels import betweenness, brandes
from bcshatter.oracle import GraphSpec, bc_brute, bc_tree, generate, pair_distance_total
from bcshatter.reduction import STANDARD_COMBINATIONS, WorkGraph, run_pass

from conftest import component_mass_sums, connected_edge_sets, kernel_args, random_graph


def _all_combo_scores(g):
    for combo in STANDARD_COMBINATIONS:
        yield combo, compute_scores(g, combo).scores


def test_criterion_1_exhaustive_small_graph_gate():
    """Connected graphs on <= 8 vertices: exhaustive for n <= 5, dense random
    coverage for n in 6..8; every combination within 1e-9 absolute."""
    graphs: list[Graph] = []
    for n in range(2, 6):
        graphs.extend(Graph.from_edges(n, edges) for edges in connected_edge_sets(n))
    rng = random.Random(20240801)
    for n in (6, 7, 8):
        added = 0
        while added < 200:
            p = rng.choice((0.25, 0.35, 0.5, 0.7, 0.9))
            g = random_graph(n, p, rng.randrange(1 << 30))
            if connected_components(g).max() == 0:
                graphs.append(g)
                added += 1
    checked = 0
    for g in graphs:
        expected = bc_brute(g)
        for combo, got in _all_combo_scores(g):
            assert np.allclose(got, expected, atol=1e-9, rtol=0.0), (g.n, g.edges(), combo)
            checked += 1
    print(f"criterion 1: PASS ({len(graphs)} graphs x {len(STANDARD_COMBINATIONS)} combinations, {checked} runs, <=1e-9 abs)")


def test_criterion_2_randomized_oracle_gate():
    """500 generated graphs over every family, n <= 200, all combinations
    within 1e-6 relative of plain Brandes."""
    rng = random.Random(77)
    specs = []
    families = ("gnp", "random-tree", "bridged-blobs", "planted-identical", "planted-side", "clique-chain")
    for i in range(500):
        family = families[i % len(families)]
        n = rng.randrange(10, 201)
        if family == "gnp":
            param = rng.choice((1.5, 2.5, 4.0)) / n
        elif family in ("planted-identical", "planted-side"):
            param = rng.choice((0.05, 0.1, 0.2)) if n > 40 else 0.2
        elif family == "bridged-blobs":
            param = rng.choice((3, 5, 8))
        elif family == "clique-chain":
            param = rng.choice((4, 6))
        else:
            param = 0.0
        specs.append(GraphSpec(family, n, param, seed=i))
    worst = 0.0
    for spec in specs:
        g = generate(spec)
        expected = betweenness(g)
        for combo, got in _all_combo_scores(g):
            assert np.allclose(got, expected, rtol=1e-6, atol=1e-9), (spec, combo)
            scale = np.maximum(np.abs(expected), 1.0)
            worst = max(worst, float((np.abs(got - expected) / scale).max()))
    print(f"criterion 2: PASS (500 graphs x 7 combinations, worst rel dev {worst:.3e} <= 1e-6)")


def test_criterion_3_tree_closed_form():
    """100 random trees up to n=1000: closed form matches Brandes within
    1e-9, and degree-1 cascading alone empties every tree."""
    rng = random.Random(5)
    for i in range(100):
        n = rng.randrange(2, 1001)
        tree = generate(GraphSpec("random-tree", n, seed=i))
        assert np.allclose(bc_tree(tree), betweenness(tree), atol=1e-9, rtol=0.0)
        result = compute_scores(tree, "od")
        assert result.remaining_edges == 0
        assert result.remaining_vertices == 0
    print("criterion 3: PASS (100 trees n<=1000: closed form <=1e-9; 'od' empties every tree)")


ADD32_CANDIDATES = [
    Path(__file__).resolve().parent.parent / "data" / "add32.graph",
    Path(os.environ.get("BCSHATTER_DATA", "")) / "add32.graph",
]


def _find_add32():
    for path in ADD32_CANDIDATES:
        if str(path) != "add32.graph" and path.is_file():
            return path
    return None


@pytest.mark.skipif(_find_add32() is None, reason="add32.graph not present (download the DIMACS graph to data/)")
def test_criterion_4_add32_reproduction(monkeypatch):
    """add32 fully shatters under odbas, stays exact, and beats ordering-only.

    The passes alone dissolve every edge: with no piece small enough to
    retire mid-loop, odbas leaves 0 edges.  The default run, which retires
    pieces, gives the same exact scores."""
    g, _ = parse_metis(_find_add32().read_text())
    assert (g.n, g.m) == (4960, 9462)
    expected = betweenness(g)
    with monkeypatch.context() as m:
        m.setattr(reduction, "PIECE_LIMIT", 0)
        passes_only = compute_scores(g, "odbas")
    assert not any(r.pieces for r in passes_only.stats.retirements)
    assert passes_only.remaining_edges == 0
    assert np.allclose(passes_only.scores, expected, rtol=1e-6, atol=1e-9)
    result = compute_scores(g, "odbas")
    assert np.allclose(result.scores, expected, rtol=1e-6, atol=1e-9)
    baseline = compute_scores(g, "o")
    best = min(compute_scores(g, combo).total_seconds for combo in ("odbas", "odbasi"))
    assert best < baseline.total_seconds
    print(
        f"criterion 4: PASS (add32 odbas leaves 0 edges, exact; best {best:.3f}s vs o {baseline.total_seconds:.3f}s, speedup {baseline.total_seconds / best:.1f}x)"
    )


def test_criterion_5_invariant_suite():
    """Score-sum identity, mass conservation, relabel invariance, and equal
    scores across identical-vertex classes."""
    rng = random.Random(99)
    # score total == sum over ordered connected pairs of (distance - 1)
    for i in range(40):
        family = ("gnp", "random-tree", "planted-identical", "clique-chain")[i % 4]
        n = rng.randrange(10, 80)
        param = {"gnp": 2.5 / n, "random-tree": 0, "planted-identical": 0.15, "clique-chain": 5}[family]
        g = generate(GraphSpec(family, n, param, seed=i))
        scores = compute_scores(g, "odbasi").scores
        total = pair_distance_total(g)
        assert scores.sum() == pytest.approx(total, rel=1e-6, abs=1e-9)

    # every component keeps a full census under shatter/fold passes
    for i in range(12):
        g = random_graph(rng.randrange(8, 30), 0.2, seed=i)
        if connected_components(g).max() != 0:
            continue
        w = WorkGraph.from_graph(g)
        out = np.zeros(g.n)
        for _ in range(3):
            for letter in "dba":
                run_pass(w, letter, out)
                for total in component_mass_sums(w):
                    assert total == g.n

    # scores are invariant under BFS relabeling
    for i in range(10):
        g = random_graph(rng.randrange(6, 40), 0.3, seed=1000 + i)
        base = compute_scores(g, "odbasi").scores
        perm = bfs_order(g, start=i % g.n)
        moved = compute_scores(relabel(g, perm), "odbasi").scores
        assert np.allclose(moved[perm.forward], base, atol=1e-9)

    # vertices identical in the input graph end with identical scores
    twin_checks = 0
    for i in range(12):
        g = generate(GraphSpec("planted-identical", rng.randrange(16, 60), 0.2, seed=2000 + i))
        scores = compute_scores(g, "odbasi").scores
        open_nbhd: dict[frozenset, int] = {}
        closed_nbhd: dict[frozenset, int] = {}
        for v in range(g.n):
            nbrs = frozenset(g.neighbors_of(v).tolist())
            if nbrs:
                if nbrs in open_nbhd:
                    assert scores[v] == scores[open_nbhd[nbrs]]
                    twin_checks += 1
                else:
                    open_nbhd[nbrs] = v
            closed = nbrs | {v}
            if closed in closed_nbhd:
                assert scores[v] == scores[closed_nbhd[closed]]
                twin_checks += 1
            else:
                closed_nbhd[closed] = v
    assert twin_checks > 0
    print(f"criterion 5: PASS (score-sum identity, mass conservation, relabel invariance, {twin_checks} twin equalities)")


def test_criterion_6_degeneration_contracts():
    """reach=1 / ident=1 / both=1 produce bit-identical results to plain."""
    rng = random.Random(3)
    for i in range(50):
        n = rng.randrange(4, 24)
        g = random_graph(n, rng.choice((0.2, 0.4, 0.6)), seed=i)
        adj = g.adjacency_lists()
        ones = [1] * n
        plain = betweenness(g).tobytes()
        assert brandes(*kernel_args(adj, reach=ones))[0].tobytes() == plain
        assert brandes(*kernel_args(adj, ident=ones))[0].tobytes() == plain
        assert brandes(*kernel_args(adj, ones, ones))[0].tobytes() == plain
    print("criterion 6: PASS (50 graphs, reach/ident/both degenerate bit-identically)")


def test_criterion_7_profile_definition():
    """Profile output matches a hand-computed step function exactly."""
    records = [
        BenchRecord("g1", "a", 0, 0, 0, 1.0, 0, 1),
        BenchRecord("g1", "b", 0, 0, 0, 3.0, 0, 1),
        BenchRecord("g1", "c", 0, 0, 0, 2.0, 0, 1),
        BenchRecord("g2", "a", 0, 0, 0, 4.0, 0, 1),
        BenchRecord("g2", "b", 0, 0, 0, 2.0, 0, 1),
        BenchRecord("g2", "c", 0, 0, 0, 2.0, 0, 1),
        BenchRecord("g3", "a", 0, 0, 0, 1.0, 0, 1),
        BenchRecord("g3", "b", 0, 0, 0, 1.0, 0, 1),
        BenchRecord("g3", "c", 0, 0, 0, 5.0, 0, 1),
    ]
    # by hand: best times are g1: 1 (a), g2: 2 (b, c), g3: 1 (a, b)
    # a ratios: [1, 2, 1] -> steps (1.0, 2/3), (2.0, 1.0)
    # b ratios: [3, 1, 1] -> steps (1.0, 2/3), (3.0, 1.0)
    # c ratios: [2, 1, 5] -> steps (1.0, 1/3), (2.0, 2/3), (5.0, 1.0)
    expected = {
        "a": [(1.0, 2 / 3), (2.0, 1.0)],
        "b": [(1.0, 2 / 3), (3.0, 1.0)],
        "c": [(1.0, 1 / 3), (2.0, 2 / 3), (5.0, 1.0)],
    }
    got: dict[str, list[tuple[float, float]]] = {}
    for pt in performance_profile(records):
        got.setdefault(pt.combination, []).append((pt.r, pt.p))
    assert got == expected
    print("criterion 7: PASS (profile step function matches hand computation exactly)")
