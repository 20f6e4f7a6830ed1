"""Ground-truth implementations and generator contracts."""

from __future__ import annotations

import numpy as np
import pytest

from bcshatter.graph import Graph
from bcshatter.kernels import betweenness
from bcshatter.oracle import (
    GraphSpec,
    OracleCapError,
    bc_brute,
    bc_tree,
    generate,
    pair_distance_total,
)

from conftest import complete_graph, cycle_graph, path_graph, random_graph, star_graph


class TestBrute:
    def test_path4(self):
        assert bc_brute(path_graph(4)).tolist() == [0.0, 4.0, 4.0, 0.0]

    def test_cycle4(self):
        assert bc_brute(cycle_graph(4)).tolist() == [1.0, 1.0, 1.0, 1.0]

    def test_disconnected_pair_of_edges(self):
        g = Graph.from_edges(4, [(0, 1), (2, 3)])
        assert bc_brute(g).tolist() == [0.0] * 4

    def test_cap_refusal(self):
        g = path_graph(20)
        with pytest.raises(OracleCapError):
            bc_brute(g, cap=10)

    def test_agrees_with_brandes_codepath(self):
        # the acceptance suite leans on this: two independent implementations
        for seed in range(12):
            g = random_graph(6 + seed * 4, 0.25, seed)
            assert np.allclose(bc_brute(g), betweenness(g), atol=1e-9)

    def test_score_total_identity(self):
        for seed in range(6):
            g = random_graph(20, 0.2, seed)
            assert bc_brute(g).sum() == pytest.approx(pair_distance_total(g))


class TestTreeClosedForm:
    def test_three_vertex_tree(self):
        # root with two leaves: (n-1)^2 - (1 + 1) = 2
        assert bc_tree(star_graph(2)).tolist() == [2.0, 0.0, 0.0]

    def test_path4_interior(self):
        # splitting sizes {1, 2}: 9 - 5 = 4
        assert bc_tree(path_graph(4)).tolist() == [0.0, 4.0, 4.0, 0.0]

    def test_star_center(self):
        assert bc_tree(star_graph(4))[0] == 16 - 4

    def test_rejects_non_trees(self):
        with pytest.raises(ValueError):
            bc_tree(cycle_graph(4))
        with pytest.raises(ValueError):
            bc_tree(Graph.from_edges(4, [(0, 1), (2, 3), (1, 2), (0, 3), (0, 2)]))

    def test_matches_brute_on_random_trees(self):
        for seed in range(10):
            tree = generate(GraphSpec("random-tree", 40 + seed, seed=seed))
            assert np.allclose(bc_tree(tree), bc_brute(tree), atol=1e-9)


class TestGenerators:
    def test_deterministic(self):
        spec = GraphSpec("gnp", 20, 0.3, seed=9)
        assert generate(spec) == generate(spec)

    def test_gnp_full_probability_is_clique(self):
        assert generate(GraphSpec("gnp", 8, 1.0)) == complete_graph(8)

    def test_random_tree_contract(self):
        g = generate(GraphSpec("random-tree", 5, seed=1))
        assert g.m == 4
        bc_tree(g)  # raises if disconnected or cyclic

    def test_bridged_blobs_have_a_bridge(self):
        g = generate(GraphSpec("bridged-blobs", 18, 3, seed=2))
        assert _has_bridge(g)

    def test_planted_identical_has_open_twins(self):
        g = generate(GraphSpec("planted-identical", 24, 0.3, seed=3))
        neighborhoods: dict[frozenset, int] = {}
        twins = 0
        for v in range(g.n):
            key = frozenset(g.neighbors_of(v).tolist())
            if key and key in neighborhoods:
                twins += 1
            elif key:
                neighborhoods[key] = v
        assert twins >= 1

    def test_planted_side_has_simplicial_vertex(self):
        g = generate(GraphSpec("planted-side", 24, 0.3, seed=4))
        adj = [set(g.neighbors_of(v).tolist()) for v in range(g.n)]
        found = any(
            adj[v] and all(b in adj[a] for a in adj[v] for b in adj[v] if a < b)
            for v in range(g.n)
        )
        assert found

    def test_clique_chain_connected(self):
        from bcshatter.graph import connected_components

        g = generate(GraphSpec("clique-chain", 21, 5, seed=5))
        assert connected_components(g).max() == 0

    def test_spec_parse(self):
        spec = GraphSpec.parse("gnp:n=30,p=0.2,seed=7")
        assert spec == GraphSpec("gnp", 30, 0.2, 7)
        with pytest.raises(ValueError):
            GraphSpec.parse("nope:n=3")
        with pytest.raises(ValueError):
            GraphSpec.parse("gnp:n=3,bogus=1")


def test_networkx_agrees_at_scale():
    """networkx as a third, independent oracle, at a size bc_brute refuses.

    The seeded graph is disconnected and every pass but ``i`` removes part
    of it, so the kernel sees a reach-weighted core of about 460 vertices.
    """
    nx = pytest.importorskip("networkx")
    from bcshatter.engine import compute_scores

    g = generate(GraphSpec("planted-side", 1000, 0.0025, seed=3))
    reference = nx.Graph()
    reference.add_nodes_from(range(g.n))
    reference.add_edges_from(g.edges())
    unordered = nx.betweenness_centrality(reference, normalized=False)
    expected = 2.0 * np.array([unordered[v] for v in range(g.n)])
    np.testing.assert_allclose(betweenness(g), expected, rtol=1e-9, atol=1e-9)
    np.testing.assert_allclose(compute_scores(g, "odbasi").scores, expected, rtol=1e-9, atol=1e-9)


def _has_bridge(g: Graph) -> bool:
    from bcshatter.graph import connected_components

    base = connected_components(g).max()
    for u, v in g.edges():
        edges = [e for e in g.edges() if e != (u, v)]
        if connected_components(Graph.from_edges(g.n, edges)).max() > base:
            return True
    return False
