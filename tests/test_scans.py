"""The reduction's scans, compiled against Python: the block walk, the side
pass's candidate test and the twin grouping each have a compiled form in
``_brandes.c`` and a Python form in ``kernels.py``, which must return the
same values in the same order on every work graph.  The candidate test runs
inside ``kernels.side_sweep``, so it is tested through the sweep."""

from __future__ import annotations

import random

import numpy as np
import pytest

from bcshatter import kernels
from bcshatter.graph import Graph
from bcshatter.oracle import FAMILIES, GraphSpec, generate
from bcshatter.reduction import WorkGraph, run_pass

from conftest import complete_bipartite_graph, complete_graph, star_graph


@pytest.fixture(params=["compiled", "python"])
def scan_form(request, monkeypatch):
    """Runs a test on the compiled scans and on their Python forms."""
    lib = request.getfixturevalue("compiled_library") if request.param == "compiled" else None
    monkeypatch.setattr(kernels, "_compiled", lib)


def _both_forms(monkeypatch, lib, call):
    """call() on the compiled library and on the Python forms; asserts the
    two agree and returns the result."""
    results = []
    for form in (lib, None):
        monkeypatch.setattr(kernels, "_compiled", form)
        results.append(call())
    assert results[0] == results[1]
    return results[0]


def _work_graphs(seed: int, count: int):
    """Seeded work graphs of all six families as passes leave them: merged
    classes of every shape, copies made by ``a``, tombstoned rows, isolated
    vertices and random reach.  Yields (case, family, work graph, number of
    vertices of the input graph)."""
    rng = random.Random(seed)
    for case in range(count):
        family = FAMILIES[case % len(FAMILIES)]
        g = generate(GraphSpec(family, rng.randint(8, 80), 0.0, rng.randrange(10**6)))
        w = WorkGraph.from_graph(g)
        out = np.zeros(g.n)
        for letter in rng.sample("iadbs", rng.randint(0, 3)):
            run_pass(w, letter, out, rng.randint(1, 6))
        w.reach = [rng.randint(1, 4) for _ in w.reach]
        for v in range(len(w.adj)):
            if w.ident[v] > 1 and rng.random() < 0.3:  # a mixed class
                w.internal_edgeless[v] = w.internal_clique[v] = False
        live = list(w.live())
        for v in rng.sample(live, len(live) // 10):
            w.delete(v)
        for _ in range(rng.randint(0, 2)):
            w.add_vertex(0, rng.randint(1, 3))
        yield case, family, w, g.n


class TestBlockWalk:
    def test_forms_agree(self, compiled_library, monkeypatch):
        seen = {"merged": 0, "tombstone": 0, "isolated": 0, "copy": 0, "merged root block": 0}
        for case, family, w, n in _work_graphs(41, 180):
            walk = _both_forms(monkeypatch, compiled_library, lambda: list(kernels.block_walk(w.adj, w.reach, w.ident)))
            assert len(walk) == len(w.components()), (family, case)
            seen["merged"] += any(i > 1 for i in w.ident)
            seen["tombstone"] += None in w.adj
            seen["isolated"] += any(blocks == [] for blocks, _, _ in walk)
            seen["copy"] += len(w.adj) > n
            seen["merged root block"] += any(blocks and w.ident[blocks[-1][-1]] > 1 for blocks, _, _ in walk)
        assert all(seen.values()), seen

    def test_isolated_vertex_has_no_block(self, scan_form):
        w = WorkGraph.from_graph(Graph.from_edges(5, [(1, 2), (2, 3), (3, 1)]))
        w.reach[0] = 3
        w.ident[4] = 2
        w.delete(2)
        assert list(kernels.block_walk(w.adj, w.reach, w.ident)) == [([], [], 3), ([[3, 1]], [1], 2), ([], [], 2)]

    def test_refuses_rows_naming_a_deleted_vertex(self, scan_form):
        adj = [{1}, {0, 2}, None]
        with pytest.raises(ValueError, match="deleted vertex"):
            kernels.block_walk(adj, [1, 1, 1], [1, 1, 1])
        with pytest.raises(ValueError, match="neighbor ids"):
            kernels.block_walk([{1}, {0, 3}, set()], [1, 1, 1], [1, 1, 1])


def _book(pages: int) -> Graph:
    """K_{2,pages} with its two hubs, 0 and 1, joined: pages triangles on one edge."""
    g = complete_bipartite_graph(2, pages)
    return Graph.from_edges(g.n, [(0, 1), *g.edges()])


def _side_pass(w: WorkGraph, cap: int, slots: int):
    """``kernels.side_sweep`` over w with cap, into fresh scores over
    ``slots`` originals: the removed candidates, the arcs and the scores."""
    out = np.zeros(slots)
    removed, arcs = kernels.side_sweep(w.adj, w.members, w.reach, w.ident, w.internal_edgeless, w.internal_clique,
                                       cap, out)
    return removed, arcs, out.tobytes()


class TestSideCandidates:
    def test_forms_agree(self, compiled_library, monkeypatch):
        found = 0
        for case, family, w, n in _work_graphs(43, 180):
            for cap in (1, 2, 4, 6, 1000):
                removed, _, _ = _both_forms(monkeypatch, compiled_library, lambda: _side_pass(w, cap, n))
                assert removed == sorted(removed), (family, case)
                found += len(removed)
        assert found > 1000

    @pytest.mark.parametrize("pages", [2, 3, 40])
    def test_hubs_and_pages(self, scan_form, pages):
        # K_{2,D}: no vertex's neighbors are pairwise adjacent.  A book: every
        # page is simplicial, a hub is not.  A star: every leaf is.  No
        # removal empties another candidate's neighborhood, so every
        # candidate is removed.
        everything = 10**30  # past every degree, and past what a C integer holds
        for g, expected in (
            (complete_bipartite_graph(2, pages), []),
            (_book(pages), list(range(2, pages + 2))),
            (star_graph(pages), list(range(1, pages + 1))),
        ):
            w = WorkGraph.from_graph(g)
            assert _side_pass(w, everything, g.n)[0] == expected
            # a merged page unfolds into an edgeless class: a book's hubs then
            # see non-adjacent copies, which only matters to the hubs
            w.ident[2] = 2
            w.internal_clique[2] = False
            assert _side_pass(w, everything, g.n)[0] == expected
            # a merged hub or star center: as an edgeless class its copies
            # are not adjacent, so no page or leaf sees a clique; as a closed
            # class they are
            w.ident[0] = 2
            w.internal_clique[0] = False
            assert _side_pass(w, everything, g.n)[0] == []
            w.internal_edgeless[0], w.internal_clique[0] = False, True
            assert _side_pass(w, everything, g.n)[0] == expected

    def test_cap_at_and_below_the_degree(self, scan_form):
        # a book's pages have degree 2, its hubs more
        g = _book(5)
        w = WorkGraph.from_graph(g)
        assert _side_pass(w, 2, g.n)[0] == [2, 3, 4, 5, 6]
        assert _side_pass(w, 1, g.n)[0] == []
        # a star's leaves have degree 1
        g = star_graph(5)
        assert _side_pass(WorkGraph.from_graph(g), 1, g.n)[0] == [1, 2, 3, 4, 5]

    def test_refuses_rows_naming_a_deleted_vertex(self, scan_form):
        out = np.zeros(3)
        with pytest.raises(ValueError, match="deleted vertex"):
            kernels.side_sweep([{1}, {0, 2}, None], [[0], [1], [2]], [1] * 3, [1] * 3, [True] * 3, [True] * 3, 4, out)
        assert out.tolist() == [0.0] * 3


class TestTwinClasses:
    def test_forms_agree(self, compiled_library, monkeypatch):
        sizes = []
        for case, family, w, _ in _work_graphs(53, 180):
            for closed in (False, True):
                classes = _both_forms(monkeypatch, compiled_library, lambda: kernels.twin_classes(w.adj, w.reach, closed))
                assert all(verts == sorted(verts) and len(verts) >= 2 for verts in classes), (family, case)
                assert [verts[0] for verts in classes] == sorted(verts[0] for verts in classes)
                sizes += [len(verts) for verts in classes]
        assert len(sizes) > 200 and max(sizes) >= 3

    def test_unequal_reach_splits_classes(self, scan_form):
        # pages of reach 1 and 2 alternate; only equal reach groups
        pages = 7
        w = WorkGraph.from_graph(_book(pages))
        w.reach = [1, 1] + [1 + p % 2 for p in range(pages)]
        assert kernels.twin_classes(w.adj, w.reach, False) == [[2, 4, 6, 8], [3, 5, 7]]
        assert kernels.twin_classes(w.adj, w.reach, True) == [[0, 1]]
        w.reach[1] = 5
        assert kernels.twin_classes(w.adj, w.reach, True) == []
        # K_{2,D}: the hubs are open twins, and so are the pages
        w = WorkGraph.from_graph(complete_bipartite_graph(2, pages))
        w.reach = [3, 3] + [1 + p % 2 for p in range(pages)]
        assert kernels.twin_classes(w.adj, w.reach, False) == [[0, 1], [2, 4, 6, 8], [3, 5, 7]]
        assert kernels.twin_classes(w.adj, w.reach, True) == []
        # a clique with a deleted vertex and an isolated one: closed twins only
        w = WorkGraph.from_graph(Graph.from_edges(6, [(u, v) for u in range(5) for v in range(u + 1, 5)]))
        w.delete(2)
        w.reach = [2, 1, 1, 2, 1, 1]
        assert kernels.twin_classes(w.adj, w.reach, False) == []
        assert kernels.twin_classes(w.adj, w.reach, True) == [[0, 3], [1, 4]]

    def test_clique_is_one_closed_class(self, scan_form):
        w = WorkGraph.from_graph(complete_graph(6))
        assert kernels.twin_classes(w.adj, w.reach, True) == [list(range(6))]
        assert kernels.twin_classes(w.adj, w.reach, False) == []
