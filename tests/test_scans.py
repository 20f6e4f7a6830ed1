"""The reduction's scans and loops, compiled against Python: the block walk,
the side pass's candidate test, the twin grouping and credits, the
degree-1 cascade and the components' BFS each have a compiled form in
``_brandes.c``, which reads the work graph's arrays, and a Python form in
``kernels.py``, which reads ``WorkGraph.rows``; the two must return the
same values in the same order on every work graph, and add the same
amounts to the scores in the same order.  The candidate test runs inside
``kernels.side_sweep``, so it is tested through the sweep."""

from __future__ import annotations

import random

import numpy as np
import pytest

from bcshatter import kernels
from bcshatter.graph import Graph
from bcshatter.oracle import FAMILIES, GraphSpec, generate
from bcshatter.reduction import WorkGraph, preprocess, run_pass

from conftest import complete_bipartite_graph, complete_graph, per_component, star_graph


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
    classes of every shape, copies made by ``a``, removed edges, isolated
    vertices and random reach, and two batches of deleted vertices, with
    their arcs and the arcs into them.  Yields (case, family, work graph,
    input graph)."""
    rng = random.Random(seed)
    for case in range(count):
        family = FAMILIES[case % len(FAMILIES)]
        g = generate(GraphSpec(family, rng.randint(8, 80), 0.0, rng.randrange(10**6)))
        w = WorkGraph.from_graph(g)
        out = np.zeros(g.n)
        for letter in rng.sample("iadbs", rng.randint(0, 3)):
            run_pass(w, letter, out, rng.randint(1, 6))
        w.reach[:] = [rng.randint(1, 4) for _ in w.reach]
        for v in range(w.n):
            if w.ident[v] > 1 and rng.random() < 0.3:  # a mixed class
                w.internal_edgeless[v] = w.internal_clique[v] = False
        w.delete(rng.sample(range(w.n), w.n // 10))
        for _ in range(rng.randint(0, 2)):
            w.append((np.append(w.offsets, w.offsets[-1]), w.targets), [rng.randint(1, 3)], [0])
        w.delete(rng.sample(range(w.n), w.n // 20))
        yield case, family, w, g


class TestBlockWalk:
    def test_forms_agree(self, compiled_library, monkeypatch):
        seen = {"merged": 0, "removed arc": 0, "deleted": 0, "isolated": 0, "copy": 0, "merged root block": 0}
        for case, family, w, g in _work_graphs(41, 180):
            walk = _both_forms(monkeypatch, compiled_library, lambda: per_component(kernels.block_walk(w)))
            assert len(walk) == len(w.components()), (family, case)
            seen["merged"] += any(i > 1 for i in w.ident)
            seen["removed arc"] += w.m < g.m
            seen["deleted"] += w.n < g.n
            seen["isolated"] += any(blocks == [] for blocks, _, _ in walk)
            # a copy starts with its original's first member, as the appended vertices do
            seen["copy"] += len(set(w.member_ids[w.member_offsets[:-1]].tolist())) < w.n
            seen["merged root block"] += any(blocks and w.ident[blocks[-1][-1]] > 1 for blocks, _, _ in walk)
        assert all(seen.values()), seen

    def test_isolated_vertex_has_no_block(self, scan_form):
        w = WorkGraph.from_graph(Graph.from_edges(5, [(1, 2), (2, 3), (3, 1)]))
        w.reach[0] = 3
        w.ident[4] = 2
        w.delete(2)  # 3 and 4 become 2 and 3
        assert per_component(kernels.block_walk(w)) == [([], [], 3), ([[2, 1]], [1], 2), ([], [], 2)]

    def test_skips_arcs_into_a_deleted_vertex(self, scan_form):
        # the path 0-1-2 with 2 deleted: its arcs and the arcs into it go too
        w = WorkGraph.from_graph(Graph.from_edges(3, [(0, 1), (1, 2)]))
        w.delete(2)
        assert per_component(kernels.block_walk(w)) == [([[1, 0]], [1], 2)]
        w.targets[w.offsets[1]] = 3
        with pytest.raises(ValueError, match="neighbor ids"):
            kernels.block_walk(w)


def _book(pages: int) -> Graph:
    """K_{2,pages} with its two hubs, 0 and 1, joined: pages triangles on one edge."""
    g = complete_bipartite_graph(2, pages)
    return Graph.from_edges(g.n, [(0, 1), *g.edges()])


def _side_pass(w: WorkGraph, cap: int, slots: int):
    """``kernels.side_sweep`` over w with cap, into fresh scores over
    ``slots`` originals: the removed candidates as a list, the arcs and the
    scores."""
    out = np.zeros(slots)
    removed, arcs = kernels.side_sweep(w, cap, out)
    assert removed.dtype == np.int32
    return removed.tolist(), arcs, out.tobytes()


class TestSideCandidates:
    def test_forms_agree(self, compiled_library, monkeypatch):
        found = 0
        for case, family, w, g in _work_graphs(43, 180):
            for cap in (1, 2, 4, 6, 1000):
                removed, _, _ = _both_forms(monkeypatch, compiled_library, lambda: _side_pass(w, cap, g.n))
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

    def test_skips_arcs_into_a_deleted_vertex(self, scan_form):
        # the path 0-1-2 with 2 deleted, its arcs with it: 0 and 1 are each
        # other's one neighbor, and removing 0 empties 1
        w = WorkGraph.from_graph(Graph.from_edges(3, [(0, 1), (1, 2)]))
        w.delete(2)
        assert _side_pass(w, 4, 3)[:2] == ([0], 2)


def _twin_classes(w: WorkGraph, closed: bool) -> list[list[int]]:
    """The classes of ``kernels.twin_sweep`` over w, as lists."""
    members, ends = kernels.twin_sweep(w, closed, np.zeros(int(w.member_ids.max(initial=0)) + 1))
    members, ends = members.tolist(), ends.tolist()
    return [members[a:b] for a, b in zip(ends, ends[1:])]


class TestTwinClasses:
    def test_forms_agree(self, compiled_library, monkeypatch):
        sizes = []
        for case, family, w, _ in _work_graphs(53, 180):
            for closed in (False, True):
                classes = _both_forms(monkeypatch, compiled_library, lambda: _twin_classes(w, closed))
                assert all(verts == sorted(verts) and len(verts) >= 2 for verts in classes), (family, case)
                assert [verts[0] for verts in classes] == sorted(verts[0] for verts in classes)
                sizes += [len(verts) for verts in classes]
        assert len(sizes) > 200 and max(sizes) >= 3

    def test_unequal_reach_splits_classes(self, scan_form):
        # pages of reach 1 and 2 alternate; only equal reach groups
        pages = 7
        w = WorkGraph.from_graph(_book(pages))
        w.reach[:] = [1, 1] + [1 + p % 2 for p in range(pages)]
        assert _twin_classes(w, False) == [[2, 4, 6, 8], [3, 5, 7]]
        assert _twin_classes(w, True) == [[0, 1]]
        w.reach[1] = 5
        assert _twin_classes(w, True) == []
        # K_{2,D}: the hubs are open twins, and so are the pages
        w = WorkGraph.from_graph(complete_bipartite_graph(2, pages))
        w.reach[:] = [3, 3] + [1 + p % 2 for p in range(pages)]
        assert _twin_classes(w, False) == [[0, 1], [2, 4, 6, 8], [3, 5, 7]]
        assert _twin_classes(w, True) == []
        # a clique with a deleted vertex and an isolated one: closed twins only
        w = WorkGraph.from_graph(Graph.from_edges(6, [(u, v) for u in range(5) for v in range(u + 1, 5)]))
        w.delete(2)  # 3, 4 and 5 become 2, 3 and 4
        w.reach[:] = [2, 1, 2, 1, 1]
        assert _twin_classes(w, False) == []
        assert _twin_classes(w, True) == [[0, 2], [1, 3]]

    def test_clique_is_one_closed_class(self, scan_form):
        w = WorkGraph.from_graph(complete_graph(6))
        assert _twin_classes(w, True) == [list(range(6))]
        assert _twin_classes(w, False) == []


def _twin_keys(w: WorkGraph, closed: bool) -> dict[tuple, list[int]]:
    """Each vertex with an arc under its twin key, the sorted open or closed
    neighborhood and then the reach, as a dict of keys to vertices."""
    keys: dict[tuple, list[int]] = {}
    for v, row in enumerate(w.rows()):
        if row:
            keys.setdefault((*sorted({*row, v} if closed else row), int(w.reach[v])), []).append(v)
    return keys


def _bucket_sizes(keys: dict[tuple, list[int]]) -> dict[int, list[int]]:
    """For each first id of a key, how many vertices hold each key starting
    with it: the buckets the compiled grouping sorts one by one."""
    buckets: dict[int, list[int]] = {}
    for key, verts in keys.items():
        buckets.setdefault(key[0], []).append(len(verts))
    return buckets


def _shared_first_id() -> WorkGraph:
    """A hub, 0, on 80 leaves, each also on a subset of the tails 81-86, of
    reach 1 or 2: every leaf's key starts with 0, and keys of one length
    differ in the middle, share their last id, differ only in reach, or
    are prefixes of each other."""
    rng = random.Random(71)
    tails = list(range(81, 87))
    shapes = [(), (81,), (81, 82), (81, 86), (82, 86), (81, 82, 86), (81, 83, 86)]
    edges = []
    for leaf in range(1, 81):
        subset = rng.choice(shapes) if leaf % 4 else sorted(rng.sample(tails, rng.randint(0, 6)))
        edges += [(0, leaf), *((leaf, t) for t in subset)]
    w = WorkGraph.from_graph(Graph.from_edges(87, edges))
    w.reach[:] = [1 + (v % 3 == 0) for v in range(w.n)]
    return w


def _hub_below_all() -> WorkGraph:
    """Planted twins with a hub, 0, joined to every other vertex: the
    hub is every other vertex's smallest neighbor, so all keys but the
    hub's open one fall in one bucket."""
    g = generate(GraphSpec("planted-identical", 120, 0.0, 5))
    w = WorkGraph.from_graph(Graph.from_edges(g.n + 1, [*((0, v + 1) for v in range(g.n)),
                                                        *((u + 1, v + 1) for u, v in g.edges())]))
    w.reach[:] = [1 + (v % 5 == 0) for v in range(w.n)]
    return w


def _own_id_first() -> WorkGraph:
    """Cliques of 2 to 6 vertices on consecutive ids, the highest vertex of
    each joined to the next clique's highest: in the closed sweep each
    clique's lowest vertex is its own key's first id, which it shares with
    its clique mates but the highest, whose key is one id longer and in the
    same bucket."""
    rng = random.Random(73)
    edges, low, prev = [], 0, None
    while low < 150:
        size = rng.randint(2, 6)
        edges += [(u, v) for u in range(low, low + size) for v in range(u + 1, low + size)]
        if prev is not None:
            edges.append((prev, low + size - 1))
        prev, low = low + size - 1, low + size
    w = WorkGraph.from_graph(Graph.from_edges(low, edges))
    w.reach[:] = [1 + (v % 7 == 3) for v in range(w.n)]
    return w


def _preferential_core() -> WorkGraph:
    """Preferential attachment, two edges per new vertex, with every fifth
    new vertex a twin of the one before it: the early hubs are the smallest
    neighbor of many vertices, so the buckets run from one vertex to many."""
    rng = random.Random(79)
    edges, ends = [(0, 1), (0, 2), (1, 2)], [0, 1, 1, 2, 0, 2]
    picks: set[int] = set()
    for v in range(3, 400):
        if v % 5:
            picks = set()
            while len(picks) < 2:
                picks.add(rng.choice(ends))
        for u in picks:
            edges.append((u, v))
            ends += [u, v]
    w = WorkGraph.from_graph(Graph.from_edges(400, edges))
    w.reach[:] = [1 + (v % 11 == 0) for v in range(w.n)]
    return w


_BUCKET_GRAPHS = {
    "shared first id": _shared_first_id,
    "hub below all": _hub_below_all,
    "own id first": _own_id_first,
    "preferential core": _preferential_core,
}


class TestTwinBuckets:
    """The compiled grouping buckets the keyed vertices by their key's first
    id, then sorts each bucket by the full key: graphs whose keys crowd
    into few buckets, or spread unevenly over many, against a dict keyed by
    the full key."""

    @pytest.mark.parametrize("graph", list(_BUCKET_GRAPHS))
    def test_classes_match_a_dict_model(self, scan_form, graph):
        w = _BUCKET_GRAPHS[graph]()
        for closed in (False, True):
            keys = _twin_keys(w, closed)
            assert _twin_classes(w, closed) == [verts for verts in keys.values() if len(verts) >= 2], closed

    @pytest.mark.parametrize("graph", list(_BUCKET_GRAPHS))
    def test_forms_agree(self, compiled_library, monkeypatch, graph):
        w = _BUCKET_GRAPHS[graph]()
        _merge_some(w, 7)
        start = _start_scores(w, 7)
        for closed in (False, True):
            _both_forms(monkeypatch, compiled_library, lambda: _twin_pass(w, closed, start))

    def test_the_graphs_make_the_buckets_they_name(self):
        # buckets of many keys whose members differ after the first id
        keys = _twin_keys(_shared_first_id(), False)
        hub = [key for key in keys if key[0] == 0]
        assert len(hub) >= 8 and sum(len(keys[key]) >= 2 for key in hub) >= 4
        assert any(a[:-1] == b[:-1] and a != b for a in hub for b in hub)  # reach alone
        assert any(len(a) == len(b) and a[-2] == b[-2] and a != b for a in hub for b in hub)  # last id shared
        assert any(len(a) < len(b) and a[:-1] == b[: len(a) - 1] for a in hub for b in hub)  # a prefix
        # one bucket of every vertex but the hub, open, and of all, closed
        w = _hub_below_all()
        for closed, size in ((False, w.n - 1), (True, w.n)):
            buckets = _bucket_sizes(_twin_keys(w, closed))
            assert sum(buckets[0]) == size and len(buckets[0]) > 10
        # closed: a class whose lowest member is its key's first id, in a
        # bucket with another key
        keys = _twin_keys(_own_id_first(), True)
        buckets = _bucket_sizes(keys)
        own = [key[0] for key, verts in keys.items() if key[0] in verts and len(verts) >= 2]
        assert sum(len(buckets[first]) >= 2 for first in own) >= 10
        # uneven: single-vertex buckets beside buckets of dozens
        for closed in (False, True):
            sizes = sorted(sum(counts) for counts in _bucket_sizes(_twin_keys(_preferential_core(), closed)).values())
            assert sizes[0] == 1 and sizes[-1] >= 30 and len(sizes) >= 50, closed


def _start_scores(w: WorkGraph, seed: int) -> np.ndarray:
    """Random partial scores over w's original vertices, so that the order
    of later additions shows in their last bits."""
    return np.random.default_rng(seed).random(int(w.member_ids.max(initial=0)) + 1) * 1e3


def _merge_some(w: WorkGraph, seed: int) -> None:
    """Give about a tenth of w's vertices ident 2 or 3, so that merged
    neighbors and merged leaves are common; the members stay as they are,
    which both forms read alike."""
    rng = random.Random(seed)
    for v in rng.sample(range(w.n), w.n // 10):
        w.ident[v] = rng.randint(2, 3)


def _twin_pass(w: WorkGraph, closed: bool, out: np.ndarray):
    """``kernels.twin_sweep`` over w into a copy of ``out``: the classes'
    members and ends, and the scores' bytes."""
    out = out.copy()
    members, ends = kernels.twin_sweep(w, closed, out)
    return members.tolist(), ends.tolist(), out.tobytes()


def _degree1_pass(w: WorkGraph, out: np.ndarray):
    """``kernels.degree1`` over w into a copy of ``out``: the vertices gone,
    the new reach, the retired mass and the scores' bytes."""
    out = out.copy()
    gone, reach, retired = kernels.degree1(w, out)
    return gone.tolist(), reach.tolist(), retired, out.tobytes()


class TestTwinSweep:
    def test_forms_agree(self, compiled_library, monkeypatch):
        seen = {"interior": 0, "interior at reach 2": 0, "cross": 0, "merged shared neighbor": 0}
        for case, family, w, _ in _work_graphs(61, 180):
            _merge_some(w, case)
            start = _start_scores(w, case)
            rows = w.rows()
            for closed in (False, True):
                members, ends, _ = _both_forms(monkeypatch, compiled_library, lambda: _twin_pass(w, closed, start))
                reps = [members[a] for a in ends[:-1]]
                seen["interior"] += sum(w.reach[v] > 1 for v in reps)
                seen["interior at reach 2"] += sum(w.reach[v] == 2 for v in reps)
                if not closed:
                    seen["cross"] += len(reps)
                    seen["merged shared neighbor"] += sum(any(w.ident[x] > 1 for x in rows[v]) for v in reps)
        assert all(count > 10 for count in seen.values()), seen

    def test_open_class_over_a_merged_neighbor(self, scan_form):
        # pages 2-4 of K_{2,3} are open twins over the hubs 0 and 1, of which
        # 0 stands for two copies: the cross credit splits over 3 copies
        w = WorkGraph.from_graph(complete_bipartite_graph(2, 3))
        w.ident[0] = w.reach[0] = 2  # and no twin of 1
        out = np.zeros(5)
        members, ends = kernels.twin_sweep(w, False, out)
        assert members.tolist() == [2, 3, 4] and ends.tolist() == [0, 3]
        assert out.tolist() == [2.0, 2.0, 0.0, 0.0, 0.0]  # 6 cross pairs over 3 copies

    def test_credits_past_int32(self, scan_form):
        # two leaves of reach 2^20 on one center: open twins whose interior
        # credit is r(r - 1) and whose cross credit is 2r^2, both past 2^31
        r = 2**20
        w = WorkGraph.from_graph(star_graph(2))
        w.reach[1:] = r
        out = np.zeros(3)
        kernels.twin_sweep(w, False, out)
        assert out.tolist() == [float(2 * r * r), float(r * (r - 1)), float(r * (r - 1))]


class TestDegree1Cascade:
    def test_forms_agree(self, compiled_library, monkeypatch):
        seen = {"fold": 0, "retired": 0, "merged leaf fold": 0, "skipped leaf": 0}
        for case, family, w, _ in _work_graphs(67, 180):
            _merge_some(w, case)
            start = _start_scores(w, case)
            gone, reach, retired, _ = _both_forms(monkeypatch, compiled_library, lambda: _degree1_pass(w, start))
            assert len(set(gone)) == len(gone) and set(gone) <= set(range(w.n)), (family, case)
            degree = list(map(len, w.rows()))
            seen["fold"] += sum(reach) > int(w.reach.sum())
            seen["retired"] += retired > 0
            seen["merged leaf fold"] += any(w.ident[v] > 1 and degree[v] == 1 for v in gone)
            seen["skipped leaf"] += any(degree[v] == 1 and v not in gone for v in range(len(degree)))
        assert all(count > 10 for count in seen.values()), seen

    def test_fold_order(self, scan_form):
        # the path 0-1-2-3 with reach 1, 2, 3, 4: the FIFO cascade folds 0
        # into 1 and 3 into 2, then 1 into 2, and retires 2
        w = WorkGraph.from_graph(Graph.from_edges(4, [(0, 1), (1, 2), (2, 3)]))
        w.reach[:] = [1, 2, 3, 4]
        out = np.zeros(4)
        gone, reach, retired = kernels.degree1(w, out)
        assert gone.tolist() == [0, 3, 1, 2] and retired == 10
        assert reach.tolist() == [1, 3, 10, 4] and w.reach.tolist() == [1, 2, 3, 4]
        # 0 -> 1: rest 9, 1 gets 1 * 8; 3 -> 2: rest 6, 3 gets 3 * 6 and 2 gets 4 * 5;
        # 1 -> 2: rest 7, 1 gets 2 * 7 and 2 gets 3 * 6
        assert out.tolist() == [0.0, 22.0, 38.0, 18.0]

    def test_credits_past_int32(self, scan_form):
        # a leaf and a center of reach 2^20 each, and one more leaf: the
        # first fold's credits are about 2^40
        r = 2**20
        w = WorkGraph.from_graph(star_graph(2))
        w.reach[:2] = r
        out = np.zeros(3)
        gone, reach, retired = kernels.degree1(w, out)
        assert gone.tolist() == [1, 2, 0] and retired == 2 * r + 1
        assert out[1] == float((r - 1) * (r + 1)) and out[0] == float(r * r + 2 * r - 1)


def _bfs_python(w: WorkGraph, start: int) -> list[list[int]]:
    return kernels.bfs_python(w.offsets.tolist(), w.targets.tolist(), start)


class TestComponents:
    def test_forms_agree(self, compiled_library, monkeypatch):
        sizes = []
        for case, family, w, _ in _work_graphs(59, 180):
            comps = _both_forms(monkeypatch, compiled_library, w.components)
            assert sorted(v for comp in comps for v in comp) == list(range(w.n)), (family, case)
            assert all(comp == sorted(comp) for comp in comps)
            assert [comp[0] for comp in comps] == sorted(comp[0] for comp in comps)
            sizes += [len(comp) for comp in comps]
        assert sizes.count(1) > 50 and max(sizes) > 20

    def test_dead_arcs_split(self, scan_form):
        # the path 0-1-2-3-4 without the edge 1-2 and with 4 deleted: the
        # removed edge splits the path, and 5, alone, becomes 4
        w = WorkGraph.from_graph(Graph.from_edges(6, [(0, 1), (1, 2), (2, 3), (3, 4)]))
        w.remove_edges(np.array([2]), np.array([1]))
        w.delete(4)
        assert w.components() == [[0, 1], [2, 3], [4]]
        flat, ends = kernels.bfs(w.offsets, w.targets, 0)
        assert flat.tolist() == [0, 1, 2, 3, 4] and ends.tolist() == [0, 2, 4, 5]

    @pytest.mark.parametrize("n, edges, deleted, comps", [  # comps in the ids left after the deletions
        (0, [], [], []),
        (3, [(0, 1), (1, 2)], [0, 1, 2], []),  # no vertex left
        (5, [(0, 1), (1, 2), (3, 4)], [0], [[0, 1], [2, 3]]),
        (6, [(0, 5), (1, 5), (2, 4), (3, 4)], [0, 4], [[0, 3], [1], [2]]),
    ])
    def test_edge_cases(self, scan_form, n, edges, deleted, comps):
        w = WorkGraph.from_graph(Graph.from_edges(n, edges))
        w.delete(deleted)
        assert w.components() == comps
        assert [sorted(comp) for comp in _bfs_python(w, 0)] == comps

    def test_bfs_from_a_start_in_a_later_component(self, scan_form):
        # the edge 2-3 removed, 0 deleted and every id above it one lower:
        # from 4 (now 3), then from 1 and from 2 (now 0 and 1)
        w = WorkGraph.from_graph(Graph.from_edges(6, [(0, 1), (1, 5), (2, 3), (3, 4), (4, 5)]))
        w.remove_edges(np.array([2]), np.array([3]))
        w.delete(0)
        order, ends = kernels.bfs(w.offsets, w.targets, 3)
        assert order.tolist() == [3, 2, 4, 0, 1] and ends.tolist() == [0, 4, 5]
        assert _bfs_python(w, 3) == [[3, 2, 4, 0], [1]]

    @pytest.mark.parametrize("case", ["start -1", "start n", "int32 offsets", "no offsets"])
    def test_bfs_refusals(self, scan_form, case):
        # the edge 0-1 and the lone vertex 2; a start of -1 made the compiled
        # form write before its scratch, and a start of n returned [0, 1, 2]
        offsets, targets, start = np.array([0, 1, 2, 2], dtype=np.int64), np.array([1, 0], dtype=np.int32), 0
        if case == "start -1":
            start = -1
        elif case == "start n":
            start = 3
        elif case == "int32 offsets":
            offsets = offsets.astype(np.int32)
        else:
            offsets = np.empty(0, dtype=np.int64)
        with pytest.raises(ValueError):
            kernels.bfs(offsets, targets, start)


def _path_work_graph():
    """The work graph of the path 0-1-2: offsets [0, 1, 3, 4], members one each."""
    return WorkGraph.from_graph(Graph.from_edges(3, [(0, 1), (1, 2)]))


# Each entry point of the work graph's scans and loops, called on w with a
# score accumulator; the last three take it and read the members.
_ENTRY_POINTS = {
    "block_walk": lambda w, out: kernels.block_walk(w),
    "components": lambda w, out: w.components(),
    "side_sweep": lambda w, out: kernels.side_sweep(w, 4, out),
    "twin_sweep": lambda w, out: kernels.twin_sweep(w, False, out),
    "degree1": lambda w, out: kernels.degree1(w, out),
}


class TestRefusals:
    """Both forms refuse a work graph whose arrays the compiled code would
    index out of bounds, or read as another dtype, with ValueError."""

    @pytest.mark.parametrize("entry", list(_ENTRY_POINTS))
    @pytest.mark.parametrize("offsets", [[0, 1000000, 3, 4], [-1000000, 1, 3, 4]])  # falling; not from 0
    def test_rows_that_are_not_a_csr(self, scan_form, entry, offsets):
        w = _path_work_graph()
        w.offsets = np.array(offsets, dtype=np.int64)
        out = np.zeros(3)
        with pytest.raises(ValueError, match="neighbor offsets"):
            _ENTRY_POINTS[entry](w, out)
        assert out.tolist() == [0.0, 0.0, 0.0]

    @pytest.mark.parametrize("entry", ["side_sweep", "twin_sweep", "degree1"])  # the ones that read members
    @pytest.mark.parametrize("offsets", [[0, 5000000, 2, 3], [-5000000, 1, 2, 3]])
    def test_members_that_are_not_a_csr(self, scan_form, entry, offsets):
        w = _path_work_graph()
        w.member_offsets = np.array(offsets, dtype=np.int64)
        out = np.zeros(3)
        with pytest.raises(ValueError, match="member offsets"):
            _ENTRY_POINTS[entry](w, out)
        assert out.tolist() == [0.0, 0.0, 0.0]

    @pytest.mark.parametrize("entry", list(_ENTRY_POINTS))
    @pytest.mark.parametrize("field, dtype", [("targets", np.int64), ("offsets", np.int32), ("ident", np.int32),
                                              ("reach", np.int32), ("internal_edgeless", np.uint8),
                                              ("member_ids", np.int32)])
    def test_arrays_of_another_dtype(self, scan_form, entry, field, dtype):
        w = _path_work_graph()
        setattr(w, field, getattr(w, field).astype(dtype))
        out = np.zeros(3)
        with pytest.raises(ValueError, match=field):
            _ENTRY_POINTS[entry](w, out)
        assert out.tolist() == [0.0, 0.0, 0.0]

    @pytest.mark.parametrize("entry", ["side_sweep", "twin_sweep", "degree1"])
    def test_accumulator_of_another_dtype(self, scan_form, entry):
        w = _path_work_graph()
        w.reach[:] = 2  # so every entry point would add a credit
        out = np.zeros(3, dtype=np.int64)
        with pytest.raises(ValueError, match="out"):
            _ENTRY_POINTS[entry](w, out)
        assert out.tolist() == [0, 0, 0]

    @pytest.mark.parametrize("entry", list(_ENTRY_POINTS))
    def test_strided_arrays(self, scan_form, entry):
        w = _path_work_graph()
        w.targets = np.repeat(w.targets, 2)[::2]  # equal values, not contiguous
        with pytest.raises(ValueError, match="targets"):
            _ENTRY_POINTS[entry](w, np.zeros(3))


def test_compiled_reduction_exports_nothing(compiled_library, monkeypatch):
    # the scans and loops read the work graph's arrays in place: with the
    # library loaded, no pass makes a CSR or rows out of lists, and no
    # Python form runs
    parts = [generate(GraphSpec(family, 400, 0.0, seed)) for family in ("clique-chain", "bridged-blobs",
                                                                         "planted-side", "planted-identical")
             for seed in (1, 2)]
    parts += [Graph.from_edges(5, [(0, 1), (0, 2), (1, 2), (2, 3), (2, 4), (3, 4)])] * 3  # bowties: cut vertices
    edges, n = [], 0
    for part in parts:
        edges += [(u + n, v + n) for u, v in part.edges()]
        n += part.n
    monkeypatch.setattr(kernels, "_compiled", compiled_library)

    def refuse(*args):
        raise AssertionError("a pass exported rows or ran a Python form")

    for owner, name in ((kernels, "export_rows"), (WorkGraph, "rows"), (WorkGraph, "member_lists"),
                        (kernels, "degree1_python"), (kernels, "twin_sweep_python")):
        monkeypatch.setattr(owner, name, refuse)
    _, _, stats = preprocess(Graph.from_edges(n, edges), "odbasi")
    assert {e.technique for e in stats.events if e.changes} == set("dbasi")
