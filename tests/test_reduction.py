"""Reduction passes: worked examples, invariants, and guard behavior."""

from __future__ import annotations

import itertools
import random
from time import perf_counter

import numpy as np
import pytest

from bcshatter import kernels
from bcshatter.engine import compute_scores
from bcshatter.graph import Graph
from bcshatter.oracle import FAMILIES, GraphSpec, bc_brute, generate
from bcshatter.reduction import (
    Combination,
    WorkGraph,
    _blocks_and_cuts,
    _expanded_clique,
    _merge_sweep,
    _side_candidates,
    finalize,
    merge_identical,
    preprocess,
    remove_bridges,
    remove_degree1,
    remove_side_vertices,
    run_pass,
    shatter_articulation,
)

from conftest import complete_bipartite_graph, complete_graph, cycle_graph, path_graph, random_graph, star_graph


def _work(g: Graph):
    return WorkGraph.from_graph(g), np.zeros(g.n)


def _reaches_of(w: WorkGraph, original: int) -> list[int]:
    return sorted(w.reach[v] for v in w.live() if w.members[v][0] == original)


class TestShatter:
    def test_path3_splits_with_far_mass_on_copies(self):
        w, _ = _work(path_graph(3))
        created = shatter_articulation(w)
        assert created == 1
        assert len(w.components()) == 2
        assert _reaches_of(w, 1) == [2, 2]
        assert w.component_mass_sums() == [3, 3]

    def test_clique_untouched(self):
        w, _ = _work(complete_graph(4))
        assert shatter_articulation(w) == 0

    def test_toy_hub_copy_reach(self, toy_social_graph):
        w, _ = _work(toy_social_graph)
        created = shatter_articulation(w)
        assert created == 3  # hub splits 3 ways, leaf neighbor splits once more
        # hub copies: one per part; the copy inside the dense left part
        # represents the other 5 vertices plus the hub itself
        assert _reaches_of(w, 0) == [6, 7, 10]
        assert _reaches_of(w, 1) == [2, 10]
        assert all(s == 11 for s in w.component_mass_sums())

    def test_merged_cut_vertex_is_skipped(self):
        # open twins {0, 1} over {2, 3} and {4, 5}; merging makes the
        # survivor a cut vertex of the work graph, but it is a class bundle:
        # no single original vertex separates the graph, so no shatter.
        g = Graph.from_edges(
            6, [(0, 2), (0, 3), (0, 4), (0, 5), (1, 2), (1, 3), (1, 4), (1, 5), (2, 3), (4, 5)]
        )
        w, out = _work(g)
        # {0,1} merge as open twins; {2,3} and {4,5} as closed twins
        assert merge_identical(w, out) == 3
        assert sorted(w.ident[v] for v in w.live()) == [2, 2, 2]
        assert shatter_articulation(w) == 0
        for combo in ("oi", "oia", "odbasi"):
            assert np.allclose(compute_scores(g, combo).scores, bc_brute(g), atol=1e-9)


def _glued_blocks(rng: random.Random, pieces: int) -> Graph:
    """Edges, cycles and cliques glued at random existing vertices, plus an
    occasional chord that fuses some of them."""
    edges: set[tuple[int, int]] = set()
    n = 1
    for _ in range(pieces):
        a = rng.randrange(n)
        size = rng.choice((2, 2, 3, 4, 5))
        verts = [a] + list(range(n, n + size - 1))
        n += size - 1
        if rng.random() < 0.5:
            pairs = itertools.combinations(verts, 2)
        else:
            pairs = zip(verts, verts[1:] + verts[:1])
        edges.update((min(p), max(p)) for p in pairs if p[0] != p[1])
    if rng.random() < 0.3:
        u, v = rng.sample(range(n), 2)
        edges.add((min(u, v), max(u, v)))
    return Graph.from_edges(n, sorted(edges))


def _other(verts: list[int], x: int) -> int:
    return verts[1] if verts[0] == x else verts[0]


def _piece(w: WorkGraph, removed: int, start: int) -> tuple[set[int], int]:
    """Vertices and mass of the piece of the graph minus ``removed`` that
    holds ``start``."""
    seen = {start}
    stack = [start]
    total = 0
    while stack:
        x = stack.pop()
        total += w.mass(x)
        for y in w.adj[x]:
            if y != removed and y not in seen:
                seen.add(y)
                stack.append(y)
    return seen, total


def _random_attributes(rng: random.Random, w: WorkGraph) -> None:
    n = len(w.adj)
    w.reach = [rng.randint(1, 4) for _ in range(n)]
    w.ident = [rng.choice((1, 1, 2, 3)) for _ in range(n)]


def _is_bridge(w: WorkGraph, u: int, x: int) -> bool:
    """Does every path between u and x use the edge u-x?"""
    seen = {u}
    stack = [u]
    while stack:
        y = stack.pop()
        for z in w.adj[y]:
            if z not in seen and (y, z) != (u, x):
                seen.add(z)
                stack.append(z)
    return x not in seen


def _induced_edges(w: WorkGraph, blocks: list[list[int]]) -> list[tuple[int, int]]:
    """The edges each block's vertices induce, over all blocks, sorted."""
    edges = []
    for block in blocks:
        inside = set(block)
        edges += [(u, x) for u in block for x in w.adj[u] if u < x and x in inside]
    return sorted(edges)


class TestBlockMasses:
    def test_far_matches_brute_force(self):
        rng = random.Random(7)
        seen_multi_block_cut = seen_merged_cut = seen_cut_bridge = seen_merged_root = 0
        for _ in range(120):
            g = _glued_blocks(rng, rng.randint(1, 12))
            w = WorkGraph.from_graph(g)
            _random_attributes(rng, w)
            comp = list(range(g.n))
            ((blocks, cuts, far, total),) = _blocks_and_cuts(w)
            assert total == sum(w.mass(v) for v in comp)
            # x is a cut vertex iff the piece of comp - x around some other
            # vertex misses part of the rest; a merged class never cuts
            true_cuts = {x for x in comp if _piece(w, x, _other(comp, x))[1] < total - w.mass(x)}
            assert cuts == {x for x in true_cuts if w.ident[x] == 1}
            # the blocks' induced edges cover every edge exactly once, also
            # where merged classes glue blocks together
            assert _induced_edges(w, blocks) == g.edges()
            # a block of two vertices is exactly a bridge between unmerged
            # vertices; a bridge at a merged class joins a larger block
            pairs = {tuple(sorted(block)) for block in blocks if len(block) == 2}
            unmerged_bridges = {
                (u, x) for u, x in g.edges() if w.ident[u] == w.ident[x] == 1 and _is_bridge(w, u, x)
            }
            assert {(u, x) for u, x in pairs if w.ident[u] == w.ident[x] == 1} == unmerged_bridges
            assert all(x in w.adj[u] and _is_bridge(w, u, x) for u, x in pairs)
            seen_cut_bridge += any(set(pair) <= cuts for pair in pairs)
            expected = {}
            blocks_of: dict[int, int] = {}
            for k, block in enumerate(blocks):
                assert len(set(block)) == len(block) >= 2
                for x in block:
                    blocks_of[x] = blocks_of.get(x, 0) + 1
                    if w.ident[x] != 1:
                        continue
                    piece, mass = _piece(w, x, _other(block, x))
                    assert set(block) - {x} <= piece, (x, k)
                    expected[(x, k)] = mass
                    assert far(x, k) == mass, (x, k)
            assert {x for x, count in blocks_of.items() if count > 1} == cuts
            seen_multi_block_cut += any(c >= 3 for c in blocks_of.values())
            seen_merged_cut += any(w.ident[c] > 1 for c in true_cuts)
            # the DFS starts at vertex 0; it has two or more DFS children
            # exactly when it is a cut vertex
            seen_merged_root += w.ident[0] > 1 and 0 in true_cuts
            # far reads the masses the DFS captured, not the current reach
            w.reach = [r + 5 for r in w.reach]
            assert all(far(x, k) == m for (x, k), m in expected.items())
        assert seen_multi_block_cut and seen_merged_cut and seen_cut_bridge and seen_merged_root

    def test_walk_visits_every_component_once(self):
        rng = random.Random(11)
        first = _glued_blocks(rng, 8)
        second = _glued_blocks(rng, 8)
        # ids: dead 0, first component, dead gap of 2, second component,
        # one isolated vertex, dead last
        a = 1
        b = a + first.n + 2
        n = b + second.n + 2
        edges = [(a + u, a + v) for u, v in first.edges()] + [(b + u, b + v) for u, v in second.edges()]
        dead = [0, b - 2, b - 1, n - 1]
        edges += [(0, a), (b - 2, b - 1), (b - 1, b), (a + 1, n - 1)]
        w = WorkGraph.from_graph(Graph.from_edges(n, sorted((min(e), max(e)) for e in edges)))
        _random_attributes(rng, w)
        for x in dead:
            w.delete(x)
        comps = w.components()
        assert [c[0] for c in comps] == [a, b, n - 2]
        walk = list(_blocks_and_cuts(w))
        assert len(walk) == len(comps)
        assert [total for _, _, _, total in walk] == w.component_mass_sums()
        for comp, (blocks, cuts, _, _) in zip(comps, walk):
            assert {x for block in blocks for x in block} == (set(comp) if len(comp) > 1 else set())
            assert _induced_edges(w, blocks) == sorted((u, x) for u in comp for x in w.adj[u] if u < x)
            assert cuts <= set(comp)
        assert walk[-1][:2] == ([], set())

        mass_of_org = {w.members[v][0]: total for comp, total in zip(comps, w.component_mass_sums()) for v in comp}
        assert shatter_articulation(w) > 0
        for comp, total in zip(w.components(), w.component_mass_sums()):
            assert {mass_of_org[w.members[v][0]] for v in comp} == {total}


def _block_masses(w: WorkGraph) -> dict[frozenset[int], tuple[int, dict[int, int]]]:
    """Every block's vertex set, keyed to its component's mass and the far
    values of its unmerged vertices."""
    return {
        frozenset(block): (total, {x: far(x, k) for x in block if w.ident[x] == 1})
        for blocks, _, far, total in _blocks_and_cuts(w)
        for k, block in enumerate(blocks)
    }


class TestBridgesKeepBlocks:
    def test_non_bridge_blocks_keep_vertices_and_masses(self):
        """Removing the bridges leaves every other block as ``a`` would read
        it: same vertices, same component mass, same far values."""
        rng = random.Random(3)
        removed = merged = 0
        for case in range(60):
            spec = GraphSpec(FAMILIES[case % len(FAMILIES)], rng.randint(8, 60), 0.0, rng.randrange(10**6))
            g = generate(spec)
            w, out = _work(g)
            if case % 2:
                merged += merge_identical(w, out)
            w.reach = [rng.randint(1, 4) for _ in w.reach]
            before = _block_masses(w)
            bridges = {
                block for block in before if len(block) == 2 and all(w.ident[x] == 1 for x in block)
            }
            assert remove_bridges(w, out) == len(bridges)
            removed += len(bridges)
            assert _block_masses(w) == {block: v for block, v in before.items() if block not in bridges}
        assert removed and merged


class TestLetterOrderFuzz:
    def test_letter_orders_match_brute(self):
        """Seeded, time-boxed fuzz over every order of every non-empty subset
        of the reduction letters, so splits see merged classes and merges
        see split ones."""
        rng = random.Random(20261018)
        families = ("gnp", "planted-identical", "bridged-blobs", "planted-side", "clique-chain", "random-tree")
        deadline = perf_counter() + 4.0
        cases = merged_then_split = without_i = i_after_splits = 0
        while cases < 1000 and perf_counter() < deadline:
            letters = [ch for ch in "dbasi" if rng.random() < 0.5] or [rng.choice("dbasi")]
            rng.shuffle(letters)
            combo = ("o" if rng.random() < 0.5 else "") + "".join(letters)
            if "i" not in letters:
                without_i += 1
            elif {"a", "b"} & set(letters) and all(letters.index("i") > letters.index(ch) for ch in "ab" if ch in letters):
                i_after_splits += 1
            if rng.random() < 0.3:
                g = _glued_blocks(rng, rng.randint(2, 10))
            else:
                family = rng.choice(families)
                p = rng.uniform(0.1, 0.4) if family == "gnp" else 0.0  # 0.0: the family default
                g = generate(GraphSpec(family, rng.randint(6, 28), p, rng.randrange(10**6)))
            cap = rng.choice((1, 2, 4, 50))
            result = compute_scores(g, combo, max_side_degree=cap, order_seed=rng.randrange(10**6))
            expected = bc_brute(g)
            assert np.allclose(result.scores, expected, rtol=1e-9, atol=1e-9), (combo, cap, g.n, g.m)
            merged = False
            for e in result.stats.events:
                if e.technique == "i" and e.changes:
                    merged = True
                elif merged and e.technique in "ab" and e.changes:
                    merged_then_split += 1
                    break
            cases += 1
        assert cases >= 20
        assert merged_then_split > 0
        assert without_i > 0 and i_after_splits > 0


class TestBridges:
    def test_single_edge(self):
        w, out = _work(Graph.from_edges(2, [(0, 1)]))
        assert remove_bridges(w, out) == 1
        assert out.tolist() == [0.0, 0.0]
        assert w.reach == [2, 2]
        assert w.live_edge_count == 0

    def test_barbell(self):
        g = Graph.from_edges(6, [(0, 1), (0, 2), (1, 2), (2, 3), (3, 4), (3, 5), (4, 5)])
        w, out = _work(g)
        assert remove_bridges(w, out) == 1
        assert out[2] == 6.0 and out[3] == 6.0
        assert w.reach[2] == 4 and w.reach[3] == 4
        assert w.component_mass_sums() == [6, 6]

    def test_bridgeless_cycle(self):
        w, out = _work(cycle_graph(4))
        assert remove_bridges(w, out) == 0

    @pytest.mark.parametrize(
        "g",
        [
            # open twins {0, 1} over {2, 3}, edge 2-3: one edge between two
            # merged vertices, left as the last block under a merged root
            Graph.from_edges(4, [(0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]),
            # open twins {0, 1} over {2, 3, 4}, edge 2-3: a path whose merged
            # root has two DFS children
            Graph.from_edges(5, [(0, 2), (0, 3), (0, 4), (1, 2), (1, 3), (1, 4), (2, 3)]),
            # open twins {0, 1} over {2}: a pendant edge under a merged root
            Graph.from_edges(3, [(0, 2), (1, 2)]),
            # open twins {1, 2} over {0}: a merged pendant under an unmerged root
            Graph.from_edges(3, [(0, 1), (0, 2)]),
        ],
        ids=["merged-edge", "merged-root-path", "merged-root-pendant", "merged-pendant"],
    )
    def test_no_bridge_or_cut_at_merged_vertices(self, g):
        w, out = _work(g)
        assert merge_identical(w, out) > 0
        assert w.live_edge_count > 0
        assert remove_bridges(w, out) == 0
        assert shatter_articulation(w) == 0
        expected = bc_brute(g)
        for combo in ("oib", "oiab", "oiabd"):
            assert np.allclose(compute_scores(g, combo).scores, expected, atol=1e-9), combo

    def test_tree_of_bridges_matches_oracle(self):
        g = random_graph(1, 0, 0)  # placeholder, replaced below
        from bcshatter.oracle import GraphSpec, generate

        g = generate(GraphSpec("random-tree", 30, seed=3))
        assert np.allclose(compute_scores(g, "ob").scores, bc_brute(g), atol=1e-9)


class TestDegree1:
    def test_path3_cascade(self):
        w, out = _work(path_graph(3))
        changes = remove_degree1(w, out)
        assert changes == 3  # two folds plus the final lone-vertex retirement
        assert out.tolist() == [0.0, 2.0, 0.0]
        assert w.live_vertex_count() == 0
        assert w.retired_mass == 3

    def test_isolated_edge(self):
        w, out = _work(Graph.from_edges(2, [(0, 1)]))
        remove_degree1(w, out)
        assert out.tolist() == [0.0, 0.0]
        assert w.retired_mass == 2

    def test_star_center_collects_all(self):
        w, out = _work(star_graph(4))
        remove_degree1(w, out)
        assert out[0] == 12.0  # equals the 4*3 ordered leaf pairs
        assert all(out[v] == 0.0 for v in range(1, 5))

    def test_skips_leaf_hanging_off_merged_class(self):
        # triangle pair merged via closed twins, then a pendant: the pendant
        # is not a true leaf of the unmerged graph (it has two neighbors)
        g = Graph.from_edges(4, [(0, 1), (0, 2), (1, 2), (0, 3), (1, 3)])
        w, out = _work(g)
        merge_identical(w, out)  # {0,1} closed twins
        assert any(w.adj[v] is not None and w.ident[v] == 2 for v in range(len(w.adj)))
        before = w.live_vertex_count()
        remove_degree1(w, out)
        assert w.live_vertex_count() == before
        assert np.allclose(compute_scores(g, "oid").scores, bc_brute(g), atol=1e-9)

    def test_components_fold_independently(self):
        # Each component folds against its own mass: the pass on a disjoint
        # union must leave every piece as the pass on that piece alone does.
        rng = random.Random(5)
        for _ in range(40):
            pieces = []
            for _ in range(rng.randint(2, 4)):
                n = rng.randint(1, 12)
                edges = [(rng.randrange(v), v) for v in range(1, n)]
                if n >= 3 and rng.random() < 0.5:
                    u, v = sorted(rng.sample(range(n), 2))
                    if (u, v) not in edges:  # tree edges run (parent, child), parent < child
                        edges.append((u, v))
                pieces.append((n, edges, [rng.randint(1, 4) for _ in range(n)]))
            union_edges, union_reach, offsets = [], [], []
            for n, edges, reach in pieces:
                offsets.append(len(union_reach))
                union_edges += [(offsets[-1] + u, offsets[-1] + v) for u, v in edges]
                union_reach += reach
            w, out = _work(Graph.from_edges(len(union_reach), union_edges))
            w.reach = union_reach
            changes = remove_degree1(w, out)
            alone_changes = alone_retired = 0
            for (n, edges, reach), base in zip(pieces, offsets):
                wp, outp = _work(Graph.from_edges(n, edges))
                wp.reach = reach
                alone_changes += remove_degree1(wp, outp)
                alone_retired += wp.retired_mass
                for v in range(n):
                    assert out[base + v] == outp[v]
                    assert w.reach[base + v] == wp.reach[v]
                    assert (w.adj[base + v] is not None) == (wp.adj[v] is not None)
            assert changes == alone_changes
            assert w.retired_mass == alone_retired


class TestSideVertices:
    def test_triangle_with_pendant_path(self):
        g = Graph.from_edges(5, [(0, 1), (0, 2), (1, 2), (2, 3), (3, 4)])
        assert np.allclose(compute_scores(g, "os").scores, bc_brute(g), atol=1e-9)

    def test_clique_dissolves_to_zero(self):
        g = complete_graph(4)
        result = compute_scores(g, "os")
        assert result.scores.tolist() == [0.0] * 4
        assert result.remaining_edges == 0

    def test_degree_cap_respected(self):
        g = complete_graph(6)  # all degrees 5 > cap 4
        w, out = _work(g)
        assert remove_side_vertices(w, out, max_degree=4) == 0
        assert remove_side_vertices(w, out, max_degree=5) > 0

    def test_removal_enables_later_sweeps(self, toy_social_graph):
        # leaves and simplicial vertices come off over several iterations
        result = compute_scores(toy_social_graph, "ods")
        assert np.allclose(result.scores, bc_brute(toy_social_graph), atol=1e-9)
        assert result.stats.iterations >= 2

    def test_expanded_clique_matches_unfolded_graph(self):
        # Brute force: unfold every class into ident copies, pairwise adjacent
        # only when the class is closed, and test one copy's neighborhood.  A
        # mixed class (neither flag) counts as not a clique.
        rng = random.Random(13)
        outcomes = set()
        for seed in range(400):
            g = random_graph(rng.randint(2, 7), rng.choice((0.5, 0.8, 1.0)), seed)
            w = WorkGraph.from_graph(g)
            w.ident = [rng.randint(1, 3) for _ in range(g.n)]
            for v in range(g.n):
                if w.ident[v] > 1:
                    shape = rng.choice(("open", "closed", "mixed"))
                    w.internal_edgeless[v] = shape == "open"
                    w.internal_clique[v] = shape == "closed"
            copies = [(x, i) for x in range(g.n) for i in range(w.ident[x])]

            def adjacent(a, b):
                if a[0] != b[0]:
                    return b[0] in w.adj[a[0]]
                return a != b and w.internal_clique[a[0]]

            for v in range(g.n):
                mixed = not (w.internal_edgeless[v] or w.internal_clique[v])
                nbhd = [c for c in copies if adjacent((v, 0), c)]
                expected = not mixed and all(adjacent(a, b) for a, b in itertools.combinations(nbhd, 2))
                assert _expanded_clique(w, v) == expected, (seed, v)
                outcomes.add((expected, mixed, len(w.adj[v]) > 1))
        assert (True, False, True) in outcomes and (False, True, True) in outcomes


def _attributed_work(g: Graph, seed: int):
    """A work graph of g with random reach, merged classes of every shape
    (open, closed, mixed), members shared between vertices, a few deleted
    vertices, and a random partial score vector over twice g's ids.  The
    same seed gives the same sets with the same iteration order."""
    rng = random.Random(seed)
    w = WorkGraph.from_graph(g)
    slots = 2 * g.n
    for v in range(g.n):
        w.reach[v] = rng.randint(1, 5)
        if rng.random() < 0.3:
            w.ident[v] = rng.randint(2, 3)
            shape = rng.choice(("open", "closed", "mixed"))
            w.internal_edgeless[v] = shape == "open"
            w.internal_clique[v] = shape == "closed"
            w.members[v] += [rng.randrange(slots) for _ in range(w.ident[v] - 1)]
        elif rng.random() < 0.2:
            w.members[v].append(rng.randrange(slots))  # a copy's original
    for v in rng.sample(range(g.n), g.n // 10):
        w.delete(v)
    out = np.array([rng.uniform(0.0, 100.0) for _ in range(slots)])
    return w, out


def _side_inputs(w: WorkGraph):
    """What a side sweep must leave as it found it: the rows in their
    iteration order, the member lists and the attributes."""
    return [a if a is None else list(a) for a in w.adj], [list(m) for m in w.members], list(w.reach), list(w.ident)


@pytest.fixture
def compiled_library():
    lib = kernels._kernel()
    if lib is None:
        pytest.skip("the compiled library could not be built or loaded here")
    return lib


@pytest.mark.usefixtures("compiled_library")
class TestSideSweep:
    """The compiled sweep against ``kernels.side_sweep_python``, its
    reference.  The compiled runs visit vertices and add to the scores in
    the reference's order, so everything is compared with ``==``."""

    def test_sweep_matches_python_loop(self, compiled_library, monkeypatch):
        rng = random.Random(29)
        removed = skipped = 0
        for case in range(180):
            family = FAMILIES[case % len(FAMILIES)]
            g = generate(GraphSpec(family, rng.randint(8, 60), 0.0, rng.randrange(10**6)))
            seed = rng.randrange(10**6)
            cap = case % 6 + 1
            w, out = _attributed_work(g, seed)
            ref, ref_out = _attributed_work(g, seed)
            candidates = _side_candidates(ref, cap)
            monkeypatch.setattr(kernels, "_compiled", compiled_library)
            changes = remove_side_vertices(w, out, cap)
            monkeypatch.setattr(kernels, "_compiled", None)
            assert changes == remove_side_vertices(ref, ref_out, cap), (family, case)
            assert out.tobytes() == ref_out.tobytes(), (family, case)
            assert w.retired_mass == ref.retired_mass
            assert w.live_edge_count == ref.live_edge_count
            assert [a if a is None else list(a) for a in w.adj] == [a if a is None else list(a) for a in ref.adj]
            removed += changes
            skipped += len(candidates) - changes
        assert removed > 300 and skipped > 0

    def test_forms_agree_and_leave_inputs_alone(self, compiled_library, monkeypatch):
        # both forms of kernels.side_sweep on work-graph-shaped inputs: sets
        # in their own iteration order, None rows, merged and shared members,
        # and candidates that are dead, repeated or not simplicial
        rng = random.Random(37)

        def corpus():
            for case in range(120):
                family = FAMILIES[case % len(FAMILIES)]
                yield case, family, generate(GraphSpec(family, rng.randint(8, 60), 0.0, rng.randrange(10**6)))
            # runs from either side fill the far side's predecessor buckets
            yield 120, "bipartite-6x9", complete_bipartite_graph(6, 9)

        removed = arcs = 0
        for case, family, g in corpus():
            w, out = _attributed_work(g, rng.randrange(10**6))
            candidates = _side_candidates(w, case % 6 + 1) + rng.choices(range(len(w.adj)), k=5)
            rng.shuffle(candidates)
            inputs = _side_inputs(w)
            results = []
            for lib in (compiled_library, None):
                monkeypatch.setattr(kernels, "_compiled", lib)
                got = out.copy()
                results.append((kernels.side_sweep(w.adj, w.members, w.reach, w.ident, candidates, got), got.tobytes()))
                assert _side_inputs(w) == inputs, (family, case, lib)
            assert results[0] == results[1], (family, case)
            removed += len(results[0][0][0])
            arcs += results[0][0][1]
        assert removed > 300 and arcs > removed

    def test_pass_events_match_python_loop(self, monkeypatch):
        rng = random.Random(31)
        cases = []
        for case in range(120):
            family = FAMILIES[case % len(FAMILIES)]
            g = generate(GraphSpec(family, rng.randint(20, 120), 0.0, rng.randrange(10**6)))
            letters = [ch for ch in "dbai" if rng.random() < 0.5] + ["s"]
            rng.shuffle(letters)
            combo = ("o" if rng.random() < 0.5 else "") + "".join(letters)
            cases.append((g, combo, case % 6 + 1, rng.randrange(10**6)))
        compiled = [compute_scores(g, combo, max_side_degree=cap, order_seed=seed) for g, combo, cap, seed in cases]
        monkeypatch.setattr(kernels, "side_sweep", kernels.side_sweep_python)
        for (g, combo, cap, seed), got in zip(cases, compiled):
            expected = compute_scores(g, combo, max_side_degree=cap, order_seed=seed)
            assert got.scores.tobytes() == expected.scores.tobytes(), (combo, cap)
            assert got.stats.events == expected.stats.events, (combo, cap)
            assert got.stats.iterations == expected.stats.iterations
        assert sum(e.changes for r in compiled for e in r.stats.events if e.technique == "s") > 500


class TestMergeIdentical:
    def test_sweep_groups_by_neighborhood(self):
        # One sweep merges exactly the vertices with a non-empty neighborhood
        # and equal (open or closed neighborhood, reach, score) at sweep start.
        rng = random.Random(17)
        merged = {False: 0, True: 0}
        for _ in range(80):
            n, p = rng.randint(8, 40), rng.choice((0.1, 0.5, 0.9))
            g = generate(GraphSpec("planted-identical", n, p, rng.randrange(1000)))
            for closed in (False, True):
                w, out = _work(g)
                w.reach = [rng.randint(1, 2) for _ in range(g.n)]
                out[:] = [rng.randint(0, 1) for _ in range(g.n)]
                classes: list[tuple[set[int], int, float, list[int]]] = []
                singles = []
                for v in range(g.n):
                    nbhd = w.adj[v] | {v} if closed else set(w.adj[v])
                    if not w.adj[v]:
                        singles.append([v])
                        continue
                    for sig, reach, score, verts in classes:
                        if sig == nbhd and reach == w.reach[v] and score == out[v]:
                            verts.append(v)
                            break
                    else:
                        classes.append((nbhd, w.reach[v], out[v], [v]))
                expected = sorted(singles + [verts for *_, verts in classes])
                changes = _merge_sweep(w, out, closed)
                assert changes == sum(len(verts) - 1 for *_, verts in classes)
                assert sorted(sorted(w.members[v]) for v in w.live()) == expected
                assert all(w.ident[v] == len(w.members[v]) for v in w.live())
                merged[closed] += changes
        assert merged[False] > 50 and merged[True] > 10

    def test_cycle4_open_twins(self):
        w, out = _work(cycle_graph(4))
        # the two antipodal pairs fold first; the two class vertices are then
        # closed twins of each other and fold once more
        assert merge_identical(w, out) == 3
        live = sorted(w.live())
        assert len(live) == 1
        assert w.ident[live[0]] == 4
        # each vertex is owed its two distance-2 pairs, settled at merge time
        assert out.tolist() == [1.0, 1.0, 1.0, 1.0]

    def test_triangle_closed_twins_collapse(self):
        w, out = _work(complete_graph(3))
        assert merge_identical(w, out) == 2
        live = sorted(w.live())
        assert len(live) == 1
        assert w.ident[live[0]] == 3

    def test_unequal_reach_never_merges(self):
        w, out = _work(star_graph(3))
        w.reach[1] = 5  # pretend one leaf carries folded mass
        assert merge_identical(w, out) == 1  # only the other two leaves merge
        assert any(w.adj[v] is not None and w.reach[v] == 5 and w.ident[v] == 1 for v in range(len(w.adj)))
        # the merged pair's distance-2 paths land on the shared center
        assert out[0] == 2.0

    def test_unequal_partials_never_merge(self):
        # two reach-3 twins over the same core with different histories: one
        # folded a 2-leaf star (its own within-mass pairs), one a path; their
        # true scores differ, so they must not be merged.
        core = [(0, 1), (0, 2), (1, 2)]
        g = Graph.from_edges(
            9,
            core
            + [(3, 0), (3, 1), (4, 0), (4, 1)]  # twin hubs over {0, 1}
            + [(5, 3), (6, 3)]  # two leaves on hub 3
            + [(7, 4), (8, 7)],  # pendant path on hub 4
        )
        expected = bc_brute(g)
        assert expected[3] != expected[4]
        for combo in ("odi", "odbasi"):
            result = compute_scores(g, combo)
            assert np.allclose(result.scores, expected, atol=1e-9)

    def test_equal_history_twins_share_scores(self):
        g = Graph.from_edges(
            8,
            [(0, 1), (0, 2), (1, 2), (3, 0), (3, 1), (4, 0), (4, 1), (5, 3), (6, 4), (7, 0)],
        )
        result = compute_scores(g, "odbasi")
        expected = bc_brute(g)
        assert np.allclose(result.scores, expected, atol=1e-9)
        assert result.scores[3] == result.scores[4]


class TestPreprocess:
    def test_path3_degree_only_empties(self):
        w, partial, stats = preprocess(path_graph(3), Combination.parse("od"))
        assert w.live_vertex_count() == 0
        assert partial.tolist() == [0.0, 2.0, 0.0]

    def test_clique_fixed_point(self):
        w, partial, stats = preprocess(complete_graph(4), Combination.parse("odba"))
        assert w.live_vertex_count() == 4
        assert w.live_edge_count == 6
        assert partial.tolist() == [0.0] * 4

    def test_ordering_only_is_identity_workgraph(self):
        g = random_graph(10, 0.3, seed=2)
        w, partial, stats = preprocess(g, Combination.parse("o"))
        assert w.live_vertex_count() == g.n
        assert w.live_edge_count == g.m
        assert stats.iterations == 0

    def test_pass_idempotence_at_fixed_point(self):
        for seed in range(6):
            g = random_graph(14, 0.25, seed)
            w, out, _ = preprocess(g, Combination.parse("odbasi"))
            for letter in "dbasi":
                assert run_pass(w, letter, out) == 0

    def test_edges_never_increase(self):
        graphs = [random_graph(16, 0.25, seed) for seed in range(4)]
        # cuts and merged classes: cliques glued at vertices, blobs joined by bridges
        for family in ("clique-chain", "bridged-blobs"):
            graphs += [generate(GraphSpec(family, 40, 0.0, seed)) for seed in range(3)]
        for g in graphs:
            # "i" first as well, so that later splits meet merged classes
            for letters in ("dbasi", "iabds"):
                w = WorkGraph.from_graph(g)
                out = np.zeros(g.n)
                for _ in range(4):
                    for letter in letters:
                        before = w.live_edge_count
                        run_pass(w, letter, out)
                        assert w.live_edge_count <= before
                        # the edge count matches the sets, and every edge is in both
                        live = list(w.live())
                        assert w.live_edge_count * 2 == sum(len(w.adj[v]) for v in live)
                        assert all(v in w.adj[x] for v in live for x in w.adj[v])

    def test_mass_conservation_under_shattering_passes(self):
        # with only folds and splits enabled, every component must keep a
        # full census of the original vertices
        for seed in range(6):
            g = random_graph(15, 0.22, seed)
            from bcshatter.graph import connected_components

            if connected_components(g).max() != 0:
                continue
            w = WorkGraph.from_graph(g)
            out = np.zeros(g.n)
            for _ in range(3):
                for letter in "dba":
                    run_pass(w, letter, out)
                    for total in w.component_mass_sums():
                        assert total == g.n

    def test_mass_accounting_with_all_passes(self):
        for seed in range(6):
            g = random_graph(15, 0.3, seed)
            w = WorkGraph.from_graph(g)
            out = np.zeros(g.n)
            for _ in range(3):
                for letter in "dbasi":
                    run_pass(w, letter, out)
                    live = sum(w.mass(v) for v in w.live())
                    assert live + w.retired_mass == g.n

    def test_stats_csv_shape(self):
        g = path_graph(6)
        _, _, stats = preprocess(g, Combination.parse("od"))
        rows = stats.csv_rows()
        assert rows[0][0] == "pass"
        assert rows[-1][0] == "final"


class TestFinalize:
    def test_without_reductions_is_kernel_distribution(self):
        g = cycle_graph(5)
        w, partial, _ = preprocess(g, Combination.parse("o"))
        kernel_acc = {v: float(v) for v in range(5)}
        final = finalize(w, partial, kernel_acc)
        assert final.tolist() == [0.0, 1.0, 2.0, 3.0, 4.0]

    def test_toy_graph_full_pipeline(self, toy_social_graph):
        expected = bc_brute(toy_social_graph)
        for combo in ("o", "od", "odb", "odba", "odbas", "odbai", "odbasi"):
            got = compute_scores(toy_social_graph, combo).scores
            assert np.allclose(got, expected, atol=1e-9), combo

    def test_cycle4_identical_route(self):
        assert np.allclose(compute_scores(cycle_graph(4), "oi").scores, [1, 1, 1, 1], atol=1e-12)


class TestCombination:
    def test_parse_rejects_unknown_letters(self):
        with pytest.raises(ValueError):
            Combination.parse("odx")

    def test_parse_rejects_duplicates(self):
        with pytest.raises(ValueError):
            Combination.parse("odd")

    def test_order_preserved(self):
        assert Combination.parse("sabdo").reduction_passes() == "sabd"

    def test_empty_is_allowed(self):
        combo = Combination.parse("")
        assert not combo.uses_ordering
        assert combo.reduction_passes() == ""
