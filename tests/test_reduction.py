"""Reduction passes: worked examples, invariants, and guard behavior."""

from __future__ import annotations

import copy
import dataclasses
import itertools
import random
from collections import Counter
from time import perf_counter

import numpy as np
import pytest

from bcshatter import kernels, reduction
from bcshatter.engine import compute_scores
from bcshatter.graph import Graph
from bcshatter.oracle import FAMILIES, GraphSpec, bc_brute, generate
from bcshatter.reduction import (
    PIECE_LIMIT,
    Combination,
    WorkGraph,
    _merge_sweep,
    finalize,
    merge_identical,
    preprocess,
    remove_bridges,
    remove_degree1,
    remove_side_vertices,
    run_pass,
    shatter_articulation,
)

from conftest import (
    complete_bipartite_graph,
    complete_graph,
    component_lists,
    component_mass_sums,
    cycle_graph,
    path_graph,
    per_component,
    random_graph,
    star_graph,
)


def _work(g: Graph):
    return WorkGraph.from_graph(g), np.zeros(g.n)


def _reaches_of(w: WorkGraph, original: int) -> list[int]:
    members = w.member_lists()
    return sorted(int(w.reach[v]) for v in range(w.n) if members[v][0] == original)


def _mass(w: WorkGraph, v: int) -> int:
    return int(w.ident[v] * w.reach[v])


def _reach_by_original(w: WorkGraph) -> dict[int, int]:
    """The reach of every vertex, keyed by the original vertex it started as."""
    return {members[0]: r for members, r in zip(w.member_lists(), w.reach.tolist())}


def _assert_work_graph(w: WorkGraph, n: int | None = None, split: bool = False) -> None:
    """The work graph's bookkeeping: its rows are a plain CSR over its
    vertices, every arc naming a vertex, they are symmetric, and their arcs
    are twice its edges, none a self-loop.  Given the input's n: remaining
    plus retired mass is n until a split (a bridge or cut removed), which
    gives each side the mass of the whole; after one, no component carries
    more than n."""
    kernels._check_csr(w.offsets, w.targets, w.n, 0, w.n, "neighbor")
    u = np.repeat(np.arange(w.n, dtype=np.int64), np.diff(w.offsets))
    v = w.targets.astype(np.int64)
    assert np.array_equal(np.sort(u * w.n + v), np.sort(v * w.n + u))
    assert len(w.targets) == 2 * w.m == 2 * np.count_nonzero(u < v)
    if n is not None and split:
        assert max(component_mass_sums(w), default=0) <= n
    elif n is not None:
        assert int((w.ident * w.reach).sum()) + w.retired_mass == n


class TestShatter:
    def test_path3_splits_with_far_mass_on_copies(self):
        w, _ = _work(path_graph(3))
        created = shatter_articulation(w)
        assert created == 1
        assert len(component_lists(w)) == 2
        assert _reaches_of(w, 1) == [2, 2]
        assert component_mass_sums(w) == [3, 3]

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
        assert all(s == 11 for s in component_mass_sums(w))

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
        assert sorted(w.ident.tolist()) == [2, 2, 2]
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
    adj = w.rows()
    seen = {start}
    stack = [start]
    total = 0
    while stack:
        x = stack.pop()
        total += _mass(w, x)
        for y in adj[x]:
            if y != removed and y not in seen:
                seen.add(y)
                stack.append(y)
    return seen, total


def _random_attributes(rng: random.Random, w: WorkGraph) -> None:
    n = w.n
    w.reach[:] = [rng.randint(1, 4) for _ in range(n)]
    w.ident[:] = [rng.choice((1, 1, 2, 3)) for _ in range(n)]


def _is_bridge(w: WorkGraph, u: int, x: int) -> bool:
    """Does every path between u and x use the edge u-x?"""
    adj = w.rows()
    seen = {u}
    stack = [u]
    while stack:
        y = stack.pop()
        for z in adj[y]:
            if z not in seen and (y, z) != (u, x):
                seen.add(z)
                stack.append(z)
    return x not in seen


def _far(w: WorkGraph, x: int, block: list[int]) -> int:
    """Mass of the pieces of the graph minus ``x`` that hold the block's
    other vertices: one piece for an unmerged x."""
    pieces: set[int] = set()
    for y in block:
        if y != x and y not in pieces:
            pieces |= _piece(w, x, y)[0]
    return sum(_mass(w, y) for y in pieces)


def _induced_edges(w: WorkGraph, blocks: list[list[int]]) -> list[tuple[int, int]]:
    """The edges each block's vertices induce, over all blocks, sorted."""
    adj = w.rows()
    edges = []
    for block in blocks:
        inside = set(block)
        edges += [(u, x) for u in block for x in adj[u] if u < x and x in inside]
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
            ((blocks, below, total),) = per_component(kernels.block_walk(w))
            assert total == sum(_mass(w, v) for v in comp)
            assert len(below) == len(blocks)
            # the cut vertices are the vertices in two or more blocks
            blocks_of = Counter(x for block in blocks for x in block)
            cuts = {x for x, count in blocks_of.items() if count > 1}
            # x is a cut vertex iff the piece of comp - x around some other
            # vertex misses part of the rest; a merged class never cuts
            true_cuts = {x for x in comp if _piece(w, x, _other(comp, x))[1] < total - _mass(w, x)}
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
            assert all(x in w.rows()[u] and _is_bridge(w, u, x) for u, x in pairs)
            seen_cut_bridge += any(set(pair) <= cuts for pair in pairs)
            # far[(x, k)]: for an unmerged x of block k, the mass of the one
            # piece of comp - x that holds the block's other vertices
            far = {}
            for k, block in enumerate(blocks):
                assert len(set(block)) == len(block) >= 2
                for x in block:
                    if w.ident[x] == 1:
                        piece, far[(x, k)] = _piece(w, x, _other(block, x))
                        assert set(block) - {x} <= piece, (x, k)
                # below[k] is the far mass of the block's top; below a merged
                # root, which never cuts, it is all the rest of the component
                assert below[k] == _far(w, block[-1], block), k
            seen_multi_block_cut += any(c >= 3 for c in blocks_of.values())
            seen_merged_cut += any(w.ident[c] > 1 for c in true_cuts)
            # the walk is rooted at vertex 0; a merged root that separates
            # the graph leaves the blocks below it to the walk's last block
            seen_merged_root += w.ident[0] > 1 and 0 in true_cuts
            # a adds one copy per component it creates, and each block ends
            # alone; every instance of an unmerged vertex in block k carries
            # the mass beyond the block's side of the cut: total - far
            reach = w.reach.tolist()
            n_before = w.n
            created = shatter_articulation(w)
            assert created == w.n - n_before == len(blocks) - 1
            _assert_work_graph(w)
            comps = component_lists(w)
            assert len(comps) == len(blocks)
            members = w.member_lists()
            for comp_after in comps:
                instance = {members[v][0]: v for v in comp_after}
                k = next(k for k, block in enumerate(blocks) if set(block) == set(instance))
                for x, v in instance.items():
                    assert w.reach[v] == (total - far[(x, k)] if w.ident[x] == 1 else reach[x]), (x, k)
        assert seen_multi_block_cut and seen_merged_cut and seen_cut_bridge and seen_merged_root

    def test_walk_visits_every_component_once(self, monkeypatch):
        # on the compiled walk and on its Python form
        for lib in (kernels._kernel(), None):
            monkeypatch.setattr(kernels, "_compiled", lib)
            rng = random.Random(11)
            first = _glued_blocks(rng, 8)
            second = _glued_blocks(rng, 8)
            # ids: deleted 0, first component, deleted gap of 2, second
            # component, one isolated vertex, deleted last
            a = 1
            b = a + first.n + 2
            n = b + second.n + 2
            edges = [(a + u, a + v) for u, v in first.edges()] + [(b + u, b + v) for u, v in second.edges()]
            dead = [0, b - 2, b - 1, n - 1]
            edges += [(0, a), (b - 2, b - 1), (b - 1, b), (a + 1, n - 1)]
            w = WorkGraph.from_graph(Graph.from_edges(n, sorted((min(e), max(e)) for e in edges)))
            _random_attributes(rng, w)
            w.delete(dead)
            comps = component_lists(w)
            # the survivors keep their order: a, b and n - 2 lose 1, 3 and 3 deleted ids below them
            assert [c[0] for c in comps] == [a - 1, b - 3, n - 5]
            walk = per_component(kernels.block_walk(w))
            assert len(walk) == len(comps)
            assert [total for _, _, total in walk] == component_mass_sums(w)
            for comp, (blocks, _, _) in zip(comps, walk):
                assert {x for block in blocks for x in block} == (set(comp) if len(comp) > 1 else set())
                assert _induced_edges(w, blocks) == sorted((u, x) for u in comp for x in w.rows()[u] if u < x)
            assert walk[-1][0] == []

            members = w.member_lists()
            mass_of_org = {members[v][0]: total for comp, total in zip(comps, component_mass_sums(w)) for v in comp}
            # the isolated vertex has no block and creates no component
            assert shatter_articulation(w) == len(component_lists(w)) - len(comps) > 0
            members = w.member_lists()
            for comp, total in zip(component_lists(w), component_mass_sums(w)):
                assert {mass_of_org[members[v][0]] for v in comp} == {total}


class TestBridgesKeepBlocks:
    def test_non_bridge_blocks_keep_vertices_and_masses(self):
        """Removing the bridges leaves every other block as ``a`` would read
        it: same vertices, same component mass, same far masses, and the mass
        below its top still the far mass measured before any bridge went.  A
        bridge's going can hand a block another top."""
        rng = random.Random(3)
        removed = merged = retopped = 0
        for case in range(60):
            spec = GraphSpec(FAMILIES[case % len(FAMILIES)], rng.randint(8, 60), 0.0, rng.randrange(10**6))
            g = generate(spec)
            w, out = _work(g)
            if case % 2:
                merged += merge_identical(w, out)
            w.reach[:] = [rng.randint(1, 4) for _ in w.reach]
            # every block's component mass, top, and far mass of each vertex
            before = {
                frozenset(block): (total, block[-1], {x: _far(w, x, block) for x in block})
                for blocks, _, total in per_component(kernels.block_walk(w))
                for block in blocks
            }
            bridges = {
                block for block in before if len(block) == 2 and all(w.ident[x] == 1 for x in block)
            }
            assert remove_bridges(w, out) == len(bridges)
            removed += len(bridges)
            after = [
                (block, side, total)
                for blocks, below, total in per_component(kernels.block_walk(w))
                for block, side in zip(blocks, below)
            ]
            assert {frozenset(block) for block, _, _ in after} == set(before) - bridges
            for block, side, total in after:
                total_before, top_before, far = before[frozenset(block)]
                assert total == total_before
                assert side == far[block[-1]]
                assert {x: _far(w, x, block) for x in block} == far
                retopped += block[-1] != top_before
        assert removed and merged and retopped


def _forms() -> list:
    """The forms of the edits to run: the compiled library where it loads,
    then the Python reference (``kernels._compiled`` set to None).  Taken
    once per test, before a form is set."""
    lib = kernels._kernel()
    return [None] if lib is None else [lib, None]


def _assert_same_work_graphs(a: WorkGraph, b: WorkGraph) -> None:
    """Every array of the two work graphs is equal, dtype and size included."""
    for name in WorkGraph.__slots__:
        x, y = getattr(a, name), getattr(b, name)
        if isinstance(x, np.ndarray):
            assert x.dtype == y.dtype and x.shape == y.shape and (x == y).all(), name
        else:
            assert x == y, name


def _kept_rows(offsets, targets, keep_vertices, keep_arcs) -> list[list[int]]:
    """The rows a rebuild leaves, from lists: each kept row's kept arcs to
    kept vertices, renumbered; without ``keep_vertices`` no id is read."""
    offsets, targets = offsets.tolist(), targets.tolist()
    n = len(offsets) - 1
    new = None if keep_vertices is None else {v: i for i, v in enumerate(np.flatnonzero(keep_vertices).tolist())}
    return [[t if new is None else new[t] for a, t in enumerate(targets[offsets[v] : offsets[v + 1]], offsets[v])
             if (keep_arcs is None or keep_arcs[a]) and (new is None or t in new)]
            for v in range(n) if new is None or v in new]


def _rebuilt_rows(offsets, targets) -> list[list[int]]:
    ends = offsets.tolist()
    assert offsets.dtype == np.int64 and targets.dtype == np.int32 and ends[-1] == len(targets)
    flat = targets.tolist()
    return [flat[a:b] for a, b in zip(ends, ends[1:])]


def _copied_blocks(ends: np.ndarray, comp_ends: np.ndarray) -> np.ndarray:
    """The blocks ``shatter_articulation`` copies: all but each component's last."""
    copied = np.append(np.ones(len(ends) - 1, dtype=bool), False)
    copied[comp_ends[1:] - 1] = False
    return copied[:-1]


class TestCompact:
    def test_matches_the_kept_subgraph(self, monkeypatch):
        """``compact`` drops what its masks clear and renumbers the rest in
        order: its rows are those of ``WorkGraph.from_graph`` of the kept
        subgraph, each keeping its surviving arcs in their old order, and
        each kept vertex carries its attributes and members over.  The
        compiled rebuild and its numpy reference run on every case and
        leave equal arrays."""
        rng = random.Random(23)
        forms = _forms()
        seen = {"vertex mask": 0, "arc mask": 0, "both": 0, "row out of order": 0, "merged members": 0}
        for case in range(150):
            family = FAMILIES[case % len(FAMILIES)]
            g = generate(GraphSpec(family, rng.randint(8, 60), 0.0, rng.randrange(10**6)))
            w = WorkGraph.from_graph(g)
            for letter in rng.sample("ia", rng.randint(0, 2)):  # merged members; copies, whose rows fall out of order
                run_pass(w, letter, np.zeros(g.n))
            n = w.n
            w.reach[:] = [rng.randint(1, 4) for _ in range(n)]
            w.ident[:] = [rng.choice((1, 1, 2, 3)) for _ in range(n)]
            w.internal_edgeless[:] = [rng.random() < 0.5 for _ in range(n)]
            w.internal_clique[:] = [rng.random() < 0.5 for _ in range(n)]
            rows, members = w.rows(), w.member_lists()
            attributes = [a.tolist() for a in (w.reach, w.ident, w.internal_edgeless, w.internal_clique)]
            edges = [(v, x) for v in range(n) for x in rows[v] if v < x]
            masks = rng.choice(("vertices", "arcs", "both"))
            keep_vertices = [masks == "arcs" or rng.random() < 0.8 for _ in range(n)]
            removed = set() if masks == "vertices" else set(rng.sample(edges, len(edges) // 5))
            keep_arcs = [(min(v, x), max(v, x)) not in removed for v in range(n) for x in rows[v]]
            rebuilt = []
            for lib in forms:
                monkeypatch.setattr(kernels, "_compiled", lib)
                rebuilt.append(copy.deepcopy(w))
                rebuilt[-1].compact(None if masks == "arcs" else np.array(keep_vertices, dtype=bool),
                                    None if masks == "vertices" else np.array(keep_arcs, dtype=bool))
            w = rebuilt[0]
            for other in rebuilt[1:]:
                _assert_same_work_graphs(w, other)

            kept = [v for v in range(n) if keep_vertices[v]]
            new = {v: i for i, v in enumerate(kept)}
            survives = [(v, x) for v, x in edges if v in new and x in new and (v, x) not in removed]
            sub = WorkGraph.from_graph(Graph.from_edges(len(kept), [(new[v], new[x]) for v, x in survives]))
            assert w.offsets.tolist() == sub.offsets.tolist(), (family, case)
            assert [sorted(row) for row in w.rows()] == sub.rows()
            assert w.rows() == [[new[x] for x in rows[v] if x in new and (min(v, x), max(v, x)) not in removed]
                                for v in kept]
            assert [a.tolist() for a in (w.reach, w.ident, w.internal_edgeless, w.internal_clique)] == [
                [a[v] for v in kept] for a in attributes]
            assert w.member_lists() == [members[v] for v in kept]
            kernels._check_work_graph(w, np.zeros(g.n))  # every array keeps its dtype
            _assert_work_graph(w)
            seen["vertex mask" if masks == "vertices" else "arc mask" if masks == "arcs" else "both"] += 1
            seen["row out of order"] += any(row != sorted(row) for row in rows)
            seen["merged members"] += any(len(m) > 1 for m in members)
        assert all(count > 10 for count in seen.values()), seen

    @pytest.mark.parametrize("case", ["every vertex dropped", "rows emptied", "no arcs", "no vertices"])
    def test_edge_cases(self, monkeypatch, case):
        """The rebuild on both forms, against the rows a loop over lists
        keeps."""
        rng = random.Random(case)
        g = generate(GraphSpec("clique-chain", 40, 0.0, 5))
        w = WorkGraph.from_graph(g)
        keep_vertices = keep_arcs = None
        if case == "every vertex dropped":
            keep_vertices = np.zeros(w.n, dtype=bool)
            keep_arcs = np.array([rng.random() < 0.5 for _ in range(len(w.targets))])
        elif case == "rows emptied":
            emptied = rng.sample(range(w.n), w.n // 3)
            keep_arcs = np.ones(len(w.targets), dtype=bool)
            for v in emptied:
                keep_arcs[w.offsets[v] : w.offsets[v + 1]] = False
            keep_vertices = np.array([rng.random() < 0.8 for _ in range(w.n)])
        else:
            w = WorkGraph.from_graph(Graph.from_edges(7 if case == "no arcs" else 0, []))
            keep_vertices = np.array([v % 2 == 0 for v in range(w.n)], dtype=bool)
        expected = _kept_rows(w.offsets, w.targets, keep_vertices, keep_arcs)
        for lib in _forms():
            monkeypatch.setattr(kernels, "_compiled", lib)
            rebuilt = kernels.rebuild(w.offsets, w.targets, keep_vertices, keep_arcs)
            assert _rebuilt_rows(*rebuilt) == expected, lib
            assert rebuilt[1].flags.owndata and rebuilt[1].base is None  # exact size, no view of a larger array
        if case == "every vertex dropped":
            w.compact(keep_vertices, keep_arcs)
            assert w.n == w.m == 0 and w.member_offsets.tolist() == [0] and not len(w.member_ids)
            kernels._check_work_graph(w, np.zeros(g.n))

    @pytest.mark.parametrize("field", ["targets", "targets without a vertex mask", "keep_vertices", "keep_arcs",
                                       "offsets"])
    def test_refusals(self, monkeypatch, field):
        """Both forms refuse the same inputs before either runs: a target
        naming no vertex, with or without a vertex mask, masks of another
        length or dtype, offsets that are not a CSR."""
        w = WorkGraph.from_graph(path_graph(4))
        offsets, targets = w.offsets.copy(), w.targets.copy()
        keep_vertices, keep_arcs = np.ones(4, dtype=bool), None
        if field.startswith("targets"):
            targets[0] = 4
            if field != "targets":
                keep_vertices, keep_arcs = None, np.ones(len(targets), dtype=bool)
        elif field == "keep_vertices":
            keep_vertices = np.ones(4, dtype=np.uint8)
        elif field == "keep_arcs":
            keep_arcs = np.ones(len(targets) - 1, dtype=bool)
        else:
            offsets[2] = 0
        for lib in _forms():
            monkeypatch.setattr(kernels, "_compiled", lib)
            with pytest.raises(ValueError):
                kernels.rebuild(offsets, targets, keep_vertices, keep_arcs)


@pytest.mark.parametrize("letter", ["x", "o", "", "db"])
def test_run_pass_refuses_an_unknown_letter(letter):
    w, out = _work(path_graph(3))
    with pytest.raises(ValueError, match="unknown reduction pass"):
        run_pass(w, letter, out)
    assert out.tolist() == [0.0, 0.0, 0.0] and w.n == 3


def _shattered_rows(rows: list[list[int]], flat: np.ndarray, ends: np.ndarray, copied: np.ndarray):
    """The rows the articulation pass leaves, from lists: each old row with
    its arcs into the top of its vertex's copied home block renamed to the
    copy and its arcs from a copied top into the block dropped, then each
    copy's row, the dropped arcs in arc order."""
    n, flat, ends = len(rows), flat.tolist(), ends.tolist()
    blocks = [flat[a:b] for a, b in zip(ends, ends[1:])]
    copy_of = dict(zip(np.flatnonzero(copied).tolist(), range(n, n + int(np.count_nonzero(copied)))))
    home = {v: k for k, block in enumerate(blocks) for v in block[:-1]}
    home_copy = {v: copy_of[k] for v, k in home.items() if k in copy_of}  # the copy of v's home block's top
    top = {v: blocks[k][-1] for v, k in home.items()}
    old = [[home_copy[v] if v in home_copy and t == top[v] else t for t in row
            if not (t in home_copy and top[t] == v)] for v, row in enumerate(rows)]
    return old + [[t for v, row in enumerate(rows) for t in row if home_copy.get(t) == c and top[t] == v]
                  for c in range(n, n + len(copy_of))]


class TestShatterArcs:
    def test_forms_agree(self, monkeypatch):
        """The compiled arc step of the articulation pass against its numpy
        reference, over the six generator families, some after ``i`` or
        ``a``, with the pass's own copied blocks or random ones: the
        returned CSR, compared with ==, and the rows of a list model.
        Neither form changes an array of ``w``."""
        rng = random.Random(41)
        forms = _forms()
        moved = rewritten = 0
        for case in range(180):
            family = FAMILIES[case % len(FAMILIES)]
            g = generate(GraphSpec(family, rng.randint(8, 80), 0.0, rng.randrange(10**6)))
            w = WorkGraph.from_graph(g)
            for letter in rng.sample("ia", rng.randint(0, 2)):
                run_pass(w, letter, np.zeros(g.n))
            flat, ends, _, comp_ends, _ = kernels.block_walk(w)
            copied = _copied_blocks(ends, comp_ends)
            if case % 3 == 0:
                copied = np.array([rng.random() < 0.5 for _ in copied], dtype=bool)
            before, results = copy.deepcopy(w), []
            for lib in forms:
                monkeypatch.setattr(kernels, "_compiled", lib)
                offsets, targets = kernels.shatter_arcs(w, flat, ends, copied)
                _assert_same_work_graphs(w, before)
                assert offsets.shape == (w.n + np.count_nonzero(copied) + 1,) and targets.shape == w.targets.shape
                assert targets.flags.owndata and targets.base is None
                results.append((offsets, targets))
            assert all((o == results[0][0]).all() and (t == results[0][1]).all() for o, t in results), (family, case)
            shattered = _rebuilt_rows(*results[0])
            assert shattered == _shattered_rows(w.rows(), flat, ends, copied), (family, case)
            rewritten += sum(t >= w.n for row in shattered[: w.n] for t in row)
            moved += sum(map(len, shattered[w.n :]))
        assert moved > 500 and rewritten > 500

    def test_pass_matches_a_list_model(self, monkeypatch):
        """``shatter_articulation`` on both forms, over the six generator
        families, some after ``i``: the rows of the list model, the copies'
        reach and first member, each top's reach grown by the mass below
        each block it tops, and no other array changed."""
        rng = random.Random(43)
        copies = 0
        for case in range(120):
            family = FAMILIES[case % len(FAMILIES)]
            g = generate(GraphSpec(family, rng.randint(8, 80), 0.0, rng.randrange(10**6)))
            w = WorkGraph.from_graph(g)
            if case % 2:
                run_pass(w, "i", np.zeros(g.n))
            flat, ends, below, comp_ends, totals = kernels.block_walk(w)
            copied = _copied_blocks(ends, comp_ends)
            blocks = np.flatnonzero(copied).tolist()
            comp_of = np.repeat(np.arange(len(totals)), np.diff(comp_ends)).tolist()
            tops = [int(flat[ends[k + 1] - 1]) for k in blocks]
            reach = w.reach.tolist()
            for k, t in zip(blocks, tops):
                reach[t] += int(below[k])
            reach += [int(totals[comp_of[k]] - below[k]) for k in blocks]
            members = w.member_lists()
            rows = _shattered_rows(w.rows(), flat, ends, copied)
            members += [members[t][:1] for t in tops]
            ident = w.ident.tolist() + [1] * len(blocks)
            flags = [a.tolist() + [True] * len(blocks) for a in (w.internal_edgeless, w.internal_clique)]
            results = []
            for lib in _forms():
                monkeypatch.setattr(kernels, "_compiled", lib)
                shattered = copy.deepcopy(w)
                assert shatter_articulation(shattered) == len(blocks)
                assert shattered.rows() == rows, (family, case)
                assert shattered.reach.tolist() == reach and shattered.ident.tolist() == ident
                assert shattered.member_lists() == members
                assert [shattered.internal_edgeless.tolist(), shattered.internal_clique.tolist()] == flags
                kernels._check_work_graph(shattered, np.zeros(g.n))
                _assert_work_graph(shattered)
                results.append(shattered)
            for other in results[1:]:
                _assert_same_work_graphs(results[0], other)
            copies += len(blocks)
        assert copies > 300

    @pytest.mark.parametrize("case", ["copied of another length", "an empty block"])
    def test_refusals(self, monkeypatch, case):
        """Both forms refuse a ``copied`` without one entry per block, and a
        block that holds no top, before either runs."""
        w = WorkGraph.from_graph(Graph.from_edges(4, [(0, 1), (0, 2), (1, 2), (2, 3)]))
        flat, ends, *_ = kernels.block_walk(w)
        if case == "an empty block":
            ends = np.concatenate([ends[:1], ends])  # block 0 ends where it starts
        copied = np.zeros(len(ends) - (case == "an empty block"), dtype=bool)
        for lib in _forms():
            monkeypatch.setattr(kernels, "_compiled", lib)
            with pytest.raises(ValueError, match="copied needs" if case.startswith("copied") else "hold its top"):
                kernels.shatter_arcs(w, flat, ends, copied)


class TestLetterOrderFuzz:
    def test_letter_orders_match_brute(self, monkeypatch):
        """Seeded, time-boxed fuzz over every order of every non-empty subset
        of the reduction letters, so splits see merged classes and merges
        see split ones.  The work graph's bookkeeping is checked after every
        pass."""
        run_pass = reduction.run_pass
        solve = {"out": None, "split": False}  # each solve has its own score vector

        def checked_pass(w, letter, out, *args):
            changes = run_pass(w, letter, out, *args)
            if out is not solve["out"]:
                solve.update(out=out, split=False)
            solve["split"] |= letter in "ab" and changes > 0
            _assert_work_graph(w, len(out), solve["split"])
            return changes

        monkeypatch.setattr(reduction, "run_pass", checked_pass)
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
        assert w.reach.tolist() == [2, 2]
        assert w.m == 0

    def test_barbell(self):
        g = Graph.from_edges(6, [(0, 1), (0, 2), (1, 2), (2, 3), (3, 4), (3, 5), (4, 5)])
        w, out = _work(g)
        assert remove_bridges(w, out) == 1
        assert out[2] == 6.0 and out[3] == 6.0
        assert w.reach[2] == 4 and w.reach[3] == 4
        assert component_mass_sums(w) == [6, 6]

    def test_bridgeless_cycle(self):
        w, out = _work(cycle_graph(4))
        assert remove_bridges(w, out) == 0

    # The reach overrides keep the twins' neighbors out of their class:
    # with unit reach they would be closed twins of it.
    @pytest.mark.parametrize(
        "g, reach",
        [
            # open twins {0, 1} over {2, 3}, closed twins {2, 3}: one edge
            # between two merged vertices, left as the last block under a
            # merged root
            (Graph.from_edges(4, [(0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]), {2: 2, 3: 2}),
            # open twins {0, 1} over {2, 3, 4}, edge 2-3: a path whose merged
            # root has two DFS children
            (Graph.from_edges(5, [(0, 2), (0, 3), (0, 4), (1, 2), (1, 3), (1, 4), (2, 3)]), {}),
            # open twins {0, 1} over {2}: a pendant edge under a merged root
            (Graph.from_edges(3, [(0, 2), (1, 2)]), {2: 2}),
            # open twins {1, 2} over {0}: a merged pendant under an unmerged root
            (Graph.from_edges(3, [(0, 1), (0, 2)]), {0: 2}),
        ],
        ids=["merged-edge", "merged-root-path", "merged-root-pendant", "merged-pendant"],
    )
    def test_no_bridge_or_cut_at_merged_vertices(self, g, reach):
        w, out = _work(g)
        for v, r in reach.items():
            w.reach[v] = r
        assert merge_identical(w, out) > 0
        assert w.m > 0
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
        assert w.n == 0
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
        w.reach[2] = w.reach[3] = 2  # keeps the open twins {2,3} out of {0,1}'s class
        merge_identical(w, out)  # {2,3} open twins, {0,1} closed twins
        assert any(w.ident[v] == 2 for v in range(w.n))
        before = w.n
        remove_degree1(w, out)
        assert w.n == before
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
            w.reach[:] = union_reach
            changes = remove_degree1(w, out)
            alone_changes = alone_retired = 0
            alone_reach = {}
            for (n, edges, reach), base in zip(pieces, offsets):
                wp, outp = _work(Graph.from_edges(n, edges))
                wp.reach[:] = reach
                alone_changes += remove_degree1(wp, outp)
                alone_retired += wp.retired_mass
                for v in range(n):
                    assert out[base + v] == outp[v]
                alone_reach.update((base + v, r) for v, r in _reach_by_original(wp).items())
            # the same vertices are left, with the same reach
            assert _reach_by_original(w) == alone_reach
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
            w.ident[:] = [rng.randint(1, 3) for _ in range(g.n)]
            for v in range(g.n):
                if w.ident[v] > 1:
                    shape = rng.choice(("open", "closed", "mixed"))
                    w.internal_edgeless[v] = shape == "open"
                    w.internal_clique[v] = shape == "closed"
            copies = [(x, i) for x in range(g.n) for i in range(w.ident[x])]
            adj = [set(row) for row in w.rows()]

            def adjacent(a, b):
                if a[0] != b[0]:
                    return b[0] in adj[a[0]]
                return a != b and w.internal_clique[a[0]]

            for v in range(g.n):
                mixed = not (w.internal_edgeless[v] or w.internal_clique[v])
                nbhd = [c for c in copies if adjacent((v, 0), c)]
                expected = not mixed and all(adjacent(a, b) for a, b in itertools.combinations(nbhd, 2))
                got = kernels.expanded_clique(adj, w.ident, w.internal_edgeless, w.internal_clique, v)
                assert got == expected, (seed, v)
                outcomes.add((expected, mixed, len(adj[v]) > 1))
        assert (True, False, True) in outcomes and (False, True, True) in outcomes


def _attributed_work(g: Graph, seed: int):
    """A work graph of g with random reach, merged classes of every shape
    (open, closed, mixed), members shared between vertices, a few deleted
    vertices, and a random partial score vector over twice g's ids.  The
    same seed gives the same work graph."""
    rng = random.Random(seed)
    w = WorkGraph.from_graph(g)
    slots = 2 * g.n
    members = w.member_lists()
    for v in range(g.n):
        w.reach[v] = rng.randint(1, 5)
        if rng.random() < 0.3:
            w.ident[v] = rng.randint(2, 3)
            shape = rng.choice(("open", "closed", "mixed"))
            w.internal_edgeless[v] = shape == "open"
            w.internal_clique[v] = shape == "closed"
            members[v] += [rng.randrange(slots) for _ in range(w.ident[v] - 1)]
        elif rng.random() < 0.2:
            members[v].append(rng.randrange(slots))  # a copy's original
    np.cumsum([len(m) for m in members], out=w.member_offsets[1:])
    w.member_ids = np.array([m for ms in members for m in ms], dtype=np.int64)
    w.delete(rng.sample(range(g.n), g.n // 10))
    out = np.array([rng.uniform(0.0, 100.0) for _ in range(slots)])
    return w, out


def _side_inputs(w: WorkGraph):
    """What a side sweep must leave as it found it: the arrays of the work
    graph."""
    return [a.tobytes() for a in (w.offsets, w.targets, w.reach, w.ident, w.internal_edgeless, w.internal_clique,
                                  w.member_offsets, w.member_ids)]


def _side_candidates(w: WorkGraph, cap: int) -> list[int]:
    """The side pass's candidates by their definition: the vertices of
    degree 1 to cap whose unfolded neighborhood is a clique."""
    flags = (w.ident, w.internal_edgeless, w.internal_clique)
    adj = [set(row) for row in w.rows()]
    return [v for v, nbrs in enumerate(adj) if nbrs and len(nbrs) <= cap and kernels.expanded_clique(adj, *flags, v)]


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
            assert w.m == ref.m
            assert w.rows() == ref.rows()
            removed += changes
            skipped += len(candidates) - changes
        assert removed > 300 and skipped > 0

    def test_forms_agree_and_leave_inputs_alone(self, compiled_library, monkeypatch):
        # both forms of kernels.side_sweep on work graphs with deleted
        # vertices, merged classes of every shape and shared members
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
            cap = case % 6 + 1
            inputs = _side_inputs(w)
            results = []
            for lib in (compiled_library, None):
                monkeypatch.setattr(kernels, "_compiled", lib)
                got = out.copy()
                swept, scanned = kernels.side_sweep(w, cap, got)
                assert swept.dtype == np.int32, (family, case, lib)
                results.append((swept.tolist(), scanned, got.tobytes()))
                assert _side_inputs(w) == inputs, (family, case, lib)
            assert results[0] == results[1], (family, case)
            removed += len(results[0][0])
            arcs += results[0][1]
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

        def python_sweep(w, max_degree, out):
            removed, arcs = kernels.side_sweep_python(w.rows(), w.member_lists(), w.reach.tolist(), w.ident.tolist(),
                                                      w.internal_edgeless.tolist(), w.internal_clique.tolist(),
                                                      max_degree, out)
            return np.array(removed, dtype=np.int32), arcs

        monkeypatch.setattr(kernels, "side_sweep", python_sweep)
        for (g, combo, cap, seed), got in zip(cases, compiled):
            expected = compute_scores(g, combo, max_side_degree=cap, order_seed=seed)
            assert got.scores.tobytes() == expected.scores.tobytes(), (combo, cap)
            assert got.stats.events == expected.stats.events, (combo, cap)
            assert got.stats.iterations == expected.stats.iterations
        assert sum(e.changes for r in compiled for e in r.stats.events if e.technique == "s") > 500


class TestMergeIdentical:
    def test_sweep_groups_by_neighborhood(self):
        # One sweep merges exactly the vertices with a non-empty neighborhood
        # and equal (open or closed neighborhood, reach) at sweep start,
        # whatever their partial scores.
        rng = random.Random(17)
        merged = {False: 0, True: 0}
        for _ in range(80):
            n, p = rng.randint(8, 40), rng.choice((0.1, 0.5, 0.9))
            g = generate(GraphSpec("planted-identical", n, p, rng.randrange(1000)))
            for closed in (False, True):
                w, out = _work(g)
                w.reach[:] = [rng.randint(1, 2) for _ in range(g.n)]
                out[:] = [rng.randint(0, 1) for _ in range(g.n)]
                classes: list[tuple[set[int], int, list[int]]] = []
                singles = []
                for v, row in enumerate(w.rows()):
                    nbhd = {*row, v} if closed else set(row)
                    if not row:
                        singles.append([v])
                        continue
                    for sig, reach, verts in classes:
                        if sig == nbhd and reach == w.reach[v]:
                            verts.append(v)
                            break
                    else:
                        classes.append((nbhd, w.reach[v], [v]))
                expected = sorted(singles + [verts for *_, verts in classes])
                changes = _merge_sweep(w, out, closed)
                assert changes == sum(len(verts) - 1 for *_, verts in classes)
                members = w.member_lists()
                assert sorted(map(sorted, members)) == expected
                assert w.ident.tolist() == list(map(len, members))
                merged[closed] += changes
        assert merged[False] > 50 and merged[True] > 10

    def test_cycle4_open_twins(self):
        w, out = _work(cycle_graph(4))
        # the two antipodal pairs fold first; the two class vertices are then
        # closed twins of each other and fold once more
        assert merge_identical(w, out) == 3
        assert w.ident.tolist() == [4]
        # each vertex is owed its two distance-2 pairs, settled at merge time
        assert out.tolist() == [1.0, 1.0, 1.0, 1.0]

    def test_triangle_closed_twins_collapse(self):
        w, out = _work(complete_graph(3))
        assert merge_identical(w, out) == 2
        assert w.ident.tolist() == [3]

    def test_unequal_reach_never_merges(self):
        w, out = _work(star_graph(3))
        w.reach[1] = 5  # pretend one leaf carries folded mass
        assert merge_identical(w, out) == 1  # only the other two leaves merge
        assert any(w.reach[v] == 5 and w.ident[v] == 1 for v in range(w.n))
        # the merged pair's distance-2 paths land on the shared center
        assert out[0] == 2.0

    def test_unequal_partials_merge(self):
        # two reach-3 twins over the same core with different histories: one
        # folded a 2-leaf star (its own within-mass pairs), one a path.  Their
        # partial and true scores differ, yet they are symmetric in the work
        # graph, so they merge and each keeps its own partial.
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
        w, out = _work(g)
        remove_degree1(w, out)
        assert w.reach[3] == w.reach[4] == 3 and out[3] != out[4]
        merge_identical(w, out)
        members = w.member_lists()
        assert any({3, 4} <= set(m) for m in members)
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
        assert w.n == 0
        assert partial.tolist() == [0.0, 2.0, 0.0]

    def test_clique_fixed_point(self):
        w, partial, stats = preprocess(complete_graph(4), Combination.parse("odba"))
        assert w.n == 4
        assert w.m == 6
        assert partial.tolist() == [0.0] * 4

    def test_ordering_only_is_identity_workgraph(self):
        g = random_graph(10, 0.3, seed=2)
        w, partial, stats = preprocess(g, Combination.parse("o"))
        assert w.n == g.n
        assert w.m == g.m
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
                split = False
                for _ in range(4):
                    for letter in letters:
                        before = w.m
                        split |= letter in "ab" and run_pass(w, letter, out) > 0
                        assert w.m <= before
                        _assert_work_graph(w, g.n, split)

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
                    for total in component_mass_sums(w):
                        assert total == g.n

    def test_mass_accounting_with_all_passes(self):
        for seed in range(6):
            g = random_graph(15, 0.3, seed)
            w = WorkGraph.from_graph(g)
            out = np.zeros(g.n)
            split = False
            for _ in range(3):
                for letter in "dbasi":
                    split |= letter in "ab" and run_pass(w, letter, out) > 0
                    _assert_work_graph(w, g.n, split)

    def test_stats_csv_shape(self):
        g = path_graph(6)
        _, _, stats = preprocess(g, Combination.parse("od"))
        rows = stats.csv_rows()
        assert rows[0][0] == "pass"
        assert rows[-1][0] == "final"

    def test_pass_seconds_are_timed_but_not_compared(self):
        g = generate(GraphSpec("clique-chain", 60, 0.0, seed=2))
        first = preprocess(g, "odbasi")[2]
        second = preprocess(g, "odbasi")[2]
        assert first.events == second.events
        assert all(e.seconds > 0.0 for e in first.events)
        assert all(dataclasses.replace(e, seconds=e.seconds + 1.0) == e for e in first.events)
        assert first.retirements == second.retirements and first.retirements
        assert all(dataclasses.replace(r, seconds=r.seconds + 1.0) == r for r in first.retirements)
        rows = first.csv_rows()
        assert rows[0][-1] == "seconds"
        pass_rows = [r for r in rows[1:-1] if r[0] != "retire"]
        assert [float(r[-1]) for r in pass_rows] == pytest.approx([e.seconds for e in first.events], abs=1e-6)
        steps = first.events + first.retirements
        assert float(rows[-1][-1]) == pytest.approx(sum(e.seconds for e in steps), abs=1e-5)


class TestRetirement:
    """The retirement step after each iteration's last split pass: every
    piece of at most PIECE_LIMIT vertices goes through the kernel and leaves
    the work graph, and the passes after the split run on what is left.
    Each test runs on the compiled library and on the Python forms."""

    FORMS = (kernels._kernel, lambda: None)

    @pytest.mark.parametrize("combo", ["bsai", "asid", "oabsdi", "ba"])
    def test_mid_loop_retirement_matches_brute(self, monkeypatch, combo):
        # in each order d, s or i runs after a split, on the pieces left
        graphs = [generate(GraphSpec(family, n, 0.0, seed=n)) for family in
                  ("clique-chain", "bridged-blobs", "planted-identical") for n in (60, 200)]
        retired = 0
        for g, expected in zip(graphs, map(bc_brute, graphs)):
            for form in self.FORMS:
                monkeypatch.setattr(kernels, "_compiled", form())
                result = compute_scores(g, combo)
                assert np.allclose(result.scores, expected, rtol=1e-9, atol=1e-9), (g.n, combo)
                retired += sum(r.vertices for r in result.stats.retirements)
                assert result.remaining_vertices >= sum(r.vertices for r in result.stats.retirements)
        assert retired > 0

    def test_the_bound_is_sixty_four_vertices(self, monkeypatch):
        # a 64-cycle and a 65-cycle joined by a bridge: "b" cuts it, the
        # 64-vertex piece retires and the 65-vertex piece stays for the
        # kernel stage
        cycles = [(v, (v + 1) % 64) for v in range(64)] + [(64 + v, 64 + (v + 1) % 65) for v in range(65)]
        g = Graph.from_edges(129, cycles + [(0, 64)])
        assert PIECE_LIMIT == 64
        for form in self.FORMS:
            monkeypatch.setattr(kernels, "_compiled", form())
            w, _, stats = preprocess(g, "b")
            assert [(r.iteration, r.pieces, r.vertices) for r in stats.retirements] == [(1, 1, 64)]
            assert (w.n, w.m) == (65, 65)
            result = compute_scores(g, "b")
            assert np.allclose(result.scores, bc_brute(g), rtol=1e-9, atol=1e-9)
            assert (result.remaining_vertices, result.component_edges) == (129, [65, 64])

    def test_runs_only_after_a_split_that_changed_something(self):
        # a cycle has no bridge and no cut vertex: no step; a path with a
        # triangle end splits under "b", and the step follows the last of
        # "b" and "a" in the letter order, once per iteration that split
        assert preprocess(cycle_graph(6), "odbasi")[2].retirements == []
        g = Graph.from_edges(5, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 2)])
        for combo in ("ba", "ab", "bsd", "ib"):
            stats = preprocess(g, combo)[2]
            rows = stats.csv_rows()
            retire = [k for k, r in enumerate(rows) if r[0] == "retire"]
            assert len(retire) == len(stats.retirements) == 1, combo
            last_split = combo[max(combo.rfind("b"), combo.rfind("a"))]
            assert rows[retire[0] - 1][:2] == [last_split, "1"], combo
            assert rows[retire[0]][1:3] == ["1", str(stats.retirements[0].pieces)]
            assert stats.retirements[0].vertices > 0

    def test_retired_mass_counts_the_pieces(self):
        # the step retires as retire() does: what leaves the work graph is
        # counted in retired_mass
        g = Graph.from_edges(6, [(0, 1), (1, 2), (2, 0), (2, 3), (3, 4), (4, 5), (5, 3)])
        w, _, stats = preprocess(g, "b")
        assert stats.retirements[0].vertices == 6 and w.n == 0
        assert w.retired_mass == 6 + 6  # each side takes the mass of the whole


class TestFinalize:
    def test_without_reductions_is_kernel_distribution(self):
        g = cycle_graph(5)
        w, partial, _ = preprocess(g, Combination.parse("o"))
        # totals[v] belongs to work vertex v
        final = finalize(w, partial, np.array([4.0, 0.0, 3.0, 1.0, 2.0]))
        assert final.tolist() == [4.0, 0.0, 3.0, 1.0, 2.0]

    def test_additions_come_in_increasing_vertex_order(self):
        # after "a" vertex 0 is carried by itself and three copies, and after
        # "i" merged classes carry several vertices: each member takes its
        # vertices' totals one at a time, in increasing vertex, as a loop would
        rng = np.random.default_rng(3)
        for g, combo in ((Graph.from_edges(9, [(0, v) for v in range(1, 9)] + [(1, 2), (3, 4), (5, 6), (7, 8)]), "a"),
                         (generate(GraphSpec("planted-identical", 40, 0.0, seed=2)), "i")):
            w, partial = _work(g)
            assert run_pass(w, combo, partial) > 0
            totals = rng.random(w.n) / 3.0
            totals[::4] = 0.0
            looped = partial.copy()
            for v, members in enumerate(w.member_lists()):
                for m in members:
                    if totals[v]:
                        looped[m] += totals[v]
            assert finalize(w, partial, totals).tobytes() == looped.tobytes()

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
