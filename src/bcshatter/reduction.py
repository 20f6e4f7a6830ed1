"""Mutable work graph, reduction passes, preprocessing loop, reassembly.

The work graph starts as a copy of the input with unit attributes and is
shrunk by five passes:

* ``d`` cascading degree-1 removal (folds leaf mass into the neighbor),
* ``b`` bridge removal (splits components, credits both endpoints with
  the cut-side masses),
* ``a`` articulation shattering (one-shot biconnected decomposition; a
  copy of each block's top takes over the top's edges into the block, with
  reach the mass away from the block's side of the cut),
* ``s`` side-vertex removal (simplicial vertices; one compensation BFS each,
  the candidate test and all of one sweep in one call of
  ``kernels.side_sweep``),
* ``i`` identical-vertex merging (equal open or closed neighborhood, reach).

The per-vertex scans the passes make run through ``kernels``, compiled
where the library loads: the block walk of ``b`` and ``a``
(``kernels.block_walk``), the side candidates (inside
``kernels.side_sweep``) and the twin classes of each ``i`` sweep
(``kernels.twin_classes``).  The passes act on what those return, in Python.

A deleted vertex keeps its id until the next :meth:`WorkGraph.compact`, with
``None`` for its adjacency set.

Every pass writes its score corrections eagerly into a per-original-vertex
accumulator, so reassembly after the kernels is just adding each surviving
vertex's kernel total to all of its merged members.

Bookkeeping invariants (asserted in tests):

* ``reach[v] >= 1``, ``ident[v] >= 1`` for live vertices; a vertex stands
  for ``ident[v] * reach[v]`` original vertices ("mass").
* After any sequence of a/b/d passes on a connected input, every component's
  mass sums to n.  Side removals and isolated-vertex retirement move mass to
  ``retired_mass`` instead, so live mass + retired mass == n always.
* Merging requires equal reach, and no pass reads the scores it adds to:
  every later addition reaches all members of a merged class alike.

A vertex whose ident exceeds 1 is a merged class: a bundle of
interchangeable copies, no single one of which is a cut vertex of the
unmerged graph.  So a merged class never cuts, and the degree-1 and side
passes guard against it, because cut-based formulas do not apply to it.

``b`` and ``a`` each read one DFS walk over all components, which yields
each component's blocks and cut-side masses.  Its contract: blocks are
vertex lists; a bridge is a block of two vertices; a vertex in two or more
blocks is a cut vertex; a merged class lies in one block, so the blocks that
meet at it stay one block, which ``a`` shatters as a whole.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from time import perf_counter

import numpy as np

from . import kernels
from .graph import Graph

TECHNIQUE_LETTERS = "odbasi"

# The seven benchmark combinations, in increasing technique order.
STANDARD_COMBINATIONS = ("o", "od", "odb", "odba", "odbas", "odbai", "odbasi")

# The side pass examines vertices of at most this degree unless told otherwise.
DEFAULT_MAX_SIDE_DEGREE = 4


@dataclass(frozen=True)
class Combination:
    """Ordered subset of technique letters, e.g. "odbasi"."""

    letters: str

    @classmethod
    def parse(cls, text: str) -> "Combination":
        seen = set()
        for ch in text:
            if ch not in TECHNIQUE_LETTERS:
                raise ValueError(f"unknown technique letter {ch!r}; expected a subset of {TECHNIQUE_LETTERS!r}")
            if ch in seen:
                raise ValueError(f"duplicate technique letter {ch!r} in {text!r}")
            seen.add(ch)
        return cls(text)

    @property
    def uses_ordering(self) -> bool:
        return "o" in self.letters

    def reduction_passes(self) -> str:
        """Technique letters in application order, excluding the ordering."""
        return "".join(ch for ch in self.letters if ch != "o")

    def __str__(self) -> str:
        return self.letters


@dataclass
class PassEvent:
    iteration: int
    technique: str
    changes: int
    live_vertices: int
    live_edges: int
    # wall time of the pass, left out of comparisons: equal solves have equal events
    seconds: float = field(default=0.0, compare=False)


@dataclass
class PassStats:
    """Per-pass change log plus the final component edge histogram (filled
    in by :func:`engine.compute_scores`, which counts those edges anyway)."""

    events: list[PassEvent] = field(default_factory=list)
    iterations: int = 0
    component_edges: list[int] = field(default_factory=list)

    def record(self, iteration: int, technique: str, changes: int, vertices: int, edges: int, seconds: float) -> None:
        self.events.append(PassEvent(iteration, technique, changes, vertices, edges, seconds))

    def csv_rows(self) -> list[list[str]]:
        rows = [["pass", "iteration", "removals", "remaining_vertices", "remaining_edges", "component_edges", "seconds"]]
        for e in self.events:
            rows.append([e.technique, str(e.iteration), str(e.changes), str(e.live_vertices), str(e.live_edges), "",
                         f"{e.seconds:.6f}"])
        total = sum(e.seconds for e in self.events)
        rows.append(["final", str(self.iterations), "", "", "", ";".join(str(x) for x in self.component_edges),
                     f"{total:.6f}"])
        return rows


class WorkGraph:
    """Mutable reduced graph with per-vertex reach/ident attributes.

    ``members[v]`` is a tuple of the original vertices v carries; the first
    is the one v started as, or was copied from.  A merge replaces the
    class's tuple, and nothing grows one in place.  ``adj[v]`` is None once
    v is deleted.
    """

    __slots__ = (
        "reach",
        "ident",
        "members",
        "internal_edgeless",
        "internal_clique",
        "adj",
        "live_edge_count",
        "retired_mass",
    )

    def __init__(self) -> None:
        self.reach: list[int] = []
        self.ident: list[int] = []
        self.members: list[tuple[int, ...]] = []
        # Internal structure of a merged class: are its copies pairwise
        # adjacent (closed-neighborhood twins) or pairwise non-adjacent?
        # Singletons are vacuously both.
        self.internal_edgeless: list[bool] = []
        self.internal_clique: list[bool] = []
        self.adj: list[set[int] | None] = []
        self.live_edge_count = 0
        self.retired_mass = 0

    @classmethod
    def from_graph(cls, g: Graph) -> "WorkGraph":
        w = cls()
        w.reach = [1] * g.n
        w.ident = [1] * g.n
        w.members = [(v,) for v in range(g.n)]
        w.internal_edgeless = [True] * g.n
        w.internal_clique = [True] * g.n
        flat, offsets = g.neighbors.tolist(), g.offsets.tolist()  # no array view per row
        w.adj = [set(flat[a:b]) for a, b in zip(offsets, offsets[1:])]
        w.live_edge_count = g.m
        return w

    def mass(self, v: int) -> int:
        return self.ident[v] * self.reach[v]

    def live(self):
        return (v for v, nbrs in enumerate(self.adj) if nbrs is not None)

    def live_vertex_count(self) -> int:
        return len(self.adj) - self.adj.count(None)

    def add_vertex(self, org: int, reach: int) -> int:
        vid = len(self.adj)
        self.reach.append(reach)
        self.ident.append(1)
        self.members.append((org,))
        self.internal_edgeless.append(True)
        self.internal_clique.append(True)
        self.adj.append(set())
        return vid

    def add_edge(self, u: int, v: int) -> None:
        if v not in self.adj[u]:
            self.adj[u].add(v)
            self.adj[v].add(u)
            self.live_edge_count += 1

    def remove_edge(self, u: int, v: int) -> None:
        self.adj[u].discard(v)
        self.adj[v].discard(u)
        self.live_edge_count -= 1

    def delete(self, u: int) -> None:
        """Unlink and tombstone; the vertex's mass must already be accounted."""
        for x in self.adj[u]:
            self.adj[x].discard(u)
        self.live_edge_count -= len(self.adj[u])
        self.adj[u] = None

    def retire(self, u: int) -> None:
        """Delete a vertex whose remaining pair dependencies are all settled."""
        self.retired_mass += self.mass(u)
        self.delete(u)

    def components(self) -> list[list[int]]:
        """Sorted vertex lists of the live components, in first-id order."""
        adj = self.adj
        seen = bytearray(len(adj))
        comps: list[list[int]] = []
        for root, nbrs in enumerate(adj):
            if nbrs is None or seen[root]:
                continue
            seen[root] = 1
            comp = [root]
            for v in comp:  # the list is the queue; it grows while it is read
                for x in adj[v]:
                    if not seen[x]:
                        seen[x] = 1
                        comp.append(x)
            comp.sort()
            comps.append(comp)
        return comps

    def component_mass_sums(self) -> list[int]:
        return [sum(self.mass(v) for v in comp) for comp in self.components()]

    def compact(self) -> None:
        """Drop tombstoned vertices and renumber; run between loop iterations
        so pass code never sees ids move mid-flight."""
        keep = list(self.live())
        if len(keep) == len(self.adj):
            return
        remap = {v: i for i, v in enumerate(keep)}
        self.reach = [self.reach[v] for v in keep]
        self.ident = [self.ident[v] for v in keep]
        self.members = [self.members[v] for v in keep]
        self.internal_edgeless = [self.internal_edgeless[v] for v in keep]
        self.internal_clique = [self.internal_clique[v] for v in keep]
        self.adj = [{remap[x] for x in self.adj[v]} for v in keep]


def remove_degree1(w: WorkGraph, out: np.ndarray) -> int:
    """Cascading degree-1 removal per component; also retires lone vertices.

    Folding a leaf u into its neighbor v credits u's members with the pair
    dependencies gated behind u and v's original with the pairs gated behind
    v from u's side; the leaf's mass then moves onto v.  Sums are over u's
    component at pass start: a fold never leaves its component and conserves
    the component's mass, so each component folds against its own total.
    """
    changes = 0
    for comp in w.components():
        total = sum(map(w.mass, comp))
        queue = deque(v for v in comp if len(w.adj[v]) <= 1)
        while queue:
            u = queue.popleft()
            if w.adj[u] is None:
                continue
            deg = len(w.adj[u])
            if deg == 0:
                # Lone vertex: every pair involving its mass is already settled.
                w.retire(u)
                changes += 1
                continue
            if deg != 1:
                continue
            v = next(iter(w.adj[u]))
            # A class bundle hanging off a merged neighbor is not a true leaf in
            # the unmerged graph; leave those for the side pass or the kernel.
            if w.ident[v] != 1:
                continue
            if w.ident[u] != 1 and not w.internal_edgeless[u]:
                continue
            mass_u = w.mass(u)
            rest = total - mass_u
            credit = (w.reach[u] - 1) * rest
            if credit:
                for m in w.members[u]:
                    out[m] += credit
            out[w.members[v][0]] += mass_u * (rest - 1)
            w.reach[v] += mass_u
            w.delete(u)
            changes += 1
            if len(w.adj[v]) <= 1:
                queue.append(v)
    return changes


def remove_bridges(w: WorkGraph, out: np.ndarray) -> int:
    """Remove every bridge between unmerged endpoints in one pass.

    A bridge is a biconnected block of two vertices.  Cut-side mass sums are
    order-independent, so corrections and reciprocal reach updates use the
    two sides of each bridge cut directly, as the block decomposition's DFS
    measured them before any bridge went.  Both endpoints are checked: a
    single-edge block can hang a merged class below an unmerged top, and the
    last block under a merged root can be a single edge whose top is merged.
    """
    changes = 0
    for blocks, below, total in kernels.block_walk(w.adj, w.reach, w.ident):
        for block, side_v in zip(blocks, below):
            if len(block) != 2:
                continue
            v, u = block  # u tops the block
            if w.ident[u] != 1 or w.ident[v] != 1:
                continue
            side_u = total - side_v
            out[w.members[u][0]] += (side_u - 1) * side_v
            out[w.members[v][0]] += (side_v - 1) * side_u
            w.reach[u] += side_v
            w.reach[v] += side_u
            w.remove_edge(u, v)
            changes += 1
    return changes


def shatter_articulation(w: WorkGraph) -> int:
    """Split every component at its unmerged articulation vertices at once.

    A merged class never cuts, so the blocks that meet at one shatter as one
    block.  Every block but the walk's last gets a fresh copy of its top,
    with reach ``total - below[k]``, which takes over the top's edges into
    the block.  The top keeps its id in the one block where it is not the
    top and gains the mass below each block it tops, so every instance
    carries the mass beyond its block's side of the cut plus its own, and
    no score corrections are needed.  Returns how many components it made.
    """
    new_components = 0
    for blocks, below, total in kernels.block_walk(w.adj, w.reach, w.ident):
        for block, side in zip(blocks[:-1], below):
            top = block[-1]
            copy = w.add_vertex(w.members[top][0], total - side)
            for x in w.adj[top].intersection(block):
                w.remove_edge(top, x)
                w.add_edge(copy, x)
            w.reach[top] += side
            new_components += 1
        for top in {block[-1] for block in blocks[:-1]}:
            w.adj[top] = set(w.adj[top])  # a set keeps its table when it shrinks
    return new_components


def remove_side_vertices(w: WorkGraph, out: np.ndarray, max_degree: int = DEFAULT_MAX_SIDE_DEGREE) -> int:
    """Remove vertices whose unfolded neighborhood is a clique.

    Such a vertex is never interior to a shortest path, so one compensation
    BFS (:func:`kernels.side_bfs`) plus an endpoint credit settles every pair
    involving its mass, and the mass retires.  The BFS reaches the vertex's
    whole component, which removing a simplicial vertex never splits, so the
    mass the credit needs is read off the vertices it returns.  Detection is
    one sweep over vertices of degree <= max_degree; removals can expose new
    side vertices, which the next loop iteration picks up.

    The candidate test and the whole sweep are one call of
    :func:`kernels.side_sweep`; the removed candidates then retire in
    candidate order.
    """
    removed, _ = kernels.side_sweep(w.adj, w.members, w.reach, w.ident, w.internal_edgeless, w.internal_clique,
                                    max_degree, out)
    for u in removed:
        w.retire(u)
    return len(removed)


def merge_identical(w: WorkGraph, out: np.ndarray) -> int:
    """Fold identical vertices into one representative per class.

    Open-neighborhood twins first, then closed-neighborhood twins.  Vertices
    are grouped by their sorted open or closed neighborhood and reach, so
    only vertices with equal reach merge; that restriction only costs missed
    compression, never correctness.  The members' partial scores may differ:
    each keeps its own, and every later addition reaches all of them alike.
    """
    changes = _merge_sweep(w, out, closed=False)
    changes += _merge_sweep(w, out, closed=True)
    return changes


def _merge_sweep(w: WorkGraph, out: np.ndarray, closed: bool) -> int:
    # Classes taken here stay valid through the sweep: a merge deletes the
    # same vertices from every twin's neighborhood.
    return sum(_merge_class(w, out, verts, closed) for verts in kernels.twin_classes(w.adj, w.reach, closed))


def _merge_class(w: WorkGraph, out: np.ndarray, verts: list[int], closed: bool) -> int:
    rep = verts[0]
    r = w.reach[rep]
    idents = [w.ident[v] for v in verts]
    total_ident = sum(idents)
    # Interior credit: each copy gates the reach mass of its new siblings'
    # copies.  (Pairs inside an already-merged class were settled when that
    # class formed, hence "new siblings" only.)
    if r > 1:
        for v, iv in zip(verts, idents):
            amount = (total_ident - iv) * r * (r - 1)
            for m in w.members[v]:
                out[m] += amount
    if not closed:
        # Open twins sit at distance 2; their cross pairs run through the
        # shared neighborhood and split evenly over its unfolded size.
        cross_pairs = total_ident * total_ident - sum(i * i for i in idents)
        shared = sum(w.ident[x] for x in w.adj[rep])
        amount = cross_pairs * r * r / shared
        # One addition per member: copies of one original lie in different components.
        for x in w.adj[rep]:
            for m in w.members[x]:
                out[m] += amount
    w.ident[rep] = total_ident
    w.members[rep] = tuple(m for v in verts for m in w.members[v])
    w.internal_edgeless[rep] = not closed and all(w.internal_edgeless[v] for v in verts)
    w.internal_clique[rep] = closed and all(w.internal_clique[v] for v in verts)
    for v in verts[1:]:
        w.delete(v)
    return len(verts) - 1


def run_pass(w: WorkGraph, letter: str, out: np.ndarray, max_side_degree: int = DEFAULT_MAX_SIDE_DEGREE) -> int:
    if letter == "d":
        return remove_degree1(w, out)
    if letter == "b":
        return remove_bridges(w, out)
    if letter == "a":
        return shatter_articulation(w)
    if letter == "s":
        return remove_side_vertices(w, out, max_side_degree)
    if letter == "i":
        return merge_identical(w, out)
    raise ValueError(f"unknown reduction pass {letter!r}")


def preprocess(g: Graph, combination: Combination | str, max_side_degree: int = DEFAULT_MAX_SIDE_DEGREE):
    """Apply the combination's passes to a fixed point.

    One iteration runs the enabled passes in the combination's letter order;
    iterations repeat while any pass reports a change (each pass can make the
    graph amenable to another).  Returns (work graph, partial score vector,
    pass statistics).  A side-degree cap below 1 is refused before any work.
    """
    if max_side_degree < 1:
        raise ValueError("max_side_degree must be >= 1")
    combo = Combination.parse(combination) if isinstance(combination, str) else combination
    w = WorkGraph.from_graph(g)
    out = np.zeros(g.n, dtype=np.float64)
    stats = PassStats()
    passes = combo.reduction_passes()
    iteration = 0
    if passes:
        while True:
            iteration += 1
            any_change = False
            for letter in passes:
                start = perf_counter()
                changes = run_pass(w, letter, out, max_side_degree)
                seconds = perf_counter() - start
                stats.record(iteration, letter, changes, w.live_vertex_count(), w.live_edge_count, seconds)
                any_change = any_change or changes > 0
            if not any_change:
                break
            w.compact()
    stats.iterations = iteration
    return w, out, stats


def finalize(w: WorkGraph, partial: np.ndarray, kernel_scores: dict[int, float]) -> np.ndarray:
    """Reassemble final scores: every original vertex collects its partial
    corrections plus the kernel totals of all surviving vertices that carry
    it (copies and merged members alike share one accumulator slot)."""
    final = np.array(partial, dtype=np.float64, copy=True)
    for v, amount in kernel_scores.items():
        if amount:
            for m in w.members[v]:
                final[m] += amount
    return final
