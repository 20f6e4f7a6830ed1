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

The per-vertex scans and loops of the passes run through ``kernels``,
compiled where the library loads, on the work graph's own arrays: the
cascade of ``d`` (``kernels.degree1``), the block walk of ``b`` and ``a``
(``kernels.block_walk``), the side candidates (inside
``kernels.side_sweep``) and the classes and credits of each ``i`` sweep
(``kernels.twin_sweep``).  The passes then edit the arrays in batches (see
:class:`WorkGraph`): no pass walks the arcs in Python.

Every pass writes its score corrections eagerly into a per-original-vertex
accumulator, so reassembly after the kernels is just adding each surviving
vertex's kernel total to all of its merged members.

Bookkeeping invariants (asserted in tests):

* ``reach[v] >= 1``, ``ident[v] >= 1`` for live vertices; a vertex stands
  for ``ident[v] * reach[v]`` original vertices ("mass").
* After any sequence of a/b/d passes on a connected input, every component's
  mass sums to n.  Side removals and isolated-vertex retirement move mass to
  ``retired_mass`` instead, so live mass + retired mass == n until a split
  (``b`` or ``a``) gives each side the mass of the whole.
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


# The target of a removed arc.
DEAD_ARC = -1


class WorkGraph:
    """Mutable reduced graph with per-vertex reach/ident attributes, all
    held in numpy arrays.

    The rows are one CSR, as ``Graph`` holds them: v's arcs are
    ``targets[offsets[v]:offsets[v + 1]]`` (int64 offsets, int32 targets).
    A removed edge's two arcs stay where they were, marked ``DEAD_ARC``.
    ``live`` (uint8) is clear for a deleted vertex; its arcs and the arcs
    into it are dead.  Vertices that ``a`` adds get their rows appended, so
    ids and rows only grow until :meth:`compact` drops what is dead.
    ``reach`` and ``ident`` are int64, the class flags bool.  The original
    vertices v carries are ``member_ids[member_offsets[v]:member_offsets[v +
    1]]``; the first is the one v started as, or was copied from.
    """

    # internal_edgeless and internal_clique: are the copies of a merged class
    # pairwise non-adjacent (open twins) or pairwise adjacent (closed twins)?
    # Singletons are vacuously both.
    __slots__ = ("offsets", "targets", "live", "reach", "ident", "internal_edgeless", "internal_clique",
                 "member_offsets", "member_ids", "live_edge_count", "retired_mass")

    @classmethod
    def from_graph(cls, g: Graph) -> "WorkGraph":
        w = cls()
        w.offsets, w.targets, w.live = g.offsets.copy(), g.neighbors.copy(), np.ones(g.n, dtype=np.uint8)
        w.reach, w.ident = np.ones(g.n, dtype=np.int64), np.ones(g.n, dtype=np.int64)
        w.internal_edgeless, w.internal_clique = np.ones(g.n, dtype=bool), np.ones(g.n, dtype=bool)
        w.member_offsets, w.member_ids = np.arange(g.n + 1, dtype=np.int64), np.arange(g.n, dtype=np.int64)
        w.live_edge_count, w.retired_mass = g.m, 0
        return w

    def live_vertex_count(self) -> int:
        return int(np.count_nonzero(self.live))

    def _sources(self) -> np.ndarray:
        """The row each arc lies in."""
        return np.repeat(np.arange(len(self.live), dtype=np.int32), np.diff(self.offsets))

    def _slots(self, vertices: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The arc indices of the rows of ``vertices``, row after row, and
        for each the position in ``vertices`` of its row."""
        starts = self.offsets[vertices]
        lengths = self.offsets[vertices + 1] - starts
        which = np.repeat(np.arange(len(vertices)), lengths)
        return np.arange(len(which)) + np.repeat(starts - np.cumsum(lengths) + lengths, lengths), which

    def rows(self) -> list[list[int] | None]:
        """The live neighbors of every vertex as lists in CSR order, None
        for a deleted vertex: what the Python forms of the scans and loops
        read."""
        targets = self.targets
        arcs = (targets != DEAD_ARC) & (self.live[targets] != 0)
        flat = targets[arcs].tolist()
        ends = np.cumsum(np.bincount(self._sources()[arcs], minlength=len(self.live))).tolist()
        return [flat[a:b] if alive else None for a, b, alive in zip([0, *ends], ends, self.live.tolist())]

    def member_lists(self) -> list[list[int]]:
        flat, ends = self.member_ids.tolist(), self.member_offsets.tolist()
        return [flat[a:b] for a, b in zip(ends, ends[1:])]

    def append(self, reach, first, counts, targets) -> None:
        """Add vertices of unit ident, each carrying one original vertex
        (``first``), with ``counts[k]`` arcs to ``targets``, row after row.
        The arcs back to them must be in place already."""
        k = len(reach)
        tails = {"offsets": self.offsets[-1] + np.cumsum(counts), "targets": targets, "live": 1, "reach": reach,
                 "ident": 1, "internal_edgeless": True, "internal_clique": True,
                 "member_offsets": self.member_offsets[-1] + np.arange(1, k + 1), "member_ids": first}
        for name, tail in tails.items():
            head = getattr(self, name)
            tail = np.full(k, tail, dtype=head.dtype) if np.isscalar(tail) else np.asarray(tail, dtype=head.dtype)
            setattr(self, name, np.concatenate([head, tail]))

    def remove_edges(self, us: np.ndarray, vs: np.ndarray) -> None:
        """Kill both arcs of every edge (us[k], vs[k])."""
        for a, b in ((us, vs), (vs, us)):
            slots, which = self._slots(a)
            self.targets[slots[self.targets[slots] == b[which]]] = DEAD_ARC
        self.live_edge_count -= len(us)

    def delete(self, vertices) -> None:
        """Delete a vertex or a batch of them: clear them in ``live`` and
        kill their arcs and the arcs into them.  Their mass must already be
        accounted."""
        self.live[vertices] = 0
        targets = self.targets
        dead = (targets != DEAD_ARC) & ((self.live[targets] == 0) | (np.repeat(self.live, np.diff(self.offsets)) == 0))
        targets[dead] = DEAD_ARC
        self.live_edge_count -= int(np.count_nonzero(dead)) // 2

    def retire(self, vertices) -> None:
        """Delete vertices whose remaining pair dependencies are all settled."""
        self.retired_mass += int((self.ident[vertices] * self.reach[vertices]).sum())
        self.delete(vertices)

    def components(self) -> list[list[int]]:
        """Sorted vertex lists of the live components, in first-id order.
        Sorted as lists: a numpy sort would page in sort code that nothing
        else on a solve without merges runs, about 0.13 MB resident."""
        flat, ends = kernels.components(self)
        flat, ends = flat.tolist(), ends.tolist()
        return [sorted(flat[a:b]) for a, b in zip(ends, ends[1:])]

    def compact(self) -> None:
        """Drop deleted vertices and dead arcs and renumber; run between loop
        iterations so pass code never sees ids move mid-flight."""
        keep = np.flatnonzero(self.live)
        n = len(self.live)
        if len(keep) == n and len(self.targets) == 2 * self.live_edge_count:
            return
        remap = np.cumsum(self.live, dtype=np.int32) - 1  # a live vertex's new id
        arcs = self.targets != DEAD_ARC
        degrees = np.bincount(self._sources()[arcs], minlength=n)[keep]
        self.offsets = np.concatenate([[0], np.cumsum(degrees)])
        self.targets = remap[self.targets[arcs]]
        counts = np.diff(self.member_offsets)
        self.member_ids = self.member_ids[np.repeat(self.live != 0, counts)]
        self.member_offsets = np.concatenate([[0], np.cumsum(counts[keep])])
        for name in ("live", "reach", "ident", "internal_edgeless", "internal_clique"):
            setattr(self, name, getattr(self, name)[keep])


def remove_degree1(w: WorkGraph, out: np.ndarray) -> int:
    """Cascading degree-1 removal per component; also retires lone vertices.

    Folding a leaf u into its neighbor v credits u's members with the pair
    dependencies gated behind u and v's original with the pairs gated behind
    v from u's side; the leaf's mass then moves onto v.  Each component
    folds against its own mass at pass start.  The whole cascade is one call
    of :func:`kernels.degree1`; what it folds or retires is then deleted
    together.
    """
    gone, reach, retired = kernels.degree1(w, out)
    if len(gone):
        w.reach = reach
        w.retired_mass += retired
        w.delete(gone)
    return len(gone)


def remove_bridges(w: WorkGraph, out: np.ndarray) -> int:
    """Remove every bridge between unmerged endpoints in one pass.

    A bridge is a biconnected block of two vertices.  Cut-side mass sums are
    order-independent, so corrections and reciprocal reach updates use the
    two sides of each bridge cut directly, as the block decomposition's DFS
    measured them before any bridge went.  Both endpoints are checked: a
    single-edge block can hang a merged class below an unmerged top, and the
    last block under a merged root can be a single edge whose top is merged.
    """
    flat, ends, below, comp_ends, totals = kernels.block_walk(w)
    bridges = np.flatnonzero(np.diff(ends) == 2)
    v, u = flat[ends[bridges]], flat[ends[bridges] + 1]  # u tops the block
    unmerged = (w.ident[u] == 1) & (w.ident[v] == 1)
    bridges, u, v = bridges[unmerged], u[unmerged], v[unmerged]
    side_v = below[bridges]
    side_u = totals[np.searchsorted(comp_ends, bridges, side="right") - 1] - side_v
    first_u, first_v = w.member_ids[w.member_offsets[u]], w.member_ids[w.member_offsets[v]]
    for fu, fv, su, sv in zip(first_u.tolist(), first_v.tolist(), side_u.tolist(), side_v.tolist()):
        out[fu] += (su - 1) * sv
        out[fv] += (sv - 1) * su
    np.add.at(w.reach, u, side_v)
    np.add.at(w.reach, v, side_u)
    w.remove_edges(u, v)
    return len(bridges)


def shatter_articulation(w: WorkGraph) -> int:
    """Split every component at its unmerged articulation vertices at once.

    A merged class never cuts, so the blocks that meet at one shatter as one
    block.  Every block but the walk's last gets a fresh copy of its top,
    with reach ``total - below[k]``, which takes over the top's edges into
    the block.  The top keeps its id in the one block where it is not the
    top and gains the mass below each block it tops, so every instance
    carries the mass beyond its block's side of the cut plus its own, and
    no score corrections are needed.  Returns how many components it made.

    Every vertex but a component's root is a non-top vertex of one block,
    its home.  An edge between x and the top of x's home block lies in that
    block, so the arc from x is rewritten in place to the block's copy, and
    the arc from the top moves to the copy's row, appended at the end.
    """
    flat, ends, below, comp_ends, totals = kernels.block_walk(w)
    nblocks = len(ends) - 1
    # index nblocks is "no block": the home of a root, and of index n below
    copied = np.append(np.ones(nblocks, dtype=bool), False)
    copied[comp_ends[1:] - 1] = False  # each component's last block, or "no block"
    blocks = np.flatnonzero(copied)
    if not blocks.size:
        return 0
    n = len(w.live)
    top = np.append(flat[ends[1:] - 1], -2)
    copy = np.zeros(nblocks + 1, dtype=np.int32)
    copy[blocks] = np.arange(n, n + len(blocks), dtype=np.int32)
    home = np.full(n + 1, nblocks)  # a dead arc's target, -1, reads home[n]
    home[np.delete(flat, ends[1:] - 1)] = np.repeat(np.arange(nblocks), np.diff(ends) - 1)
    sources, targets = w._sources(), w.targets
    into = copied[home[sources]] & (top[home[sources]] == targets)
    moved = np.flatnonzero(copied[home[targets]] & (top[home[targets]] == sources))
    owner = copy[home[targets[moved]]]
    order = np.argsort(owner, kind="stable")
    row_targets = targets[moved][order]
    targets[into] = copy[home[sources[into]]]
    targets[moved] = DEAD_ARC
    below, tops, totals = below[blocks], top[blocks], np.repeat(totals, np.diff(comp_ends))[blocks]
    np.add.at(w.reach, tops, below)
    w.append(totals - below, w.member_ids[w.member_offsets[tops]], np.bincount(owner - n, minlength=len(blocks)),
             row_targets)
    return len(blocks)


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
    :func:`kernels.side_sweep`; the removed candidates then retire together.
    """
    removed, _ = kernels.side_sweep(w, max_degree, out)
    if removed:
        w.retire(removed)
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
    """One sweep: every class the sweep finds folds into its lowest vertex.

    :func:`kernels.twin_sweep` finds the classes and adds their credits, all
    read off the graph as the sweep found it.  The merges then apply
    together, class by class in numpy: the lowest vertex takes the class's
    ident sum, its flags and all of its members, and the rest are deleted.
    """
    members, class_ends = kernels.twin_sweep(w, closed, out)
    if not len(members):
        return 0
    starts, sizes = class_ends[:-1], np.diff(class_ends)
    reps = members[starts]
    w.ident[reps] = np.add.reduceat(w.ident[members], starts)
    w.internal_edgeless[reps] = np.logical_and.reduceat(w.internal_edgeless[members], starts) & (not closed)
    w.internal_clique[reps] = np.logical_and.reduceat(w.internal_clique[members], starts) & closed
    # every member moves to its class's lowest vertex, the classes' in class order
    owner = np.arange(len(w.live))
    owner[members] = np.repeat(reps, sizes)
    slot_owner = np.repeat(owner, np.diff(w.member_offsets))
    w.member_ids = w.member_ids[np.argsort(slot_owner, kind="stable")]
    np.cumsum(np.bincount(slot_owner, minlength=len(w.live)), out=w.member_offsets[1:])
    w.delete(np.delete(members, starts))
    return len(members) - len(reps)


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
    member_offsets, members = w.member_offsets.tolist(), w.member_ids.tolist()
    for v, amount in kernel_scores.items():
        if amount:
            for m in members[member_offsets[v] : member_offsets[v + 1]]:
                final[m] += amount
    return final
