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
(``kernels.twin_sweep``).  The passes then edit the arrays in batches, each
edit writing its rows once as a new plain CSR: no pass walks the arcs in
Python, and no scan meets a removed vertex or arc.  Both edits that copy
every arc run through ``kernels`` too: the rebuild that drops vertices or
edges, :meth:`WorkGraph.compact` (``kernels.rebuild``), and the shattered
rows of ``a`` (``kernels.shatter_arcs``).

Every pass writes its score corrections eagerly into a per-original-vertex
accumulator, so reassembly after the kernels is just adding each surviving
vertex's kernel total to all of its merged members.

Bookkeeping invariants (asserted in tests):

* ``reach[v] >= 1``, ``ident[v] >= 1`` for every vertex; a vertex stands
  for ``ident[v] * reach[v]`` original vertices ("mass").
* After any sequence of a/b/d passes on a connected input, every component's
  mass sums to n.  Side removals and isolated-vertex retirement move mass to
  ``retired_mass`` instead, so remaining mass + retired mass == n until a split
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

import operator
from dataclasses import dataclass, field
from time import perf_counter

import numpy as np

from . import kernels
from .graph import Graph, _checked_csr

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
    """Mutable reduced graph with per-vertex reach/ident attributes, all
    held in numpy arrays.

    The rows are one plain CSR, as ``Graph`` holds them: v's arcs are
    ``targets[offsets[v]:offsets[v + 1]]`` (int64 offsets, int32 targets),
    every target one of the ``n`` vertices.  :meth:`delete` and
    :meth:`remove_edges` end in one :meth:`compact`, and ``a`` sets the
    rows :func:`kernels.shatter_arcs` writes, so no vertex or arc is ever
    dead.  ``reach`` and ``ident`` are int64, the class flags bool.  The
    original vertices v carries are
    ``member_ids[member_offsets[v]:member_offsets[v + 1]]``; the first is
    the one v started as, or was copied from.
    """

    # internal_edgeless and internal_clique: are the copies of a merged class
    # pairwise non-adjacent (open twins) or pairwise adjacent (closed twins)?
    # Singletons are vacuously both.
    __slots__ = ("offsets", "targets", "reach", "ident", "internal_edgeless", "internal_clique",
                 "member_offsets", "member_ids", "retired_mass")

    @classmethod
    def from_graph(cls, g: Graph) -> "WorkGraph":
        """``g`` with unit attributes, refused as ``graph.relabel`` refuses it."""
        w = cls()
        w.offsets, w.targets = (a.copy() for a in _checked_csr(g))
        w.reach, w.ident = np.ones(g.n, dtype=np.int64), np.ones(g.n, dtype=np.int64)
        w.internal_edgeless, w.internal_clique = np.ones(g.n, dtype=bool), np.ones(g.n, dtype=bool)
        w.member_offsets, w.member_ids = np.arange(g.n + 1, dtype=np.int64), np.arange(g.n, dtype=np.int64)
        w.retired_mass = 0
        return w

    @property
    def n(self) -> int:
        """The number of vertices."""
        return len(self.reach)

    @property
    def m(self) -> int:
        """The number of edges."""
        return len(self.targets) // 2

    def _slots(self, vertices: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The arc indices of the rows of ``vertices``, row after row, and
        for each the position in ``vertices`` of its row."""
        starts = self.offsets[vertices]
        lengths = self.offsets[vertices + 1] - starts
        which = np.repeat(np.arange(len(vertices)), lengths)
        return np.arange(len(which)) + np.repeat(starts - np.cumsum(lengths) + lengths, lengths), which

    def rows(self) -> list[list[int]]:
        """The neighbors of every vertex as lists in CSR order: what the
        Python forms of the scans and loops read."""
        flat, ends = self.targets.tolist(), self.offsets.tolist()
        return [flat[a:b] for a, b in zip(ends, ends[1:])]

    def member_lists(self) -> list[list[int]]:
        flat, ends = self.member_ids.tolist(), self.member_offsets.tolist()
        return [flat[a:b] for a, b in zip(ends, ends[1:])]

    def append(self, rows, reach, first) -> None:
        """Add vertices of unit ident, each carrying one original vertex
        (``first``), and take ``rows``, a CSR ``(offsets, targets)`` over the
        old vertices and the new ones after them, as the rows."""
        k = len(reach)
        self.offsets, self.targets = rows
        tails = {"reach": reach, "ident": 1, "internal_edgeless": True, "internal_clique": True,
                 "member_offsets": self.member_offsets[-1] + np.arange(1, k + 1), "member_ids": first}
        for name, tail in tails.items():
            head = getattr(self, name)
            tail = np.full(k, tail, dtype=head.dtype) if np.isscalar(tail) else np.asarray(tail, dtype=head.dtype)
            setattr(self, name, np.concatenate([head, tail]))

    def remove_edges(self, us: np.ndarray, vs: np.ndarray) -> None:
        """Remove both arcs of every edge (us[k], vs[k])."""
        keep = np.ones(len(self.targets), dtype=bool)
        for a, b in ((us, vs), (vs, us)):
            slots, which = self._slots(a)
            keep[slots[self.targets[slots] == b[which]]] = False
        self.compact(None, keep)

    def delete(self, vertices) -> None:
        """Delete a vertex or a batch of them (an id, or ids in a list or an
        integer array), with their arcs and the arcs into them.  Their mass
        must already be accounted."""
        keep = np.ones(self.n, dtype=bool)
        keep[vertices] = False
        self.compact(keep, None)

    def retire(self, vertices) -> None:
        """Delete vertices whose remaining pair dependencies are all settled."""
        self.retired_mass += int((self.ident[vertices] * self.reach[vertices]).sum())
        self.delete(vertices)

    def components(self) -> list[list[int]]:
        """Sorted vertex lists of the components, in first-id order:
        :func:`kernels.bfs` from vertex 0.  Sorted as lists: a numpy sort
        would page in sort code that nothing else on a solve without merges
        runs, about 0.13 MB resident."""
        kernels._check_work_graph(self)
        flat, ends = kernels.bfs(self.offsets, self.targets, 0)
        flat, ends = flat.tolist(), ends.tolist()
        return [sorted(flat[a:b]) for a, b in zip(ends, ends[1:])]

    def compact(self, keep_vertices: np.ndarray | None, keep_arcs: np.ndarray | None) -> None:
        """The one rebuild: drop the vertices ``keep_vertices`` clears, with
        their arcs and the arcs into them, and the arcs ``keep_arcs`` clears
        (bool masks; None keeps them all).  The survivors are renumbered in
        increasing order and every row keeps its arcs in their order, so
        each scan visits them in the order it did before the edit.  The rows
        are one call of :func:`kernels.rebuild`, compiled where the library
        loads; the vertex arrays and members follow in numpy, gathered with
        ``take`` at the kept ids, found once: on a random 50,000-slot mask a
        boolean gather takes 2 to 20 times as long as a ``take``, by how
        many slots it keeps."""
        self.offsets, self.targets = kernels.rebuild(self.offsets, self.targets, keep_vertices, keep_arcs)
        if keep_vertices is not None:
            kept = np.flatnonzero(keep_vertices)
            starts = self.member_offsets.take(kept)
            counts = self.member_offsets.take(kept + 1) - starts
            self.member_offsets = np.zeros(len(kept) + 1, dtype=np.int64)
            np.cumsum(counts, out=self.member_offsets[1:])
            # each kept member's old slot: its new slot plus its row's shift
            slots = np.repeat(starts - self.member_offsets[:-1], counts)
            slots += np.arange(len(slots))
            self.member_ids = self.member_ids.take(slots)
            for name in ("reach", "ident", "internal_edgeless", "internal_clique"):
                setattr(self, name, getattr(self, name).take(kept))


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
    if not len(bridges):
        return 0
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
    block, so the arc from x names the block's copy instead, and the arc
    from the top moves to the copy's row.  The shattered rows, the copies'
    after the old ones, are one new CSR from one call of
    :func:`kernels.shatter_arcs`, compiled where the library loads.
    """
    flat, ends, below, comp_ends, totals = kernels.block_walk(w)
    # index nblocks is "no block", the last block of a component without any
    copied = np.append(np.ones(len(ends) - 1, dtype=bool), False)
    copied[comp_ends[1:] - 1] = False  # each component's last block
    copied = copied[:-1]
    blocks = np.flatnonzero(copied)
    if not blocks.size:
        return 0
    rows = kernels.shatter_arcs(w, flat, ends, copied)
    below, tops, totals = below[blocks], flat[ends[blocks + 1] - 1], np.repeat(totals, np.diff(comp_ends))[blocks]
    np.add.at(w.reach, tops, below)
    w.append(rows, totals - below, w.member_ids[w.member_offsets[tops]])
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
    :func:`kernels.side_sweep`; the removed candidates, an int32 array,
    then retire together.
    """
    removed, _ = kernels.side_sweep(w, max_degree, out)
    if len(removed):
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
    owner = np.arange(w.n)
    owner[members] = np.repeat(reps, sizes)
    slot_owner = np.repeat(owner, np.diff(w.member_offsets))
    w.member_ids = w.member_ids[np.argsort(slot_owner, kind="stable")]
    np.cumsum(np.bincount(slot_owner, minlength=w.n), out=w.member_offsets[1:])
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
    pass statistics).  A side-degree cap that is not an integer
    (``operator.index``) or is below 1 is refused before any work, whatever
    the combination.
    """
    max_side_degree = operator.index(max_side_degree)
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
                stats.record(iteration, letter, changes, w.n, w.m, seconds)
                any_change = any_change or changes > 0
            if not any_change:
                break
    stats.iterations = iteration
    return w, out, stats


def finalize(w: WorkGraph, partial: np.ndarray, order: np.ndarray, totals: np.ndarray) -> np.ndarray:
    """Reassemble final scores: every original vertex collects its partial
    corrections, then each nonzero kernel total ``totals[k]`` of the work
    vertex ``order[k]`` that carries it (copies and merges alike), by k."""
    final = np.array(partial, dtype=np.float64, copy=True)
    member_offsets, members = w.member_offsets.tolist(), w.member_ids.tolist()
    added = np.flatnonzero(totals)
    for v, amount in zip(order[added].tolist(), totals[added].tolist()):
        for m in members[member_offsets[v] : member_offsets[v + 1]]:
            final[m] += amount
    return final
