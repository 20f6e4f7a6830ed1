"""Betweenness kernels, and the reduction's scans and loops, each compiled
and in Python.

All kernels use the ordered-pair convention: a pair (s, t) contributes its
dependency once per direction, so no halving happens here (that is a CLI
output option).  Shortest-path counts sigma are kept in float64 because they
can overflow 64-bit integers on dense graphs while the dependency ratios
stay well conditioned.

Eight entry points each pair compiled code in ``_brandes.c`` with a Python
form.  Two run the attribute-general Brandes algorithm:

* ``brandes``, all sources of every component of a layout in one call:
  ``bcs_brandes``, which runs up to 64 sources of one component in one
  traversal, and ``brandes_python``, which takes one source at a time.
  Both follow one canonical order, defined per source (see
  ``brandes_python``), so they agree bit for bit.
* ``side_sweep``, a whole side-vertex pass of
  ``reduction.remove_side_vertices``: the candidate test, then one run per
  candidate over the work graph, adding the amounts straight into the score
  accumulator: ``bcs_side_sweep`` and ``side_sweep_python``, whose test is
  ``expanded_clique`` and whose runs are ``side_bfs``.  Each run is a FIFO
  BFS that records every vertex's predecessors and pushes dependencies
  back along them, ``side_bfs`` in Python and ``forward()`` with its
  ``empty_buckets`` in C.  The side runs keep this traversal of their own:
  on the kernel's traversal, one lane or 64 at a time, they measured
  slower (ROADMAP item 3, reopened after items 1-2).

Two run a whole pass's loop over the work graph, adding its credits to the
score accumulator in the Python form's order, integer products converted
exactly:

* ``degree1``, the cascade of ``reduction.remove_degree1``:
  ``bcs_degree1`` and ``degree1_python``.
* ``twin_sweep``, the grouping and credits of one identical-vertex sweep of
  ``reduction.merge_identical``: ``bcs_twin_sweep`` and
  ``twin_sweep_python``.

Two are scans, which compute no score and return exactly what their
Python forms return, in order:

* ``block_walk``, the blocks and cut-side masses of every component of the
  work graph, read by the bridge and articulation passes: ``bcs_blocks``
  and ``block_walk_python``, whose walks are ``_block_dfs``.
* ``bfs``, the one BFS, over a ``Graph``'s CSR for ``graph.bfs_order`` and
  ``graph.connected_components``, or over the work graph's for
  ``WorkGraph.components``: ``bcs_bfs`` and ``bfs_python``.  It also starts
  the degree-1 cascade in both forms.

Two are the edits that copy every arc, whose Python forms are numpy:

* ``rebuild``, the rows of ``WorkGraph.compact``, the rebuild that drops
  vertices or edges: ``bcs_compact``, a renumber map and then each kept
  row's kept arcs in order, and ``rebuild_python``, masks and running
  counts over the arcs.
* ``shatter_arcs``, the shattered rows of
  ``reduction.shatter_articulation``: ``bcs_shatter``, two passes over the
  arcs that count and then write each new row, the copies' rows after the
  old ones, and ``shatter_arcs_python``, per-arc masks and a stable sort
  of the arcs by new row.

Their results are equal element for element, and each output array has
exactly the size of what it holds.

The compiled forms of all but ``brandes`` read the work graph's own
arrays in place: every edit leaves its rows a plain CSR, so they read every
arc.  The Python forms of the scans and loops read the same arcs in the
same order as lists, ``WorkGraph.rows``.  ``brandes`` reads the layout the
engine makes of the reduced work graph, once per solve: its CSR renumbered
so that each component is a range of ids, the components' bounds, and its
attributes in that order.  It makes no list, and its Python form makes its
own from the arrays.

``_check_csr`` is the one CSR check, for a ``Graph`` and for the work
graph's rows and members.

The library also holds the graph layer's other compiled steps, bound here
and called from ``graph.py``, whose Python code is their reference:

* ``bcs_parse``, the one pass over a plain edge list's bytes, called by
  ``graph._parse_plain_edge_list``; the line loop of
  ``graph.parse_edge_list`` is the reference.
* ``bcs_edge_csr``, the builder of every ``Graph``, ``graph._edge_csr``,
  and ``bcs_relabel``, ``graph.relabel``, written transposed: their numpy
  forms.

The first call that needs the library builds it with the local C compiler
into a per-user cache named by the hash of the source and the compile
command, and loads it with ctypes.  Each entry point is one foreign call
that passes only its inputs and results: the compiled code allocates its
own scratch, and a failed allocation raises MemoryError.  An array goes
over as the address of its data, through one small argument type per dtype
(``_array``) that refuses what is not a C-contiguous array of that dtype;
numpy's ``ctypeslib.ndpointer`` took about twice as long per array.  Where
an output's size is known only once the compiled code has run, as for the
arcs ``bcs_compact`` keeps when it drops vertices, it gets the size of its
bound and is shrunk in place afterwards.  ``bcs_brandes`` runs each
component's sources in batches of up to 64 consecutive ids, one bit of each
vertex's lane mask per source, with sigma and delta kept per vertex and
lane, indexed from the component's first id, and the BFS levels in one flat
list; its scratch spans the largest component, and it runs fewer lanes
only where those arrays would pass 64 MB, which changes no score.  The
Python forms are the references the tests hold the compiled forms to, and
run, silently, when the library cannot be built or loaded.  Each entry point checks its inputs, their
dtypes included, before it picks a form, so both forms accept and refuse
the same inputs.

The compiled code evaluates the Python loop's floating-point expressions
in the same order, with contraction into fused multiply-adds turned off, and
both multiply by every attribute: with all attributes equal to 1 every
attribute factor is an exact multiplication by 1, which the degeneration
tests assert bit-for-bit on both, so one call serves every component,
whatever attributes it has.

Attribute semantics on a reduced component:

* ``reach[v]``  - number of original vertices represented by v (v itself
  plus the mass folded behind it by shattering/compression): delta starts
  at reach[v] - 1, the targets hidden behind v, and every source counts
  for reach[s] original sources.
* ``ident[v]``  - number of mutually interchangeable original vertices
  merged into v.  On shortest paths every merged copy acts as a parallel
  route, hence the sigma multiplier; as a source or endpoint it multiplies
  whole dependency trees.  Paths between members of one class are not
  counted here; the merge pass settles those.

``brandes`` returns ``(totals, phase1_seconds, phase2_seconds)`` where
totals[v] is the per-copy contribution for v (shared by all merged copies).
Phase 1 is the forward traversals and phase 2 the backward sweeps with the
score additions, timed per traversal: a batch of sources compiled, one
source in Python.
"""

from __future__ import annotations

import ctypes
import os
import tempfile
from collections import deque
from importlib import resources
from itertools import chain
from operator import index
from pathlib import Path
from time import perf_counter
from typing import TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:  # graph.py calls the library through this module
    from .graph import Graph

class NonFiniteScoresError(ArithmeticError):
    """Some score came out NaN or infinite.  Shortest-path counts are
    float64, so they overflow past about 2^1024 shortest paths between one
    pair, and the dependencies built on them turn into NaN; a few thousand
    vertices in long chains of parallel routes get there.
    :func:`betweenness` and :func:`engine.compute_scores` refuse such a
    result instead of returning it."""


def check_finite(scores: np.ndarray) -> None:
    """Raise :class:`NonFiniteScoresError` when any score is NaN or
    infinite."""
    non_finite = int(np.count_nonzero(~np.isfinite(scores)))
    if non_finite:
        raise NonFiniteScoresError(
            f"{non_finite} of {len(scores)} scores are not finite: shortest-path counts overflowed float64"
        )


def brandes(offsets: np.ndarray, targets: np.ndarray, reach, ident, bounds: np.ndarray):
    """Attribute-general Brandes over every component of a layout, in one
    call: ``bcs_brandes``, or ``brandes_python`` when the compiled library
    cannot be built or loaded.

    ``(offsets, targets)`` is a CSR (int64, int32) whose component c is
    the ids ``bounds[c]`` to ``bounds[c + 1] - 1`` (int64, from 0 to n
    without falling), and every arc stays inside its source's component;
    ``reach`` and ``ident`` hold a whole number >= 1 per vertex.  The rows
    need not be symmetric and may repeat an id: in both forms v adds to
    sigma[w], and pulls from w, once per occurrence of w in v's row, and
    the scores are the same.  Arrays of another dtype or layout, bounds
    that do not start at 0, end at n or rise, an arc that leaves its
    component (it would index outside the compiled form's slots) and an
    attribute that is NaN, infinite, fractional or below 1 raise ValueError
    before either form runs.  Returns ``(totals, phase1_seconds,
    phase2_seconds)``, totals float64 over the ids.
    """
    _check_arrays(("offsets", offsets, np.int64), ("targets", targets, np.int32), ("bounds", bounds, np.int64))
    n = len(offsets) - 1
    _check_csr(offsets, targets, n, 0, n, "neighbor")
    if bounds.size == 0 or bounds[0] != 0 or bounds[-1] != n or np.diff(bounds).min(initial=0) < 0:
        raise ValueError(f"the component bounds must run from 0 to {n} without falling")
    comp = np.repeat(np.arange(len(bounds) - 1, dtype=np.int32), np.diff(bounds))
    if (comp[targets] != np.repeat(comp, np.diff(offsets))).any():
        raise ValueError("every arc must stay inside its source's component")
    reach, ident = _check_counts(reach, n, "reach"), _check_counts(ident, n, "ident")
    lib = _kernel()
    if lib is None:
        return brandes_python(offsets, targets, reach, ident, bounds)
    bc, seconds = np.zeros(n), np.zeros(2)
    lib.bcs_brandes(offsets, targets, reach, ident, len(bounds) - 1, bounds, bc, seconds)
    return bc, float(seconds[0]), float(seconds[1])


def _check_counts(values, n: int, name: str) -> np.ndarray:
    """``values`` as a float64 array, refusing with ValueError one that is
    not n long or holds a value that is not a whole number >= 1: NaN
    compares false with everything, and infinity is not finite."""
    counts = np.asarray(values, dtype=np.float64)
    if counts.shape != (n,):
        raise ValueError(f"{name} needs {n} entries, one per vertex")
    bad = np.flatnonzero(~((counts >= 1) & (np.floor(counts) == counts) & np.isfinite(counts)))
    if bad.size:
        raise ValueError(f"{name}[{bad[0]}] = {counts[bad[0]]}; attribute counts must be integers >= 1")
    return counts


def side_sweep(w, max_degree: int, out: np.ndarray):
    """One side-vertex pass over the work graph ``w``: ``bcs_side_sweep`` on
    its arrays, or ``side_sweep_python`` on its rows when the compiled
    library cannot be built or loaded.

    The candidates are the vertices of degree 1 to ``max_degree``
    whose neighborhood, with every merged class unfolded, is a clique
    (:func:`expanded_clique`), in increasing id order.  For each candidate
    in order whose neighborhood is not yet empty, adds the amounts of
    :func:`side_bfs` and the endpoint credit to ``out`` (float64, one slot
    per original vertex), and treats the candidate as deleted from then on;
    nothing else changes.  Returns ``(removed, arcs)``: the removed
    candidates in order, an int32 array on both forms (the Python form's
    list is converted here), and the arcs their runs scanned, counted as
    for ``side_bfs`` calls (the source's degree plus the degrees it
    reached).
    """
    n = _check_work_graph(w, out)
    lib = _kernel()
    if lib is None:
        removed, arcs = side_sweep_python(w.rows(), w.member_lists(), w.reach.tolist(), w.ident.tolist(),
                                          w.internal_edgeless.tolist(), w.internal_clique.tolist(), max_degree, out)
        return np.array(removed, dtype=np.int32), arcs
    removed, arcs = np.empty(n, dtype=np.int32), np.empty(1, dtype=np.int64)
    # no degree exceeds the arc count
    runs = lib.bcs_side_sweep(n, w.offsets, w.targets, w.member_offsets, w.member_ids, w.reach, w.ident,
                              w.internal_edgeless, w.internal_clique, max(0, min(index(max_degree), len(w.targets))),
                              out, removed, arcs)
    return removed[:runs], int(arcs[0])


def block_walk(w):
    """Blocks and cut-side masses of every component of the work graph
    ``w``: ``bcs_blocks`` on its arrays, or ``block_walk_python`` on its
    rows when the compiled library cannot be built or loaded.

    Returns ``(flat, block_ends, below, comp_ends, totals)``: block k is
    ``flat[block_ends[k]:block_ends[k + 1]]``, its top last, with
    ``below[k]`` the mass below its top; component c holds blocks
    ``comp_ends[c]`` to ``comp_ends[c + 1] - 1`` and has mass ``totals[c]``.
    Components come rooted at their lowest id, in increasing id order.
    """
    n = _check_work_graph(w)
    lib = _kernel()
    if lib is None:
        return block_walk_python(w.rows(), w.reach.tolist(), w.ident.tolist())
    flat = np.empty(2 * n, dtype=np.int32)
    block_ends, below, comp_ends, totals = (np.empty(n + 1, dtype=t) for t in (np.int32, np.int64, np.int32, np.int64))
    counts = np.zeros(2, dtype=np.int64)
    lib.bcs_blocks(n, w.offsets, w.targets, w.reach, w.ident, flat, block_ends, below, comp_ends, totals, counts)
    blocks, comps = counts.tolist()
    return flat[: block_ends[blocks]], block_ends[: blocks + 1], below[:blocks], comp_ends[: comps + 1], totals[:comps]


def twin_sweep(w, closed: bool, out: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The classes one merge sweep folds, and their credits:
    ``bcs_twin_sweep`` on the work graph ``w``'s arrays, or
    ``twin_sweep_python`` on its rows when the compiled library cannot be
    built or loaded.

    Groups the vertices with a neighbor by their open or
    (``closed``) closed neighborhood and their reach; every group of two or
    more is a class.  Adds the classes' interior credits and, in an open
    sweep, their cross credits to ``out`` (float64, one slot per original
    vertex); nothing else changes.  Returns ``(members, class_ends)``
    (int32): class k is ``members[class_ends[k]:class_ends[k + 1]]``,
    ascending, and the classes come in order of lowest member.
    """
    n = _check_work_graph(w, out)
    lib = _kernel()
    if lib is None:
        classes = twin_sweep_python(w.rows(), w.member_lists(), w.reach.tolist(), w.ident.tolist(), closed, out)
        return (np.fromiter(chain.from_iterable(classes), dtype=np.int32),
                np.cumsum([0, *map(len, classes)], dtype=np.int32))
    members, class_ends = np.empty(n, dtype=np.int32), np.empty(n + 1, dtype=np.int32)
    count = lib.bcs_twin_sweep(n, w.offsets, w.targets, w.member_offsets, w.member_ids, w.reach, w.ident,
                               int(closed), out, members, class_ends)
    return members[: class_ends[count]], class_ends[: count + 1]


def degree1(w, out: np.ndarray) -> tuple[np.ndarray, np.ndarray, int]:
    """One degree-1 pass over the work graph ``w``: ``bcs_degree1`` on its
    arrays, or ``degree1_python`` on its rows when the compiled library
    cannot be built or loaded.

    Per component, in order of lowest vertex, runs the cascade of
    :func:`degree1_python` from the vertices of degree 0 or 1, adding the
    fold credits to ``out`` (float64, one slot per original vertex); nothing
    else changes.  Returns ``(gone, reach, retired)``: the folded and
    retired vertices in order (int32), the reach every vertex has after the
    folds (int64), and the mass of the retired vertices.
    """
    n = _check_work_graph(w, out)
    lib = _kernel()
    if lib is None:
        gone, reach, retired = degree1_python(w.offsets.tolist(), w.targets.tolist(), w.member_lists(),
                                              w.reach.tolist(), w.ident.tolist(), w.internal_edgeless.tolist(), out)
        return np.array(gone, dtype=np.int32), np.array(reach, dtype=np.int64), retired
    reach, gone, retired = w.reach.copy(), np.empty(n, dtype=np.int32), np.empty(1, dtype=np.int64)
    count = lib.bcs_degree1(n, w.offsets, w.targets, w.member_offsets, w.member_ids, w.ident,
                            w.internal_edgeless, reach, out, gone, retired)
    return gone[:count], reach, int(retired[0])


def bfs(offsets: np.ndarray, targets: np.ndarray, start: int):
    """The one BFS over the CSR ``(offsets, targets)``: ``bcs_bfs``, or
    :func:`bfs_python` when the compiled library cannot be built or loaded.
    Returns ``(order, ends)``: component c is ``order[ends[c]:ends[c + 1]]``
    (int32, bounds int64), in dequeue order from ``start``, then from each
    vertex no earlier BFS reached, lowest id first.  Refuses arrays that are
    not a CSR of int64 offsets and int32 targets over its vertices, and a
    ``start`` that names no vertex of a graph that has one, with
    ValueError."""
    _check_arrays(("offsets", offsets, np.int64), ("targets", targets, np.int32))
    n, start = len(offsets) - 1, index(start)
    _check_csr(offsets, targets, n, 0, n, "neighbor")
    if n and not 0 <= start < n:
        raise ValueError(f"the start vertex {start} is not one of the {n} vertices")
    lib = _kernel()
    if lib is None:
        comps = bfs_python(offsets.tolist(), targets.tolist(), start)
        return np.fromiter(chain.from_iterable(comps), dtype=np.int32), np.cumsum([0, *map(len, comps)])
    order, ends = np.empty(n, dtype=np.int32), np.empty(n + 1, dtype=np.int64)
    count = lib.bcs_bfs(n, offsets, targets, start, order, ends)
    return order[: ends[count]], ends[: count + 1]


def rebuild(offsets: np.ndarray, targets: np.ndarray, keep_vertices: np.ndarray | None,
            keep_arcs: np.ndarray | None) -> tuple[np.ndarray, np.ndarray]:
    """The rebuild of the work graph's CSR ``(offsets, targets)`` that drops
    vertices or arcs, for ``WorkGraph.compact``: ``bcs_compact``, or
    :func:`rebuild_python` when the compiled library cannot be built or
    loaded.

    Drops the vertices ``keep_vertices`` clears, with their rows and the
    arcs into them, and the arcs ``keep_arcs`` clears (bool masks; None
    keeps them all), and renumbers the kept vertices in increasing order;
    each kept row keeps its kept arcs in order.  Every target must name one
    of the vertices.  Returns the new ``(offsets, targets)``, int64 and
    int32, each of exact size.
    """
    masks = [(name, a, np.bool_) for name, a in (("keep_vertices", keep_vertices), ("keep_arcs", keep_arcs))
             if a is not None]
    _check_arrays(("offsets", offsets, np.int64), ("targets", targets, np.int32), *masks)
    n = len(offsets) - 1
    if (keep_vertices is not None and len(keep_vertices) != n
            or keep_arcs is not None and len(keep_arcs) != len(targets)):
        raise ValueError("keep_vertices needs an entry per vertex and keep_arcs one per arc")
    _check_csr(offsets, targets, n, 0, n, "neighbor")
    lib = _kernel()
    if lib is None:
        return rebuild_python(offsets, targets, keep_vertices, keep_arcs)
    kept = n if keep_vertices is None else int(np.count_nonzero(keep_vertices))
    # a rebuild that renumbers nothing keeps exactly the arcs keep_arcs keeps;
    # one that drops vertices finds its arcs in the call, and the array
    # shrinks to them in place (no view of it exists)
    bound = len(targets) if keep_vertices is not None or keep_arcs is None else int(np.count_nonzero(keep_arcs))
    new_offsets, new_targets = np.empty(kept + 1, dtype=np.int64), np.empty(bound, dtype=np.int32)
    new_targets.resize(lib.bcs_compact(n, offsets, targets, keep_vertices, keep_arcs, new_offsets, new_targets),
                       refcheck=False)
    return new_offsets, new_targets


def shatter_arcs(w, flat: np.ndarray, block_ends: np.ndarray, copied: np.ndarray):
    """The shattered rows of ``reduction.shatter_articulation`` over the work
    graph ``w``: ``bcs_shatter`` on its arrays, or
    :func:`shatter_arcs_python` when the compiled library cannot be built
    or loaded.

    Block k is ``flat[block_ends[k]:block_ends[k + 1]]``, its top last, as
    :func:`block_walk` returns it; the block holding a vertex as other than
    its top is its home.  Each block ``copied`` marks gets a copy of its top,
    the copies taking ids ``w.n``, ``w.n + 1``, ... in block order.  An arc
    from a vertex to the top of its home block, where that block is copied,
    names the copy instead; an arc from the top of a copied block to one of
    the block's other vertices moves to the copy's row.  Returns the
    shattered rows as a new ``(offsets, targets)``, int64 and int32, with a
    row per vertex and copy and exactly ``len(w.targets)`` arcs: each old
    row in order, rewritten, without its moved arcs, then each copy's row,
    its moved arcs in arc order.  ``w`` is left as it was.
    """
    n = _check_work_graph(w)
    _check_arrays(("flat", flat, np.int32), ("block_ends", block_ends, np.int32), ("copied", copied, np.bool_))
    nblocks = len(block_ends) - 1
    if len(copied) != nblocks:
        raise ValueError(f"copied needs an entry per block, {nblocks}")
    _check_csr(block_ends, flat, nblocks, 0, n, "block")
    if np.diff(block_ends).min(initial=1) < 1:
        raise ValueError("every block must hold its top")
    lib = _kernel()
    if lib is None:
        return shatter_arcs_python(w.offsets, w.targets, flat, block_ends, copied)
    copies = int(np.count_nonzero(copied))
    offsets, targets = np.empty(n + copies + 1, dtype=np.int64), np.empty(len(w.targets), dtype=np.int32)
    lib.bcs_shatter(n, w.offsets, w.targets, flat, block_ends, nblocks, copied, copies, offsets, targets)
    return offsets, targets


def _check_ids(ids: np.ndarray, low: int, bound: int, what: str) -> None:
    """Refuse ids outside [low, bound) before they reach the compiled code."""
    if ids.size and not low <= ids.min() <= ids.max() < bound:
        raise ValueError(f"{what} ids must lie in [{low}, {bound})")


def _check_csr(offsets: np.ndarray, ids: np.ndarray, rows: int, low: int, bound: int, what: str) -> None:
    """The one CSR check: refuse offsets that do not run over ``rows`` rows
    from 0 to ``len(ids)`` without falling, and ids outside [low, bound),
    before the compiled code indexes with both."""
    # np.diff, not an int64 comparison: that ufunc loop would add about 0.4 MB
    # resident to a solve that runs no other
    if (rows < 0 or offsets.shape != (rows + 1,) or offsets[0] != 0 or offsets[-1] != len(ids)
            or np.diff(offsets).min(initial=0) < 0):
        raise ValueError(f"the {what} offsets must run from 0 to {len(ids)} over {rows} rows without falling")
    _check_ids(ids, low, bound, what)


def _check_arrays(*arrays) -> None:
    """Refuse every ``(name, array, dtype)`` whose array is not a contiguous
    1-D array of that dtype, as the compiled code reads it."""
    for name, a, dtype in arrays:
        if not (isinstance(a, np.ndarray) and a.dtype == dtype and a.ndim == 1 and a.flags.c_contiguous):
            raise ValueError(f"{name} must be a contiguous 1-D {np.dtype(dtype)} array")


# The dtype of each array of a work graph, as the compiled code reads it.
_WORK_DTYPES = {name: np.dtype(t) for name, t in (
    ("offsets", np.int64), ("targets", np.int32), ("reach", np.int64), ("ident", np.int64),
    ("internal_edgeless", np.bool_), ("internal_clique", np.bool_), ("member_offsets", np.int64),
    ("member_ids", np.int64))}


def _check_work_graph(w, out: np.ndarray | None = None) -> int:
    """The number of vertex ids of the work graph ``w``, refusing arrays of
    another dtype or layout or that do not cover its vertices, rows that are
    not a CSR or arcs naming no vertex and, given the score accumulator
    ``out`` of an entry point that reads the members, an ``out`` that is
    not float64 and members that are not a CSR or have no slot in it,
    before they reach either form."""
    arrays = [(name, getattr(w, name), dtype) for name, dtype in _WORK_DTYPES.items()]
    _check_arrays(*arrays if out is None else [*arrays, ("out", out, np.float64)])
    n = len(w.reach)
    if {len(a) for a in (w.ident, w.internal_edgeless, w.internal_clique)} != {n}:
        raise ValueError(f"the work graph's arrays must cover its {n} vertices")
    _check_csr(w.offsets, w.targets, n, 0, n, "neighbor")
    if out is not None:
        _check_csr(w.member_offsets, w.member_ids, n, 0, len(out), "member")
    return n


# The compiler and flags the library is built with.  No -march=native or
# -ffast-math: it must round exactly as the Python loop does.
COMPILER = "cc"
CFLAGS = ("-O2", "-shared", "-fPIC", "-ffp-contract=off")
_UNTRIED = object()
# The loaded library, None once building or loading it failed, _UNTRIED
# before the first call that needs it.
_compiled = _UNTRIED


def _kernel():
    """The compiled library, built and loaded on the first call; None when
    that failed, for whatever reason."""
    global _compiled
    if _compiled is _UNTRIED:
        try:
            _compiled = _build_and_load()
        except Exception:  # whatever failed, the exact Python loop takes over
            _compiled = None
    return _compiled


def _build_and_load():
    """Load the library from the user's cache, compiling it there first when
    it is missing.  The build writes to a temporary name and renames it into
    place, so concurrent first calls never load a half-written file.  When
    the cache cannot be written, the build goes into a fresh private
    directory for this process only, removed once loaded, so no predictable
    path in a shared directory is ever loaded."""
    source = resources.files(__package__).joinpath("_brandes.c").read_bytes()
    command = [COMPILER, *CFLAGS]
    name = f"_brandes-{_sha256(source + ' '.join(command).encode())}.so"
    cache = Path(os.environ.get("XDG_CACHE_HOME") or Path.home() / ".cache") / "bcshatter"
    built = cache / name
    if built.is_file():
        return _bind(built)
    try:
        cache.mkdir(parents=True, exist_ok=True)
        fd, partial = tempfile.mkstemp(prefix=name, dir=cache)
    except OSError:
        with tempfile.TemporaryDirectory(ignore_cleanup_errors=True) as private:
            built = Path(private) / name
            _compile(source, command, built)
            return _bind(built)
    os.close(fd)
    try:
        _compile(source, command, partial)
        os.replace(partial, built)
    finally:
        if os.path.exists(partial):
            os.unlink(partial)
    return _bind(built)


def _sha256(data: bytes) -> str:
    """Hex sha256 of ``data``, from CPython's own sha256 module where it has
    one: importing ``hashlib`` maps OpenSSL, about 3.6 MB of resident memory
    for hashing one small file."""
    try:
        from _sha2 import sha256  # CPython 3.12 and later
    except ImportError:
        try:
            from _sha256 import sha256  # CPython 3.11
        except ImportError:  # a build without its own hash modules
            from hashlib import sha256
    return sha256(data).hexdigest()


def _compile(source: bytes, command: list[str], out) -> None:
    import subprocess  # only a build needs it, and it costs 0.5 MB resident

    subprocess.run([*command, "-x", "c", "-", "-o", str(out)], input=source, capture_output=True, check=True)


def _allocated(result: int, func, args) -> int:
    """The ``errcheck`` of each entry point that allocates: -1 is a failed allocation."""
    if result == -1:
        raise MemoryError(f"{func.__name__} could not allocate its scratch memory")
    return result


def _array(dtype):
    """The argument type of a pointer to the data of a C-contiguous numpy
    array of ``dtype``.  Its ``from_param`` refuses, with TypeError, what
    ``np.ctypeslib.ndpointer(dtype, flags="C_CONTIGUOUS")`` refuses: an
    object that is not an ndarray, an array of another dtype and one that is
    not C-contiguous; ctypes raises that as ``ctypes.ArgumentError`` before
    the call.  It passes the array's data address, ``obj.ctypes.data``:
    about half the time of ``ndpointer``'s conversion, and no import of
    ``numpy.ctypeslib``.  Reading the address off ``__array_interface__``
    instead was slower and raised the peak resident set of a run of
    ``social-mix`` solves by about 1 MB."""
    dtype = np.dtype(dtype)

    class Array(ctypes.c_void_p):
        @classmethod
        def from_param(cls, obj):
            if not (isinstance(obj, np.ndarray) and obj.dtype == dtype and obj.flags.c_contiguous):
                raise TypeError(f"a C-contiguous {dtype} array is needed")
            return cls(obj.ctypes.data)

    return Array


def _or_null(pointer):
    """The :func:`_array` argument type ``pointer``, also taking None, which
    goes over as a NULL pointer."""
    class OrNull(pointer):
        @classmethod
        def from_param(cls, obj):
            return None if obj is None else pointer.from_param(obj)

    return OrNull


def _bind(path: Path):
    """Load the library at ``path`` and give each entry point its argument
    types, its result type and, where it allocates, the errcheck
    ``_allocated``.  Every array argument is an ``_array`` of its dtype, so
    ctypes refuses a list, an array of another dtype, a strided view and
    None with ``ctypes.ArgumentError`` before the C function runs; only
    ``bcs_compact``'s two masks, ``_or_null``, also take None."""
    lib = ctypes.CDLL(str(path))
    int32s, doubles, int64s = _array(np.int32), _array(np.float64), _array(np.int64)
    flags = _array(np.bool_)  # read as uint8_t, 0 or 1
    size = ctypes.c_int64
    csr = [size, int64s, int32s]  # n, offsets, targets: a work graph's or a Graph's
    members = [int64s, int64s]  # member_offsets, members: a work graph's
    allocating = {  # the argtypes of each entry point that allocates its scratch
        "bcs_brandes": [int64s, int32s, doubles, doubles, size, int64s, doubles, doubles],
        "bcs_side_sweep": [*csr, *members, int64s, int64s, flags, flags, size, doubles, int32s, int64s],
        "bcs_blocks": [*csr, int64s, int64s, int32s, int32s, int64s, int32s, int64s, int64s],
        "bcs_twin_sweep": [*csr, *members, int64s, int64s, size, doubles, int32s, int32s],
        "bcs_degree1": [*csr, *members, int64s, flags, int64s, doubles, int32s, int64s],
        "bcs_bfs": [*csr, size, int32s, int64s],
        "bcs_compact": [*csr, _or_null(flags), _or_null(flags), int64s, int32s],
        "bcs_shatter": [*csr, int32s, int32s, size, flags, size, int64s, int32s],
        "bcs_edge_csr": [size, size, int32s, int64s, int32s, int64s],
    }
    for name, argtypes in allocating.items():
        function = getattr(lib, name)
        function.argtypes, function.restype, function.errcheck = argtypes, size, _allocated
    lib.bcs_parse.argtypes = [ctypes.c_char_p, size, size, size, int32s, int64s]
    lib.bcs_parse.restype = size
    lib.bcs_relabel.argtypes = [*csr, int64s, int64s, int64s, int32s]
    lib.bcs_relabel.restype = None
    return lib


def brandes_python(offsets: np.ndarray, targets: np.ndarray, reach: np.ndarray, ident: np.ndarray,
                   bounds: np.ndarray):
    """Brandes' algorithm one source at a time, level by level, in the
    canonical order (the reference for ``bcs_brandes``), over the arrays
    :func:`brandes` takes: the sources of each component of two or more
    vertices, in increasing id.  Returns what :func:`brandes` returns.

    Each level is taken in increasing vertex id.  sigma[w] sums
    sigma[v] * ident[v] (sigma[v] for the source) over the previous level's
    v in increasing id, along v's row in row order.  delta[v] starts at
    reach[v] - 1 and adds sigma[v] * coef[w] along v's own row in row order
    for each w one level deeper, with coef[w] = ident[w] * (1 + delta[w]) /
    sigma[w]; a repeated id counts once per occurrence.  bc[w] adds
    reach[s] * ident[s] * delta[w] in increasing s.  Phase 1 is the forward
    levels, phase 2 the backward sweep plus the score accumulation."""
    n, ends, flat = len(offsets) - 1, offsets.tolist(), targets.tolist()
    adj = [flat[ends[v] : ends[v + 1]] for v in range(n)]
    reach, ident, bounds = reach.tolist(), ident.tolist(), bounds.tolist()
    bc = [0.0] * n
    dist, sigma, coef = [-1] * n, [0.0] * n, [0.0] * n
    t1 = 0.0
    t2 = 0.0
    sources = chain.from_iterable(range(lo, hi) for lo, hi in zip(bounds, bounds[1:]) if hi - lo > 1)
    for s in sources:
        tick = perf_counter()
        dist[s] = 0
        sigma[s] = 1.0
        levels = [[s]]
        while levels[-1]:
            depth, found = len(levels), []
            for v in levels[-1]:
                sv = sigma[v] * ident[v] if v != s else sigma[v]
                for w in adj[v]:
                    if dist[w] < 0:
                        dist[w] = depth
                        found.append(w)
                    if dist[w] == depth:
                        sigma[w] += sv
            found.sort()
            levels.append(found)
        mid = perf_counter()
        mult_s = reach[s] * ident[s]
        for level in reversed(levels[1:]):
            for v in level:
                dv = reach[v] - 1.0
                below = dist[v] + 1
                for w in adj[v]:
                    if dist[w] == below:
                        dv += sigma[v] * coef[w]
                coef[v] = ident[v] * (1.0 + dv) / sigma[v]
                bc[v] += mult_s * dv  # one addition per source, so in increasing s
        for w in chain.from_iterable(levels):
            dist[w] = -1
            sigma[w] = 0.0
        t1 += mid - tick
        t2 += perf_counter() - mid
    return np.array(bc), t1, t2


def source_state(n: int):
    """Per-vertex state for ``side_bfs`` over vertex ids below n, at rest:
    (dist, sigma, delta, preds)."""
    return [-1] * n, [0.0] * n, [0.0] * n, [[] for _ in range(n)]


def side_bfs(adj, source: int, reach, ident, state) -> list[tuple[int, float]]:
    """Dependency BFS from a simplicial vertex about to be removed: one run
    of ``side_sweep_python``, as ``forward()`` and its backward sweep are
    of ``bcs_side_sweep``.  A FIFO BFS from ``source`` that records each
    vertex's predecessors, then a sweep in reverse BFS order that pushes
    each dependency back along them; the kernel's reference is
    ``brandes_python``.

    ``adj`` may be any indexable of neighbor iterables.  ``state`` comes
    from ``source_state`` and is left at rest again, and only the vertices
    the source reaches are touched, so a call costs its component however
    large the state is.  Returns a (vertex, amount) pair for every vertex
    the source reaches but itself, in reverse BFS order.  The amounts fold
    in both orphaned directions at once: ``m * delta[w]`` restores the
    dependencies of the sources the side vertex represents, and
    ``m * (delta[w] - (reach[w] - 1))`` the pair dependencies whose
    *target* it represents, with m = reach[s] * ident[s].  The caller still
    owes the removed vertex itself its endpoint credit
    ``(reach[s] - 1) * (component mass outside s's class)``.
    """
    dist, sigma, delta, preds = state
    order = [source]  # BFS queue; read backwards it is the sweep's stack
    dist[source] = 0
    sigma[source] = 1.0
    delta[source] = reach[source] - 1.0
    for v in order:
        dv1 = dist[v] + 1
        sv = sigma[v] * ident[v] if v != source else sigma[v]
        for w in adj[v]:
            dw = dist[w]
            if dw < 0:
                dist[w] = dw = dv1
                delta[w] = reach[w] - 1.0
                order.append(w)
            if dw == dv1:
                sigma[w] += sv
                preds[w].append(v)
    m = reach[source] * ident[source]
    amounts = []
    for idx in range(len(order) - 1, 0, -1):  # order[0] is the source
        w = order[idx]
        dw = delta[w]
        coef = ident[w] * (1.0 + dw) / sigma[w]
        pw = preds[w]
        for v in pw:
            delta[v] += sigma[v] * coef
        amounts.append((w, m * dw + m * (dw - (reach[w] - 1.0))))
        # w's dependency is final and no later step reads w's state
        dist[w] = -1
        sigma[w] = 0.0
        delta[w] = 0.0
        pw.clear()
    dist[source] = -1
    sigma[source] = 0.0
    delta[source] = 0.0
    return amounts


def side_sweep_python(adj, members, reach, ident, internal_edgeless, internal_clique, max_degree: int,
                      out: np.ndarray):
    """The side pass as one :func:`expanded_clique` test per vertex of
    degree 1 to ``max_degree`` and then one :func:`side_bfs` run per
    candidate (the reference for ``bcs_side_sweep``); see :func:`side_sweep`
    for the result.  ``adj``
    and ``members`` are lists as ``WorkGraph.rows`` and
    ``WorkGraph.member_lists`` give them, the rest lists of the work
    graph's attributes.

    The runs go over a copy of the rows, and each removed candidate is
    deleted from the copy before the next run.  Deleting from a list never
    reorders the rest, so every run visits the vertices in the order of the
    work graph with the earlier candidates deleted.
    """
    sets = [set(r) for r in adj]
    candidates = [
        v
        for v, nbrs in enumerate(adj)
        if nbrs and len(nbrs) <= max_degree and expanded_clique(sets, ident, internal_edgeless, internal_clique, v)
    ]
    rows = [list(r) for r in adj]
    state = source_state(len(rows))
    removed = []
    arcs = 0
    for u in candidates:
        if not rows[u]:
            continue  # earlier removals emptied its neighborhood
        amounts = side_bfs(rows, u, reach, ident, state)
        for x, amount in amounts:
            if amount:
                for m in members[x]:
                    out[m] += amount
        if reach[u] > 1:
            credit = (reach[u] - 1) * sum(ident[x] * reach[x] for x, _ in amounts)
            for m in members[u]:
                out[m] += credit
        arcs += len(rows[u]) + sum(len(rows[x]) for x, _ in amounts)
        for x in rows[u]:
            rows[x].remove(u)
        rows[u] = []
        removed.append(u)
    return removed, arcs


def block_walk_python(adj, reach, ident):
    """:func:`_block_dfs` of every component, rooted at its lowest id, in
    increasing id order, laid out as :func:`block_walk` returns it (the
    reference for ``bcs_blocks``).  One walk state serves all components."""
    n = len(adj)
    # disc[u] < 0 marks u unvisited; sub is the DFS subtree mass.
    disc, low, sub = [-1] * n, [0] * n, [0] * n
    walks = [_block_dfs(adj, reach, ident, root, disc, low, sub)
             for root in range(n) if disc[root] < 0]
    blocks = [block for comp_blocks, _, _ in walks for block in comp_blocks]
    below = [mass for _, masses, _ in walks for mass in masses]
    return (np.array(list(chain.from_iterable(blocks)), dtype=np.int32),
            np.cumsum([0, *map(len, blocks)], dtype=np.int32), np.array(below, dtype=np.int64),
            np.cumsum([0, *(len(walk[0]) for walk in walks)], dtype=np.int32),
            np.array([walk[2] for walk in walks], dtype=np.int64))


def _block_dfs(adj, reach, ident, root: int, disc: list[int], low: list[int], sub: list[int]):
    """Blocks and cut-side masses of root's component.

    Iterative Hopcroft-Tarjan over each row in its order, with a stack of
    discovered vertices.  Only an unmerged top emits a
    block, so a merged class never cuts: the vertices below a merged top
    join the block above, and under a merged root what is left becomes one
    last block.  Block k is emitted at its top ``pv`` through the tree edge
    ``(pv, v)``, so ``below[k]``, v's subtree mass, weighs the piece of the
    component minus the top that holds the block's other vertices.  A
    vertex's child blocks come before its parent block (the last block for
    the root), the one block where it is not the top.

    Returns ``(blocks, below, total)``: vertex lists with the top last, any
    two sharing at most one vertex (an isolated vertex has none), the mass
    below each top, and the component's mass.
    """
    disc[root] = low[root] = 0
    sub[root] = ident[root] * reach[root]
    blocks: list[list[int]] = []
    below: list[int] = []
    counter = 1
    vstack: list[int] = []
    # (vertex, neighbor iterator, the vertex's index in vstack)
    stack: list[tuple[int, object, int]] = [(root, iter(adj[root]), 0)]
    while stack:
        v, it, at = stack[-1]
        for u in it:
            du = disc[u]
            if du < 0:
                stack.append((u, iter(adj[u]), len(vstack)))
                vstack.append(u)
                disc[u] = low[u] = counter
                counter += 1
                sub[u] = ident[u] * reach[u]
                break
            # The tree edge to v's parent p may lower low[v] to disc[p]; that
            # leaves the block test low[v] >= disc[p] as it was.
            if du < low[v]:
                low[v] = du
        else:  # v has no unvisited neighbor left
            stack.pop()
            if stack:
                pv = stack[-1][0]
                sub[pv] += sub[v]
                if low[v] < low[pv]:
                    low[pv] = low[v]
                if low[v] >= disc[pv] and ident[pv] == 1:
                    blocks.append(vstack[at:] + [pv])
                    del vstack[at:]
                    below.append(sub[v])
    total = sub[root]
    if vstack:  # the blocks below a merged root, which tops no other block
        vstack.append(root)
        blocks.append(vstack)
        below.append(total - ident[root] * reach[root])
    return blocks, below, total


def expanded_clique(adj, ident, internal_edgeless, internal_clique, v: int) -> bool:
    """Would v's neighborhood induce a clique with all classes unfolded?
    ``adj`` holds each row as a set."""
    if not (internal_edgeless[v] or internal_clique[v]):
        return False  # mixed class: some copies see non-adjacent siblings
    nbrs = adj[v]
    # Each neighbor unfolds into a clique and sees all the other neighbors.
    return all((ident[x] == 1 or internal_clique[x]) and len(nbrs & adj[x]) == len(nbrs) - 1 for x in nbrs)


def twin_sweep_python(adj, members, reach, ident, closed: bool, out: np.ndarray) -> list[list[int]]:
    """The twin classes as a dict keyed by the sorted neighborhood and the
    reach, and then their credits class by class (the reference for
    ``bcs_twin_sweep``); see :func:`twin_sweep`.  ``adj`` and ``members``
    are lists as ``WorkGraph.rows`` and ``WorkGraph.member_lists`` give
    them, ``reach`` and ``ident`` lists of the attributes.  Returns the
    classes, in order of lowest member.

    The classes are disjoint, and a class whose member neighbors a vertex
    neighbors it with all of its members.  So the credits of every class
    can be read off the graph as the sweep found it: a neighbor that an
    earlier class absorbs stands, with its absorbed siblings, for the same
    members and the same ident in sum.
    """
    groups: dict[tuple, list[int]] = {}
    for v, nbrs in enumerate(adj):
        if nbrs:
            key = (*sorted({*nbrs, v} if closed else nbrs), reach[v])
            groups.setdefault(key, []).append(v)
    classes = [verts for verts in groups.values() if len(verts) >= 2]  # in order of lowest member
    for verts in classes:
        r = reach[verts[0]]
        idents = [ident[v] for v in verts]
        total_ident = sum(idents)
        # Interior credit: each copy gates the reach mass of its new siblings'
        # copies.  (Pairs inside an already-merged class were settled when that
        # class formed, hence "new siblings" only.)
        if r > 1:
            for v, iv in zip(verts, idents):
                amount = (total_ident - iv) * r * (r - 1)
                for m in members[v]:
                    out[m] += amount
        if not closed:
            # Open twins sit at distance 2; their cross pairs run through the
            # shared neighborhood and split evenly over its unfolded size.
            shared = adj[verts[0]]
            cross_pairs = total_ident * total_ident - sum(i * i for i in idents)
            amount = cross_pairs * r * r / sum(ident[x] for x in shared)
            # One addition per member: copies of one original lie in different components.
            for x in shared:
                for m in members[x]:
                    out[m] += amount
    return classes


def degree1_python(offsets, targets, members, reach, ident, edgeless, out: np.ndarray):
    """The degree-1 cascade over lists (the reference for ``bcs_degree1``);
    see :func:`degree1` for the result.  ``offsets`` and ``targets`` are the
    work graph's CSR as lists, ``members`` lists as
    ``WorkGraph.member_lists`` gives them, the rest lists of the attributes.

    Folding a leaf u into its neighbor v credits u's members with the pair
    dependencies gated behind u and v's original with the pairs gated behind
    v from u's side; the leaf's mass then moves onto v.  Sums are over u's
    component at pass start: a fold never leaves its component and conserves
    the component's mass, so each component folds against its own total.
    """
    alive = [True] * len(reach)
    degree = [end - start for start, end in zip(offsets, offsets[1:])]
    reach = list(reach)
    gone = []
    retired = 0
    for comp in map(sorted, bfs_python(offsets, targets, 0)):
        total = sum(ident[v] * reach[v] for v in comp)
        queue = deque(v for v in comp if degree[v] <= 1)
        while queue:
            u = queue.popleft()
            if not alive[u]:
                continue
            # queued at degree 1 or 0, and degrees only fall: at most one live
            # neighbor, which a row that is not symmetric may lack
            row = targets[offsets[u] : offsets[u + 1]] if degree[u] else []
            v = next((x for x in row if alive[x]), None)
            if v is None:
                # Lone vertex: every pair involving its mass is already settled.
                retired += ident[u] * reach[u]
                alive[u] = False
                gone.append(u)
                continue
            # A class bundle hanging off a merged neighbor is not a true leaf in
            # the unmerged graph; leave those for the side pass or the kernel.
            if ident[v] != 1 or ident[u] != 1 and not edgeless[u]:
                continue
            mass_u = ident[u] * reach[u]
            rest = total - mass_u
            credit = (reach[u] - 1) * rest
            if credit:
                for m in members[u]:
                    out[m] += credit
            out[members[v][0]] += mass_u * (rest - 1)
            reach[v] += mass_u
            alive[u] = False
            gone.append(u)
            degree[v] -= 1
            if degree[v] <= 1:
                queue.append(v)
    return gone, reach, retired


def bfs_python(offsets: list[int], targets: list[int], start: int) -> list[list[int]]:
    """The components of the CSR ``(offsets, targets)``, given as lists, each
    in BFS dequeue order: from ``start``, then from each vertex no earlier
    BFS reached, lowest id first (the reference for ``bcs_bfs``).  A row is
    sliced out of ``targets`` when its vertex is dequeued."""
    n = len(offsets) - 1
    seen = bytearray(n)
    comps = []
    for root in chain((start,), range(n)) if n else ():
        if seen[root]:
            continue
        seen[root] = 1
        comp = [root]
        for v in comp:  # the list is the queue; it grows while it is read
            for x in targets[offsets[v] : offsets[v + 1]]:
                if not seen[x]:
                    seen[x] = 1
                    comp.append(x)
        comps.append(comp)
    return comps


def rebuild_python(offsets, targets, keep_vertices, keep_arcs):
    """:func:`rebuild` in numpy (the reference for ``bcs_compact``): the
    kept arcs are a mask over the arcs, the new offsets the running count of
    kept arcs at each kept row's start, and the new ids a running count of
    kept vertices."""
    if keep_vertices is not None:
        kept = keep_vertices[targets]
        kept &= np.repeat(keep_vertices, np.diff(offsets))
        keep_arcs = kept if keep_arcs is None else kept & keep_arcs
    elif keep_arcs is None:
        return offsets.copy(), targets.copy()
    # the arcs kept before each arc; int32 while that cannot wrap
    running = np.zeros(len(targets) + 1, dtype=np.int32 if len(targets) < 2**31 else np.int64)
    np.cumsum(keep_arcs, dtype=running.dtype, out=running[1:])
    offsets, targets = running[offsets], targets[keep_arcs]
    del running
    if keep_vertices is not None:
        offsets = offsets[np.append(keep_vertices, True)]
        targets = (np.cumsum(keep_vertices, dtype=np.int32) - 1)[targets]  # the new ids
    return offsets.astype(np.int64), targets


def shatter_arcs_python(offsets, targets, flat, block_ends, copied):
    """:func:`shatter_arcs` in numpy (the reference for ``bcs_shatter``),
    on the work graph's ``offsets`` and ``targets``: a mask per arc for each
    test, each arc's new row (its copy's for a moved arc, else its source's),
    and a stable sort of the arcs by new row."""
    n, nblocks, copies = len(offsets) - 1, len(block_ends) - 1, int(np.count_nonzero(copied))
    # index nblocks is "no block": the home of a vertex that is only ever a top
    copied = np.append(copied, False)
    top = np.append(flat[block_ends[1:] - 1], -2)
    copy = np.zeros(nblocks + 1, dtype=np.int32)
    copy[copied] = np.arange(n, n + copies, dtype=np.int32)
    home = np.full(n, nblocks, dtype=np.int32)
    home[np.delete(flat, block_ends[1:] - 1)] = np.repeat(np.arange(nblocks, dtype=np.int32), np.diff(block_ends) - 1)
    sources = np.repeat(np.arange(n, dtype=np.int32), np.diff(offsets))
    into = copied[home[sources]] & (top[home[sources]] == targets)
    moved = copied[home[targets]] & (top[home[targets]] == sources)
    rows = np.where(moved, copy[home[targets]], sources)
    new_offsets = np.zeros(n + copies + 1, dtype=np.int64)
    np.cumsum(np.bincount(rows, minlength=n + copies), out=new_offsets[1:])
    return new_offsets, np.where(into, copy[home[sources]], targets)[np.argsort(rows, kind="stable")]


def betweenness(g: Graph, *, unordered: bool = False):
    """Exact betweenness of every vertex of ``g`` (plain Brandes).

    Ordered-pair convention by default; ``unordered=True`` halves the scores.
    Raises :class:`NonFiniteScoresError` when any score is NaN or infinite.
    """
    from .graph import _on_csr  # graph.py imports this module

    ones = np.ones(g.n)
    result, _, _ = _on_csr(g, brandes, ones, ones, np.array([0, g.n], dtype=np.int64))
    check_finite(result)
    if unordered:
        result *= 0.5
    return result
