"""Betweenness kernels, and the reduction's scans, each compiled and in Python.

All kernels use the ordered-pair convention: a pair (s, t) contributes its
dependency once per direction, so no halving happens here (that is a CLI
output option).  Shortest-path counts sigma are kept in float64 because they
can overflow 64-bit integers on dense graphs while the dependency ratios
stay well conditioned.

Four entry points each pair compiled code in ``_brandes.c`` with a Python
form.  Two run the one attribute-general Brandes algorithm, built on
``single_source``, the one Python forward BFS and backward sweep:

* ``brandes``, all sources over one component: ``bcs_brandes`` and
  ``brandes_python``.
* ``side_sweep``, a whole side-vertex pass of
  ``reduction.remove_side_vertices``: the candidate test, then one run per
  candidate over the work graph, adding the amounts straight into the score
  accumulator.  Its compiled form is two foreign calls on one export of the
  rows, ``bcs_side_candidates`` and ``bcs_side_sweep``; its Python form is
  ``side_sweep_python``, whose test is ``expanded_clique`` and whose runs
  are ``side_bfs``.

Two are scans of the work graph for the reduction passes, which compute
no score and return exactly what their Python forms return, in order:

* ``block_walk``, the blocks and cut-side masses of every component, read
  by the bridge and articulation passes: ``bcs_blocks`` and
  ``block_walk_python``, whose walks are ``_block_dfs``.
* ``twin_classes``, the grouping of one identical-vertex sweep:
  ``bcs_twin_classes`` and ``twin_classes_python``.

Every compiled form reads the rows as one CSR, ``export_rows``, in each
row's iteration order.

The first call that needs the library builds it with the local C compiler
into a per-user cache named by the hash of the source and the compile
command, and loads it with ctypes.  Like ``single_source``, its forward BFS
records each vertex's predecessors, in per-vertex buckets sized by the
vertex's occurrences in the rows, and its backward sweeps push a vertex's
dependency along its bucket only.  The Python forms are the references the
tests hold the compiled forms to, and run, silently, when the library cannot
be built or loaded.  Each entry point checks its inputs before it picks a form,
so both forms accept and refuse the same inputs.

The compiled code evaluates the Python loop's floating-point expressions
in the same order, with contraction into fused multiply-adds turned off, and
both multiply by every attribute: with all attributes equal to 1 every
attribute factor is an exact multiplication by 1, which the degeneration
tests assert bit-for-bit on both.  ``bc_plain``, ``bc_reach``, ``bc_ident``
and ``bc_reach_ident`` name the attribute combinations the engine dispatches
on.

Attribute semantics on a reduced component:

* ``reach[v]``  - number of original vertices represented by v (v itself
  plus the mass folded behind it by shattering/compression).
* ``ident[v]``  - number of mutually interchangeable original vertices
  merged into v.  On shortest paths every merged copy acts as a parallel
  route, hence the sigma multiplier; as a source or endpoint it multiplies
  whole dependency trees.

``brandes`` returns ``(scores, phase1_seconds, phase2_seconds)`` where
scores[v] is the per-copy contribution for v (shared by all merged copies).
Phase 1 is the forward BFS, recording the predecessors included, and phase 2
the backward sweep.
"""

from __future__ import annotations

import ctypes
import os
import tempfile
from importlib import resources
from itertools import chain, repeat
from operator import is_not, length_hint
from pathlib import Path
from time import perf_counter

import numpy as np

from .graph import Graph

Adjacency = list[list[int]]


def bc_plain(adj: Adjacency):
    """Brandes' algorithm. Handles disconnected inputs per source."""
    return brandes(adj)


def bc_reach(adj: Adjacency, reach: list[int]):
    """Brandes with reach attributes.

    delta starts at reach[v] - 1 (the targets hidden behind v) and every
    source counts for reach[s] original sources.  With reach = 1 everywhere
    this is exactly ``bc_plain``.
    """
    return brandes(adj, reach=reach)


def bc_ident(adj: Adjacency, ident: list[int]):
    """Brandes with ident attributes (merged interchangeable vertices).

    An edge into a non-source v fans out over ident[v] parallel copies, so
    sigma forwards sigma[v] * ident[v]; back propagation scales the same way
    and each source stands for ident[s] identical shortest-path trees.
    Paths between members of one class are NOT counted here; the merge pass
    settles those separately.
    """
    return brandes(adj, ident=ident)


def bc_reach_ident(adj: Adjacency, reach: list[int], ident: list[int]):
    """Brandes with both attributes.

    Per merged copy: delta starts at reach[v] - 1, sigma and back propagation
    carry the ident fan-out, and a source stands for reach[s] * ident[s]
    original sources.  Coincides with ``bc_reach`` when ident = 1 and with
    ``bc_ident`` when reach = 1, bit for bit.
    """
    return brandes(adj, reach=reach, ident=ident)


def brandes(adj: Adjacency, reach: list[int] | None = None, ident: list[int] | None = None):
    """Attribute-general Brandes; missing attributes are all 1.

    Every neighbor id must lie in ``range(len(adj))``.  The rows need not be
    symmetric and may repeat an id: both forms take v as a predecessor of w
    once per occurrence of w in v's row, as ``single_source`` does, and give
    the same scores.
    Runs the compiled kernel, or ``brandes_python`` when it cannot be built
    or loaded.
    """
    n = len(adj)
    reach = [1] * n if reach is None else reach
    ident = [1] * n if ident is None else ident
    if len(reach) != n or len(ident) != n:
        raise ValueError(f"reach and ident need {n} entries, one per vertex")
    _check_positive(reach, "reach")
    _check_positive(ident, "ident")
    if not all(map(is_not, adj, repeat(None))):
        raise ValueError("rows must not be None")  # the Python form cannot iterate one
    offsets, targets = export_rows(adj)
    _check_ids(targets, n, "neighbor")
    lib = _kernel()
    if lib is None:
        return brandes_python(adj, reach, ident)
    bc = np.zeros(n)
    seconds = np.zeros(2)
    lib.bcs_brandes(
        n,
        offsets,
        targets,
        np.asarray(reach, dtype=np.float64),
        np.asarray(ident, dtype=np.float64),
        *_workspaces(n, targets),
        bc,
        seconds,
    )
    return bc.tolist(), float(seconds[0]), float(seconds[1])


def side_sweep(adj, members, reach, ident, internal_edgeless, internal_clique, max_degree: int, out: np.ndarray):
    """One side-vertex pass: ``bcs_side_candidates`` and then
    ``bcs_side_sweep`` on one export of the rows, or ``side_sweep_python``
    when the compiled library cannot be built or loaded.

    ``adj`` and ``members`` are the work graph's (a deleted vertex's row is
    None, and no row may name one), and the flags are its per-class ones.
    The candidates are the live vertices of degree 1 to ``max_degree``
    whose neighborhood, with every merged class unfolded, is a clique
    (:func:`expanded_clique`), in increasing id order.  For each candidate
    in order whose neighborhood is not yet empty, adds the amounts of
    :func:`side_bfs` and the endpoint credit to ``out`` (a float64 array),
    and treats the candidate as deleted from then on.  Changes nothing but
    ``out``; the caller retires the removed candidates.  Returns
    ``(removed, arcs)``: the removed candidates in order, one run each, and
    the arcs the runs scanned, counted as for ``side_bfs`` calls (the
    source's degree plus the degrees of the vertices it reached).
    """
    n = len(adj)
    if any(len(values) != n for values in (members, reach, ident, internal_edgeless, internal_clique)):
        raise ValueError(f"members, reach, ident and the class flags need {n} entries, one per vertex")
    offsets, targets = export_rows(adj)
    member_offsets, flat_members = _csr(members, np.int64)
    _check_ids(targets, n, "neighbor")
    _check_ids(flat_members, len(out), "member")
    _live_rows(adj, targets)
    clique = np.array(internal_clique, dtype=np.uint8)
    unfolds = np.array(internal_edgeless, dtype=np.uint8) | clique
    cliquish = (np.array(ident, dtype=np.int64) == 1).view(np.uint8) | clique
    lib = _kernel()
    if lib is None:
        return side_sweep_python(adj, members, reach, ident, internal_edgeless, internal_clique, max_degree, out)
    candidates = np.empty(n, dtype=np.int32)
    count = lib.bcs_side_candidates(
        n,
        offsets,
        targets,
        unfolds,
        cliquish,
        max(0, min(max_degree, len(targets))),  # no degree exceeds the arc count
        np.empty(len(targets), dtype=np.int32),
        candidates,
    )
    if not count:
        return [], 0
    removed = np.empty(count, dtype=np.int32)
    counts = np.zeros(2, dtype=np.int64)
    lib.bcs_side_sweep(
        n,
        offsets,
        targets,
        member_offsets,
        flat_members,
        np.asarray(reach, dtype=np.float64),
        np.asarray(ident, dtype=np.float64),
        candidates,
        count,
        out,
        *_workspaces(n, targets),
        np.empty(n, dtype=np.int64),
        removed,
        counts,
    )
    runs, arcs = counts.tolist()
    return removed[:runs].tolist(), arcs


def export_rows(adj):
    """The rows of ``adj`` as a CSR, the form every compiled entry point
    reads: offsets (int64) and neighbor ids (int32), each row in its
    iteration order (a set's, for the work graph), a None row empty."""
    return _csr(adj, np.int32)


def block_walk(adj, reach, ident):
    """Blocks and cut-side masses of every live component: ``bcs_blocks``,
    or ``block_walk_python`` when the compiled library cannot be built or
    loaded.

    ``adj`` is the work graph's (a deleted vertex's row is None, and no row
    may name one).  Returns an iterator of :func:`_block_dfs` results, one
    per live component, rooted at its lowest id, in increasing id order.
    The compiled form walks every component before it returns, and the
    Python form each as it is asked for; a caller may change a component it
    got, but no other, before it asks for the next.
    """
    n = len(adj)
    if len(reach) != n or len(ident) != n:
        raise ValueError(f"reach and ident need {n} entries, one per vertex")
    offsets, targets = export_rows(adj)
    _check_ids(targets, n, "neighbor")
    live = _live_rows(adj, targets)
    idents = np.array(ident, dtype=np.int64)
    mass = idents * np.array(reach, dtype=np.int64)
    lib = _kernel()
    if lib is None:
        return block_walk_python(adj, reach, ident)
    flat = np.empty(2 * n, dtype=np.int32)
    block_ends = np.empty(n + 1, dtype=np.int32)
    below = np.empty(n, dtype=np.int64)
    comp_ends = np.empty(n + 1, dtype=np.int32)
    totals = np.empty(n, dtype=np.int64)
    counts = np.zeros(2, dtype=np.int64)
    lib.bcs_blocks(
        n,
        offsets,
        targets,
        mass,
        (idents != 1).view(np.uint8),
        live,
        np.empty(n, dtype=np.int32),
        np.empty(n, dtype=np.int32),
        np.empty(n, dtype=np.int64),
        np.empty(n, dtype=np.int32),
        np.empty(n, dtype=np.int64),
        np.empty(n, dtype=np.int32),
        np.empty(n, dtype=np.int32),
        flat,
        block_ends,
        below,
        comp_ends,
        totals,
        counts,
    )
    blocks, comps = counts.tolist()
    return _walked(flat, block_ends[: blocks + 1].tolist(), below[:blocks].tolist(),
                   comp_ends[: comps + 1].tolist(), totals[:comps].tolist())


def _walked(flat: np.ndarray, block_ends: list[int], below: list[int], comp_ends: list[int], totals: list[int]):
    """Yield ``bcs_blocks``' output as ``(blocks, below, total)`` per
    component, making one component's vertex lists at a time."""
    for c, total in enumerate(totals):
        first, last = comp_ends[c], comp_ends[c + 1]
        base = block_ends[first]
        vertices = flat[base : block_ends[last]].tolist()
        blocks = [vertices[block_ends[k] - base : block_ends[k + 1] - base] for k in range(first, last)]
        yield blocks, below[first:last], total


def twin_classes(adj, reach, closed: bool) -> list[list[int]]:
    """The classes one merge sweep folds: ``bcs_twin_classes``, or
    ``twin_classes_python`` when the compiled library cannot be built or
    loaded.

    Groups the vertices with a non-empty row by their open or (``closed``)
    closed neighborhood and their reach, and returns every group of two or
    more, in order of lowest member, members ascending.  ``adj`` is the
    work graph's (a deleted vertex's row is None).
    """
    n = len(adj)
    if len(reach) != n:
        raise ValueError(f"reach needs {n} entries, one per vertex")
    offsets, targets = export_rows(adj)
    _check_ids(targets, n, "neighbor")
    reaches = np.array(reach, dtype=np.int64)
    lib = _kernel()
    if lib is None:
        return twin_classes_python(adj, reach, closed)
    members = np.empty(n, dtype=np.int32)
    class_ends = np.empty(n + 1, dtype=np.int32)
    count = lib.bcs_twin_classes(
        n,
        offsets,
        targets,
        reaches,
        int(closed),
        np.empty(n + 1, dtype=np.int64),
        np.empty(len(targets) + n, dtype=np.int32),
        np.empty(n, dtype=np.int32),
        np.empty(n, dtype=np.int32),
        np.empty(n, dtype=np.int32),
        members,
        class_ends,
    )
    ends = class_ends[: count + 1].tolist()
    flat = members[: ends[-1]].tolist()
    return [flat[a:b] for a, b in zip(ends, ends[1:])]


def _workspaces(n: int, targets: np.ndarray):
    """The seven workspaces both compiled entry points index, in their
    argument order, all set by the kernel: dist and order (int32, n each),
    sigma and delta (float64, n each), the predecessor buckets' slots (int32,
    one per arc), their starts (int64, n + 1) and fill marks (int64, n)."""
    return (
        np.empty(n, dtype=np.int32),
        np.empty(n, dtype=np.int32),
        np.empty(n),
        np.empty(n),
        np.empty(len(targets), dtype=np.int32),
        np.empty(n + 1, dtype=np.int64),
        np.empty(n, dtype=np.int64),
    )


def _check_ids(ids: np.ndarray, bound: int, what: str) -> None:
    """Refuse ids outside [0, bound) before they reach the compiled code."""
    if ids.size and not 0 <= ids.min() <= ids.max() < bound:
        raise ValueError(f"{what} ids must lie in [0, {bound})")


def _live_rows(adj, targets: np.ndarray) -> np.ndarray:
    """The live mask of ``adj`` (uint8: 0 for a None row), refusing rows
    that name a deleted vertex before they reach either form."""
    live = np.fromiter(map(is_not, adj, repeat(None)), dtype=np.uint8, count=len(adj))
    if targets.size and not live[targets].all():
        raise ValueError("rows must not name a deleted vertex")
    return live


def _csr(rows, dtype):
    """Offsets (int64) and concatenated entries of ``rows``, each a sized
    iterable or None for an empty row, in the rows' iteration order."""
    offsets = np.zeros(len(rows) + 1, dtype=np.int64)
    # length_hint(None) is 0: the lengths come from one map over the rows
    np.cumsum(np.fromiter(map(length_hint, rows), dtype=np.int64, count=len(rows)), out=offsets[1:])
    entries = np.fromiter(chain.from_iterable(filter(None, rows)), dtype=dtype, count=int(offsets[-1]))
    return offsets, entries


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


def _bind(path: Path):
    lib = ctypes.CDLL(str(path))
    int32s = np.ctypeslib.ndpointer(np.int32, flags="C_CONTIGUOUS")
    doubles = np.ctypeslib.ndpointer(np.float64, flags="C_CONTIGUOUS")
    int64s = np.ctypeslib.ndpointer(np.int64, flags="C_CONTIGUOUS")
    size = ctypes.c_int64
    workspaces = [int32s, int32s, doubles, doubles, int32s, int64s, int64s]  # as _workspaces returns them
    lib.bcs_brandes.argtypes = [size, int64s, int32s, doubles, doubles, *workspaces, doubles, doubles]
    lib.bcs_brandes.restype = None
    lib.bcs_side_sweep.argtypes = [size, int64s, int32s, int64s, int64s, doubles, doubles, int32s, size, doubles,
                                   *workspaces, int64s, int32s, int64s]
    lib.bcs_side_sweep.restype = None
    flags = np.ctypeslib.ndpointer(np.uint8, flags="C_CONTIGUOUS")
    lib.bcs_blocks.argtypes = [size, int64s, int32s, int64s, flags, flags, int32s, int32s, int64s, int32s, int64s,
                               int32s, int32s, int32s, int32s, int64s, int32s, int64s, int64s]
    lib.bcs_blocks.restype = None
    lib.bcs_side_candidates.argtypes = [size, int64s, int32s, flags, flags, size, int32s, int32s]
    lib.bcs_side_candidates.restype = size
    lib.bcs_twin_classes.argtypes = [size, int64s, int32s, int64s, size, int64s, int32s, int32s, int32s, int32s,
                                     int32s, int32s]
    lib.bcs_twin_classes.restype = size
    return lib


def brandes_python(adj: Adjacency, reach: list[int], ident: list[int]):
    """Brandes' algorithm as one ``single_source`` run per source (the
    reference).  Phase 1 is the forward BFS, phase 2 the backward sweep plus
    the score accumulation."""
    n = len(adj)
    bc = [0.0] * n
    state = source_state(n)
    t1 = 0.0
    t2 = 0.0
    for s in range(n):
        tick = perf_counter()
        deps, mid = single_source(adj, s, reach, ident, state)
        t1 += mid - tick
        mult_s = reach[s] * ident[s]
        for w, dw in deps:
            bc[w] += mult_s * dw
        t2 += perf_counter() - mid
    return bc, t1, t2


def source_state(n: int):
    """Per-vertex state for ``single_source`` over vertex ids below n, at
    rest: (dist, sigma, delta, preds)."""
    return [-1] * n, [0.0] * n, [0.0] * n, [[] for _ in range(n)]


def single_source(adj, s: int, reach, ident, state):
    """Forward BFS from s, then the backward dependency sweep.

    ``adj`` may be any indexable of neighbor iterables (the work graph's
    sets included).  ``state`` comes from ``source_state`` and is left at
    rest again, and only the vertices s reaches are touched, so a call costs
    its component however large the state is.  Returns ``(deps, mid)``:
    (vertex, dependency on s) for every vertex s reaches except s itself, in
    reverse BFS order, and the ``perf_counter`` time at which the forward
    BFS ended.
    """
    dist, sigma, delta, preds = state
    order = [s]  # BFS queue; read backwards it is the sweep's stack
    dist[s] = 0
    sigma[s] = 1.0
    delta[s] = reach[s] - 1.0
    for v in order:
        dv1 = dist[v] + 1
        sv = sigma[v] * ident[v] if v != s else sigma[v]
        for w in adj[v]:
            dw = dist[w]
            if dw < 0:
                dist[w] = dw = dv1
                delta[w] = reach[w] - 1.0
                order.append(w)
            if dw == dv1:
                sigma[w] += sv
                preds[w].append(v)
    mid = perf_counter()
    deps = []
    for idx in range(len(order) - 1, 0, -1):  # order[0] is the source
        w = order[idx]
        dw = delta[w]
        coef = ident[w] * (1.0 + dw) / sigma[w]
        pw = preds[w]
        for v in pw:
            delta[v] += sigma[v] * coef
        deps.append((w, dw))
        # w's dependency is final and no later step reads w's state
        dist[w] = -1
        sigma[w] = 0.0
        delta[w] = 0.0
        pw.clear()
    dist[s] = -1
    sigma[s] = 0.0
    delta[s] = 0.0
    return deps, mid


def side_bfs(adj, source: int, reach, ident, state) -> list[tuple[int, float]]:
    """Dependency BFS from a simplicial vertex about to be removed.

    One ``single_source`` run from ``source`` over ``state`` (see there for
    ``adj`` and ``state``); this only turns its dependencies into amounts.
    The returned (vertex, amount) pairs fold in both orphaned directions at
    once: ``m * delta[w]`` restores the dependencies of the sources the side
    vertex represents, and ``m * (delta[w] - (reach[w] - 1))`` the pair
    dependencies whose *target* it represents, with m = reach[s] * ident[s].
    The caller still owes the removed vertex itself its endpoint credit
    ``(reach[s] - 1) * (component mass outside s's class)``.
    """
    deps, _ = single_source(adj, source, reach, ident, state)
    m = reach[source] * ident[source]
    return [(w, m * dw + m * (dw - (reach[w] - 1.0))) for w, dw in deps]


def side_sweep_python(adj, members, reach, ident, internal_edgeless, internal_clique, max_degree: int,
                      out: np.ndarray):
    """The side pass as one :func:`expanded_clique` test per vertex of
    degree 1 to ``max_degree`` and then one :func:`side_bfs` run per
    candidate (the reference for ``bcs_side_candidates`` and
    ``bcs_side_sweep``); see :func:`side_sweep` for the arguments and the
    result.

    The runs go over a copy of the rows as lists in the rows' iteration
    order, and each removed candidate is deleted from the copy before the
    next run.  Deleting from a list, like deleting from a set, never
    reorders the rest, so every run visits the vertices in the order of the
    work graph with the earlier candidates deleted.
    """
    candidates = [
        v
        for v, nbrs in enumerate(adj)
        if nbrs and len(nbrs) <= max_degree and expanded_clique(adj, ident, internal_edgeless, internal_clique, v)
    ]
    rows = [list(r) if r else [] for r in adj]
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
    """Yield :func:`_block_dfs` of every live component, rooted at its
    lowest live id, in increasing id order (the reference for
    ``bcs_blocks``).  Ids added during the walk are not visited, so callers
    may move the edges of each component they get to new copies.  One walk
    state serves all components."""
    n = len(adj)
    # disc[u] < 0 marks u unvisited; sub is the DFS subtree mass.
    disc, low, sub = [-1] * n, [0] * n, [0] * n
    for root in range(n):
        if adj[root] is not None and disc[root] < 0:
            yield _block_dfs(adj, reach, ident, root, disc, low, sub)


def _block_dfs(adj, reach, ident, root: int, disc: list[int], low: list[int], sub: list[int]):
    """Blocks and cut-side masses of root's component.

    Iterative Hopcroft-Tarjan over each row in its set's iteration order,
    with a stack of discovered vertices.  Only an unmerged top emits a
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
    """Would v's neighborhood induce a clique with all classes unfolded?"""
    if not (internal_edgeless[v] or internal_clique[v]):
        return False  # mixed class: some copies see non-adjacent siblings
    nbrs = adj[v]
    # Each neighbor unfolds into a clique and sees all the other neighbors.
    return all((ident[x] == 1 or internal_clique[x]) and len(nbrs & adj[x]) == len(nbrs) - 1 for x in nbrs)


def twin_classes_python(adj, reach, closed: bool) -> list[list[int]]:
    """The twin classes as a dict keyed by the sorted neighborhood and the
    reach (the reference for ``bcs_twin_classes``); see
    :func:`twin_classes`."""
    classes: dict[tuple, list[int]] = {}
    for v, nbrs in enumerate(adj):
        if nbrs:
            key = (*sorted(nbrs | {v} if closed else nbrs), reach[v])
            classes.setdefault(key, []).append(v)
    return [verts for verts in classes.values() if len(verts) >= 2]  # in order of lowest member


def betweenness(g: Graph, *, unordered: bool = False):
    """Exact betweenness of every vertex of ``g`` (plain Brandes).

    Ordered-pair convention by default; ``unordered=True`` halves the scores.
    """
    scores, _, _ = bc_plain(g.adjacency_lists())
    result = np.asarray(scores, dtype=np.float64)
    if unordered:
        result *= 0.5
    return result


def _check_positive(values, name: str) -> None:
    for i, value in enumerate(values):
        if value < 1:
            raise ValueError(f"{name}[{i}] = {value}; attribute counts must be >= 1")
