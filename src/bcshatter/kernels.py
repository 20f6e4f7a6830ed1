"""Betweenness kernels: Brandes' algorithm with reach and ident attributes.

All kernels use the ordered-pair convention: a pair (s, t) contributes its
dependency once per direction, so no halving happens here (that is a CLI
output option).  Shortest-path counts sigma are kept in float64 because they
can overflow 64-bit integers on dense graphs while the dependency ratios
stay well conditioned.

One attribute-general algorithm exists, behind two entry points.  Each
pairs a compiled form in ``_brandes.c`` with a Python form built on
``single_source``, the one Python forward BFS and backward sweep:

* ``brandes``, all sources over one component: ``bcs_brandes`` and
  ``brandes_python``.
* ``side_sweep``, a whole side-vertex sweep of
  ``reduction.remove_side_vertices``, one run per candidate over the work
  graph, adding the amounts straight into the score accumulator:
  ``bcs_side_sweep`` and ``side_sweep_python``, whose runs are ``side_bfs``.

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
from itertools import chain
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
    offsets, targets = _csr(adj, np.int32)
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


def side_sweep(adj, members, reach, ident, candidates: list[int], out: np.ndarray):
    """One side-vertex sweep: ``bcs_side_sweep``, or ``side_sweep_python``
    when the compiled library cannot be built or loaded.

    ``adj`` and ``members`` are the work graph's (a deleted vertex's row is
    None).  For each candidate in order whose neighborhood is not yet empty,
    adds the amounts of :func:`side_bfs` and the endpoint credit to ``out``
    (a float64 array), and treats the candidate as deleted from then on.
    Changes nothing but ``out``; the caller retires the removed candidates.
    Returns ``(removed, arcs)``: the removed candidates in order, one run
    each, and the arcs the runs scanned, counted as for ``side_bfs`` calls
    (the source's degree plus the degrees of the vertices it reached).
    """
    n = len(adj)
    if len(members) != n or len(reach) != n or len(ident) != n:
        raise ValueError(f"members, reach and ident need {n} entries, one per vertex")
    offsets, targets = _csr(adj, np.int32)
    member_offsets, flat_members = _csr(members, np.int64)
    sources = np.asarray(candidates, dtype=np.int32)
    _check_ids(targets, n, "neighbor")
    _check_ids(sources, n, "candidate")
    _check_ids(flat_members, len(out), "member")
    lib = _kernel()
    if lib is None:
        return side_sweep_python(adj, members, reach, ident, candidates, out)
    removed = np.empty(len(sources), dtype=np.int32)
    counts = np.zeros(2, dtype=np.int64)
    lib.bcs_side_sweep(
        n,
        offsets,
        targets,
        member_offsets,
        flat_members,
        np.asarray(reach, dtype=np.float64),
        np.asarray(ident, dtype=np.float64),
        sources,
        len(sources),
        out,
        *_workspaces(n, targets),
        np.empty(n, dtype=np.int64),
        removed,
        counts,
    )
    runs, arcs = counts.tolist()
    return removed[:runs].tolist(), arcs


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


def _csr(rows, dtype):
    """Offsets (int64) and concatenated entries of ``rows``, each a sized
    iterable or None for an empty row, in the rows' iteration order."""
    offsets = np.zeros(len(rows) + 1, dtype=np.int64)
    np.cumsum(np.fromiter((len(r) if r else 0 for r in rows), dtype=np.int64, count=len(rows)), out=offsets[1:])
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


def side_sweep_python(adj, members, reach, ident, candidates: list[int], out: np.ndarray):
    """The side sweep as one :func:`side_bfs` run per candidate (the
    reference for ``bcs_side_sweep``); see :func:`side_sweep` for the
    arguments and the result.

    The runs go over a copy of the rows as lists in the rows' iteration
    order, and each removed candidate is deleted from the copy before the
    next run.  Deleting from a list, like deleting from a set, never
    reorders the rest, so every run visits the vertices in the order of the
    work graph with the earlier candidates deleted.
    """
    rows = [list(r) if r else [] for r in adj]
    state = source_state(len(rows))
    removed = []
    arcs = 0
    for u in candidates:
        if not rows[u]:
            continue  # removed already, or earlier removals emptied its neighborhood
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
