"""Betweenness kernels: Brandes' algorithm with reach and ident attributes.

All kernels use the ordered-pair convention: a pair (s, t) contributes its
dependency once per direction, so no halving happens here (that is a CLI
output option).  Shortest-path counts sigma are kept in float64 because they
can overflow 64-bit integers on dense graphs while the dependency ratios
stay well conditioned.

One attribute-general algorithm exists, in two implementations that
``brandes`` picks between by the work a component needs (n * 2m) and its
BFS depth:

* ``brandes_python`` - one ``single_source`` run per source.  It wins on
  tiny components and on long cycles and paths, where numpy's fixed cost
  per call dominates, and it is the reference the tests hold the numpy
  routine to.
* ``brandes_numpy`` - level-synchronous Brandes over a CSR copy for a batch
  of sources at once.  Each BFS level costs a fixed number of array
  operations, and the shortest-path DAG arcs of each level replace
  predecessor lists, so the backward pass replays the levels in reverse
  (Madduri et al., IPDPS 2009).

``single_source`` is the one Python forward BFS and backward sweep.  It
serves ``brandes_python`` and ``side_bfs``, the compensation run of the side
vertex pass, over per-vertex list state that the caller allocates once and
each run leaves at rest.

The two implementations follow the same floating-point operations per arc:
with all attributes equal to 1 every attribute factor is an exact
multiplication by 1, which the degeneration tests assert bit-for-bit.  They
sum the same terms in different orders, so they agree to rounding, not
bitwise.  ``bc_plain``, ``bc_reach``, ``bc_ident`` and ``bc_reach_ident``
name the attribute combinations the engine dispatches on.

Attribute semantics on a reduced component:

* ``reach[v]``  - number of original vertices represented by v (v itself
  plus the mass folded behind it by shattering/compression).
* ``ident[v]``  - number of mutually interchangeable original vertices
  merged into v.  On shortest paths every merged copy acts as a parallel
  route, hence the sigma multiplier; as a source or endpoint it multiplies
  whole dependency trees.

Each kernel returns ``(scores, phase1_seconds, phase2_seconds)`` where
scores[v] is the per-copy contribution for v (shared by all merged copies).
"""

from __future__ import annotations

from itertools import chain
from time import perf_counter

import numpy as np

from .graph import Graph

Adjacency = list[list[int]]

# Every numpy call costs some microseconds however small its arrays, and the
# numpy routine makes a few dozen per kernel and per BFS level of a batch.
# It runs only on components with at least SMALL_WORK (source, arc) pairs,
# n * 2m, whose batches average at least LEVEL_ARCS arcs per level; the
# Python loop is faster on the rest (tiny components, and long cycles or
# paths with hundreds of levels).
SMALL_WORK = 1 << 10
LEVEL_ARCS = 64
# (source, vertex-or-arc) pairs handled per batch of sources; this keeps the
# batch temporaries near 1 MB.
BATCH_WORK = 1 << 15


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

    Runs the batched numpy routine where its per-call and per-level costs
    pay off (see ``SMALL_WORK`` and ``LEVEL_ARCS``), the Python loop
    otherwise.
    """
    n = len(adj)
    reach = [1] * n if reach is None else reach
    ident = [1] * n if ident is None else ident
    _check_positive(reach, "reach")
    _check_positive(ident, "ident")
    arc_count = sum(map(len, adj))
    if n * arc_count >= SMALL_WORK and _batch_size(n, arc_count) * arc_count >= LEVEL_ARCS * _bfs_depth(adj):
        return brandes_numpy(adj, reach, ident)
    return brandes_python(adj, reach, ident)


def _batch_size(n: int, arc_count: int) -> int:
    return max(1, min(n, BATCH_WORK // max(1, n + arc_count)))


def _bfs_depth(adj: Adjacency) -> int:
    """Deepest BFS level over all components, each searched from its first
    vertex; within a factor 2 of the level count of any source's BFS."""
    depth = [-1] * len(adj)
    deepest = 0
    for root in range(len(adj)):
        if depth[root] >= 0:
            continue
        depth[root] = 0
        queue = [root]
        for v in queue:
            below = depth[v] + 1
            for w in adj[v]:
                if depth[w] < 0:
                    depth[w] = below
                    queue.append(w)
        deepest = max(deepest, depth[queue[-1]])
    return deepest


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


def brandes_numpy(adj: Adjacency, reach: list[int], ident: list[int]):
    """Level-synchronous Brandes for batches of sources over a CSR copy.

    The state of the b-th source of a batch at vertex v lives at flat index
    b * n + v, and every per-vertex array is tiled once per batch slot so a
    level needs no vertex ids.  The forward pass keeps, per BFS level, the
    level's flat indices, its sigma, and its DAG arcs into the next level as
    (position in this level, position in the next).  An arc is on the DAG
    exactly when its head was unseen before the level.
    """
    n = len(adj)
    deg = np.fromiter(map(len, adj), dtype=np.intp, count=n)
    offsets = np.zeros(n + 1, dtype=np.intp)
    np.cumsum(deg, out=offsets[1:])
    arc_count = int(offsets[-1])
    nbrs = np.fromiter(chain.from_iterable(adj), dtype=np.intp, count=arc_count)
    reach_f = np.asarray(reach, dtype=np.float64)
    ident_f = np.asarray(ident, dtype=np.float64)
    source_mult = reach_f * ident_f
    batch = _batch_size(n, arc_count)
    slots = np.arange(batch)
    deg_t = np.tile(deg, batch)
    first_arc_t = (offsets[:-1] + arc_count * slots[:, None]).ravel()
    heads_t = (nbrs + n * slots[:, None]).ravel()
    start_delta_t = np.tile(reach_f - 1.0, batch)
    ident_t = np.tile(ident_f, batch)
    level_of = np.empty(batch * n, dtype=np.int32)
    claim = np.empty(batch * n, dtype=np.intp)
    bc = np.zeros(n)
    t1 = 0.0
    t2 = 0.0
    for first in range(0, n, batch):
        tick = perf_counter()
        size = min(batch, n - first)
        sources = slots[:size] * (n + 1) + first
        level_of[: size * n] = -1
        level_of[sources] = 0
        flat = sources
        sigma = np.ones(size)
        forward = sigma  # a source forwards its sigma without the ident fan-out
        levels = []
        depth = 0
        while True:
            counts = deg_t[flat]
            ends = np.cumsum(counts)
            arc_src = np.repeat(np.arange(flat.size), counts)
            arcs = np.arange(ends[-1])
            arcs += (first_arc_t[flat] - ends + counts)[arc_src]
            head = heads_t[arcs]
            fresh = np.flatnonzero(level_of[head] < 0)
            if fresh.size == 0:
                levels.append((flat, sigma, None, None))
                break
            depth += 1
            found = head[fresh]
            dag_tail = arc_src[fresh]
            level_of[found] = depth
            next_flat = np.flatnonzero(level_of[: size * n] == depth)
            claim[next_flat] = np.arange(next_flat.size)
            dag_head = claim[found]
            levels.append((flat, sigma, dag_tail, dag_head))
            flat = next_flat
            sigma = np.bincount(dag_head, weights=forward[dag_tail], minlength=flat.size)
            forward = sigma * ident_t[flat]
        now = perf_counter()
        t1 += now - tick
        tick = now
        dep = np.zeros(size * n)
        coef = None
        for flat, sigma, dag_tail, dag_head in reversed(levels):
            delta = start_delta_t[flat]
            if dag_tail is not None:
                delta += np.bincount(dag_tail, weights=sigma[dag_tail] * coef[dag_head], minlength=flat.size)
            coef = ident_t[flat] * (1.0 + delta) / sigma
            dep[flat] = delta
        dep[sources] = 0.0  # a source is no interior vertex
        bc += (dep.reshape(size, n) * source_mult[first : first + size, None]).sum(axis=0)
        t2 += perf_counter() - tick
    return bc.tolist(), t1, t2


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
