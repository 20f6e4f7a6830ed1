"""End-to-end score computation: ordering, reduction, kernels, reassembly.  The
kernels read one layout of the reduced work graph: each component a range of
ids, the components in first-id order, each in increasing id."""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from itertools import accumulate, chain
from time import perf_counter

import numpy as np

from . import kernels
from .graph import Graph, _relabel_csr, bfs_order, relabel
from .kernels import NonFiniteScoresError  # what compute_scores raises, importable from here
from .reduction import DEFAULT_MAX_SIDE_DEGREE, Combination, PassStats, finalize, preprocess


@dataclass
class ComputeResult:
    scores: np.ndarray
    combination: str
    preprocess_seconds: float
    phase1_seconds: float
    phase2_seconds: float
    total_seconds: float
    remaining_vertices: int
    remaining_edges: int
    component_count: int
    component_edges: list[int] = field(default_factory=list)
    stats: PassStats | None = None


def compute_scores(
    g: Graph,
    combination: Combination | str = "odbasi",
    *,
    max_side_degree: int = DEFAULT_MAX_SIDE_DEGREE,
    order_seed: int | None = None,
    unordered: bool = False,
) -> ComputeResult:
    """Exact betweenness of ``g`` under the given technique combination.

    Scores are returned in the input numbering regardless of the ordering
    step and are identical (within float tolerance) for every combination;
    the combinations only trade preprocessing work against kernel work.
    ``order_seed`` picks a random BFS start vertex reproducibly; the default
    start is vertex 0.  Raises :class:`NonFiniteScoresError` when any score
    is NaN or infinite.
    """
    combo = Combination.parse(combination) if isinstance(combination, str) else combination
    t0 = perf_counter()
    perm = None
    working = g
    if combo.uses_ordering and g.n > 0:
        start = 0 if order_seed is None else random.Random(order_seed).randrange(g.n)
        perm = bfs_order(g, start)
        working = relabel(g, perm)
    w, partial, stats = preprocess(working, combo, max_side_degree=max_side_degree)
    preprocess_seconds = perf_counter() - t0

    comps = w.components()
    bounds = np.fromiter(accumulate(map(len, comps), initial=0), dtype=np.int64, count=len(comps) + 1)
    order = np.fromiter(chain.from_iterable(comps), dtype=np.int64, count=w.n)  # new id k is order[k]
    forward = np.empty_like(order)
    forward[order] = np.arange(w.n)
    # component c is new ids bounds[c] to bounds[c + 1] - 1, each row ascending
    offsets, targets = _relabel_csr(w.offsets, w.targets, forward, order)
    totals, phase1, phase2 = kernels.brandes(offsets, targets, w.reach[order], w.ident[order], bounds)
    # each component's edge count, largest first, whatever ids the copies got
    stats.component_edges = sorted((np.diff(offsets[bounds]) // 2).tolist(), reverse=True)

    final = finalize(w, partial, order, totals)
    kernels.check_finite(final)
    if perm is not None:
        final = final[perm.forward]
    if unordered:
        final = final * 0.5
    total_seconds = perf_counter() - t0
    return ComputeResult(
        scores=final,
        combination=str(combo),
        preprocess_seconds=preprocess_seconds,
        phase1_seconds=phase1,
        phase2_seconds=phase2,
        total_seconds=total_seconds,
        remaining_vertices=w.n,
        remaining_edges=w.m,
        component_count=len(comps),
        component_edges=stats.component_edges,
        stats=stats,
    )
