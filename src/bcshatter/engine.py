"""End-to-end score computation: ordering, reduction, kernels, reassembly."""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from time import perf_counter

import numpy as np

from . import kernels
from .graph import Graph, bfs_order, relabel
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

    phase1 = 0.0
    phase2 = 0.0
    kernel_acc: dict[int, float] = {}
    comps = w.components()
    rows, reach, ident = w.rows(), w.reach.tolist(), w.ident.tolist()
    component_edges = []
    for comp in comps:
        edge_count = sum(len(rows[v]) for v in comp) // 2
        component_edges.append(edge_count)
        if len(comp) < 2:
            continue
        index = {v: i for i, v in enumerate(comp)}
        adj_local = [sorted(index[x] for x in rows[v]) for v in comp]
        reach_local = [reach[v] for v in comp]
        ident_local = [ident[v] for v in comp]
        use_reach = any(r != 1 for r in reach_local)
        use_ident = any(i != 1 for i in ident_local)
        if use_reach and use_ident:
            scores, a, b = kernels.bc_reach_ident(adj_local, reach_local, ident_local)
        elif use_reach:
            scores, a, b = kernels.bc_reach(adj_local, reach_local)
        elif use_ident:
            scores, a, b = kernels.bc_ident(adj_local, ident_local)
        else:
            scores, a, b = kernels.bc_plain(adj_local)
        phase1 += a
        phase2 += b
        for i, v in enumerate(comp):
            if scores[i]:
                kernel_acc[v] = scores[i]
    component_edges.sort(reverse=True)  # largest first, whatever ids the copies got
    stats.component_edges = component_edges

    final = finalize(w, partial, kernel_acc)
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
        component_edges=component_edges,
        stats=stats,
    )
