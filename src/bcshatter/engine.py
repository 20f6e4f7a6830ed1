"""End-to-end score computation: ordering, reduction, kernels, reassembly.  The
kernel stage is ``reduction.solve_pieces`` with no size bound, the routine
the reduction loop retires small pieces with: one kernel call over a layout
of the reduced work graph, each component a range of ids."""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from time import perf_counter

import numpy as np

from . import kernels
from .graph import Graph, bfs_order, relabel
from .kernels import NonFiniteScoresError  # what compute_scores raises, importable from here
from .reduction import DEFAULT_MAX_SIDE_DEGREE, Combination, PassStats, finalize, preprocess, solve_pieces


@dataclass
class ComputeResult:
    scores: np.ndarray
    combination: str
    preprocess_seconds: float
    # the kernel stage's call; the retirement steps' calls count as preprocessing
    phase1_seconds: float
    phase2_seconds: float
    total_seconds: float
    # what the kernels saw: every piece a kernel call ran on, retired by the
    # reduction loop or left for the kernel stage
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

    pieces, totals, edges, phase1, phase2 = solve_pieces(w)
    # every piece a kernel call ran on, retired or final, largest first
    stats.component_edges = sorted(stats.component_edges + edges.tolist(), reverse=True)

    final = finalize(pieces, partial, totals)
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
        remaining_vertices=pieces.n + sum(r.vertices for r in stats.retirements),
        remaining_edges=sum(stats.component_edges),
        component_count=len(stats.component_edges),
        component_edges=stats.component_edges,
        stats=stats,
    )
