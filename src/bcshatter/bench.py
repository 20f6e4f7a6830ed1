"""Benchmark records, normalization, and performance profiles."""

from __future__ import annotations

import csv
import statistics
import typing
from dataclasses import astuple, dataclass

from .engine import compute_scores
from .graph import Graph
from .reduction import DEFAULT_MAX_SIDE_DEGREE, STANDARD_COMBINATIONS


@dataclass
class BenchRecord:
    graph: str
    combination: str
    preprocess_s: float
    phase1_s: float
    phase2_s: float
    total_s: float
    remaining_edges: int
    components: int


# Column name -> str, int or float, in field order; floats are written with
# nine decimals.
BENCH_TYPES = typing.get_type_hints(BenchRecord)
BENCH_FIELDS = tuple(BENCH_TYPES)


def bench_graph(
    g: Graph,
    name: str,
    combinations=STANDARD_COMBINATIONS,
    reps: int = 3,
    max_side_degree: int = DEFAULT_MAX_SIDE_DEGREE,
):
    """Run every combination ``reps`` times; report the median timings.

    Monotonic-clock timings come from the engine; repetitions run
    sequentially so they do not disturb each other.  Also returns the final
    per-component edge counts per combination.  Fewer than one repetition
    is a ``ValueError``.
    """
    if reps < 1:
        raise ValueError(f"reps must be >= 1, got {reps}")
    records = []
    component_edges: dict[str, list[int]] = {}
    for combo in combinations:
        runs = [compute_scores(g, combo, max_side_degree=max_side_degree) for _ in range(reps)]
        records.append(
            BenchRecord(
                graph=name,
                combination=str(combo),
                preprocess_s=statistics.median(r.preprocess_seconds for r in runs),
                phase1_s=statistics.median(r.phase1_seconds for r in runs),
                phase2_s=statistics.median(r.phase2_seconds for r in runs),
                total_s=statistics.median(r.total_seconds for r in runs),
                remaining_edges=runs[0].remaining_edges,
                components=runs[0].component_count,
            )
        )
        component_edges[str(combo)] = runs[0].component_edges
    return records, component_edges


def write_bench_csv(path, records) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(BENCH_FIELDS)
        for r in records:
            writer.writerow(
                f"{value:.9f}" if kind is float else value for value, kind in zip(astuple(r), BENCH_TYPES.values())
            )


def read_bench_csv(path) -> list[BenchRecord]:
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        missing = [f for f in BENCH_FIELDS if f not in (reader.fieldnames or ())]
        if missing:
            raise ValueError(f"bench CSV missing columns: {missing}")
        return [BenchRecord(**{name: kind(row[name]) for name, kind in BENCH_TYPES.items()}) for row in reader]


def _totals(records) -> dict[str, dict[str, float]]:
    """graph -> combination -> total_s; a later record of a cell wins."""
    table: dict[str, dict[str, float]] = {}
    for r in records:
        table.setdefault(r.graph, {})[r.combination] = r.total_s
    return table


def normalized_totals(records, baseline: str = "o"):
    """Per graph, each combination's total divided by the baseline's.

    The baseline defaults to the ordering-only combination; a natural-order
    baseline ("" combination) reproduces the plain-versus-ordered comparison.
    """
    by_graph = _totals(records)
    rows = []
    for graph in sorted(by_graph):
        combos = by_graph[graph]
        if baseline not in combos:
            raise ValueError(f"graph {graph!r} has no baseline combination {baseline!r} to normalize against")
        base = combos[baseline]
        for combo in combos:
            rows.append((graph, combo, combos[combo] / base if base > 0 else float("inf")))
    return rows


@dataclass(frozen=True)
class ProfilePoint:
    combination: str
    r: float
    p: float


def performance_profile(records) -> list[ProfilePoint]:
    """Step functions p(r): the fraction of graphs on which a combination's
    total time is within a factor r of the per-graph best.

    Requires a full graph x combination matrix; any hole is an error.
    """
    table = _totals(records)
    combos = {combo for row in table.values() for combo in row}
    if len(combos) < 2:
        raise ValueError("performance profile needs at least two combinations")
    holes = [
        (graph, combo)
        for graph in sorted(table)
        for combo in sorted(combos)
        if combo not in table[graph]
    ]
    if holes:
        raise ValueError(f"bench data has holes (graph, combination): {holes}")
    graphs = sorted(table)
    best = {graph: min(table[graph].values()) for graph in graphs}
    points: list[ProfilePoint] = []
    for combo in sorted(combos):
        ratios = sorted(
            table[graph][combo] / best[graph] if best[graph] > 0 else 1.0 for graph in graphs
        )
        count = 0
        for i, ratio in enumerate(ratios):
            count += 1
            if i + 1 < len(ratios) and ratios[i + 1] == ratio:
                continue  # collapse equal ratios into one step
            points.append(ProfilePoint(combo, ratio, count / len(graphs)))
    return points
