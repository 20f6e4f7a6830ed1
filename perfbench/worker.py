"""The timed process of a benchmark run.

Usage: python3 perfbench/worker.py WORKDIR SECONDS TRACE OUT_JSON

WORKDIR holds the edge-list texts and reference scores that run.py wrote.
This process imports only ``bcshatter`` and numpy, runs no threads of its
own, and does nothing but the timed work, so its peak RSS is the program's.
One solve is ``parse_graph(text)`` + ``compute_scores(g, "odbasi")``: edge-list
text in, exact scores in the input numbering out.  One pass solves every
graph of the workload once; passes repeat until SECONDS are used, each
bracketed by a machine-speed probe (see calibrate.py).  Every score vector
is checked against the reference outside the timed region.

With TRACE=1, traced and untraced passes alternate: the traced ones give the
per-layer split, and the difference of the two medians is the tracing
overhead.
"""

from __future__ import annotations

import json
import resource
import sys
import traceback
from pathlib import Path
from time import perf_counter

import numpy as np

from calibrate import probe

COMBINATION = "odbasi"
# The tolerance `bcshatter verify` uses.
ABS_TOL = 1e-9
REL_TOL = 1e-6
MIN_PASSES = 3


def mismatched(scores, ref: np.ndarray) -> bool:
    """True unless ``scores`` matches ``ref`` within the tolerance."""
    scores = np.asarray(scores, dtype=np.float64)
    if scores.shape != ref.shape:
        return True
    return not bool(np.all(np.abs(scores - ref) <= ABS_TOL + REL_TOL * np.abs(ref)))


class Solver:
    """Solves the workload's graphs and checks each result."""

    def __init__(self, bcs, texts: list[str], refs: list[np.ndarray]) -> None:
        self.bcs = bcs
        self.texts = texts
        self.refs = refs
        self.attempted = 0
        self.failed = 0
        self.last_results: list = []
        self.tracer = None  # set during traced passes, to label spans per solve

    def run_pass(self) -> float:
        """Solve every graph once; return the summed solve seconds."""
        total = 0.0
        self.last_results = []
        for text, ref in zip(self.texts, self.refs):
            self.attempted += 1
            if self.tracer is not None:
                self.tracer.solve_id = self.attempted
            start = perf_counter()
            try:
                g, _ = self.bcs.parse_graph(text)
                result = self.bcs.compute_scores(g, COMBINATION)
            except Exception:
                total += perf_counter() - start
                self.failed += 1
                traceback.print_exc()
                self.last_results.append(None)
                continue
            total += perf_counter() - start
            if mismatched(result.scores, ref):
                self.failed += 1
            self.last_results.append(result)
        return total


def keep_going(rounds: int, started: float, seconds: float) -> bool:
    """Start another round while it is expected to end within SECONDS."""
    elapsed = perf_counter() - started
    if rounds < MIN_PASSES:
        return elapsed < seconds
    return elapsed * (rounds + 1) / rounds <= seconds


def timed_run(solver: Solver, seconds: float) -> dict:
    passes: list[float] = []
    probes = [probe()]
    started = perf_counter()
    while keep_going(len(passes), started, seconds):
        passes.append(solver.run_pass())
        probes.append(probe())
    return {"passes": passes, "probes": probes}


def traced_run(solver: Solver, seconds: float, spans_path: Path) -> dict:
    from spans import Tracer, layer_totals, misattributed

    tracer = Tracer()
    plain: list[float] = []
    traced: list[tuple[float, dict, dict, list]] = []
    started = perf_counter()
    while keep_going(len(traced), started, seconds):
        plain.append(solver.run_pass())
        tracer.install()
        solver.tracer = tracer
        try:
            total = solver.run_pass()
        finally:
            solver.tracer = None
            tracer.restore()
        spans = tracer.take()
        self_s, counts = layer_totals(spans)
        counts.update(result_counts(solver.last_results))
        traced.append((total, self_s, counts, spans))
    # Report the traced pass with the median total, so its layers add up.
    totals = [t[0] for t in traced]
    total, self_s, counts, spans = sorted(traced, key=lambda t: t[0])[(len(traced) - 1) // 2]
    repeat = all(t[2] == traced[0][2] for t in traced)
    with open(spans_path, "w") as fh:
        json.dump({"fields": ["solve", "layer", "parent", "start", "end", "counts", "counting_s"], "spans": spans}, fh)
    other = total - sum(self_s.values())
    for layer in misattributed(tracer.absent):
        other += self_s.pop(layer, 0.0)
    return {
        "passes": plain,
        "traced_passes": totals,
        "traced_total": total,
        "self_s": self_s,
        "other_s": other,
        "counts": counts,
        "counts_repeat": repeat,
        "absent": sorted(tracer.absent),
        "uncounted": sorted(tracer.uncounted),
    }


def result_counts(results: list) -> dict:
    """Sizes the reduction left for the kernels, summed over the graphs."""
    out = {}
    for key, attr in (
        ("reduction.remaining_vertices", "remaining_vertices"),
        ("reduction.remaining_edges", "remaining_edges"),
        ("reduction.components", "component_count"),
    ):
        values = [getattr(r, attr, None) for r in results]
        if all(isinstance(v, int) for v in values):
            out[key] = sum(values)
    return out


def peak_rss_mb() -> float:
    """Peak resident memory of this process image.  ``ru_maxrss`` would
    also count the parent's pages this process held between fork and exec,
    so the kernel's high-water mark for the current image is read instead."""
    try:
        with open("/proc/self/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def main(argv: list[str]) -> int:
    workdir, seconds, trace, out_path = Path(argv[0]), float(argv[1]), argv[2] == "1", Path(argv[3])
    import bcshatter

    manifest = json.loads((workdir / "manifest.json").read_text())
    texts = [(workdir / g["text"]).read_text() for g in manifest["graphs"]]
    refs = [np.load(workdir / g["ref"]) for g in manifest["graphs"]]

    # Lazy set-up (first-call paths) happens here, not in a timed solve.
    g, _ = bcshatter.parse_graph("0 1\n1 2\n2 0\n2 3\n")
    bcshatter.compute_scores(g, COMBINATION)

    solver = Solver(bcshatter, texts, refs)
    if trace:
        report = traced_run(solver, seconds, workdir / "spans.json")
    else:
        report = timed_run(solver, seconds)
    report.update(
        attempted=solver.attempted,
        failed=solver.failed,
        peak_rss_mb=peak_rss_mb(),
        bcshatter_file=bcshatter.__file__,
    )
    out_path.write_text(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
