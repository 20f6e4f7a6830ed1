"""Benchmark entry point for bcshatter.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload core-kernel --seed 1 --seconds 30 --trace 0

Generates the workload's graphs from the seed, computes their reference
scores in this process (cached per seed under .perfbench_cache/), times
fresh-interpreter set-up, then runs the timed solves in a separate worker
process (perfbench/worker.py) against the library under src/.  Prints one
details line with the environment and samples, then, as the last line, a
JSON object with "correct", "attempted", "failed" and "metrics": the
end-to-end metrics of BENCHMARK.json with --trace 0, its per-layer metrics
with --trace 1.  Exits 2 without a result when src/bcshatter is missing.
"""

from __future__ import annotations

import os

# The machine has two cores; keep numpy/scipy in this and every child process
# single-threaded so nothing competes with the timed solves.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import hashlib
import json
import platform
import signal
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

from calibrate import NOMINAL_PROBE_S, probe
from spans import KERNEL_VARIANTS, PASS_LETTERS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
CACHE = ROOT / ".perfbench_cache"
SETUP_RUNS = 7
SETUP_LIMIT_S = 30
RUN_LIMIT_S = 175.0
SETUP_CODE = (
    "import bcshatter\n"
    "g, _ = bcshatter.parse_graph('0 1\\n1 2\\n2 0\\n2 3\\n')\n"
    "bcshatter.compute_scores(g, 'odbasi')\n"
)


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env["PYTHONHASHSEED"] = "0"  # fixed hashing: work counts must repeat across processes
    return env


def prepare(workload: str, seed: int) -> Path:
    """Write the graphs and their reference scores; reuse them when cached."""
    import numpy as np

    from reference import reference_scores
    from workloads import generate

    digest = hashlib.sha256()
    for name in ("workloads.py", "reference.py"):
        digest.update((HERE / name).read_bytes())
    work = CACHE / f"{workload}-{seed}-{digest.hexdigest()[:12]}"
    if (work / "manifest.json").is_file():
        return work
    work.mkdir(parents=True, exist_ok=True)
    graphs = []
    for i, inst in enumerate(generate(workload, seed)):
        (work / f"g{i}.txt").write_text(inst.edge_list_text())
        np.save(work / f"g{i}.npy", reference_scores(inst))
        graphs.append({"name": inst.name, "n": inst.n, "m": int(inst.edges.shape[0]), "text": f"g{i}.txt", "ref": f"g{i}.npy"})
    (work / "manifest.json").write_text(json.dumps({"workload": workload, "seed": seed, "graphs": graphs}))
    return work


def setup_seconds() -> tuple[list[float], list[float]]:
    """Wall times for a fresh interpreter to import bcshatter and finish one
    tiny solve, and the probes interleaved with them; a first, untimed run
    warms the bytecode cache."""
    run_setup_child()
    times = []
    probes = [probe()]
    for _ in range(SETUP_RUNS):
        times.append(run_setup_child())
        probes.append(probe())
    return times, probes


def run_setup_child() -> float:
    """Wall seconds of one set-up child.  It is reaped with a blocking
    waitpid: ``subprocess`` polls in 50 ms steps when given a timeout, which
    would quantise the measurement, so an alarm bounds the wait instead."""

    def expire(signum, frame):
        raise TimeoutError("set-up child did not finish")

    start = perf_counter()
    proc = subprocess.Popen([sys.executable, "-c", SETUP_CODE], env=child_env())
    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(SETUP_LIMIT_S)
    try:
        _, status = os.waitpid(proc.pid, 0)
    except BaseException:
        proc.kill()
        proc.wait()
        raise
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
    elapsed = perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    if proc.returncode:
        raise subprocess.CalledProcessError(proc.returncode, proc.args)
    return elapsed


def scaled_median(times: list[float], probes: list[float]) -> float:
    """Median of the times, each scaled to the nominal machine speed by the
    mean of the probes run just before and after it (see calibrate.py)."""
    return statistics.median(t * 2 * NOMINAL_PROBE_S / (a + b) for t, a, b in zip(times, probes, probes[1:]))


def run_worker(work: Path, seconds: float, trace: bool, deadline: float) -> dict:
    out = work / f"result-{os.getpid()}.json"
    try:
        subprocess.run(
            [sys.executable, str(HERE / "worker.py"), str(work), str(seconds), str(int(trace)), str(out)],
            env=child_env(),
            check=True,
            timeout=max(1.0, deadline - perf_counter()),
        )
        return json.loads(out.read_text())
    finally:
        out.unlink(missing_ok=True)


def tail(samples: list[float]) -> dict | None:
    """Highest percentile with at least ten samples beyond it."""
    if len(samples) <= 10:
        return None
    k = len(samples) - 10
    return {"percentile": 100.0 * k / len(samples), "value": sorted(samples)[k - 1]}


def environment() -> dict:
    import numpy
    import scipy

    rev = None
    try:
        top = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "--show-toplevel", "HEAD"], capture_output=True, text=True, timeout=10)
        lines = top.stdout.split()
        if top.returncode == 0 and Path(lines[0]).resolve() == ROOT:
            rev = lines[1]
    except (OSError, subprocess.SubprocessError, IndexError):
        pass
    src_digest = hashlib.sha256()
    for path in sorted((SRC / "bcshatter").rglob("*.py")):
        src_digest.update(path.read_bytes())
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "git_rev": rev,
        "src_sha256": src_digest.hexdigest()[:16],
    }


def end_to_end(report: dict, setup: list[float], setup_probes: list[float]) -> dict:
    return {
        "solve_s": scaled_median(report["passes"], report["probes"]),
        "setup_s": scaled_median(setup, setup_probes),
        "peak_rss_mb": report["peak_rss_mb"],
    }


def per_layer(report: dict) -> dict:
    """Per-layer metrics of the traced pass with the median total."""
    self_s, counts = report["self_s"], report["counts"]
    values = {f"{layer}_s": seconds for layer, seconds in self_s.items()}
    variants = [f"kernels.variant_{v}" for v in KERNEL_VARIANTS]
    brandes_s = sum(self_s.get(layer, 0.0) for layer in variants)
    brandes_arcs = sum(counts.get(f"{layer}.arcs", 0) for layer in variants)
    pass_calls = [v for k, v in counts.items() if k.startswith("reduction.pass_") and k.endswith(".calls")]
    values.update({f"{layer}_calls": counts.get(f"{layer}.calls", 0) for layer in variants})
    values.update({f"reduction.changes_{x}": counts.get(f"reduction.pass_{x}.changes", 0) for x in PASS_LETTERS})
    values.update(
        {
            "kernels.brandes_s": brandes_s,
            "kernels.brandes_calls": sum(values[f"{layer}_calls"] for layer in variants),
            "kernels.brandes_arcs": brandes_arcs,
            "kernels.ns_per_arc": 1e9 * brandes_s / brandes_arcs if brandes_arcs else 0.0,
            "kernels.side_bfs_calls": counts.get("kernels.side_bfs.calls", 0),
            "kernels.side_bfs_arcs": counts.get("kernels.side_bfs.arcs", 0),
            "reduction.iterations": max(pass_calls, default=0),
            "reduction.remaining_vertices": counts.get("reduction.remaining_vertices", 0),
            "reduction.remaining_edges": counts.get("reduction.remaining_edges", 0),
            "reduction.components": counts.get("reduction.components", 0),
            "engine.other_s": report["other_s"],
            "trace.solve_s": report["traced_total"],
            "trace.overhead_s": statistics.median(report["traced_passes"]) - statistics.median(report["passes"]),
        }
    )
    return values


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    deadline = perf_counter() + RUN_LIMIT_S

    if not (SRC / "bcshatter" / "__init__.py").is_file():
        print(f"error: no bcshatter sources under {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2

    work = prepare(args.workload, args.seed)
    setup, setup_probes = ([], []) if args.trace else setup_seconds()
    report = run_worker(work, args.seconds, bool(args.trace), deadline)

    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    values = per_layer(report) if args.trace else end_to_end(report, setup, setup_probes)
    metrics = {m["name"]: {"value": values.get(m["name"], 0.0), "unit": m["unit"]} for m in wanted}
    loaded = Path(report["bcshatter_file"]).resolve()
    correct = report["failed"] == 0 and SRC in loaded.parents and report.get("counts_repeat", True)

    manifest = json.loads((work / "manifest.json").read_text())
    details = {
        "workload": args.workload,
        "seed": args.seed,
        "graphs": [{k: g[k] for k in ("name", "n", "m")} for g in manifest["graphs"]],
        "environment": environment(),
        "solve_wall_s": {
            "samples": len(report["passes"]),
            "median": statistics.median(report["passes"]),
            "tail": tail(report["passes"]),
            "values": report["passes"],
        },
        "solve_probe_s": report.get("probes", []),
        "setup_wall_s": setup,
        "setup_probe_s": setup_probes,
        "error_rate": report["failed"] / max(1, report["attempted"]),
        "bcshatter_file": str(loaded),
    }
    if args.trace:
        details.update({k: report[k] for k in ("traced_passes", "self_s", "counts", "counts_repeat", "absent", "uncounted")})
        details["unreported_layers"] = sorted(set(values) - {m["name"] for m in wanted})
        details["spans_file"] = str(work / "spans.json")
    print(json.dumps({"details": details}))
    print(
        json.dumps(
            {
                "correct": bool(correct),
                "attempted": report["attempted"],
                "failed": report["failed"],
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
