"""Checks that the benchmark's own checks work.

Usage, from the root of a checkout:  python3 perfbench/selftest.py

1. The two references agree with each other and with hand-counted scores.
2. The score check catches a corrupted result: with one score flipped in
   every solve, every solve counts as failed; without it, none does.
3. The work counters of a traced run repeat exactly in a second process
   with the same code and seed, on every workload.

Exits 0 when all hold, 1 otherwise.
"""

from __future__ import annotations

import json
import random
import subprocess
import sys
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import workloads  # noqa: E402
from reference import block_graph_bc, brandes_sparse  # noqa: E402
from worker import Solver, mismatched  # noqa: E402


def check_references() -> list[str]:
    errors = []
    path = np.array([[0, 1], [1, 2], [2, 3]])
    if mismatched(brandes_sparse(4, path), np.array([0.0, 4.0, 4.0, 0.0])):
        errors.append("sparse Brandes is wrong on the 4-path")
    rng = random.Random(5)
    edges, tree = workloads._clique_tree(300, 3, rng)
    inst = workloads._labelled("small-clique-tree", workloads.tree_vertices(tree), edges, rng, tree)
    if mismatched(brandes_sparse(inst.n, inst.edges), block_graph_bc(inst.block_tree)):
        errors.append("closed form and sparse Brandes disagree on a clique tree")
    return errors


def check_corruption() -> list[str]:
    import bcshatter

    rng = random.Random(3)
    inst = workloads._labelled("small-social-mix", *workloads._social_mix(120, rng), rng)
    ref = brandes_sparse(inst.n, inst.edges)
    texts = [inst.edge_list_text()] * 3
    errors = []
    clean = Solver(bcshatter, texts, [ref] * 3)
    clean.run_pass()
    if clean.failed:
        errors.append(f"clean solves flagged: {clean.failed} of {clean.attempted}")

    original = bcshatter.compute_scores

    def corrupted(*args, **kwargs):
        result = original(*args, **kwargs)
        result.scores[int(np.argmax(result.scores))] *= -1.0
        return result

    bad = Solver(bcshatter, texts, [ref] * 3)
    bcshatter.compute_scores = corrupted
    try:
        bad.run_pass()
    finally:
        bcshatter.compute_scores = original
    if bad.failed != bad.attempted:
        errors.append(f"corrupted solves missed: {bad.failed} of {bad.attempted} flagged")
    return errors


def traced_counts(workload: str) -> dict:
    out = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "7", "--seconds", "1", "--trace", "1"],
        capture_output=True,
        text=True,
        timeout=300,
        check=True,
        cwd=ROOT,
    )
    result = json.loads(out.stdout.strip().splitlines()[-1])
    return {k: v["value"] for k, v in result["metrics"].items() if v["unit"] == "count"}


def check_counter_repeat() -> list[str]:
    errors = []
    for workload in workloads.WORKLOADS:
        first, second = traced_counts(workload), traced_counts(workload)
        if first != second:
            diff = {k: (first[k], second.get(k)) for k in first if first[k] != second.get(k)}
            errors.append(f"{workload}: counters differ between runs: {diff}")
    return errors


def main() -> int:
    failures = 0
    for name, check in (
        ("references agree", check_references),
        ("corruption is caught", check_corruption),
        ("counters repeat", check_counter_repeat),
    ):
        errors = check()
        failures += bool(errors)
        print(f"{'PASS' if not errors else 'FAIL'} {name}")
        for error in errors:
            print(f"  {error}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
