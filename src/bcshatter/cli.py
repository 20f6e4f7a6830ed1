"""Command-line front end: compute, verify, bench, profile.

Exit codes: 0 success, 1 verification failure, 2 usage error, 3 I/O error.
All outputs are CSV with header rows.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import sys
from pathlib import Path

import numpy as np

from .bench import (
    bench_graph,
    normalized_totals,
    performance_profile,
    read_bench_csv,
    write_bench_csv,
)
from .engine import compute_scores
from .graph import GraphInputError, parse_graph
from .oracle import DEFAULT_CAP, GraphSpec, bc_brute, check_cap, generate
from .reduction import DEFAULT_MAX_SIDE_DEGREE, STANDARD_COMBINATIONS, Combination

EXIT_OK = 0
EXIT_VERIFY = 1
EXIT_USAGE = 2
EXIT_IO = 3

REL_TOL = 1e-6
ABS_TOL = 1e-9


def _add_input_flags(sub) -> None:
    sub.add_argument("--format", choices=("edge-list", "metis"), default="edge-list", help="input graph format")
    sub.add_argument("--base", type=int, choices=(0, 1), default=0, help="vertex id base for edge lists")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="bcshatter", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_compute = sub.add_parser("compute", help="compute betweenness scores to CSV")
    p_compute.add_argument("graph", help="input graph file")
    _add_input_flags(p_compute)
    p_compute.add_argument("--combo", default="odbasi", help="technique combination (subset of 'odbasi')")
    p_compute.add_argument("--seed", type=int, default=None, help="seed a random BFS ordering start vertex")
    p_compute.add_argument("--max-side-degree", type=int, default=DEFAULT_MAX_SIDE_DEGREE,
                           help="side-vertex clique size cap")
    p_compute.add_argument("--unordered", action="store_true", help="halve scores to unordered-pair convention")
    p_compute.add_argument("--out", default="-", help="output CSV path ('-' for stdout)")
    p_compute.add_argument("--stats", default=None, help="also write pass statistics CSV here")

    p_verify = sub.add_parser("verify", help="check combinations against the brute-force oracle")
    src = p_verify.add_mutually_exclusive_group(required=True)
    src.add_argument("--gen", help="generator spec, e.g. 'gnp:n=30,p=0.2,seed=7'")
    src.add_argument("--graph", help="input graph file")
    _add_input_flags(p_verify)
    p_verify.add_argument("--combos", default=",".join(STANDARD_COMBINATIONS), help="comma-separated combinations")
    p_verify.add_argument("--cap", type=int, default=DEFAULT_CAP, help="oracle size cap")
    p_verify.add_argument("--max-side-degree", type=int, default=DEFAULT_MAX_SIDE_DEGREE)
    p_verify.add_argument("--seed", type=int, default=None, help="seed a random BFS ordering start vertex")

    p_bench = sub.add_parser("bench", help="time combinations over graphs")
    p_bench.add_argument("graphs", nargs="+", help="input graph files")
    _add_input_flags(p_bench)
    p_bench.add_argument("--combos", default=",".join(STANDARD_COMBINATIONS))
    p_bench.add_argument("--reps", type=int, default=3, help="repetitions per cell, median reported")
    p_bench.add_argument("--max-side-degree", type=int, default=DEFAULT_MAX_SIDE_DEGREE)
    p_bench.add_argument("--natural-baseline", action="store_true",
                         help="also run with no techniques and normalize against that instead of 'o'")
    p_bench.add_argument("--out", default="bench.csv", help="records CSV; .normalized/.components CSVs sit beside it")

    p_profile = sub.add_parser("profile", help="performance profile from a bench CSV")
    p_profile.add_argument("bench_csv", help="records CSV produced by the bench command")
    p_profile.add_argument("--out", default="-", help="output CSV path ('-' for stdout)")

    return parser


def _write_rows(out: str, rows) -> None:
    with contextlib.nullcontext(sys.stdout) if out == "-" else open(out, "w", newline="") as fh:
        csv.writer(fh).writerows(rows)


def _load_graph(path: str, fmt: str, base: int):
    text = Path(path).read_text()
    return parse_graph(text, fmt, index_base=base)


def _parse_combos(text: str) -> list[str]:
    combos = [c.strip() for c in text.split(",") if c.strip()]
    if not combos:
        raise ValueError("no combinations given")
    for c in combos:
        Combination.parse(c)
    return combos


def _cmd_compute(args) -> int:
    Combination.parse(args.combo)
    g, _ = _load_graph(args.graph, args.format, args.base)
    result = compute_scores(
        g,
        args.combo,
        max_side_degree=args.max_side_degree,
        order_seed=args.seed,
        unordered=args.unordered,
    )
    rows = [["vertex_id", "bc"]]
    rows.extend([str(v), f"{result.scores[v]:.17g}"] for v in range(g.n))
    _write_rows(args.out, rows)
    if args.stats:
        _write_rows(args.stats, result.stats.csv_rows())
    return EXIT_OK


def _cmd_verify(args) -> int:
    combos = _parse_combos(args.combos)
    if args.gen:
        spec = GraphSpec.parse(args.gen)
        check_cap(spec.n, args.cap)  # before generating: gnp draws n^2 coins
        g = generate(spec)
        label = args.gen
    else:
        g, _ = _load_graph(args.graph, args.format, args.base)
        label = args.graph
    expected = bc_brute(g, cap=args.cap)
    failed = False
    for combo in combos:
        scores = compute_scores(g, combo, max_side_degree=args.max_side_degree, order_seed=args.seed).scores
        diff = np.abs(scores - expected)
        max_abs = float(diff.max()) if g.n else 0.0
        rel = diff / np.maximum(np.abs(expected), 1.0)
        max_rel = float(rel.max()) if g.n else 0.0
        ok = bool(np.all(diff <= ABS_TOL + REL_TOL * np.abs(expected)))
        status = "PASS" if ok else "FAIL"
        line = f"combination {combo:<8s} max_abs={max_abs:.3e} max_rel={max_rel:.3e} {status}"
        if not ok:
            worst = int(diff.argmax())
            line += f" vertex {worst} expected {expected[worst]:.17g} got {scores[worst]:.17g}"
            failed = True
        print(line)
    print(f"verify {label}: n={g.n} m={g.m} -> {'FAIL' if failed else 'PASS'}")
    return EXIT_VERIFY if failed else EXIT_OK


def _cmd_bench(args) -> int:
    combos = _parse_combos(args.combos)
    if args.reps < 1:
        raise ValueError(f"--reps must be >= 1, got {args.reps}")
    baseline = "o"
    if args.natural_baseline:
        baseline = ""
        if "" not in combos:
            combos = [""] + combos
    if baseline not in combos:  # refused before any graph is timed or any file written
        raise ValueError(f"--combos must include the baseline combination {baseline!r} to normalize against")
    # the CSVs name each graph by its file name, so two inputs must not share one
    names = [Path(path).name for path in args.graphs]
    repeated = sorted({name for name in names if names.count(name) > 1})
    if repeated:
        raise ValueError(f"graphs must have distinct file names; repeated: {', '.join(repeated)}")
    records = []
    component_rows = [["graph", "combination", "component", "edges"]]
    io_failures = 0
    for path, name in zip(args.graphs, names):
        try:
            g, _ = _load_graph(path, args.format, args.base)
        except (OSError, GraphInputError) as exc:
            print(f"bench: skipping {path}: {exc}", file=sys.stderr)
            io_failures += 1
            continue
        recs, comp_edges = bench_graph(g, name, combos, reps=args.reps, max_side_degree=args.max_side_degree)
        records.extend(recs)
        for combo, counts in comp_edges.items():
            for idx, edges in enumerate(counts):
                component_rows.append([name, combo, str(idx), str(edges)])
    if not records:
        print("bench: no graphs could be read", file=sys.stderr)
        return EXIT_IO
    write_bench_csv(args.out, records)
    norm_rows = [["graph", "combination", "normalized_total"]]
    norm_rows.extend([g_, c, f"{f:.9f}"] for g_, c, f in normalized_totals(records, baseline=baseline))
    base = Path(args.out)
    _write_rows(str(base.with_suffix(".normalized.csv")), norm_rows)
    _write_rows(str(base.with_suffix(".components.csv")), component_rows)
    return EXIT_IO if io_failures else EXIT_OK


def _cmd_profile(args) -> int:
    records = read_bench_csv(args.bench_csv)
    points = performance_profile(records)
    rows = [["combination", "r", "p"]]
    rows.extend([pt.combination, f"{pt.r:.9f}", f"{pt.p:.9f}"] for pt in points)
    _write_rows(args.out, rows)
    return EXIT_OK


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_OK
    try:
        if args.command == "compute":
            return _cmd_compute(args)
        if args.command == "verify":
            return _cmd_verify(args)
        if args.command == "bench":
            return _cmd_bench(args)
        if args.command == "profile":
            return _cmd_profile(args)
        raise AssertionError(f"unhandled command {args.command}")
    except (OSError, GraphInputError) as exc:
        print(f"bcshatter: {exc}", file=sys.stderr)
        return EXIT_IO
    except ValueError as exc:
        print(f"bcshatter: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
