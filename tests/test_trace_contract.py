"""The benchmark's traced run hooks library names from outside; a refactor
that renames a hooked function or changes the arguments its counters read
must fail here rather than make a benchmark layer silently read 0."""

from __future__ import annotations

from pathlib import Path

import pytest

import bcshatter
from bcshatter import kernels
from bcshatter.graph import Graph
from bcshatter.oracle import GraphSpec, generate

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
SPEC = GraphSpec("planted-side", 300, 0.0, seed=5)


def _every_pass_graph() -> Graph:
    """SPEC's graph beside a small bridged-blobs graph and a bowtie, so that
    every pass letter changes something under ``odbasi``."""
    parts = [generate(SPEC), generate(GraphSpec("bridged-blobs", 60, 0.0, seed=1))]
    parts.append(Graph.from_edges(5, [(0, 1), (0, 2), (1, 2), (2, 3), (2, 4), (3, 4)]))
    edges, n = [], 0
    for part in parts:
        edges += [(u + n, v + n) for u, v in part.edges()]
        n += part.n
    return Graph.from_edges(n, edges)


def _traced_python_sweep(monkeypatch, g: Graph):
    """A traced ``odbasi`` solve of g on the Python fallback, the only path
    that calls the hooked ``kernels.side_bfs``: returns the tracer, the
    result and the summed work counts."""
    monkeypatch.syspath_prepend(str(PERFBENCH))
    from spans import Tracer, layer_totals

    monkeypatch.setattr(kernels, "_compiled", None)
    tracer = Tracer()
    tracer.install()
    try:
        result = bcshatter.compute_scores(g, "odbasi")
    finally:
        tracer.restore()
    _, counts = layer_totals(tracer.take())
    return tracer, result, counts


def test_every_hook_present_and_counted(monkeypatch):
    tracer, result, counts = _traced_python_sweep(monkeypatch, _every_pass_graph())
    # the four per-component wrappers these layers hooked are gone: the
    # engine makes one kernels.brandes call per solve, which the spans do
    # not hook yet, so its time reads under engine.other_s
    assert tracer.absent == [f"kernels.variant_{v}" for v in ("plain", "reach", "ident", "reach_ident")]
    assert tracer.uncounted == set()
    side_removals = sum(e.changes for e in result.stats.events if e.technique == "s")
    assert side_removals > 0
    assert counts["kernels.side_bfs.calls"] == side_removals
    assert counts["kernels.side_bfs.arcs"] > 0
    # every pass letter's counters read what its PassEvents record
    for letter in "dbasi":
        events = [e for e in result.stats.events if e.technique == letter]
        assert counts[f"reduction.pass_{letter}.calls"] == len(events) == result.stats.iterations
        assert counts[f"reduction.pass_{letter}.changes"] == sum(e.changes for e in events) > 0, letter


def test_compiled_sweep_counts_as_the_hook(monkeypatch):
    # the compiled sweep's own runs and arcs are what the hook counts on the
    # Python loop, so hooking it instead would keep every count
    lib = kernels._kernel()
    if lib is None:
        pytest.skip("the compiled library could not be built or loaded here")
    _, _, counts = _traced_python_sweep(monkeypatch, generate(SPEC))
    monkeypatch.setattr(kernels, "_compiled", lib)
    sweeps = []
    sweep = kernels.side_sweep

    def recorded(*args):
        sweeps.append(sweep(*args))
        return sweeps[-1]

    monkeypatch.setattr(kernels, "side_sweep", recorded)
    bcshatter.compute_scores(generate(SPEC), "odbasi")
    assert sweeps and None not in sweeps
    assert sum(len(removed) for removed, _ in sweeps) == counts["kernels.side_bfs.calls"]
    assert sum(arcs for _, arcs in sweeps) == counts["kernels.side_bfs.arcs"]


def test_benchmark_warm_up_loads_the_library(monkeypatch):
    # perfbench's worker warms up on this solve before it times anything;
    # its side pass must load the compiled library, or the load (and with a
    # cold cache, the build) lands in the first timed solve
    monkeypatch.setattr(kernels, "_compiled", kernels._UNTRIED)
    g, _ = bcshatter.parse_graph("0 1\n1 2\n2 0\n2 3\n")
    bcshatter.compute_scores(g, "odbasi")
    assert kernels._compiled is not kernels._UNTRIED
