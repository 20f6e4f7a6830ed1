"""The benchmark's traced run hooks library names from outside; a refactor
that renames a hooked function or changes the arguments its counters read
must fail here rather than make a benchmark layer silently read 0."""

from __future__ import annotations

from pathlib import Path

import bcshatter
from bcshatter.oracle import GraphSpec, generate

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def test_every_hook_present_and_counted(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    from spans import Tracer, layer_totals

    g = generate(GraphSpec("planted-side", 300, 0.0, seed=5))
    tracer = Tracer()
    tracer.install()
    try:
        result = bcshatter.compute_scores(g, "odbasi")
    finally:
        tracer.restore()
    assert tracer.absent == []
    assert tracer.uncounted == set()
    _, counts = layer_totals(tracer.take())
    side_removals = sum(e.changes for e in result.stats.events if e.technique == "s")
    assert side_removals > 0
    assert counts["kernels.side_bfs.calls"] == side_removals
    assert counts["kernels.side_bfs.arcs"] > 0
    assert counts["reduction.pass_s.calls"] == result.stats.iterations
