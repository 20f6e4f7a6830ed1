"""Spans around the library's layers, recorded from outside the library.

``Tracer.install`` replaces the module attributes the engine looks up at
call time (``kernels.bc_*``, ``reduction.run_pass``, ``engine.preprocess``,
...) with wrappers that record one span per call: solve id, layer, parent
span, start, end, the call's work counts and the time spent counting them
(taken out of the parent's self time and reported on its own).  Spans stay
in memory; the caller turns them into per-layer self times (a span's
duration minus the part its child spans cover) and writes them out when the
run ends.

A hook whose attribute no longer exists (renamed by a later change) is
reported as absent instead of failing the run; the time it takes then stays
in its caller's span, so the caller's self time is reported under
``engine.other_s`` rather than under a layer name that would mislead.
"""

from __future__ import annotations

import functools
import importlib
from time import perf_counter

# (module, attribute path, layer).  The layer "reduction.pass" is split by
# the pass letter given to run_pass.
HOOKS = (
    ("bcshatter", "parse_graph", "graph.parse"),
    ("bcshatter", "compute_scores", "engine.glue"),
    ("bcshatter.engine", "bfs_order", "graph.order"),
    ("bcshatter.engine", "relabel", "graph.relabel"),
    ("bcshatter.engine", "preprocess", "reduction.loop"),
    ("bcshatter.engine", "finalize", "engine.finalize"),
    ("bcshatter.reduction", "WorkGraph.from_graph", "reduction.workgraph"),
    ("bcshatter.reduction", "WorkGraph.compact", "reduction.compact"),
    ("bcshatter.reduction", "WorkGraph.components", "reduction.components"),
    ("bcshatter.reduction", "run_pass", "reduction.pass"),
    ("bcshatter.kernels", "bc_plain", "kernels.variant_plain"),
    ("bcshatter.kernels", "bc_reach", "kernels.variant_reach"),
    ("bcshatter.kernels", "bc_ident", "kernels.variant_ident"),
    ("bcshatter.kernels", "bc_reach_ident", "kernels.variant_reach_ident"),
    ("bcshatter.kernels", "side_bfs", "kernels.side_bfs"),
)

PASS_LETTERS = "dbasi"
KERNEL_VARIANTS = ("plain", "reach", "ident", "reach_ident")

# Which layers run the calls of each hooked layer.  When a hook is absent,
# these callers hold its time in their self time.
CALLERS = {
    "graph.order": ("engine.glue",),
    "graph.relabel": ("engine.glue",),
    "reduction.loop": ("engine.glue",),
    "engine.finalize": ("engine.glue",),
    "reduction.workgraph": ("reduction.loop",),
    "reduction.compact": ("reduction.loop",),
    "reduction.components": ("engine.glue", "reduction.loop") + tuple(f"reduction.pass_{x}" for x in PASS_LETTERS),
    "reduction.pass": ("reduction.loop",),
    "kernels.side_bfs": ("reduction.pass_s",),
    **{f"kernels.variant_{v}": ("engine.glue",) for v in KERNEL_VARIANTS},
}


def _kernel_counts(args, result):
    adj = args[0]
    return {"calls": 1, "arcs": len(adj) * sum(map(len, adj))}


def _side_counts(args, result):
    adj, source = args[0], args[1]
    return {"calls": 1, "arcs": len(adj[source]) + sum(len(adj[v]) for v, _ in result)}


def _pass_counts(args, result):
    return {"calls": 1, "changes": int(result)}


COUNTERS = {
    "reduction.pass": _pass_counts,
    "kernels.side_bfs": _side_counts,
    **{f"kernels.variant_{v}": _kernel_counts for v in KERNEL_VARIANTS},
}


class Tracer:
    """Records spans while installed; ``restore`` puts the originals back."""

    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self.solve_id = 0
        self.absent: list[str] = []
        self.uncounted: set[str] = set()
        self._stack: list[int] = []
        self._saved: list[tuple] = []

    def install(self) -> None:
        for module_name, path, layer in HOOKS:
            try:
                owner = importlib.import_module(module_name)
                *outer, attr = path.split(".")
                for name in outer:
                    owner = getattr(owner, name)
                raw = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
            except (ImportError, AttributeError, KeyError):
                self.absent.append(layer)
                continue
            self._saved.append((owner, attr, raw))
            if isinstance(raw, classmethod):
                setattr(owner, attr, classmethod(self._wrap(raw.__func__, layer)))
            elif callable(raw):
                setattr(owner, attr, self._wrap(raw, layer))
            else:
                self._saved.pop()
                self.absent.append(layer)

    def restore(self) -> None:
        for owner, attr, raw in reversed(self._saved):
            setattr(owner, attr, raw)
        self._saved.clear()

    def _wrap(self, fn, layer):
        tracer = self
        count = COUNTERS.get(layer)
        split_by_pass = layer == "reduction.pass"

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            name = f"{layer}_{args[1] if len(args) > 1 else kwargs.get('letter')}" if split_by_pass else layer
            index = len(tracer.spans)
            parent = tracer._stack[-1] if tracer._stack else -1
            tracer.spans.append(None)
            tracer._stack.append(index)
            result = None
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = perf_counter()
                tracer._stack.pop()
                counts = None
                if count is not None and result is not None:
                    try:
                        counts = count(args, result)
                    except (TypeError, ValueError, IndexError, AttributeError):
                        tracer.uncounted.add(layer)  # call signature changed
                counting = perf_counter() - end
                tracer.spans[index] = (tracer.solve_id, name, parent, start, end, counts, counting)

        return traced

    def take(self) -> list[tuple]:
        """Spans recorded since the last call."""
        spans, self.spans = self.spans, []
        return spans


def layer_totals(spans: list[tuple]) -> tuple[dict[str, float], dict[str, int]]:
    """Self seconds per layer (counting time under "trace.counting"), and
    summed work counts per layer."""
    self_s: dict[str, float] = {"trace.counting": 0.0}
    counts: dict[str, int] = {}
    for _, name, parent, start, end, span_counts, counting in spans:
        duration = end - start
        self_s[name] = self_s.get(name, 0.0) + duration
        self_s["trace.counting"] += counting
        if parent >= 0:
            parent_name = spans[parent][1]
            self_s[parent_name] = self_s.get(parent_name, 0.0) - duration - counting
        for key, value in (span_counts or {}).items():
            counts[f"{name}.{key}"] = counts.get(f"{name}.{key}", 0) + value
    return self_s, counts


def misattributed(absent: list[str]) -> set[str]:
    """Layers whose self time includes the time of an absent hook."""
    return {caller for layer in absent for caller in CALLERS.get(layer, ())}
