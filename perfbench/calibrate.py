"""Machine-speed probe used to scale the benchmark's times.

The shared two-core box this benchmark was built on changes speed by 20-30%
from one minute to the next (other tenants; CPU time tracks wall time, so it
is not preemption).  The probe is fixed pure-Python work that shares no code
with ``bcshatter``: all-sources Brandes on one seeded 300-vertex graph, once
over preallocated lists (like the kernels) and once over dicts (like the
reduction passes).  Each half alone tracked one kind of workload better;
together they track all three.  It runs before the first and after every
timed pass.  Each pass's wall time is scaled by ``NOMINAL_PROBE_S`` over the
mean of the probes on either side of it, giving seconds on a machine that
runs the probe in ``NOMINAL_PROBE_S``; the reported time is the median of
the scaled passes.  A slow stretch slows a pass and its probes alike and
cancels out.  Raw wall seconds are reported beside them.
"""

from __future__ import annotations

import random
from time import perf_counter

# Typical probe time on the machine the bounds were set on (Intel Xeon,
# 2 vCPUs, Python 3.11), so scaled times read close to wall seconds there.
NOMINAL_PROBE_S = 0.3

_ADJ: list[list[int]] = []


def _graph() -> list[list[int]]:
    if not _ADJ:
        rng = random.Random(20120927)
        n = 300
        edges: set[tuple[int, int]] = set()
        while len(edges) < 750:
            u, v = rng.randrange(n), rng.randrange(n)
            if u != v:
                edges.add((min(u, v), max(u, v)))
        _ADJ.extend([] for _ in range(n))
        for u, v in sorted(edges):
            _ADJ[u].append(v)
            _ADJ[v].append(u)
    return _ADJ


def probe() -> float:
    """Wall seconds of one run of both probe halves."""
    adj = _graph()
    start = perf_counter()
    _brandes_lists(adj)
    _brandes_dicts(adj)
    return perf_counter() - start


def _brandes_lists(adj: list[list[int]]) -> list[float]:
    n = len(adj)
    bc = [0.0] * n
    dist = [-1] * n
    sigma = [0.0] * n
    delta = [0.0] * n
    preds: list[list[int]] = [[] for _ in range(n)]
    order = [0] * n
    for s in range(n):
        order[0], size, head = s, 1, 0
        dist[s], sigma[s] = 0, 1.0
        while head < size:
            v = order[head]
            head += 1
            for w in adj[v]:
                if dist[w] < 0:
                    dist[w] = dist[v] + 1
                    order[size] = w
                    size += 1
                if dist[w] == dist[v] + 1:
                    sigma[w] += sigma[v]
                    preds[w].append(v)
        for i in range(size - 1, 0, -1):
            w = order[i]
            for v in preds[w]:
                delta[v] += sigma[v] / sigma[w] * (1.0 + delta[w])
            bc[w] += delta[w]
        for i in range(size):
            v = order[i]
            dist[v], sigma[v], delta[v] = -1, 0.0, 0.0
            preds[v].clear()
    return bc


def _brandes_dicts(adj: list[list[int]]) -> list[float]:
    bc = [0.0] * len(adj)
    for s in range(len(adj)):
        dist = {s: 0}
        sigma = {s: 1.0}
        preds: dict[int, list[int]] = {}
        order = [s]
        for v in order:
            for w in adj[v]:
                if w not in dist:
                    dist[w] = dist[v] + 1
                    sigma[w] = 0.0
                    preds[w] = []
                    order.append(w)
                if dist[w] == dist[v] + 1:
                    sigma[w] += sigma[v]
                    preds[w].append(v)
        delta = dict.fromkeys(order, 0.0)
        for w in reversed(order):
            for v in preds.get(w, ()):
                delta[v] += sigma[v] / sigma[w] * (1.0 + delta[w])
            if w != s:
                bc[w] += delta[w]
    return bc
