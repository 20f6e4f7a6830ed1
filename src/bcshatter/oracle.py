"""Independent ground-truth betweenness and deterministic graph generators.

These deliberately share no code with the kernels module: ``bc_brute`` works
from an all-pairs distance/count matrix instead of per-source dependency
accumulation, so a bug in one path cannot hide in the other.  Everything is
seeded through ``random.Random`` (Mersenne Twister), which is stable across
platforms, so generated corpora are reproducible.
"""

from __future__ import annotations

import random
from collections import deque
from dataclasses import dataclass

import numpy as np

from .graph import Graph

FAMILIES = (
    "gnp",
    "random-tree",
    "bridged-blobs",
    "planted-identical",
    "planted-side",
    "clique-chain",
)

DEFAULT_CAP = 512

# gnp's edge probability when its spec gives none: this mean degree.
GNP_DEFAULT_DEGREE = 3.0


class OracleCapError(ValueError):
    """Refused: the graph is too large for cubic brute force."""


def check_cap(n: int, cap: int = DEFAULT_CAP) -> None:
    """Refuse an n-vertex graph for :func:`bc_brute`; callers that know n
    before they build the graph check it first."""
    if n > cap:
        raise OracleCapError(f"graph has {n} vertices; brute-force cap is {cap}")


def bc_brute(g: Graph, cap: int = DEFAULT_CAP) -> np.ndarray:
    """Betweenness by definition: sigma_st(v) / sigma_st summed over ordered
    pairs, from all-pairs BFS distance and path-count matrices.

    O(n^3); refuses graphs over ``cap`` vertices to prevent accidental
    hour-long runs.
    """
    n = g.n
    check_cap(n, cap)
    if n == 0:
        return np.zeros(0, dtype=np.float64)
    adj = g.adjacency_lists()
    dist = np.full((n, n), -1, dtype=np.int32)
    counts = np.zeros((n, n), dtype=np.float64)
    for s in range(n):
        dist[s, s] = 0
        counts[s, s] = 1.0
        queue = deque([s])
        while queue:
            v = queue.popleft()
            dv1 = dist[s, v] + 1
            for w in adj[v]:
                if dist[s, w] < 0:
                    dist[s, w] = dv1
                    queue.append(w)
                if dist[s, w] == dv1:
                    counts[s, w] += counts[s, v]
    bc = np.zeros(n, dtype=np.float64)
    for v in range(n):
        d_sv = dist[:, v][:, None]
        d_vt = dist[v, :][None, :]
        on_path = (dist >= 1) & (d_sv >= 1) & (d_vt >= 1) & (d_sv + d_vt == dist)
        through = counts[:, v][:, None] * counts[v, :][None, :]
        frac = np.divide(through, counts, out=np.zeros((n, n)), where=on_path)
        bc[v] = frac[on_path].sum()
    return bc


def bc_tree(g: Graph) -> np.ndarray:
    """Closed-form betweenness for a tree, in O(n).

    Deleting v splits the tree into parts of sizes c_1..c_k; the ordered
    pairs separated by v number (n-1)^2 - sum(c_i^2), and every separated
    pair depends on v with weight 1.
    """
    n = g.n
    if n == 0:
        return np.zeros(0, dtype=np.float64)
    if g.m != n - 1:
        raise ValueError(f"not a tree: n={n} needs m={n - 1}, got m={g.m}")
    adj = g.adjacency_lists()
    parent = [-1] * n
    order = [0]
    parent[0] = 0
    head = 0
    while head < len(order):
        v = order[head]
        head += 1
        for w in adj[v]:
            if parent[w] < 0:
                parent[w] = v
                order.append(w)
    if len(order) != n:
        raise ValueError("not a tree: disconnected")
    size = [1] * n
    child_sq = [0] * n
    for v in reversed(order[1:]):
        size[parent[v]] += size[v]
    for v in order[1:]:
        child_sq[parent[v]] += size[v] * size[v]
    bc = np.zeros(n, dtype=np.float64)
    whole = (n - 1) * (n - 1)
    for v in range(n):
        parts_sq = child_sq[v]
        if v != 0:
            up = n - size[v]
            parts_sq += up * up
        bc[v] = whole - parts_sq
    return bc


@dataclass(frozen=True)
class GraphSpec:
    """Deterministic generator request: same spec, same graph.

    ``param`` is the family's knob, and 0 picks its default: the edge
    probability for ``gnp`` (default 3 / (n - 1), a mean degree of 3), the
    blob or clique size for ``bridged-blobs`` (4) and ``clique-chain`` (4),
    and the base graph's edge probability for ``planted-identical`` and
    ``planted-side`` (0.25).  ``random-tree`` has none.
    """

    family: str
    n: int
    param: float = 0.0
    seed: int = 0

    @classmethod
    def parse(cls, text: str) -> "GraphSpec":
        """Parse "family:n=30,p=0.2,seed=7" style strings."""
        family, _, rest = text.partition(":")
        family = family.strip()
        if family not in FAMILIES:
            raise ValueError(f"unknown generator family {family!r}; expected one of {FAMILIES}")
        n = 0
        param = 0.0
        seed = 0
        for item in filter(None, (s.strip() for s in rest.split(","))):
            key, _, value = item.partition("=")
            key = key.strip()
            if key == "n":
                n = int(value)
            elif key in ("p", "param", "block"):
                param = float(value)
            elif key == "seed":
                seed = int(value)
            else:
                raise ValueError(f"unknown generator parameter {key!r}")
        return cls(family, n, param, seed)

    def __str__(self) -> str:
        return f"{self.family}:n={self.n},param={self.param:g},seed={self.seed}"


def generate(spec: GraphSpec) -> Graph:
    if spec.n < 0:
        raise ValueError("n must be non-negative")
    rng = random.Random(spec.seed)
    if spec.family == "gnp":
        return _gnp(spec.n, spec.param or min(1.0, GNP_DEFAULT_DEGREE / max(spec.n - 1, 1)), rng)
    if spec.family == "random-tree":
        return _random_tree(spec.n, rng)
    if spec.family == "bridged-blobs":
        return _bridged_blobs(spec.n, int(spec.param) or 4, rng)
    if spec.family == "planted-identical":
        return _planted_identical(spec.n, spec.param or 0.25, rng)
    if spec.family == "planted-side":
        return _planted_side(spec.n, spec.param or 0.25, rng)
    if spec.family == "clique-chain":
        return _clique_chain(spec.n, int(spec.param) or 4, rng)
    raise ValueError(f"unknown generator family {spec.family!r}")


def _gnp(n: int, p: float, rng: random.Random) -> Graph:
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"edge probability must be in [0, 1], got {p}")
    edges = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p]
    return Graph.from_edges(n, edges)


def _random_tree(n: int, rng: random.Random) -> Graph:
    import heapq

    if n <= 1:
        return Graph.from_edges(n, [])
    if n == 2:
        return Graph.from_edges(2, [(0, 1)])
    seq = [rng.randrange(n) for _ in range(n - 2)]
    degree = [1] * n
    for x in seq:
        degree[x] += 1
    leaves = [v for v in range(n) if degree[v] == 1]
    heapq.heapify(leaves)
    edges = []
    for x in seq:
        leaf = heapq.heappop(leaves)
        edges.append((leaf, x))
        degree[x] -= 1
        if degree[x] == 1:
            heapq.heappush(leaves, x)
    edges.append((heapq.heappop(leaves), heapq.heappop(leaves)))
    return Graph.from_edges(n, edges)


def _bridged_blobs(n: int, block: int, rng: random.Random) -> Graph:
    """Chain of dense blobs joined by single edges (guaranteed bridges)."""
    if n < 4:
        raise ValueError("bridged-blobs needs n >= 4")
    block = max(2, block)
    k = max(2, n // block)
    bounds = [round(i * n / k) for i in range(k + 1)]
    blobs = [list(range(bounds[i], bounds[i + 1])) for i in range(k)]
    edges = set()
    for blob in blobs:
        for a, b in zip(blob, blob[1:]):  # spanning path keeps the blob connected
            edges.add((a, b))
        for i, a in enumerate(blob):
            for b in blob[i + 2 :]:
                if rng.random() < 0.6:
                    edges.add((a, b))
    for left, right in zip(blobs, blobs[1:]):
        edges.add((rng.choice(left), rng.choice(right)))
    return Graph.from_edges(n, sorted(edges))


def _planted_identical(n: int, p: float, rng: random.Random) -> Graph:
    """Sparse base plus twin vertices copying existing neighborhoods."""
    if n < 4:
        raise ValueError("planted-identical needs n >= 4")
    twins = max(2, n // 8)
    base = n - twins
    adj: list[set[int]] = [set() for _ in range(n)]
    for u in range(base):
        for v in range(u + 1, base):
            if rng.random() < p:
                adj[u].add(v)
                adj[v].add(u)
    if not any(adj[v] for v in range(base)):
        adj[0].add(1)
        adj[1].add(0)
    for new in range(base, n):
        candidates = [v for v in range(new) if adj[v]]
        target = rng.choice(candidates)
        for x in sorted(adj[target] - {new}):
            adj[new].add(x)
            adj[x].add(new)
    edges = [(u, v) for u in range(n) for v in adj[u] if u < v]
    return Graph.from_edges(n, edges)


def _planted_side(n: int, p: float, rng: random.Random) -> Graph:
    """Sparse base plus vertices attached across single edges (their
    neighborhood is then a 2-clique, making them side vertices)."""
    if n < 4:
        raise ValueError("planted-side needs n >= 4")
    extras = max(2, n // 8)
    base = n - extras
    edges = {(u, v) for u in range(base) for v in range(u + 1, base) if rng.random() < p}
    if not edges:
        edges.add((0, 1))
    edge_list = sorted(edges)
    for new in range(base, n):
        a, b = rng.choice(edge_list)
        edges.add((a, new))
        edges.add((b, new))
    return Graph.from_edges(n, sorted(edges))


def _clique_chain(n: int, block: int, rng: random.Random) -> Graph:
    """Cliques chained by single edges: articulation points, bridges, and
    side vertices in one family."""
    if n < 3:
        raise ValueError("clique-chain needs n >= 3")
    block = max(3, block)
    k = max(1, n // block)
    bounds = [round(i * n / k) for i in range(k + 1)]
    groups = [list(range(bounds[i], bounds[i + 1])) for i in range(k)]
    edges = set()
    for group in groups:
        for i, a in enumerate(group):
            for b in group[i + 1 :]:
                edges.add((a, b))
    for left, right in zip(groups, groups[1:]):
        edges.add((rng.choice(left), rng.choice(right)))
    return Graph.from_edges(n, sorted(edges))


def pair_distance_total(g: Graph) -> float:
    """sum over ordered connected pairs of (d(s, t) - 1).

    Every shortest path has d - 1 interior vertices, so this equals the sum
    of all betweenness scores; used as a cross-check identity.
    """
    adj = g.adjacency_lists()
    total = 0
    dist = [-1] * g.n
    for s in range(g.n):
        for i in range(g.n):
            dist[i] = -1
        dist[s] = 0
        queue = deque([s])
        while queue:
            v = queue.popleft()
            for w in adj[v]:
                if dist[w] < 0:
                    dist[w] = dist[v] + 1
                    total += dist[w] - 1
                    queue.append(w)
    return float(total)
