"""Shared fixtures and helpers for the test suite."""

from __future__ import annotations

import itertools
import random

import pytest

from bcshatter.graph import Graph


def connected_edge_sets(n: int):
    """All labeled connected graphs on n vertices, as edge lists."""
    pairs = list(itertools.combinations(range(n), 2))
    for mask in range(1, 2 ** len(pairs)):
        edges = [pairs[i] for i in range(len(pairs)) if mask >> i & 1]
        if _connected(n, edges):
            yield edges


def _connected(n: int, edges) -> bool:
    adj = {v: [] for v in range(n)}
    for u, v in edges:
        adj[u].append(v)
        adj[v].append(u)
    seen = {0}
    stack = [0]
    while stack:
        x = stack.pop()
        for y in adj[x]:
            if y not in seen:
                seen.add(y)
                stack.append(y)
    return len(seen) == n


def random_graph(n: int, p: float, seed: int) -> Graph:
    rng = random.Random(seed)
    edges = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p]
    return Graph.from_edges(n, edges)


def path_graph(n: int) -> Graph:
    return Graph.from_edges(n, [(i, i + 1) for i in range(n - 1)])


def cycle_graph(n: int) -> Graph:
    return Graph.from_edges(n, [(i, (i + 1) % n) for i in range(n)])


def complete_graph(n: int) -> Graph:
    return Graph.from_edges(n, list(itertools.combinations(range(n), 2)))


def star_graph(leaves: int) -> Graph:
    return Graph.from_edges(leaves + 1, [(0, i) for i in range(1, leaves + 1)])


def complete_bipartite_graph(a: int, b: int) -> Graph:
    """K_{a,b}: vertices 0 .. a - 1 on one side, a .. a + b - 1 on the other."""
    return Graph.from_edges(a + b, [(u, v) for u in range(a) for v in range(a, a + b)])


@pytest.fixture
def toy_social_graph() -> Graph:
    """Hand-built 11-vertex graph mixing a hub cut vertex, two leaves, two
    simplicial vertices, and two pairs of open-neighborhood twins.

    0 is a cut vertex whose removal leaves three parts: {1,2,3,4,5}, {6},
    and {7,8,9,10}.  3's neighbors {1,2} are adjacent (simplicial), 4 and 6
    are leaves, and {9,10} share the neighborhood {7,8}.
    """
    edges = [
        (0, 1), (0, 2), (0, 5), (0, 6), (0, 7), (0, 8),
        (1, 2), (1, 3), (1, 4), (1, 5),
        (2, 3), (2, 5),
        (7, 9), (7, 10),
        (8, 9), (8, 10),
    ]
    return Graph.from_edges(11, edges)
