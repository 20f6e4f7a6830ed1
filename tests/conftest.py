"""Shared fixtures and helpers for the test suite."""

from __future__ import annotations

import itertools
import random

import numpy as np
import pytest

from bcshatter import kernels
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


def layered_graph(layers: int) -> Graph:
    """Layers of three vertices, each joined to two of the next layer's: the
    shortest paths between the end layers double with every layer, so past
    about 1,024 layers their count overflows float64."""
    edges = [(3 * i + j, 3 * i + 3 + k) for i in range(layers - 1) for j in range(3) for k in (j, (j + 1) % 3)]
    return Graph.from_edges(3 * layers, edges)


def star_graph(leaves: int) -> Graph:
    return Graph.from_edges(leaves + 1, [(0, i) for i in range(1, leaves + 1)])


def complete_bipartite_graph(a: int, b: int) -> Graph:
    """K_{a,b}: vertices 0 .. a - 1 on one side, a .. a + b - 1 on the other."""
    return Graph.from_edges(a + b, [(u, v) for u in range(a) for v in range(a, a + b)])


def kernel_args(rows: list[list[int]], reach=None, ident=None, bounds=None) -> tuple:
    """The arguments of ``kernels.brandes`` for the rows ``rows`` (lists of
    ids): their CSR (int64 offsets, int32 targets), ``reach`` and ``ident``
    as float64 arrays (all 1 where None) and the component bounds (int64;
    one range over every row where None)."""
    n = len(rows)
    offsets = np.cumsum([0, *map(len, rows)], dtype=np.int64)
    targets = np.fromiter(itertools.chain.from_iterable(rows), dtype=np.int32, count=int(offsets[-1]))
    reach, ident = (np.ones(n) if a is None else np.asarray(a, dtype=np.float64) for a in (reach, ident))
    return offsets, targets, reach, ident, np.array([0, n] if bounds is None else bounds, dtype=np.int64)


def component_mass_sums(w) -> list[int]:
    """The mass of each component of a work graph, in first-id order."""
    mass = (w.ident * w.reach).tolist()
    return [sum(mass[v] for v in comp) for comp in w.components()]


def sorted_components(rows: list[list[int]]) -> list[list[int]]:
    """The components of the rows ``rows``, by a search of the tests' own:
    in first-id order, each in increasing id."""
    seen, comps = [False] * len(rows), []
    for first in range(len(rows)):
        if not seen[first]:
            seen[first], comp = True, [first]
            for v in comp:
                for x in rows[v]:
                    if not seen[x]:
                        seen[x] = True
                        comp.append(x)
            comps.append(sorted(comp))
    return comps


def per_component(walk) -> list[tuple[list[list[int]], list[int], int]]:
    """A block walk (``kernels.block_walk``) as lists, one (blocks, below,
    total) triple per component."""
    flat, ends, below, comp_ends, totals = (a.tolist() for a in walk)
    return [
        ([flat[ends[k] : ends[k + 1]] for k in range(comp_ends[c], comp_ends[c + 1])],
         below[comp_ends[c] : comp_ends[c + 1]], total)
        for c, total in enumerate(totals)
    ]


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


@pytest.fixture
def compiled_library():
    lib = kernels._kernel()
    if lib is None:
        pytest.skip("the compiled library could not be built or loaded here")
    return lib
