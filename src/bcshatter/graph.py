"""Immutable CSR graph, input parsing, BFS relabeling, and connectivity.

Graphs are undirected and simple: parsing always drops self-loops, collapses
duplicate/parallel edges, and symmetrizes the adjacency, because downstream
reduction passes assume a loop-free simple graph.  Vertex ids are dense
``0..n-1`` 32-bit integers; scores elsewhere are float64.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from collections import deque

import numpy as np


class GraphInputError(ValueError):
    """Base class for graph input problems."""


class GraphParseError(GraphInputError):
    """Malformed line; message carries the 1-based line number."""


class GraphRangeError(GraphInputError):
    """Vertex id outside the declared or allowed range."""


class GraphFormatError(GraphInputError):
    """Structurally inconsistent file (e.g. METIS header vs body)."""


# Largest vertex id the int32 neighbor arrays can hold.
MAX_VERTEX_ID = np.iinfo(np.int32).max


@dataclass(frozen=True)
class NormalizationReport:
    """Counts of items dropped while normalizing raw input edges."""

    self_loops: int = 0
    duplicate_edges: int = 0


@dataclass(frozen=True)
class Graph:
    """Undirected simple graph in compressed sparse row form.

    ``offsets`` has ``n + 1`` entries; the neighbors of ``v`` are
    ``neighbors[offsets[v]:offsets[v + 1]]``, sorted ascending.  Every
    undirected edge is stored in both directions, so ``offsets[n] == 2 * m``.
    Instances are immutable; the arrays are marked read-only.
    """

    n: int
    m: int
    offsets: np.ndarray = field(repr=False)
    neighbors: np.ndarray = field(repr=False)

    def __post_init__(self) -> None:
        self.offsets.flags.writeable = False
        self.neighbors.flags.writeable = False

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Graph):
            return NotImplemented
        return (
            self.n == other.n
            and self.m == other.m
            and np.array_equal(self.offsets, other.offsets)
            and np.array_equal(self.neighbors, other.neighbors)
        )

    def neighbors_of(self, v: int) -> np.ndarray:
        return self.neighbors[self.offsets[v] : self.offsets[v + 1]]

    def degree(self, v: int) -> int:
        return int(self.offsets[v + 1] - self.offsets[v])

    def adjacency_lists(self) -> list[list[int]]:
        """Adjacency as plain Python lists (fast to traverse in kernels)."""
        offsets = self.offsets.tolist()
        flat = self.neighbors.tolist()
        return [flat[offsets[v] : offsets[v + 1]] for v in range(self.n)]

    def edges(self) -> list[tuple[int, int]]:
        """Undirected edge list with u < v."""
        out = []
        offsets = self.offsets
        nbrs = self.neighbors
        for u in range(self.n):
            for v in nbrs[offsets[u] : offsets[u + 1]]:
                if u < v:
                    out.append((u, int(v)))
        return out

    def validate(self) -> None:
        """Check the CSR invariants; raises AssertionError on violation."""
        assert self.offsets.shape == (self.n + 1,)
        assert self.offsets[0] == 0 and self.offsets[-1] == 2 * self.m
        assert np.all(np.diff(self.offsets) >= 0)
        seen = set()
        for u in range(self.n):
            run = self.neighbors_of(u)
            assert np.all(np.diff(run) > 0), f"row {u} not strictly sorted"
            for v in run.tolist():
                assert 0 <= v < self.n
                assert v != u, f"self-loop at {u}"
                seen.add((u, v))
        for u, v in seen:
            assert (v, u) in seen, f"asymmetric edge {u}->{v}"

    @classmethod
    def from_edges(cls, n: int, edges) -> "Graph":
        """Build from an iterable of (u, v) pairs; assumes ids in range.

        Self-loops and duplicates must already be removed; use
        :func:`normalize_edges` for raw input.
        """
        pairs = np.asarray(list(edges), dtype=np.int64).reshape(-1, 2)
        m = pairs.shape[0]
        if m == 0:
            return cls(n, 0, np.zeros(n + 1, dtype=np.int64), np.zeros(0, dtype=np.int32))
        src = np.concatenate([pairs[:, 0], pairs[:, 1]])
        dst = np.concatenate([pairs[:, 1], pairs[:, 0]])
        order = np.lexsort((dst, src))
        neighbors = dst[order].astype(np.int32)
        counts = np.bincount(src, minlength=n)
        offsets = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(counts, out=offsets[1:])
        return cls(n, m, offsets, neighbors)


def normalize_edges(raw: list[tuple[int, int]], *, listed_twice: bool = False):
    """Dedupe and drop self-loops from raw directed entries.

    Returns ``(edges, report)`` where edges are unique (u, v) with u < v.
    ``listed_twice`` adjusts the duplicate count for formats that list each
    edge in both directions (METIS).
    """
    loops = 0
    unique: set[tuple[int, int]] = set()
    kept = 0
    for u, v in raw:
        if u == v:
            loops += 1
            continue
        kept += 1
        unique.add((u, v) if u < v else (v, u))
    expected = 2 if listed_twice else 1
    dups = max(0, kept - expected * len(unique))
    return sorted(unique), NormalizationReport(loops, dups)


def parse_edge_list(text: str, *, index_base: int = 0) -> tuple[Graph, NormalizationReport]:
    """Parse whitespace-separated "u v" lines; '#' starts a comment."""
    if index_base not in (0, 1):
        raise GraphInputError(f"index_base must be 0 or 1, got {index_base}")
    raw: list[tuple[int, int]] = []
    max_id = -1
    for lineno, line in enumerate(text.splitlines(), start=1):
        body = line.split("#", 1)[0].strip()
        if not body:
            continue
        parts = body.split()
        if len(parts) != 2:
            raise GraphParseError(f"line {lineno}: expected 'u v', got {body!r}")
        try:
            u, v = int(parts[0]), int(parts[1])
        except ValueError:
            raise GraphParseError(f"line {lineno}: non-integer vertex id in {body!r}") from None
        u -= index_base
        v -= index_base
        if u < 0 or v < 0:
            raise GraphRangeError(f"line {lineno}: vertex id below base {index_base}")
        if u > MAX_VERTEX_ID or v > MAX_VERTEX_ID:
            raise GraphRangeError(f"line {lineno}: vertex id above {MAX_VERTEX_ID + index_base}")
        raw.append((u, v))
        max_id = max(max_id, u, v)
    edges, report = normalize_edges(raw)
    return Graph.from_edges(max_id + 1, edges), report


def parse_metis(text: str) -> tuple[Graph, NormalizationReport]:
    """Parse a METIS/Chaco .graph file: header "n m", then one 1-based
    neighbor line per vertex.  '%' starts a comment line."""
    lines = text.splitlines()
    header: list[str] | None = None
    body_start = 0
    for i, line in enumerate(lines):
        stripped = line.strip()
        if not stripped or stripped.startswith("%"):
            continue
        header = stripped.split()
        body_start = i + 1
        break
    if header is None:
        return Graph.from_edges(0, []), NormalizationReport()
    if len(header) not in (2, 3):
        raise GraphFormatError(f"header must be 'n m' (optionally with fmt), got {header}")
    try:
        n, m = int(header[0]), int(header[1])
        weighted = len(header) == 3 and int(header[2]) != 0
    except ValueError:
        raise GraphFormatError(f"non-integer header fields: {header}") from None
    if n < 0 or m < 0:
        raise GraphFormatError(f"header counts must be non-negative, got n={n} m={m}")
    if weighted:
        raise GraphFormatError("weighted METIS formats are not supported")

    raw: list[tuple[int, int]] = []
    vertex = 0
    for lineno in range(body_start, len(lines)):
        stripped = lines[lineno].strip()
        if stripped.startswith("%"):
            continue
        if vertex >= n:
            if stripped:
                raise GraphFormatError(f"line {lineno + 1}: more vertex lines than declared n={n}")
            continue
        for tok in stripped.split():
            try:
                w = int(tok)
            except ValueError:
                raise GraphParseError(f"line {lineno + 1}: non-integer neighbor {tok!r}") from None
            if not 1 <= w <= n:
                raise GraphRangeError(f"line {lineno + 1}: neighbor {w} outside 1..{n}")
            raw.append((vertex, w - 1))
        vertex += 1
    if vertex < n:
        raise GraphFormatError(f"declared n={n} but found only {vertex} vertex lines")
    if len(raw) != 2 * m:
        raise GraphFormatError(f"header declares m={m} edges but body lists {len(raw)} entries (expected {2 * m})")
    edges, report = normalize_edges(raw, listed_twice=True)
    return Graph.from_edges(n, edges), report


def parse_graph(text: str, fmt: str = "edge-list", *, index_base: int = 0):
    """Dispatch on format name; returns (Graph, NormalizationReport)."""
    if fmt == "edge-list":
        return parse_edge_list(text, index_base=index_base)
    if fmt == "metis":
        return parse_metis(text)
    raise GraphInputError(f"unknown graph format {fmt!r}")


def to_edge_list(g: Graph) -> str:
    """Render as a 0-based edge list (one "u v" line per undirected edge)."""
    return "\n".join(f"{u} {v}" for u, v in g.edges())


@dataclass(frozen=True)
class VertexPermutation:
    """A relabeling: ``forward[old] = new`` and ``inverse[new] = old``."""

    forward: np.ndarray
    inverse: np.ndarray

    @classmethod
    def from_forward(cls, forward: np.ndarray) -> "VertexPermutation":
        forward = np.asarray(forward, dtype=np.int64)
        n = forward.shape[0]
        inverse = np.empty(n, dtype=np.int64)
        inverse[forward] = np.arange(n)
        return cls(forward, inverse)

    def validate(self) -> None:
        n = self.forward.shape[0]
        assert sorted(self.forward.tolist()) == list(range(n))
        assert np.array_equal(self.forward[self.inverse], np.arange(n))


def bfs_order(g: Graph, start: int = 0) -> VertexPermutation:
    """Rank vertices by BFS dequeue order from ``start``.

    Unreached components are traversed from the lowest-id unvisited vertex,
    continuing the rank counter, so the result is always a full permutation.
    """
    if g.n == 0:
        return VertexPermutation.from_forward(np.zeros(0, dtype=np.int64))
    if not 0 <= start < g.n:
        raise IndexError(f"start vertex {start} outside 0..{g.n - 1}")
    forward = np.full(g.n, -1, dtype=np.int64)
    rank = 0

    def visit(root: int) -> None:
        nonlocal rank
        forward[root] = rank
        rank += 1
        queue = deque([root])
        while queue:
            v = queue.popleft()
            for w in g.neighbors_of(v).tolist():
                if forward[w] < 0:
                    forward[w] = rank
                    rank += 1
                    queue.append(w)

    visit(start)
    for v in range(g.n):
        if forward[v] < 0:
            visit(v)
    return VertexPermutation.from_forward(forward)


def relabel(g: Graph, perm: VertexPermutation) -> Graph:
    """Isomorphic copy of ``g`` with vertex v renamed to ``perm.forward[v]``."""
    if perm.forward.shape[0] != g.n:
        raise GraphInputError(f"permutation over {perm.forward.shape[0]} vertices, graph has {g.n}")
    fwd = perm.forward
    edges = [(int(fwd[u]), int(fwd[v])) for u, v in g.edges()]
    return Graph.from_edges(g.n, edges)


def connected_components(g: Graph) -> np.ndarray:
    """Component label per vertex; labels contiguous from 0 in first-seen order."""
    labels = np.full(g.n, -1, dtype=np.int64)
    label = 0
    for root in range(g.n):
        if labels[root] >= 0:
            continue
        labels[root] = label
        queue = deque([root])
        while queue:
            v = queue.popleft()
            for w in g.neighbors_of(v).tolist():
                if labels[w] < 0:
                    labels[w] = label
                    queue.append(w)
        label += 1
    return labels
