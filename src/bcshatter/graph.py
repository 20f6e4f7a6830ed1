"""Immutable CSR graph, input parsing, BFS relabeling, and connectivity.

Graphs are undirected and simple: the one builder, :func:`_edge_csr`, drops
self-loops, collapses duplicate/parallel edges, and symmetrizes the
adjacency for every parser and :meth:`Graph.from_edges`, because downstream
reduction passes assume a loop-free simple graph.  Vertex ids are dense
``0..n-1`` 32-bit integers; scores elsewhere are float64.

A ``Graph`` is read through :func:`_on_csr`, whose conversion and CSR check
the BFS, :func:`relabel` and ``WorkGraph.from_graph`` share.  One BFS gives
both the BFS ordering and the component labels: :func:`kernels.bfs`, which
the work graph's components use too.  Four steps run compiled, in
``_brandes.c`` through :mod:`bcshatter.kernels`, with a Python form each
that is their reference and runs when the library cannot be built or
loaded: the parse of a plain edge list (the line loop of
:func:`parse_edge_list`), the builder, the BFS (:func:`kernels.bfs_python`)
and :func:`relabel` (numpy forms).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import kernels


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
# Ids are below 2^31, so an arc packs into one int64 key src * _WIDTH + dst.
_WIDTH = MAX_VERTEX_ID + 1
# Edge-list parsing sets n = max id + 1, so one stray id would size every
# per-vertex array by it; ids at or past this ceiling are refused instead.
# 2^26 vertices already put 512 MB in the CSR offsets alone.  It must not
# pass _WIDTH: the ceiling is also what keeps ids within int32.
MAX_VERTICES = 1 << 26


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

    def adjacency_lists(self) -> list[list[int]]:
        """Adjacency as plain Python lists (fast to traverse in kernels)."""
        offsets = self.offsets.tolist()
        flat = self.neighbors.tolist()
        return [flat[offsets[v] : offsets[v + 1]] for v in range(self.n)]

    def edges(self) -> list[tuple[int, int]]:
        """Undirected edge list with u < v, sorted."""
        src = np.repeat(np.arange(self.n), np.diff(self.offsets))
        upper = src < self.neighbors
        return list(zip(src[upper].tolist(), self.neighbors[upper].tolist()))

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
        """The simple graph on ``n`` vertices whose edges are the (u, v)
        pairs of ``edges``, a sequence or array: self-loops and repeats, of
        either orientation, are dropped, as the parsers drop them.  Refuses
        ids that are not integers in ``range(n)`` with :class:`GraphRangeError`."""
        pairs = np.asarray(edges).reshape(-1, 2)  # ids past int64 make an object array
        if pairs.size and not (pairs.dtype.kind in "iu" and 0 <= pairs.min() <= pairs.max() < n):
            raise GraphRangeError(f"vertex ids must be integers in range({n})")
        return _edge_csr(n, pairs.astype(np.int32).ravel())[0]


def _edge_csr(n: int, ids: np.ndarray) -> tuple[Graph, NormalizationReport]:
    """The simple graph on ``n`` vertices with the edges ``(ids[2k],
    ids[2k + 1])``, ids in ``range(n)``, and the self-loops and repeats of
    either orientation it dropped: ``bcs_edge_csr``, which overwrites ``ids``
    (int32), or, when the compiled library cannot be built or loaded, its
    numpy form, one stable sort of both directions of every pair as keys."""
    npairs = len(ids) // 2
    lib = kernels._kernel()
    if lib is not None:
        offsets, arcs = np.empty(n + 1, dtype=np.int64), np.empty(2 * npairs, dtype=np.int32)
        counts = np.empty(2, dtype=np.int64)
        m = lib.bcs_edge_csr(n, npairs, ids, offsets, arcs, counts)
        return Graph(n, m, offsets, arcs[: 2 * m].copy()), NormalizationReport(*counts.tolist())
    # flatnonzero of differences, not boolean masks or np.unique, whose loops
    # and imports would add resident memory nothing else on the solve path does
    pairs = ids.astype(np.int64).reshape(-1, 2)
    u, v = pairs[np.flatnonzero(pairs[:, 0] - pairs[:, 1])].T
    keys = np.concatenate([u * _WIDTH + v, v * _WIDTH + u])
    keys.sort(kind="stable")
    keys = keys[np.flatnonzero(np.diff(keys, prepend=-1))]  # keys are >= 0, so the first stays
    offsets = np.searchsorted(keys, np.arange(n + 1) * _WIDTH)
    keys %= _WIDTH  # dst; unlike &, % runs a ufunc loop the solve has paged in already
    m = len(keys) // 2
    return Graph(n, m, offsets, keys.astype(np.int32)), NormalizationReport(npairs - len(u), len(u) - m)


def _parse_plain_edge_list(text: str, index_base: int):
    """The compiled path of :func:`parse_edge_list`, or None to leave the
    text to the line parser.

    It takes only plain text, with at least one id: ASCII digits, spaces,
    tabs, line feeds and carriage returns, two ids on each non-blank line,
    and every id in range once shifted by ``index_base``.  The line loop
    reads such a text the same way, so the result is the line parser's
    graph and report.  It raises only MemoryError, from the ids buffer or
    the builder: a text it declines, and every text when the compiled
    library cannot be built or loaded, goes to the line parser, which
    reports what is wrong.
    """
    lib = kernels._kernel()
    if lib is None or not text.isascii():
        return None
    buf = text.encode("ascii")
    # (len + 1) // 2 slots, the most ids a text can hold: each but the last
    # takes a digit and the byte after it
    ids, top = np.empty((len(buf) + 1) // 2, dtype=np.int32), np.empty(1, dtype=np.int64)
    # the compiled reader keeps ids within int32 only under a ceiling of at most _WIDTH
    count = lib.bcs_parse(buf, len(buf), index_base, min(MAX_VERTICES, _WIDTH), ids, top)
    return None if count <= 0 else _edge_csr(int(top[0]) + 1, ids[:count])


def parse_edge_list(text: str, *, index_base: int = 0) -> tuple[Graph, NormalizationReport]:
    """Parse whitespace-separated "u v" lines; '#' starts a comment.

    Plain text (digits and blanks, two ids a line) is parsed compiled by
    :func:`_parse_plain_edge_list`.  Any other text, every error, and every
    text when the compiled library cannot be built or loaded go through the
    line loop, the reference, which gives the same graph and report.
    """
    if index_base not in (0, 1):
        raise GraphInputError(f"index_base must be 0 or 1, got {index_base}")
    parsed = _parse_plain_edge_list(text, index_base)
    if parsed is not None:
        return parsed
    ids: list[int] = []
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
        if u >= MAX_VERTICES or v >= MAX_VERTICES:
            raise GraphRangeError(
                f"line {lineno}: vertex id above {MAX_VERTICES - 1 + index_base}, the vertex-count ceiling"
            )
        ids += u, v
    return _edge_csr(max(ids, default=-1) + 1, np.array(ids, dtype=np.int32))


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

    ids: list[int] = []
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
            ids += vertex, w - 1
        vertex += 1
    if vertex < n:
        raise GraphFormatError(f"declared n={n} but found only {vertex} vertex lines")
    if len(ids) != 4 * m:
        raise GraphFormatError(f"header declares m={m} edges but body lists {len(ids) // 2} entries (expected {2 * m})")
    g, report = _edge_csr(n, np.array(ids, dtype=np.int32))
    # each edge is listed from both its ends, so only listings past the two are repeats
    return g, NormalizationReport(report.self_loops, max(0, report.duplicate_edges - g.m))


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

    def validate(self) -> None:
        n = self.forward.shape[0]
        assert sorted(self.forward.tolist()) == list(range(n))
        assert np.array_equal(self.forward[self.inverse], np.arange(n))


def _on_csr(g: Graph, call, *args):
    """``call(offsets, neighbors, *args)`` on ``g``'s offsets (int64) and
    neighbors (int32), as the compiled code reads them.  ``call`` checks the
    CSR; what it refuses with ValueError, offsets that do not cover the
    ``g.n`` vertices and neighbors that the conversion changes are refused
    with GraphInputError."""
    offsets = np.ascontiguousarray(g.offsets, dtype=np.int64)
    neighbors = np.ascontiguousarray(g.neighbors, dtype=np.int32)
    try:
        if offsets.shape != (g.n + 1,) or not (neighbors is g.neighbors or np.array_equal(neighbors, g.neighbors)):
            raise ValueError(f"{g.n + 1} offsets and int32 neighbors are needed")
        return call(offsets, neighbors, *args)
    except ValueError as exc:
        raise GraphInputError(f"the graph's arrays are not a CSR over its {g.n} vertices") from exc


def _checked_csr(g: Graph) -> tuple[np.ndarray, np.ndarray]:
    """``g``'s arrays as :func:`_on_csr` gives them, checked as the BFS checks them."""
    return _on_csr(g, lambda *csr: kernels._check_csr(*csr, g.n, 0, g.n, "neighbor") or csr)


def bfs_order(g: Graph, start: int = 0) -> VertexPermutation:
    """Rank vertices by BFS dequeue order from ``start``.

    Unreached components are traversed from the lowest-id unvisited vertex,
    continuing the rank counter, so the result is always a full permutation.
    """
    if g.n and not 0 <= start < g.n:
        raise IndexError(f"start vertex {start} outside 0..{g.n - 1}")
    order, _ = _on_csr(g, kernels.bfs, start)  # kernels.bfs checks the CSR
    inverse = order.astype(np.int64)
    forward = np.empty_like(inverse)
    forward[inverse] = np.arange(g.n)
    return VertexPermutation(forward, inverse)


def relabel(g: Graph, perm: VertexPermutation) -> Graph:
    """Isomorphic copy of ``g`` with vertex v renamed to ``perm.forward[v]``:
    ``bcs_relabel``, or a numpy form when the compiled library cannot be
    built or loaded, both writing the rows transposed, so each comes out
    sorted.  Refuses a ``perm`` whose ``forward`` and ``inverse`` are not
    inverse permutations of ``range(g.n)``."""
    fwd, inv = np.asarray(perm.forward), np.asarray(perm.inverse)
    if fwd.shape != (g.n,) or inv.shape != (g.n,):
        raise GraphInputError(f"permutation over {fwd.shape[0]} vertices, graph has {g.n}")
    # inverse within range(n) and forward[inverse] the identity make both permutations
    if g.n and not (fwd.dtype.kind in "iu" and inv.dtype.kind in "iu" and 0 <= inv.min() <= inv.max() < g.n
                    and np.array_equal(fwd[inv], np.arange(g.n))):
        raise GraphInputError("forward and inverse are not inverse permutations of the vertices")
    fwd, inv = np.ascontiguousarray(fwd, dtype=np.int64), np.ascontiguousarray(inv, dtype=np.int64)
    return Graph(g.n, g.m, *_relabel_csr(*_checked_csr(g), fwd, inv))  # bcs_relabel checks nothing


def _relabel_csr(offsets: np.ndarray, neighbors: np.ndarray, fwd: np.ndarray, inv: np.ndarray):
    """:func:`relabel`'s array core, which checks nothing: the CSR renamed by ``fwd`` (``inv``, its inverse)."""
    lib = kernels._kernel()
    if lib is None:
        keys = fwd[neighbors] * _WIDTH  # each arc v -> w as fwd[w] -> fwd[v]
        keys += np.repeat(fwd, np.diff(offsets))
        keys.sort(kind="stable")
        new_offsets = np.searchsorted(keys, np.arange(len(fwd) + 1) * _WIDTH)
        keys %= _WIDTH
        return new_offsets, keys.astype(np.int32)
    new_offsets, new_neighbors = np.empty(len(fwd) + 1, dtype=np.int64), np.empty(len(neighbors), dtype=np.int32)
    lib.bcs_relabel(len(fwd), offsets, neighbors, fwd, inv, new_offsets, new_neighbors)
    return new_offsets, new_neighbors


def connected_components(g: Graph) -> np.ndarray:
    """Component label per vertex; labels contiguous from 0 in first-seen order."""
    order, ends = _on_csr(g, kernels.bfs, 0)
    labels = np.empty(g.n, dtype=np.int64)
    labels[order] = np.repeat(np.arange(len(ends) - 1), np.diff(ends))
    return labels
