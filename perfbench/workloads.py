"""Seeded input generators for the benchmark workloads.

Nothing here imports ``bcshatter``.  Every generator draws from one
``random.Random(seed)`` (Mersenne Twister, stable across platforms), so the
same seed gives the same graphs.  Each graph is handed to the program under
test only as edge-list text, with its vertex labels shuffled so that the
input is never pre-ordered; isolated vertices are dropped before labelling,
so the largest label is ``n - 1`` and the parser sees exactly ``n`` vertices.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

import numpy as np


@dataclass
class Instance:
    """One input graph in the labels the program receives.

    ``edges`` is an (m, 2) int64 array.  ``block_tree`` is set only for
    block graphs: it lets the reference use the closed form (see
    ``reference.block_graph_bc``).
    """

    name: str
    n: int
    edges: np.ndarray
    block_tree: "BlockTree | None" = None

    def edge_list_text(self) -> str:
        return "".join(f"{u} {v}\n" for u, v in self.edges.tolist())


@dataclass
class BlockTree:
    """A tree of cliques as the generator built it.

    Block ``b`` consists of ``attach[b]`` (an earlier vertex, or -1 for the
    root block) plus the new vertices ``first[b] .. first[b] + size[b] - 1``;
    labels are the program's labels via ``label[generator_id]``.
    """

    attach: list[int] = field(default_factory=list)
    first: list[int] = field(default_factory=list)
    size: list[int] = field(default_factory=list)
    label: np.ndarray | None = None


# Why each workload exists, recorded beside its generator.  All of them run
# the default combination "odbasi", which is what `bcshatter compute` runs.
WORKLOADS = {
    "core-kernel": (
        "sparse random graphs that reduction barely shrinks, so the Brandes kernels "
        "take nearly all the time; reduction changes should not move it"
    ),
    "shatter-blocks": (
        "a 40k-vertex tree of small cliques in 16 bridged parts: graph and pass work "
        "dominate and the kernels only see tiny leftovers"
    ),
    "social-mix": (
        "preferential-attachment core with pendant trees, bridged and hinged blobs, "
        "side vertices and twins: every pass removes something and side BFS runs "
        "beside one all-sources kernel"
    ),
}


def generate(workload: str, seed: int) -> list[Instance]:
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}; expected one of {sorted(WORKLOADS)}")
    rng = random.Random(f"{workload}:{seed}")
    if workload == "core-kernel":
        # Fixed sizes so that the work per run depends on the seed only
        # through the random draw; exact edge counts (G(n, m)) keep it steady.
        specs = ((900, 2250), (1100, 2200))
        return [_labelled(f"gnm-{n}-{m}", n, _gnm(n, m, rng), rng) for n, m in specs]
    if workload == "shatter-blocks":
        edges, tree = _clique_tree(40000, 16, rng)
        return [_labelled("clique-tree-40000", tree_vertices(tree), edges, rng, tree)]
    return [_labelled("social-mix-1000", *_social_mix(1000, rng), rng)]


def tree_vertices(tree: BlockTree) -> int:
    return tree.first[-1] + tree.size[-1]


def _labelled(name: str, n: int, edges: list[tuple[int, int]], rng: random.Random, tree: BlockTree | None = None) -> Instance:
    """Drop isolated vertices, shuffle labels, edge order and orientation."""
    used = sorted({x for e in edges for x in e})
    label = np.full(n, -1, dtype=np.int64)
    shuffled = list(range(len(used)))
    rng.shuffle(shuffled)
    label[used] = shuffled
    order = list(range(len(edges)))
    rng.shuffle(order)
    out = np.empty((len(edges), 2), dtype=np.int64)
    for i, k in enumerate(order):
        u, v = edges[k]
        if rng.random() < 0.5:
            u, v = v, u
        out[i] = (label[u], label[v])
    if tree is not None:
        if len(used) != n:
            raise ValueError("block tree has isolated vertices")
        tree.label = label
    return Instance(name, len(used), out, tree)


def _gnm(n: int, m: int, rng: random.Random) -> list[tuple[int, int]]:
    edges: set[tuple[int, int]] = set()
    while len(edges) < m:
        u, v = rng.randrange(n), rng.randrange(n)
        if u != v:
            edges.add((u, v) if u < v else (v, u))
    return sorted(edges)


def _clique_tree(n_target: int, parts: int, rng: random.Random):
    """Random tree of cliques of sizes 3-7, in ``parts`` parts of equal
    vertex count joined by bridges (cliques of size 2).

    Each new clique shares one uniformly chosen vertex of its part and adds
    the rest.  A part after the first starts with a bridge from a random
    earlier vertex, whose new end becomes the part's first vertex.  Bridges
    sit only between parts, so removing them leaves parts of fixed size and
    the work per seed stays steady.
    """
    tree = BlockTree()
    edges: list[tuple[int, int]] = []
    n = 0

    def add_block(attach: int, new_count: int) -> None:
        nonlocal n
        members = ([attach] if attach >= 0 else []) + list(range(n, n + new_count))
        for i, a in enumerate(members):
            for b in members[i + 1 :]:
                edges.append((a, b))
        tree.attach.append(attach)
        tree.first.append(n)
        tree.size.append(new_count)
        n += new_count

    per_part = n_target // parts
    for part in range(parts):
        part_start = n
        if part == 0:
            add_block(-1, rng.randint(3, 7))
        else:
            add_block(rng.randrange(part_start), 1)
        while n - part_start < per_part:
            add_block(rng.randrange(part_start, n), rng.randint(2, 6))
    return edges, tree


def _social_mix(n_core: int, rng: random.Random):
    """Preferential-attachment core plus planted structure for every pass."""
    adj: list[set[int]] = []

    def add_vertex() -> int:
        adj.append(set())
        return len(adj) - 1

    def add_edge(a: int, b: int) -> None:
        adj[a].add(b)
        adj[b].add(a)

    # Core: Barabasi-Albert, two links per new vertex, drawn by degree.
    targets: list[int] = []
    for v in range(3):
        add_vertex()
    for a, b in ((0, 1), (1, 2), (0, 2)):
        add_edge(a, b)
        targets += [a, b]
    while len(adj) < n_core:
        v = add_vertex()
        chosen: set[int] = set()
        while len(chosen) < 2:
            chosen.add(rng.choice(targets))
        for u in chosen:
            add_edge(u, v)
            targets += [u, v]
    core = list(range(n_core))
    core_edges = sorted((a, b) for a in core for b in adj[a] if a < b)

    # d: pendant trees hanging off core vertices.
    for _ in range(n_core // 6):
        size = rng.randint(1, 6)
        nodes = [rng.choice(core)]
        for _ in range(size):
            v = add_vertex()
            add_edge(v, rng.choice(nodes))
            nodes.append(v)
    # b: 5-cycles joined to the core by one bridge.
    for _ in range(n_core // 60):
        ring = [add_vertex() for _ in range(5)]
        for a, b in zip(ring, ring[1:] + ring[:1]):
            add_edge(a, b)
        add_edge(ring[0], rng.choice(core))
    # a: 4-cycles hinged on one core vertex (it becomes an articulation).
    for _ in range(n_core // 60):
        hinge = rng.choice(core)
        ring = [hinge] + [add_vertex() for _ in range(3)]
        for a, b in zip(ring, ring[1:] + ring[:1]):
            add_edge(a, b)
    # i: open twins of core vertices whose neighborhood is not a clique.
    for _ in range(n_core // 15):
        while True:
            v = rng.choice(core)
            nbrs = sorted(adj[v])
            if any(b not in adj[a] for i, a in enumerate(nbrs) for b in nbrs[i + 1 :]):
                break
        t = add_vertex()
        for x in nbrs:
            add_edge(t, x)
    # s: side vertices across a core edge (their neighborhood is a 2-clique).
    for _ in range(n_core // 8):
        a, b = rng.choice(core_edges)
        v = add_vertex()
        add_edge(v, a)
        add_edge(v, b)
    edges = sorted((a, b) for a in range(len(adj)) for b in adj[a] if a < b)
    return len(adj), edges
