"""Reference betweenness that shares no code with ``bcshatter``.

Two independent routes, both in the ordered-pair convention the program
uses (each pair counts once per direction):

* ``block_graph_bc``: closed form for block graphs.  They are geodetic, so a
  vertex v lies on the path of exactly the pairs that G - v separates:
  bc(v) = (n - 1)^2 - sum(c_i^2) over the parts of G - v, read off the
  generator's own block tree in O(n).
* ``brandes_sparse``: level-synchronous Brandes over ``scipy.sparse``, a
  batch of sources at a time.  It keeps one int32 distance matrix and the
  path counts per batch instead of a dense array per BFS level, so memory
  stays O(n * batch) on high-diameter graphs too.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp

from workloads import BlockTree, Instance


def reference_scores(inst: Instance) -> np.ndarray:
    if inst.block_tree is not None:
        return block_graph_bc(inst.block_tree)
    return brandes_sparse(inst.n, inst.edges)


def block_graph_bc(tree: BlockTree) -> np.ndarray:
    n = tree.first[-1] + tree.size[-1]
    blocks = len(tree.attach)
    # Mass of each block's subtree: its new vertices plus every block hanging
    # below them.  Children are always created after their parent.
    owner = np.empty(n, dtype=np.int64)
    for b in range(blocks):
        owner[tree.first[b] : tree.first[b] + tree.size[b]] = b
    mass = np.array(tree.size, dtype=np.int64)
    for b in range(blocks - 1, 0, -1):
        mass[owner[tree.attach[b]]] += mass[b]
    # Parts of G - v: one per child block attached at v, plus the rest.
    below = np.zeros(n, dtype=np.int64)
    below_sq = np.zeros(n, dtype=np.int64)
    for b in range(1, blocks):
        a = tree.attach[b]
        below[a] += mass[b]
        below_sq[a] += mass[b] * mass[b]
    up = (n - 1) - below
    bc = ((n - 1) ** 2 - below_sq - up * up).astype(np.float64)
    out = np.empty(n, dtype=np.float64)
    out[tree.label] = bc
    return out


def brandes_sparse(n: int, edges: np.ndarray, batch: int = 256) -> np.ndarray:
    rows = np.concatenate([edges[:, 0], edges[:, 1]])
    cols = np.concatenate([edges[:, 1], edges[:, 0]])
    adj = sp.csr_matrix((np.ones(rows.shape[0]), (rows, cols)), shape=(n, n))
    bc = np.zeros(n, dtype=np.float64)
    for start in range(0, n, batch):
        sources = np.arange(start, min(n, start + batch))
        cols_b = np.arange(sources.shape[0])
        sigma = np.zeros((n, sources.shape[0]))
        sigma[sources, cols_b] = 1.0
        dist = np.full((n, sources.shape[0]), -1, dtype=np.int32)
        dist[sources, cols_b] = 0
        frontier = sigma.copy()
        depth = 0
        while True:
            reached = adj @ frontier
            new = (dist < 0) & (reached > 0)
            if not new.any():
                break
            depth += 1
            dist[new] = depth
            frontier = np.where(new, reached, 0.0)
            sigma += frontier
        delta = np.zeros_like(sigma)
        for level in range(depth, 0, -1):
            at = dist == level
            coef = np.divide(1.0 + delta, sigma, out=np.zeros_like(sigma), where=at)
            pulled = adj @ coef
            prev = dist == level - 1
            delta += np.where(prev, sigma * pulled, 0.0)
        delta[sources, cols_b] = 0.0
        bc += delta.sum(axis=1)
    return bc
