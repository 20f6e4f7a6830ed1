"""Kernel correctness: frozen examples, degeneration contracts, invariants."""

from __future__ import annotations

import ctypes
import os
import random
import re
import shutil
import subprocess
import sys
import tempfile
import time
import types
import warnings
from importlib import resources
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import bcshatter
from bcshatter import engine, kernels
from bcshatter.graph import Graph, connected_components, parse_edge_list
from bcshatter.kernels import (
    NonFiniteScoresError,
    bc_ident,
    bc_plain,
    bc_reach,
    bc_reach_ident,
    betweenness,
    brandes,
    brandes_python,
    side_bfs,
    source_state,
)
from bcshatter.oracle import FAMILIES, GraphSpec, bc_brute, generate, pair_distance_total
from bcshatter.reduction import DEFAULT_MAX_SIDE_DEGREE, WorkGraph, remove_side_vertices

from conftest import (
    complete_bipartite_graph,
    complete_graph,
    cycle_graph,
    layered_graph,
    path_graph,
    random_graph,
    star_graph,
)


@pytest.fixture
def compiled_kernel():
    kernel = kernels._kernel()
    if kernel is None:
        pytest.skip("the compiled kernel could not be built or loaded here")
    return kernel


@pytest.fixture(params=["compiled", "python"])
def kernel_path(request, monkeypatch):
    """Runs a test on the compiled kernel and on the Python fallback."""
    kernel = request.getfixturevalue("compiled_kernel") if request.param == "compiled" else None
    monkeypatch.setattr(kernels, "_compiled", kernel)


class TestPlain:
    def test_path4(self):
        # ordered pairs through vertex 1: (0,2),(0,3),(2,0),(3,0) -> 4
        assert betweenness(path_graph(4)).tolist() == [0.0, 4.0, 4.0, 0.0]

    def test_clique_is_zero(self):
        assert betweenness(complete_graph(4)).tolist() == [0.0] * 4

    def test_cycle4(self):
        # each antipodal pair splits over two midpoints: 2 * 1/2 per vertex
        assert betweenness(cycle_graph(4)).tolist() == [1.0] * 4

    def test_empty_graph(self):
        from bcshatter.graph import Graph

        g = Graph.from_edges(0, [])
        assert betweenness(g).shape == (0,)

    def test_unordered_halves(self):
        assert betweenness(path_graph(4), unordered=True).tolist() == [0.0, 2.0, 2.0, 0.0]

    def test_disconnected(self):
        from bcshatter.graph import Graph

        g = Graph.from_edges(6, [(0, 1), (1, 2), (3, 4), (4, 5)])
        assert betweenness(g).tolist() == [0.0, 2.0, 0.0, 0.0, 2.0, 0.0]

    def test_overflowing_path_counts_are_refused(self, compiled_kernel):
        # as compute_scores refuses them; 3,300 vertices, so the compiled kernel only
        with pytest.raises(NonFiniteScoresError, match="3294 of 3300 scores are not finite"):
            betweenness(layered_graph(1100))
        assert bcshatter.NonFiniteScoresError is engine.NonFiniteScoresError is NonFiniteScoresError


class TestReach:
    def test_single_edge_component(self):
        # a 2-vertex piece where vertex 1 stands for one extra target
        scores, _, _ = bc_reach([[1], [0]], [1, 2])
        assert scores == [0.0, 1.0]

    def test_split_path_reassembles(self):
        # path 0-1-2 cut at 1: in each half, vertex 1 also carries the other half
        left, _, _ = bc_reach([[1], [0]], [1, 2])
        right, _, _ = bc_reach([[1], [0]], [2, 1])
        total = [left[0], left[1] + right[0], right[1]]
        assert total == [0.0, 2.0, 0.0]

    @pytest.mark.usefixtures("kernel_path")
    def test_unit_reach_is_bitwise_plain(self):
        for seed in range(5):
            adj = random_graph(10, 0.4, seed).adjacency_lists()
            assert bc_reach(adj, [1] * 10)[0] == bc_plain(adj)[0]

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            bc_reach([[1], [0]], [1, 0])

    @pytest.mark.usefixtures("kernel_path")
    @pytest.mark.parametrize("name", ["reach", "ident"])
    @pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf"), 1.5, 0.5, -2])
    def test_rejects_attributes_that_are_not_counts(self, name, value):
        # NaN compares false with 1, so a test of value < 1 alone lets it
        # through, and 1.5 is no count: each is refused before either form runs
        with pytest.raises(ValueError, match=rf"{name}\[0\]"):
            brandes([[1], [0, 2], [1]], **{name: [value, 1, 1]})

    @pytest.mark.usefixtures("kernel_path")
    def test_accepts_integral_floats(self):
        adj = [[1], [0, 2], [1]]
        assert brandes(adj, [2.0, 1.0, 3.0], [1.0, 2.0, 1.0])[0] == brandes(adj, [2, 1, 3], [1, 2, 1])[0]

    def test_rejects_length_mismatch(self):
        # the compiled kernel would read past the end of a short array
        with pytest.raises(ValueError):
            bc_reach([[1], [0, 2], [1]], [1, 1])

    @pytest.mark.usefixtures("kernel_path")
    @pytest.mark.parametrize("neighbor", [-1, 3])
    def test_rejects_neighbor_out_of_range(self, neighbor):
        with pytest.raises(ValueError):
            bc_plain([[1], [0, 2], [1, neighbor]])

    @pytest.mark.usefixtures("kernel_path")
    def test_rejects_none_row(self):
        # the CSR export would read a None row as empty; the Python form
        # cannot iterate it, so both refuse it alike
        with pytest.raises(ValueError, match="None"):
            brandes([[1], [0], None])


class TestIdent:
    @pytest.mark.usefixtures("kernel_path")
    def test_unit_ident_is_bitwise_plain(self):
        for seed in range(5):
            adj = random_graph(10, 0.4, seed).adjacency_lists()
            assert bc_ident(adj, [1] * 10)[0] == bc_plain(adj)[0]

    def test_cycle4_merged_pair(self):
        # C4 with the antipodal pair {0,2} folded into one copy of weight 2:
        # the kernel sees the path 1 - 0' - 3 and reports per-copy scores;
        # the merged pair's own distance-2 paths are settled elsewhere.
        adj = [[1, 2], [0], [0]]  # 0' in the middle
        ident = [2, 1, 1]
        scores, _, _ = bc_ident(adj, ident)
        assert scores == [1.0, 0.0, 0.0]

    def test_merged_star_leaves(self):
        # star with all 3 leaves folded: kernel sees one edge; the center's
        # credit (3*2 ordered leaf pairs) comes from the class correction,
        # not the kernel.
        scores, _, _ = bc_ident([[1], [0]], [1, 3])
        assert scores == [0.0, 0.0]


class TestReachIdent:
    @pytest.mark.usefixtures("kernel_path")
    def test_degenerates_to_reach(self):
        for seed in range(5):
            adj = random_graph(9, 0.45, seed).adjacency_lists()
            reach = [(seed + v) % 3 + 1 for v in range(9)]
            assert bc_reach_ident(adj, reach, [1] * 9)[0] == bc_reach(adj, reach)[0]

    @pytest.mark.usefixtures("kernel_path")
    def test_degenerates_to_ident(self):
        for seed in range(5):
            adj = random_graph(9, 0.45, seed).adjacency_lists()
            ident = [(seed + v) % 2 + 1 for v in range(9)]
            assert bc_reach_ident(adj, [1] * 9, ident)[0] == bc_ident(adj, ident)[0]

    @pytest.mark.usefixtures("kernel_path")
    def test_both_unit_is_bitwise_plain(self):
        adj = random_graph(12, 0.3, seed=7).adjacency_lists()
        assert bc_reach_ident(adj, [1] * 12, [1] * 12)[0] == bc_plain(adj)[0]


def _sparse_graph(n: int, m: int, isolated: int, seed: int) -> Graph:
    """Up to m random edges on n vertices, plus isolated vertices mixed in."""
    rng = random.Random(seed)
    total = n + isolated
    labels = list(range(total))
    rng.shuffle(labels)
    edges = set()
    for _ in range(m):
        u, v = rng.randrange(n), rng.randrange(n)
        if u != v:
            a, b = labels[u], labels[v]
            edges.add((min(a, b), max(a, b)))
    return Graph.from_edges(total, sorted(edges))


def _grid_graph(rows: int, cols: int) -> Graph:
    edges = [(r * cols + c, r * cols + c + 1) for r in range(rows) for c in range(cols - 1)]
    edges += [(r * cols + c, (r + 1) * cols + c) for r in range(rows - 1) for c in range(cols)]
    return Graph.from_edges(rows * cols, edges)


def _random_rows(n: int, seed: int) -> list[list[int]]:
    """Rows with every id in range that need not be symmetric and may repeat
    an id or name their own vertex."""
    rng = random.Random(seed)
    return [[rng.randrange(n) for _ in range(rng.randint(0, 4))] for _ in range(n)]


# Shapes for TestNumpyMatchesLoop.test_deep_components.
_SHAPES = {
    # hundreds of BFS levels with few vertices each
    "cycle-1000": lambda: cycle_graph(1000),
    "grid-30x30": lambda: _grid_graph(30, 30),
    # levels in which every neighbor of a vertex lies one level nearer the
    # source, so its sigma sums its whole row and each neighbor pulls from it
    "bipartite-6x9": lambda: complete_bipartite_graph(6, 9),
    "star-30": lambda: star_graph(30),
    # the longest rows, all read each run
    "complete-12": lambda: complete_graph(12),
}


def _assert_matches_reference(adj, seed: int) -> None:
    """``brandes`` on the compiled kernel against ``brandes_python`` under
    random reach and ident, reach alone, ident alone and neither."""
    n = len(adj)
    rng = random.Random(seed)
    reach = [rng.randint(1, 5) for _ in range(n)]
    ident = [rng.randint(1, 3) for _ in range(n)]
    ones = [1] * n
    for r, i in ((reach, ident), (reach, ones), (ones, ident), (ones, ones)):
        expected, _, _ = brandes_python(adj, r, i)
        got, _, _ = brandes(adj, r, i)
        assert got == expected


@pytest.mark.usefixtures("compiled_kernel")
class TestNumpyMatchesLoop:
    """The compiled kernel against the Python loop, its reference.

    The kernel evaluates the loop's expressions in the loop's order, so the
    two agree bit for bit and are compared with ``==``.  The class keeps
    the name it had when it checked a numpy routine, so that its test ids
    stay stable.
    """

    @pytest.mark.parametrize(
        "n, m, isolated, seed",
        [
            (0, 0, 0, 1),
            (1, 0, 0, 2),
            (2, 0, 0, 3),
            (2, 1, 0, 4),
            (5, 6, 2, 5),
            (12, 20, 1, 6),
            (40, 45, 5, 7),  # several components
            (60, 150, 0, 8),
            (120, 200, 10, 9),
            (300, 600, 0, 10),
        ],
    )
    def test_random_attributes(self, n, m, isolated, seed):
        _assert_matches_reference(_sparse_graph(n, m, isolated, seed).adjacency_lists(), seed)

    @pytest.mark.parametrize("shape", list(_SHAPES))
    def test_deep_components(self, shape):
        _assert_matches_reference(_SHAPES[shape]().adjacency_lists(), 11)

    @pytest.mark.parametrize(
        "rows",
        [
            [[1, 2, 3], [0], [0, 3], []],
            [[1, 1], [0, 2], [1]],
            *(_random_rows(n, seed) for n, seed in ((6, 1), (12, 2), (30, 3), (80, 4))),
        ],
        ids=["asymmetric", "repeated", "random-6", "random-12", "random-30", "random-80"],
    )
    def test_any_rows_in_range(self, rows):
        # v adds to sigma[w] and pulls from w once per occurrence of w in v's
        # row, in both forms, whatever the other rows hold
        _assert_matches_reference(rows, len(rows))

    @pytest.mark.parametrize("seed", range(3))
    def test_path_counts_past_exact_integers(self, seed):
        # idents near 10^6 push sigma past 2^53, where the order of its
        # additions changes how it rounds: each level is summed in id order
        rng = random.Random(seed)
        adj = _sparse_graph(150, 450, 0, seed).adjacency_lists()
        ident = [rng.choice([1, 999_983]) for _ in adj]
        assert brandes(adj, ident=ident)[0] == brandes_python(adj, [1] * 150, ident)[0]

    @pytest.mark.parametrize("n", [63, 64, 65, 127, 128, 129])
    def test_lane_boundaries(self, n):
        # up to 64 sources share a traversal: these sizes end on a batch one
        # short of full, a full one, or one of a single source
        _assert_matches_reference(_sparse_graph(n, 2 * n, 0, n).adjacency_lists(), n)


def _union(parts):
    """The rows, reach and ident of the disjoint union of ``parts``, each
    (rows, reach, ident), its ids shifted past the parts before it."""
    rows, reach, ident = [], [], []
    for part_rows, part_reach, part_ident in parts:
        rows += [[len(reach) + x for x in row] for row in part_rows]
        reach += part_reach
        ident += part_ident
    return rows, reach, ident


@pytest.mark.usefixtures("kernel_path")
class TestBatchIndependence:
    """The canonical order is per source, so no score depends on which
    sources share a traversal."""

    @pytest.mark.parametrize("seed", range(4))
    def test_components_alone_equal_their_slice_of_the_union(self, seed):
        # components of 1 to 90 vertices in random order, 220 vertices in
        # all: the batches of 64 sources straddle several components and the
        # isolated vertices between them
        rng = random.Random(seed)
        sizes = [1, 1, 1, 2, 3, 5, 8, 13, 21, 30, 45, 90]
        rng.shuffle(sizes)
        parts = []
        for size in sizes:
            rows = _sparse_graph(size, 2 * size, 0, rng.randrange(10**6)).adjacency_lists()
            # idents near 10^6 make sigma round, so the order of its sums shows
            reach = [rng.choice([1, 2, 5, 40]) for _ in rows]
            parts.append((rows, reach, [rng.choice([1, 3, 999_983]) for _ in rows]))
        scores, _, _ = brandes(*_union(parts))
        start = 0
        for part in parts:
            alone, _, _ = brandes(*part)
            assert scores[start : start + len(alone)] == alone
            start += len(alone)
        assert start == len(scores) == 220


class TestCanonicalReference:
    """``brandes_python``, the reference both forms are held to, against the
    brute-force oracle; it needs no library."""

    @pytest.mark.parametrize("family", FAMILIES)
    def test_matches_brute_force(self, family):
        for seed in range(3):
            g = generate(GraphSpec(family, 40, seed=seed))
            scores, _, _ = brandes_python(g.adjacency_lists(), [1] * g.n, [1] * g.n)
            assert np.allclose(scores, bc_brute(g), rtol=1e-12, atol=1e-9)


class TestBuild:
    """Building and loading the compiled kernel, and the silent fallback."""

    def test_source_ships_in_the_package(self):
        source = resources.files("bcshatter").joinpath("_brandes.c")
        assert source.is_file()
        assert b"bcs_brandes" in source.read_bytes()

    @pytest.mark.skipif(shutil.which(kernels.COMPILER) is None, reason="no C compiler named cc")
    def test_compiled_kernel_loads(self):
        # a silent fallback would make every timing measure the Python loop
        assert kernels._kernel() is not None

    def test_missing_compiler_falls_back(self, monkeypatch, tmp_path, capfd):
        monkeypatch.setattr(kernels, "_compiled", kernels._UNTRIED)
        monkeypatch.setattr(kernels, "COMPILER", str(tmp_path / "no-such-cc"))
        monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "cache"))
        self._assert_silent_and_exact(capfd)
        assert kernels._compiled is None

    def test_unwritable_cache_builds_privately(self, monkeypatch, tmp_path, capfd):
        monkeypatch.setattr(kernels, "_compiled", kernels._UNTRIED)
        blocker = tmp_path / "cache"
        blocker.write_text("")  # a file where the cache directory would go
        monkeypatch.setenv("XDG_CACHE_HOME", str(blocker))
        private = tmp_path / "tmp"
        private.mkdir()
        monkeypatch.setattr(tempfile, "tempdir", str(private))
        self._assert_silent_and_exact(capfd)
        assert blocker.is_file()
        assert list(private.iterdir()) == []  # the private build is gone
        if shutil.which(kernels.COMPILER) is not None:
            assert kernels._compiled is not None

    def test_bind_matches_the_source(self, monkeypatch):
        # every exported bcs_* function of the source gets argtypes of its
        # arity and its restype, and _bind names no other function; the one
        # malloc is take()'s, and every exported function that takes scratch
        # returns int64_t and is bound with the errcheck that turns its -1
        # into MemoryError, and no other function is bound with it
        source = resources.files("bcshatter").joinpath("_brandes.c").read_text()
        functions = re.findall(r"^(void|int64_t) (bcs_\w+)\(([^)]*)\)\n\{\n(.*?)^\}$", source, re.M | re.S)
        exported = {name: (ret, len(params.split(","))) for ret, name, params, _ in functions}
        allocating = {name for _, name, _, body in functions if "take(&" in body}
        assert len(exported) == 12 and len(allocating) == 9
        assert source.count("malloc(") == 1 and "void *array = malloc(" in source
        bound: dict[str, types.SimpleNamespace] = {}

        class Library:  # stands in for the loaded library, recording what _bind sets
            def __init__(self, path):
                pass

            def __getattr__(self, name):
                return bound.setdefault(name, types.SimpleNamespace())

        monkeypatch.setattr(kernels.ctypes, "CDLL", Library)
        kernels._bind("unused.so")
        assert bound.keys() == exported.keys()
        for name, (ret, arity) in exported.items():
            assert len(getattr(bound[name], "argtypes", ())) == arity, name
            assert getattr(bound[name], "restype", "unset") is (None if ret == "void" else ctypes.c_int64), name
            assert (getattr(bound[name], "errcheck", None) is kernels._allocated) == (name in allocating), name
        assert all(exported[name][0] == "int64_t" for name in allocating)

    @staticmethod
    def _assert_silent_and_exact(capfd):
        adj = random_graph(30, 0.2, seed=3).adjacency_lists()
        reach = [v % 4 + 1 for v in range(30)]
        ident = [v % 3 + 1 for v in range(30)]
        # a side sweep, also the first call that needs the library when the
        # kernel has not run yet
        g = generate(GraphSpec("planted-side", 60, 0.0, seed=3))
        w, out = WorkGraph.from_graph(g), np.zeros(g.n)
        ref, ref_out = WorkGraph.from_graph(g), np.zeros(g.n)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            changes = remove_side_vertices(w, out)
            got, _, _ = brandes(adj, reach, ident)
        assert got == brandes_python(adj, reach, ident)[0]
        assert changes > 0
        removed, _ = kernels.side_sweep_python(ref.rows(), ref.member_lists(), ref.reach.tolist(), ref.ident.tolist(),
                                               ref.internal_edgeless.tolist(), ref.internal_clique.tolist(),
                                               DEFAULT_MAX_SIDE_DEGREE, ref_out)
        assert changes == len(removed)
        assert out.tobytes() == ref_out.tobytes()
        assert capfd.readouterr() == ("", "")


# An array of another dtype for each dtype _bind passes, of the same item
# size where one exists, so that only the dtype tells them apart.
_OTHER_DTYPE = {np.int64: np.float64, np.int32: np.float32, np.float64: np.int64, np.bool_: np.uint8}


def _side_sweep_args() -> list:
    """Valid arguments of ``bcs_side_sweep``, which takes an array of every
    dtype that ``_bind`` passes: the path 0-1-2 of reach 2, whose two ends
    a call that runs removes, crediting ``out``."""
    w = WorkGraph.from_graph(path_graph(3))
    return [3, w.offsets, w.targets, w.member_offsets, w.member_ids, np.full(3, 2.0), np.ones(3),
            w.internal_edgeless, w.internal_clique, 4, np.zeros(3), np.full(3, -1, dtype=np.int32),
            np.zeros(1, dtype=np.int64)]


def _misfits(good: np.ndarray) -> dict:
    """What an array argument must refuse in place of ``good``.  The strided
    view holds two items at least: numpy counts one item as contiguous."""
    return {"list": good.tolist(), "another dtype": good.astype(_OTHER_DTYPE[good.dtype.type]),
            "strided view": np.repeat(good, 2 if len(good) > 1 else 4)[::2], "None": None}


class TestArgumentTypes:
    """Every array argument of a bound entry point takes a C-contiguous
    numpy array of its dtype and nothing else: ctypes raises ArgumentError
    before the C function runs.  Only ``bcs_compact``'s two masks also take
    None."""

    def test_the_valid_call_runs(self, compiled_kernel):
        args = _side_sweep_args()
        assert {a.dtype.type for a in args if isinstance(a, np.ndarray)} == set(_OTHER_DTYPE)
        assert compiled_kernel.bcs_side_sweep(*args) == 2
        assert args[10].all() and args[11][:2].tolist() == [0, 2] and args[12][0] > 0

    @pytest.mark.parametrize("misfit", ["list", "another dtype", "strided view", "None"])
    @pytest.mark.parametrize("position", [1, 2, 3, 4, 5, 6, 7, 8, 10, 11, 12])  # every array
    def test_refusals(self, compiled_kernel, position, misfit):
        args = _side_sweep_args()
        out, removed, arcs = args[10:]
        args[position] = _misfits(args[position])[misfit]
        with pytest.raises(ctypes.ArgumentError):
            compiled_kernel.bcs_side_sweep(*args)
        assert not out.any() and (removed == -1).all() and arcs[0] == 0

    @pytest.mark.parametrize("misfit", ["list", "another dtype", "strided view", None])
    def test_masks_of_the_rebuild_also_take_none(self, compiled_kernel, misfit):
        g = path_graph(4)
        new_offsets, new_targets = np.full(5, -1, dtype=np.int64), np.full(6, -1, dtype=np.int32)
        args = [4, g.offsets, g.neighbors, None, None, new_offsets, new_targets]
        if misfit is None:  # NULL masks keep every vertex and arc
            assert compiled_kernel.bcs_compact(*args) == 6
            assert new_offsets.tolist() == g.offsets.tolist() and new_targets.tolist() == g.neighbors.tolist()
            return
        for position in (3, 4):
            bad = list(args)
            bad[position] = _misfits(np.ones(4 if position == 3 else 6, dtype=bool))[misfit]
            with pytest.raises(ctypes.ArgumentError):
                compiled_kernel.bcs_compact(*bad)
        assert (new_offsets == -1).all() and (new_targets == -1).all()

    @pytest.mark.parametrize("dtype", list(_OTHER_DTYPE))
    def test_refuses_what_ndpointer_refuses(self, dtype):
        # the argument type against numpy's own, on arrays of every layout
        from numpy.ctypeslib import ndpointer

        reference, ours = ndpointer(dtype, flags="C_CONTIGUOUS"), kernels._array(dtype)
        base = np.arange(12).astype(dtype)
        read_only = base.copy()
        read_only.flags.writeable = False
        candidates = [base, base[::2], base[2:], base[:0], base.reshape(3, 4), base.reshape(3, 4).T,
                      np.asfortranarray(base.reshape(3, 4)), read_only, base.astype(base.dtype.newbyteorder()),
                      base.view(type("Sub", (np.ndarray,), {})), np.float64(1.0), 3, None, base.tolist(),
                      *(base.astype(other) for other in (*_OTHER_DTYPE, np.uint8, np.int16) if other is not dtype)]
        for obj in candidates:
            try:
                expected = reference.from_param(obj).data
            except TypeError:
                expected = None
            try:
                got = ours.from_param(obj).value
            except TypeError:
                got = None
            assert got == expected, (dtype, obj)
        assert kernels._or_null(ours).from_param(None) is None


def _child_env() -> dict[str, str]:
    """The environment of a child process: this one's with ``src`` on the
    path, and without LD_PRELOAD, as ASan aborts where malloc fails."""
    env = {key: value for key, value in os.environ.items() if key != "LD_PRELOAD"}
    env["PYTHONPATH"] = os.pathsep.join([str(Path(bcshatter.__file__).parents[1]), env.get("PYTHONPATH", "")])
    return env


def _vm(field: str) -> int:
    """The bytes of a Vm* field of /proc/self/status."""
    status = Path("/proc/self/status").read_text()
    return 1024 * int(re.search(rf"^{field}:\s+(\d+) kB", status, re.M).group(1))


# In a child, the library from the user's cache; with its address space then
# capped so that the Python-side arrays of one twin sweep over an edgeless
# graph of 2M vertices and two twins fit (16 MB of results, or np.diff's
# 16 MB) and its 48 MB of scratch do not, the sweep raises MemoryError from
# the compiled code and adds no credit, and once the cap is lifted the same
# call adds them.
_CAPPED_TWIN_SWEEP = """
import re, resource
from pathlib import Path
import numpy as np
from bcshatter import kernels
from bcshatter.graph import Graph
from bcshatter.reduction import WorkGraph

assert kernels._kernel() is not None
n = 2_000_000
w = WorkGraph.from_graph(Graph.from_edges(n, [(0, 2), (1, 2)]))  # 0 and 1 are twins
w.reach[:] = 2  # so each adds an interior credit
out = np.zeros(n)
kernels.twin_sweep(WorkGraph.from_graph(Graph.from_edges(3, [(0, 2), (1, 2)])), False, np.zeros(3))
size = 1024 * int(re.search(r"^VmSize:\\s+(\\d+) kB", Path("/proc/self/status").read_text(), re.M).group(1))
soft, hard = resource.getrlimit(resource.RLIMIT_AS)
resource.setrlimit(resource.RLIMIT_AS, (size + 36 * 2**20, hard))
try:
    kernels.twin_sweep(w, False, out)
except MemoryError as exc:
    print("MemoryError:", exc)
print("written:", np.count_nonzero(out))
resource.setrlimit(resource.RLIMIT_AS, (soft, hard))
kernels.twin_sweep(w, False, out)
print("written after:", np.count_nonzero(out))
"""

# In a child, a build whose k-th malloc of each call returns NULL, bound in
# place of the library: for k = 0, 1, ... each entry point that takes
# scratch raises MemoryError and leaves its score accumulator and the work
# graph as they were, until k passes its last allocation and the call
# returns.  Prints each entry point and how many allocations it made.
_FAILING_ENTRY_POINTS = """
import ctypes, sys
import numpy as np
from bcshatter import kernels
from bcshatter.graph import Graph, parse_edge_list
from bcshatter.reduction import WorkGraph

kernels._compiled = lib = kernels._bind(sys.argv[1])
lib.fail_allocation.argtypes = [ctypes.c_int64]
calls = {
    "bcs_brandes": lambda w, out: kernels.brandes(w.rows(), w.reach.tolist()),
    "bcs_side_sweep": lambda w, out: kernels.side_sweep(w, 4, out),
    "bcs_blocks": lambda w, out: kernels.block_walk(w),
    "bcs_twin_sweep": lambda w, out: kernels.twin_sweep(w, True, out),
    "bcs_degree1": lambda w, out: kernels.degree1(w, out),
    "bcs_bfs": lambda w, out: w.components(),
    "bcs_compact": lambda w, out: w.delete([3]),
    "bcs_shatter": lambda w, out: kernels.shatter_arcs(w, flat, block_ends, np.array([True, False])),
    "bcs_edge_csr": lambda w, out: parse_edge_list("0 1\\n1 2\\n"),
}
# the blocks of that graph, taken before any allocation is made to fail:
# the pendant edge, whose top gets a copy, and the triangle
flat, block_ends, *_ = kernels.block_walk(WorkGraph.from_graph(Graph.from_edges(4, [(0, 1), (0, 2), (1, 2), (2, 3)])))
for name, call in calls.items():
    for k in range(100):
        # a triangle with a pendant vertex, every vertex of reach 2: each
        # entry point that adds credits would add some
        w = WorkGraph.from_graph(Graph.from_edges(4, [(0, 1), (0, 2), (1, 2), (2, 3)]))
        w.reach[:] = 2
        arrays, out = {field: getattr(w, field).copy() for field in kernels._WORK_DTYPES}, np.zeros(4)
        lib.fail_allocation(k)
        try:
            call(w, out)
        except MemoryError as exc:
            kept = all(np.array_equal(a, getattr(w, field)) for field, a in arrays.items())
            assert name in str(exc) and not out.any() and kept, (name, k)
            continue
        print(name, k)
        break
"""


class TestScratch:
    """Each compiled entry point allocates its own scratch and frees it;
    when it cannot allocate, it raises MemoryError having written
    nothing."""

    @pytest.mark.skipif(not Path("/proc/self/status").exists(), reason="reads /proc/self/status")
    @pytest.mark.skipif(shutil.which(kernels.COMPILER) is None, reason="no C compiler named cc")
    def test_failed_allocation_raises_memory_error(self):
        child = subprocess.run([sys.executable, "-c", _CAPPED_TWIN_SWEEP], env=_child_env(), capture_output=True,
                               text=True, timeout=120)
        assert child.returncode == 0, child.stderr
        assert child.stdout.splitlines() == [
            "MemoryError: bcs_twin_sweep could not allocate its scratch memory", "written: 0", "written after: 3"]

    @pytest.mark.skipif(shutil.which(kernels.COMPILER) is None, reason="no C compiler named cc")
    def test_every_entry_point_that_allocates_checks(self, tmp_path):
        source = resources.files("bcshatter").joinpath("_brandes.c").read_bytes()
        anchor = b"#include <time.h>\n"
        assert anchor in source
        failing = tmp_path / "failing.so"
        failure = b"""
static int64_t allocations, failing = -1;
void fail_allocation(int64_t k) { allocations = 0; failing = k; }
#define malloc(size) (allocations++ == failing ? NULL : malloc(size))
"""
        kernels._compile(source.replace(anchor, anchor + failure), [kernels.COMPILER, *kernels.CFLAGS], failing)
        child = subprocess.run([sys.executable, "-c", _FAILING_ENTRY_POINTS, str(failing)], env=_child_env(),
                               capture_output=True, text=True, timeout=120)
        assert child.returncode == 0, child.stderr
        # the side sweep takes its traversal arrays after the candidate
        # test, and the degree-1 cascade runs bcs_bfs, which takes its own
        assert child.stdout.splitlines() == ["bcs_brandes 7", "bcs_side_sweep 10", "bcs_blocks 7", "bcs_twin_sweep 5",
                                             "bcs_degree1 6", "bcs_bfs 1", "bcs_compact 1", "bcs_shatter 3",
                                             "bcs_edge_csr 1"]

    def test_many_small_components_cost_what_they_reach(self, compiled_kernel, monkeypatch):
        # 30,000 triangles, 90,000 vertices: the 64 MB cap leaves 26 lanes,
        # so about 3,500 batches, each of which reaches a few dozen
        # vertices; a batch that set all its n x lanes slots back to rest
        # would take minutes
        monkeypatch.setattr(kernels, "_compiled", compiled_kernel)
        k = 30_000
        rows = [[3 * (v // 3) + (v + i) % 3 for i in (1, 2)] for v in range(3 * k)]
        start = time.perf_counter()
        scores, _, _ = kernels.brandes(rows, [1, 2, 3] * k)
        assert time.perf_counter() - start < 2.0
        assert scores == kernels.brandes(rows[:3], [1, 2, 3])[0] * k

    @pytest.mark.skipif(not Path("/proc/self/status").exists(), reason="reads /proc/self/status")
    @pytest.mark.skipif("asan" in os.environ.get("LD_PRELOAD", ""), reason="ASan's quarantine keeps freed memory")
    @pytest.mark.parametrize("entry", ["brandes", "side_sweep", "block_walk", "twin_sweep", "degree1", "bfs",
                                       "rebuild", "shatter_arcs", "edge_csr"])
    def test_scratch_is_freed(self, compiled_kernel, monkeypatch, entry):
        # after three calls, by which glibc has settled where blocks of these
        # sizes go, 50 calls whose scratch writes at least 16 MB of pages in
        # all: kept, it would raise the resident set by as much
        monkeypatch.setattr(kernels, "_compiled", compiled_kernel)
        k = 6667
        triangles = [(3 * i + a, 3 * i + b) for i in range(k) for a, b in ((0, 1), (0, 2), (1, 2))]
        w, out = WorkGraph.from_graph(Graph.from_edges(3 * k, triangles)), np.zeros(3 * k)
        rows, offsets, targets = [[] for _ in range(20_000)], np.zeros(400_001, dtype=np.int64), np.empty(0, np.int32)
        keep, lone = np.ones(400_000, dtype=bool), WorkGraph.from_graph(Graph.from_edges(400_000, []))
        no_blocks = np.empty(0, dtype=np.int32), np.zeros(1, dtype=np.int32), np.empty(0, dtype=bool)
        call = {
            "brandes": lambda: kernels.brandes(rows),
            "side_sweep": lambda: kernels.side_sweep(w, 4, out),
            "block_walk": lambda: kernels.block_walk(w),
            "twin_sweep": lambda: kernels.twin_sweep(w, True, out),
            "degree1": lambda: kernels.degree1(w, out),
            "bfs": lambda: kernels.bfs(offsets, targets, 0),
            "rebuild": lambda: kernels.rebuild(offsets, targets, keep, None),
            "shatter_arcs": lambda: kernels.shatter_arcs(lone, *no_blocks),
            "edge_csr": lambda: parse_edge_list("0 99999\n"),
        }[entry]
        for _ in range(3):
            call()
        before = _vm("VmRSS")
        for _ in range(50):
            call()
        assert _vm("VmRSS") - before < 4 * 2**20


class TestSideBfs:
    def test_triangle_contributes_nothing(self):
        adj = [[1, 2], [0, 2], [0, 1]]
        contributions = side_bfs(adj, 0, [1, 1, 1], [1, 1, 1], source_state(3))
        assert all(amount == 0.0 for _, amount in contributions)

    def test_path_end_restores_both_directions(self):
        # removing leaf 0 of 0-1-2: vertex 1 is owed (0,2) and (2,0)
        adj = [[1], [0, 2], [1]]
        amounts = dict(side_bfs(adj, 0, [1, 1, 1], [1, 1, 1], source_state(3)))
        assert amounts[1] == 2.0
        assert amounts[2] == 0.0

    def test_scales_linearly_in_source_mass(self):
        adj = [[1], [0, 2], [1]]
        base = dict(side_bfs(adj, 0, [1, 1, 1], [1, 1, 1], source_state(3)))
        tripled = dict(side_bfs(adj, 0, [3, 1, 1], [1, 1, 1], source_state(3)))
        assert tripled[1] == 3 * base[1]

    def test_matches_source_dependencies(self):
        """Every amount is m * delta + m * (delta - (reach - 1)) with the
        independent per-source dependencies, on work-graph-shaped inputs
        (sets, dead ids mixed in), with one state reused throughout and back
        at rest after every call."""
        rng = random.Random(4)
        size = 120
        state = source_state(size)
        calls = 0
        for _ in range(60):
            n = rng.randint(2, 40)
            g = random_graph(n, rng.uniform(0.05, 0.5), rng.randrange(10**6))
            ids = sorted(rng.sample(range(rng.randint(n, 3 * n)), n))  # the rest are dead ids
            adj = [set() for _ in range(ids[-1] + 1)]
            for u, v in g.edges():
                adj[ids[u]].add(ids[v])
                adj[ids[v]].add(ids[u])
            reach = [rng.randint(1, 5) for _ in adj]
            ident = [rng.randint(1, 3) for _ in adj]
            for s in ids:
                got = side_bfs(adj, s, reach, ident, state)
                assert state == source_state(size), "side_bfs left state behind"
                delta = source_dependencies(adj, s, reach, ident)
                assert sorted(x for x, _ in got) == sorted(x for x in delta if x != s)
                m = reach[s] * ident[s]
                for x, amount in got:
                    expected = m * delta[x] + m * (delta[x] - (reach[x] - 1))
                    assert amount == pytest.approx(expected, rel=1e-9, abs=1e-9)
                calls += 1
        assert calls > 1000


@pytest.mark.usefixtures("kernel_path")
@pytest.mark.parametrize("field", ["neighbor", "member"])
def test_side_sweep_refuses_ids_out_of_range(field):
    w = WorkGraph.from_graph(Graph.from_edges(3, [(0, 1), (0, 2), (1, 2)]))
    if field == "neighbor":
        w.targets[-1] = 3
    else:
        w.member_ids[1] = 3
    out = np.zeros(3)
    with pytest.raises(ValueError, match=f"{field} ids"):
        kernels.side_sweep(w, 4, out)
    assert out.tolist() == [0.0, 0.0, 0.0]


class TestInvariants:
    @given(st.integers(3, 20), st.integers(0, 10_000))
    @settings(max_examples=50, deadline=None)
    def test_score_total_equals_interior_count(self, n, seed):
        g = random_graph(n, 0.3, seed)
        assert betweenness(g).sum() == pytest.approx(pair_distance_total(g), rel=1e-9, abs=1e-9)

    @given(st.integers(2, 14), st.integers(0, 10_000))
    @settings(max_examples=40, deadline=None)
    def test_relabel_invariance(self, n, seed):
        from bcshatter.graph import bfs_order, relabel

        g = random_graph(n, 0.35, seed)
        perm = bfs_order(g, start=seed % n)
        base = betweenness(g)
        moved = betweenness(relabel(g, perm))
        assert np.allclose(moved[perm.forward], base, atol=1e-9)

    def test_unique_path_scores_are_even_integers(self):
        for seed in range(5):
            tree = generate(GraphSpec("random-tree", 30, seed=seed))
            for value in betweenness(tree).tolist():
                assert value == int(value) and int(value) % 2 == 0

    @given(st.integers(3, 12), st.integers(0, 10_000))
    @settings(max_examples=40, deadline=None)
    def test_sigma_consistency(self, n, seed):
        g = random_graph(n, 0.4, seed)
        adj = g.adjacency_lists()
        ident = [(v % 3) + 1 for v in range(n)]
        for s in range(n):
            dist, sigma, preds = sp_counts(adj, s, ident)
            for w, plist in preds.items():
                forwarded = sum(sigma[v] * (ident[v] if v != s else 1) for v in plist)
                assert sigma[w] == pytest.approx(forwarded)

    def test_separating_vertex_pins_dependencies(self):
        # if every path from s to v runs through an articulation vertex u,
        # the dependency of v on s equals its dependency on u
        for seed in range(8):
            g = random_graph(9, 0.25, seed)
            adj = g.adjacency_lists()
            labels = connected_components(g)
            for u in range(g.n):
                parts = _labels_without(adj, g.n, u)
                for s in range(g.n):
                    if s == u or labels[s] != labels[u]:
                        continue
                    delta_s = source_dependencies(adj, s)
                    delta_u = source_dependencies(adj, u)
                    for v in range(g.n):
                        if v in (s, u) or labels[v] != labels[u]:
                            continue
                        if parts[s] != -2 and parts[v] != -2 and parts[s] != parts[v]:
                            assert delta_s.get(v, 0.0) == pytest.approx(delta_u.get(v, 0.0))


def sp_counts(adj, source: int, ident=None):
    """Shortest-path counts and predecessor lists from one source.

    Returns (dist, sigma, preds) dicts over the reached vertices, with the
    ident fan-out applied when given.
    """
    dist = {source: 0}
    sigma = {source: 1.0}
    preds: dict[int, list[int]] = {}
    order = [source]
    head = 0
    while head < len(order):
        v = order[head]
        head += 1
        dv1 = dist[v] + 1
        mult = ident[v] if ident is not None and v != source else 1
        sv = sigma[v] * mult
        for w in adj[v]:
            dw = dist.get(w)
            if dw is None:
                dist[w] = dw = dv1
                sigma[w] = 0.0
                order.append(w)
            if dw == dv1:
                sigma[w] += sv
                preds.setdefault(w, []).append(v)
    return dist, sigma, preds


def source_dependencies(adj, source: int, reach=None, ident=None) -> dict[int, float]:
    """Final per-vertex dependencies of one source."""
    dist, sigma, preds = sp_counts(adj, source, ident)
    order = sorted(dist, key=dist.get)
    delta = {v: (reach[v] - 1.0 if reach is not None else 0.0) for v in order}
    for w in reversed(order):
        if w == source:
            continue
        mult = ident[w] if ident is not None else 1
        coef = mult * (1.0 + delta[w]) / sigma[w]
        for v in preds.get(w, ()):
            delta[v] += sigma[v] * coef
    return delta


def _labels_without(adj, n, u):
    """Component labels after deleting u; u itself gets -2."""
    labels = [-1] * n
    labels[u] = -2
    label = 0
    for root in range(n):
        if labels[root] != -1:
            continue
        labels[root] = label
        stack = [root]
        while stack:
            x = stack.pop()
            for y in adj[x]:
                if labels[y] == -1:
                    labels[y] = label
                    stack.append(y)
        label += 1
    return labels


def test_star_center_score():
    assert betweenness(star_graph(4))[0] == 12.0
