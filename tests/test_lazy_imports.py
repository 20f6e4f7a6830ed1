"""Modules the solve path must never import: each one adds resident memory
that a run's peak RSS counts (``numpy.ma`` about 1 MB, which ``np.unique``
pulls in; ``hashlib`` about 3.6 MB, because it maps OpenSSL), or import
time (``numpy.ctypeslib``, about 0.5 ms, which ``np.ctypeslib.ndpointer``
loads and the foreign calls do not need)."""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

SOLVE = """
import sys
import bcshatter
from bcshatter import kernels

# a 5-cycle with a pendant and a triangle on one cycle edge: the degree-1
# pass folds the pendant, the side pass sweeps the triangle's apex and the
# kernel gets the cycle, so both compiled entry points run
g, _ = bcshatter.parse_graph("0 1\\n1 2\\n2 3\\n3 4\\n4 0\\n0 5\\n0 6\\n1 6\\n")
bcshatter.compute_scores(g, "odbasi")
assert kernels._compiled is not kernels._UNTRIED, "the solve never reached the kernel"
print(" ".join(name for name in ("numpy.ma", "hashlib", "numpy.ctypeslib") if name in sys.modules))
"""


def test_solve_keeps_heavy_modules_unloaded(tmp_path):
    # an empty cache directory: the kernel is built in this run, so the build
    # path is held to the same rule as the load path
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path, "XDG_CACHE_HOME": str(tmp_path)}
    done = subprocess.run([sys.executable, "-c", SOLVE], env=env, capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    assert done.stdout.split() == []
