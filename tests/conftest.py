import contextlib
import os
import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).parent))
# CLI tests run `python -m blsbench.cli` in child processes; let those
# import the package from an uninstalled checkout as well.
_SRC = str(Path(__file__).parents[1] / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, (_SRC, os.environ.get("PYTHONPATH"))))


def solves_in_bundle():
    """Whether linalg._lapack() took its routines from scipy's bundled
    OpenBLAS, not from scipy.linalg.cython_lapack."""
    from blsbench import linalg

    return getattr(linalg._lapack()["dpotrf"], "__name__", None) == "scipy_dpotrf_"


def scratch_for(n, f):
    """A linalg._buffer scratch for a state matrix of n rows and f columns:
    each key holds the largest array that the steps on it write."""
    return {key: np.empty(max(n, f) ** 2) for key in ("state", "system", "factor")}


def solve(G, s, T, c_reg, branch):
    """The output weights of linalg._output_weights for one C on the branch
    given, the dual's G G' formed as trainer._states forms it, in a scratch
    of their own."""
    from blsbench import linalg

    scratch = scratch_for(*G.shape)
    gram = linalg._gram(G, scratch) if branch == "dual" else None
    (W,) = linalg._output_weights(G, gram, s, T, [c_reg], scratch)
    return W


@contextlib.contextmanager
def outer_blas_threads(n):
    """Set every bundled OpenBLAS to n threads, as a caller of the library might."""
    from blsbench import linalg

    controls = linalg._openblas_thread_controls()
    if not controls:
        pytest.skip("numpy and scipy bundle no OpenBLAS")
    saved = [get() for get, _ in controls]
    for _, put in controls:
        put(n)
    try:
        yield lambda: [get() for get, _ in controls]
    finally:
        for (_, put), k in zip(controls, saved):
            put(k)


def make_blobs(n_per_class, centers, std, seed, labels=("a", "b")):
    """Two isotropic Gaussian clusters with string labels."""
    rng = np.random.default_rng(seed)
    parts, ys = [], []
    for center, lab in zip(centers, labels):
        pts = rng.normal(loc=center, scale=std, size=(n_per_class, len(center)))
        parts.append(pts)
        ys.extend([lab] * n_per_class)
    X = np.vstack(parts)
    y = np.array(ys, dtype=object)
    perm = rng.permutation(len(y))
    return X[perm], y[perm]


@pytest.fixture
def blobs():
    return make_blobs(40, [(0.0, 0.0), (3.0, 3.0)], 0.6, seed=7)


@pytest.fixture
def blobs_overlap():
    return make_blobs(50, [(0.0, 0.0), (1.2, 1.2)], 0.9, seed=11)
