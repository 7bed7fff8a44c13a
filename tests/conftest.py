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
