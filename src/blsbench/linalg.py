"""Dense matrix primitives and the two weighted ridge solvers.

Both solvers minimize

    (C/2) * ||S (G W - T)||_F^2 + (1/2) * ||W||_F^2

for a diagonal sample-weight matrix S. The primal form factorizes an
F x F system, the dual form an N x N system; they are algebraically
identical via the push-through identity, and the caller picks whichever
dimension is smaller.

Each public function checks its operands and then runs a private step
(_solve, _sq_dist) that trusts them; trainer.fit, which validates its
inputs once, calls the same steps directly, so each computation has one
code path.

Fits run BLAS on one thread (see _single_threaded_blas); worker processes
are the program's only parallelism.
"""

from __future__ import annotations

import contextlib
import ctypes
import functools
import glob
import os

import numpy as np
import scipy.linalg

from .errors import DimensionMismatch, FactorizationFailure, NonFiniteInput

__all__ = [
    "as_matrix",
    "as_weights",
    "solve_weighted_ridge_primal",
    "solve_weighted_ridge_dual",
    "pairwise_sq_dist",
]


@functools.cache
def _openblas_thread_controls() -> tuple:
    """(get, set) thread-count functions of the OpenBLAS numpy and scipy bundle.

    Wheels ship it as <package>.libs/libscipy_openblas*.so, with a 64_
    symbol suffix for the 64-bit-integer build; a numpy or scipy built
    against another BLAS contributes nothing.
    """
    controls = []
    for package in (np, scipy):
        for path in glob.glob(os.path.dirname(package.__file__) + ".libs/*openblas*"):
            lib = ctypes.CDLL(path)
            for suffix in ("64_", ""):
                get = getattr(lib, f"scipy_openblas_get_num_threads{suffix}", None)
                put = getattr(lib, f"scipy_openblas_set_num_threads{suffix}", None)
                if get is not None and put is not None:
                    get.argtypes, get.restype = [], ctypes.c_int
                    put.argtypes, put.restype = [ctypes.c_int], None
                    controls.append((get, put))
                    break
    return tuple(controls)


@contextlib.contextmanager
def _single_threaded_blas():
    """Run the body with the bundled OpenBLAS libraries at one thread each.

    A fit is a chain of small BLAS calls, on which threads cost more than
    they save, and the thread count decides how OpenBLAS splits its sums,
    so it would change the bits of every result. The caller's counts are
    restored on exit. They are per process: threads must not enter this
    concurrently.
    """
    controls = _openblas_thread_controls()
    saved = [get() for get, _ in controls]
    for _, put in controls:
        put(1)
    try:
        yield
    finally:
        for (_, put), n in zip(controls, saved):
            put(n)


def as_matrix(a, name: str = "matrix") -> np.ndarray:
    """Coerce to a finite, 2-D float64 array."""
    a = np.asarray(a, dtype=np.float64)
    if a.ndim != 2:
        raise DimensionMismatch(f"{name} must be 2-D, got ndim={a.ndim}")
    if not np.isfinite(a).all():
        raise NonFiniteInput(f"{name} contains non-finite entries")
    return a


def as_weights(s, n: int, name: str = "weights") -> np.ndarray:
    """Coerce to a length-n vector of sample weights in [0, 1]."""
    s = np.asarray(s, dtype=np.float64).ravel()
    if s.shape[0] != n:
        raise DimensionMismatch(f"{name} has length {s.shape[0]}, expected {n}")
    if not np.isfinite(s).all():
        raise NonFiniteInput(f"{name} contains non-finite entries")
    if (s < 0.0).any() or (s > 1.0).any():
        raise NonFiniteInput(f"{name} entries must lie in [0, 1]")
    return s


def _check_ridge_args(G, S, T, c_reg):
    G = as_matrix(G, "G")
    T = as_matrix(T, "T")
    if T.shape[0] != G.shape[0]:
        raise DimensionMismatch(
            f"G has {G.shape[0]} rows but T has {T.shape[0]}"
        )
    S = as_weights(S, G.shape[0], "S")
    if not (np.isfinite(c_reg) and c_reg > 0):
        raise NonFiniteInput(f"c_reg must be a positive float, got {c_reg!r}")
    return G, S, T, float(c_reg)


def solve_weighted_ridge_primal(G, S, T, c_reg: float) -> np.ndarray:
    """Solve (G' S^2 G + I/C) W = G' S^2 T via a Cholesky factorization.

    Preferred when the feature count of G does not exceed the sample count.
    """
    return _solve(*_check_ridge_args(G, S, T, c_reg), "primal")


def solve_weighted_ridge_dual(G, S, T, c_reg: float) -> np.ndarray:
    """Solve W = G' (I/C + S^2 G G')^{-1} S^2 T via an LU factorization.

    Equivalent to the primal form; preferred when the feature count of G
    exceeds the sample count. The N x N system matrix is nonsymmetric
    whenever S is not the identity, hence the general solve.
    """
    return _solve(*_check_ridge_args(G, S, T, c_reg), "dual")


def _solve(G, s, T, c_reg: float, branch: str) -> np.ndarray:
    """The weighted ridge solution of checked operands by the "primal" or
    "dual" system (see the public solvers)."""
    s2 = s * s
    if branch == "primal":
        A = G.T @ (s2[:, None] * G)
        A[np.diag_indices_from(A)] += 1.0 / c_reg
        rhs = G.T @ (s2[:, None] * T)
        try:
            factor = scipy.linalg.cho_factor(A, lower=True, check_finite=False)
        except scipy.linalg.LinAlgError as exc:
            raise FactorizationFailure(
                f"Cholesky factorization of G'S^2G + I/C failed: {exc}"
            ) from exc
        return scipy.linalg.cho_solve(factor, rhs, check_finite=False)
    M = s2[:, None] * (G @ G.T)
    M[np.diag_indices_from(M)] += 1.0 / c_reg
    try:
        lu, piv = scipy.linalg.lu_factor(M, check_finite=False)
    except scipy.linalg.LinAlgError as exc:
        raise FactorizationFailure(
            f"LU factorization of I/C + S^2GG' failed: {exc}"
        ) from exc
    u_diag = np.abs(np.diag(lu))
    if not u_diag.all() or not np.isfinite(lu).all():
        raise FactorizationFailure("I/C + S^2GG' is singular")
    y = scipy.linalg.lu_solve((lu, piv), s2[:, None] * T, check_finite=False)
    return G.T @ y


def pairwise_sq_dist(A, B) -> np.ndarray:
    """Squared Euclidean distances between the rows of A and the rows of B.

    Uses the ||a||^2 + ||b||^2 - 2 a.b expansion; near-zero entries are
    recomputed directly so identical rows come out exactly zero. When B is
    A, the diagonal is set to zero without recomputing it.
    """
    same = B is A
    A = as_matrix(A, "A")
    B = A if same else as_matrix(B, "B")
    if A.shape[1] != B.shape[1]:
        raise DimensionMismatch(
            f"A has {A.shape[1]} columns but B has {B.shape[1]}"
        )
    return _sq_dist(A, B)


def _sq_dist(A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """pairwise_sq_dist of checked operands; B is A for self-distances."""
    same = B is A
    a2 = np.einsum("ij,ij->i", A, A)
    b2 = a2 if same else np.einsum("ij,ij->i", B, B)
    d2 = a2[:, None] + b2[None, :] - 2.0 * (A @ B.T)
    np.maximum(d2, 0.0, out=d2)
    # The expansion loses precision near zero; pair (i, j) is suspect when
    # d2 <= c (a2_i + b2_j). That bound is at most c (a2_i + max b2), as
    # rounding is monotone, so rows whose minimum clears it hold no suspect
    # pair. The diagonal of (A, A) is left out and set to zero.
    c = 16.0 * np.finfo(np.float64).eps
    if same:
        np.fill_diagonal(d2, np.inf)
    rows = np.flatnonzero(d2.min(axis=1, initial=np.inf) <= c * (a2 + b2.max(initial=0.0)))
    if same:
        np.fill_diagonal(d2, 0.0)
    # Recomputing a zeroed diagonal entry gives 0.0 again.
    for i, j in zip(*np.nonzero(d2[rows] <= c * (a2[rows, None] + b2[None, :]))):
        diff = A[rows[i]] - B[j]
        d2[rows[i], j] = diff @ diff
    return d2
