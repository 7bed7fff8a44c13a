"""Dense matrix primitives and the weighted ridge solve.

The weighted ridge solve minimizes

    (C/2) * ||S (G W - T)||_F^2 + (1/2) * ||W||_F^2

for a diagonal sample-weight matrix S. The primal form factorizes an
F x F system, the dual form an N x N system; they are algebraically
identical via the push-through identity, and the caller picks whichever
dimension is smaller. _system builds the part that C leaves alone, and
_solve_system solves it for one C.

pairwise_sq_dist checks its operands and then runs the private _sq_dist,
which trusts them. trainer.fit validates its inputs once; it and the
private steps it runs call _system, _solve_system and _sq_dist directly,
so each computation has one code path.

Fits run BLAS on one thread (see _single_threaded_blas); worker processes
are the program's only parallelism.

The thread cap and the solve find the OpenBLAS libraries that the numpy
and scipy wheels bundle from where the packages are installed, without
importing scipy. _solve_system calls LAPACK's dpotrf, dpotrs, dgetrf and
dgetrs through ctypes: the routines and operands that scipy.linalg would
use, so its results are bit for bit those of scipy.linalg. They come from
scipy's bundle, so no command imports scipy.linalg; only a scipy built
against another BLAS, whose wheel bundles no OpenBLAS, has them taken from
scipy.linalg.cython_lapack, which imports scipy.linalg.
"""

from __future__ import annotations

import contextlib
import ctypes
import functools
import glob
import importlib.util
import os

import numpy as np

from .errors import ConfigError, DimensionMismatch, FactorizationFailure, NonFiniteInput

__all__ = [
    "as_matrix",
    "pairwise_sq_dist",
]

# Elements in one row block of a row-blocked pass, 512 KiB of float64: the
# passes over an N x N array then make no temporary larger than that.
_BLOCK = 1 << 16


def _bundled_openblas(package: str) -> list[str]:
    """Paths of the OpenBLAS libraries that package's wheel bundles, as
    <package>.libs/libscipy_openblas*.so, found without importing package."""
    origin = importlib.util.find_spec(package).origin
    return glob.glob(os.path.dirname(origin) + ".libs/*openblas*")


@functools.cache
def _openblas_thread_controls() -> tuple:
    """(get, set) thread-count functions of the OpenBLAS numpy and scipy bundle.

    The 64-bit-integer build has a 64_ symbol suffix; a numpy or scipy built
    against another BLAS contributes nothing. A scipy.linalg imported later
    links the library loaded here rather than a second copy.
    """
    controls = []
    for package in ("numpy", "scipy"):
        for path in _bundled_openblas(package):
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


# The arguments of the four LAPACK routines _solve_system calls, in order,
# before INFO: all by reference, the integers 32-bit (scipy's LAPACK is LP64)
# and each matrix a writeable column-major float64 array.
_CHAR, _INT = ctypes.c_char_p, ctypes.POINTER(ctypes.c_int)
_MATRIX = np.ctypeslib.ndpointer(np.float64, ndim=2, flags="F_CONTIGUOUS,WRITEABLE")
_PIVOTS = np.ctypeslib.ndpointer(np.intc, ndim=1, flags="C_CONTIGUOUS,WRITEABLE")
_LAPACK_ARGS = {
    "dpotrf": [_CHAR, _INT, _MATRIX, _INT],
    "dpotrs": [_CHAR, _INT, _INT, _MATRIX, _INT, _MATRIX, _INT],
    "dgetrf": [_INT, _INT, _MATRIX, _INT, _PIVOTS],
    "dgetrs": [_CHAR, _INT, _INT, _MATRIX, _INT, _PIVOTS, _MATRIX, _INT],
}


@functools.cache
def _lapack() -> dict:
    """_LAPACK_ARGS' routines by name, each declared with its C signature: the
    scipy_d*_ symbols of scipy's bundled OpenBLAS, which take gfortran's
    hidden length of each CHARACTER argument after INFO, or, where scipy's
    wheel bundles none (a scipy built against a system BLAS), the pointers
    that scipy.linalg.cython_lapack exports, which take none. numpy's bundle
    is another OpenBLAS version, whose bits differ."""
    for path in _bundled_openblas("scipy"):
        lib = ctypes.CDLL(path)
        if hasattr(lib, "scipy_dpotrf_"):
            routines = {}
            for name, args in _LAPACK_ARGS.items():
                routine = routines[name] = getattr(lib, f"scipy_{name}_")
                routine.argtypes = args + [_INT] + [ctypes.c_size_t] * args.count(_CHAR)
                routine.restype = None
            return routines
    from scipy.linalg.cython_lapack import __pyx_capi__

    api = ctypes.pythonapi
    name_of = ctypes.PYFUNCTYPE(ctypes.c_char_p, ctypes.py_object)(("PyCapsule_GetName", api))
    pointer_of = ctypes.PYFUNCTYPE(ctypes.c_void_p, ctypes.py_object, ctypes.c_char_p)(
        ("PyCapsule_GetPointer", api))
    return {name: ctypes.CFUNCTYPE(None, *args, _INT)(pointer_of(capsule, name_of(capsule)))
            for name, args in _LAPACK_ARGS.items() for capsule in [__pyx_capi__[name]]}


def _call_lapack(name: str, *args) -> int:
    """LAPACK routine name of _lapack() on args, given as bytes for a
    character, int for an integer and the array itself for a matrix; its
    INFO, which is >= 0 as a negative INFO (an illegal argument) raises."""
    routine = _lapack()[name]
    info = ctypes.c_int()
    refs = [ctypes.byref(ctypes.c_int(a)) if isinstance(a, int) else a for a in args]
    # Each hidden length the routine's signature declares after INFO is 1.
    routine(*refs, ctypes.byref(info), *[1] * (len(routine.argtypes) - len(refs) - 1))
    if info.value < 0:
        raise ValueError(f"LAPACK {name} rejected its argument {-info.value}")
    return info.value


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


def _physical_memory() -> int:
    """Bytes of physical memory."""
    return os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")


def _check_memory(need: int, what: str) -> None:
    """Raise ConfigError, naming what, when need bytes exceed physical memory."""
    have = _physical_memory()
    if need > have:
        raise ConfigError(f"{what} needs about {need / 2**30:.3g} GiB; "
                          f"this machine has {have / 2**30:.3g} GiB")


def _buffer(scratch, key: str, shape: tuple, order: str = "C") -> np.ndarray:
    """An uninitialized float64 array of shape: a fresh one, or, when scratch
    (a dict of flat float64 arrays) is given, a view of the leading elements
    of scratch[key], contiguous in order."""
    if scratch is None:
        return np.empty(shape, order=order)
    return scratch[key][:shape[0] * shape[1]].reshape(shape, order=order)


def as_matrix(a, name: str = "matrix") -> np.ndarray:
    """Coerce to a finite, 2-D float64 array."""
    a = np.asarray(a, dtype=np.float64)
    if a.ndim != 2:
        raise DimensionMismatch(f"{name} must be 2-D, got ndim={a.ndim}")
    if not np.isfinite(a).all():
        raise NonFiniteInput(f"{name} contains non-finite entries")
    return a


def _gram(G, scratch=None) -> np.ndarray:
    """G G', the dual system's product, into scratch["gram"] when given.
    numpy hands a product with its own transpose to syrk."""
    return np.matmul(G, G.T, out=_buffer(scratch, "gram", (G.shape[0], G.shape[0])))


def _system(G, s, T, branch: str, gram=None, scratch=None) -> tuple[np.ndarray, np.ndarray]:
    """The part of the ridge system that C leaves alone, from the N x F state
    matrix G, the N sample weights s in [0, 1] and the N x K targets T: the
    primal G' S^2 G and G' S^2 T, or the dual S^2 G G' and S^2 T.

    gram is _gram(G), which a dual system forms when it is not given. With
    scratch, the system is written into scratch["system"], and the primal's
    S^2 G into scratch["factor"], which its solve's factor copy then reuses.
    G.T @ G would go to syrk, whose rounding differs; these products are the
    ones that every fit has solved.
    """
    s2 = s * s
    if branch == "primal":
        SG = np.multiply(s2[:, None], G, out=_buffer(scratch, "factor", G.shape))
        A = np.matmul(G.T, SG, out=_buffer(scratch, "system", (G.shape[1], G.shape[1])))
        return A, G.T @ (s2[:, None] * T)
    if gram is None:
        gram = _gram(G)
    A = np.multiply(s2[:, None], gram, out=_buffer(scratch, "system", gram.shape))
    return A, s2[:, None] * T


def _solve_system(A: np.ndarray, rhs: np.ndarray, c_reg: float, branch: str, G,
                  scratch=None) -> np.ndarray:
    """The output weights W from _system's A and rhs and a positive C; A and
    rhs are left as they are. branch "primal" solves
    (G' S^2 G + I/C) W = G' S^2 T by a Cholesky factorization (dpotrf,
    dpotrs); it suits F <= N. branch "dual" solves
    W = G' (I/C + S^2 G G')^{-1} S^2 T by an LU factorization (dgetrf,
    dgetrs), which needs G; it suits F > N, and its N x N system matrix is
    nonsymmetric whenever S is not the identity, hence the general solve.
    The factorization overwrites one column-major copy of A + I/C, and the
    solve one of rhs: the copies scipy.linalg's LAPACK wrappers make. With
    scratch, the copy of A is written into scratch["factor"]; on the primal
    that overwrites _system's S^2 G, which A no longer needs.
    """
    n = A.shape[0]
    a = _buffer(scratch, "factor", A.shape, order="F")
    np.copyto(a, A)
    a.reshape(-1, order="F")[::n + 1] += 1.0 / c_reg  # the diagonal, as a strided view
    b = np.array(rhs, order="F")
    k = b.shape[1]
    if branch == "primal":
        info = _call_lapack("dpotrf", b"L", n, a, n)
        if info > 0:
            raise FactorizationFailure(f"Cholesky factorization of G'S^2G + I/C failed: {info}-th "
                                       "leading minor of the array is not positive definite")
        _call_lapack("dpotrs", b"L", n, k, a, n, b, n)
        return b
    pivots = np.empty(n, dtype=np.intc)
    # A zero pivot, or inf in the factor: an overflow at a tiny C.
    if _call_lapack("dgetrf", n, n, a, n, pivots) > 0 or not np.isfinite(a).all():
        raise FactorizationFailure("I/C + S^2GG' is singular")
    _call_lapack("dgetrs", b"N", n, k, a, n, pivots, b, n)
    return G.T @ b


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


def _row_blocks(n_rows: int, n_cols: int) -> list[slice]:
    """Consecutive slices of n_rows rows that hold about _BLOCK of n_cols
    columns each: the rows of one step of a row-blocked pass over an array."""
    step = max(1, _BLOCK // max(n_cols, 1))
    return [slice(r, min(r + step, n_rows)) for r in range(0, n_rows, step)]


def _sq_dist(A: np.ndarray, B: np.ndarray, block_map=None) -> np.ndarray:
    """pairwise_sq_dist of checked operands; B is A for self-distances.

    The product A @ B.T is the one array made; row block by row block it is
    overwritten with (a2_i + b2_j) - 2 g_ij. A @ A.T goes to syrk, whose
    rounding every distance has had. block_map, when given, is called on
    each row block once its distances are final, after the pair fix-up and
    while the block is still in cache, and must overwrite it in place; the
    array returned then holds the map of the distances.
    """
    same = B is A
    a2 = np.einsum("ij,ij->i", A, A)
    b2 = a2 if same else np.einsum("ij,ij->i", B, B)
    d2 = A @ B.T
    # The expansion loses precision near zero; pair (i, j) is suspect when
    # d2 <= c (a2_i + b2_j). That bound is at most c (a2_i + max b2), as
    # rounding is monotone, so rows whose minimum clears it hold no suspect
    # pair. The diagonal of (A, A) is left out and set to zero.
    c = 16.0 * np.finfo(np.float64).eps
    b2_max = b2.max(initial=0.0)
    for rows in _row_blocks(*d2.shape):
        block = d2[rows]
        block *= 2.0
        np.subtract(a2[rows, None] + b2, block, out=block)
        np.maximum(block, 0.0, out=block)
        if same:
            diagonal = (np.arange(rows.stop - rows.start), np.arange(rows.start, rows.stop))
            block[diagonal] = np.inf
        suspect = np.flatnonzero(block.min(axis=1, initial=np.inf) <= c * (a2[rows] + b2_max))
        if same:
            block[diagonal] = 0.0
        # Recomputing a zeroed diagonal entry gives 0.0 again.
        for i, j in zip(*np.nonzero(block[suspect] <= c * (a2[rows][suspect, None] + b2))):
            diff = A[rows.start + suspect[i]] - B[j]
            block[suspect[i], j] = diff @ diff
        if block_map is not None:
            block_map(block)
    return d2
