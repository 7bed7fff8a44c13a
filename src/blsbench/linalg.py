"""Dense matrix primitives and the weighted ridge solve.

The weighted ridge solve minimizes

    (C/2) * ||S (G W - T)||_F^2 + (1/2) * ||W||_F^2

for a diagonal sample-weight matrix S. The primal form factorizes an
r x r system, the dual form an N x N system; they are algebraically
identical via the push-through identity, and the caller picks whichever
dimension is smaller. G is the N x r state matrix of the layer that
network._solved_layer gives: under a linear feature map of m*p > d+1
columns r = k + l*q with k = d+1, and the solution is mapped back to the
m*p + l*q rows of the network's own output weights. _output_weights, the one ridge step,
builds the part of the system that C leaves alone and solves it for each
C by _solve_system, in buffers of the layout that _buffer_sizes states.

pairwise_sq_dist checks its operands and then runs the private _sq_dist,
which trusts them. trainer.fit validates its inputs once; it, stats'
engine and the private steps they run call _gram, _output_weights and
_sq_dist directly, so each computation has one code path.

Fits run BLAS on one thread (see _single_threaded_blas); worker processes
are the program's only parallelism.

The thread cap and the solve find the OpenBLAS libraries that the numpy
and scipy wheels bundle from where the packages are installed, without
importing scipy. _solve_system calls LAPACK's dpotrf, dpotrs, dgetrf and
dgetrs through ctypes, and _thin_qr dgeqrf and dorgqr: the routines and
operands that scipy.linalg would use, so their results are bit for bit
those of scipy.linalg. They come from
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


# The arguments of the LAPACK routines that _solve_system and _thin_qr call,
# in order, before INFO: all by reference, the integers 32-bit (scipy's
# LAPACK is LP64), each matrix a writeable column-major float64 array and
# each vector a writeable float64 one.
_CHAR, _INT = ctypes.c_char_p, ctypes.POINTER(ctypes.c_int)
_MATRIX = np.ctypeslib.ndpointer(np.float64, ndim=2, flags="F_CONTIGUOUS,WRITEABLE")
_VECTOR = np.ctypeslib.ndpointer(np.float64, ndim=1, flags="C_CONTIGUOUS,WRITEABLE")
_PIVOTS = np.ctypeslib.ndpointer(np.intc, ndim=1, flags="C_CONTIGUOUS,WRITEABLE")
_LAPACK_ARGS = {
    "dpotrf": [_CHAR, _INT, _MATRIX, _INT],
    "dpotrs": [_CHAR, _INT, _INT, _MATRIX, _INT, _MATRIX, _INT],
    "dgetrf": [_INT, _INT, _MATRIX, _INT, _PIVOTS],
    "dgetrs": [_CHAR, _INT, _INT, _MATRIX, _INT, _PIVOTS, _MATRIX, _INT],
    "dgeqrf": [_INT, _INT, _MATRIX, _INT, _VECTOR, _VECTOR, _INT],
    "dorgqr": [_INT, _INT, _INT, _MATRIX, _INT, _VECTOR, _VECTOR, _INT],
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
    character, int for an integer and the array itself for a matrix or a
    vector; its INFO, which is >= 0 as a negative INFO (an illegal
    argument) raises."""
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


def _buffer(scratch: dict, key: str, shape: tuple, order: str = "C") -> np.ndarray:
    """An uninitialized float64 array of shape: a view of the leading
    elements of scratch[key], a flat float64 array, contiguous in order."""
    return scratch[key][:shape[0] * shape[1]].reshape(shape, order=order)


def as_matrix(a, name: str = "matrix") -> np.ndarray:
    """Coerce to a finite, 2-D float64 array."""
    a = np.asarray(a, dtype=np.float64)
    if a.ndim != 2:
        raise DimensionMismatch(f"{name} must be 2-D, got ndim={a.ndim}")
    if not np.isfinite(a).all():
        raise NonFiniteInput(f"{name} contains non-finite entries")
    return a


def _gram(G, scratch: dict) -> np.ndarray:
    """G G', the dual system, into scratch["system"]. numpy hands a product
    with its own transpose to syrk."""
    return np.matmul(G, G.T, out=_buffer(scratch, "system", (G.shape[0], G.shape[0])))


def _buffer_sizes(n: int, r: int) -> dict:
    """The elements of each array that a ridge step on an n x r state matrix
    writes into scratch buffers, by _buffer's keys: the state matrix, the
    system of order min(r, n) (_gram's G G' on the dual) and the factor
    copy, which on the primal first holds S^2 G. Each grows with r."""
    k = min(r, n)
    return {"state": n * r, "system": k * k, "factor": n * k}


def _output_weights(G: np.ndarray, gram, s: np.ndarray, T: np.ndarray, c_regs,
                    scratch: dict, back=None) -> list:
    """Per C in c_regs, the output weights of the ridge problem on the N x r
    state matrix G, the N sample weights s in [0, 1] and the N x K targets
    T; gram is _gram(G) on the dual and None on the primal. back, when
    given, is network._solved_layer's m*p x k back-map Q, and each solution
    b is written as [Q b1; b2], b1 its first k rows.

    The system's C-free part is built once. The primal's is
    A = G' S^2 G, written into scratch["system"] from S^2 G in
    scratch["factor"], with rhs = G' S^2 T; G.T @ G would go to syrk,
    whose rounding differs. The dual's is A = gram with the row scale S^2
    and rhs = S^2 T. _solve_system solves it for each C and leaves it as it
    is; the dual's solution is mapped back through G'. A failed solve
    raises.
    """
    s2 = s * s
    if gram is None:
        SG = np.multiply(s2[:, None], G, out=_buffer(scratch, "factor", G.shape))
        A = np.matmul(G.T, SG, out=_buffer(scratch, "system", (G.shape[1], G.shape[1])))
        r, rhs = None, G.T @ (s2[:, None] * T)
    else:
        A, r, rhs = gram, s2, s2[:, None] * T
    weights = []
    for c in c_regs:
        W = _solve_system(A, r, rhs, float(c), scratch)
        W = np.ascontiguousarray(W if r is None else G.T @ W)
        if back is not None:  # Q b1 written into its rows of [Q b1; b2], with no temporary
            m, k = back.shape
            out = np.empty((m + len(W) - k, W.shape[1]))
            np.matmul(back, W[:k], out=out[:m])
            out[m:] = W[k:]
            W = out
        weights.append(W)
    return weights


def _solve_system(A: np.ndarray, r, rhs: np.ndarray, c_reg: float, scratch: dict) -> np.ndarray:
    """The solution X of (diag(r) A + I/C) X = rhs for a positive C, with no
    row scale when r is None; A, r and rhs are left as they are.

    Without a row scale A is symmetric (the primal's G' S^2 G), and the
    solve is a Cholesky factorization (dpotrf, dpotrs). With one it is an
    LU factorization (dgetrf, dgetrs), since diag(r) A (the dual's
    S^2 G G') is nonsymmetric whenever r is not constant. The factorization
    overwrites A + I/C, its rows scaled by r, written column-major into
    scratch["factor"] (on the primal over _output_weights' S^2 G, which A
    no longer needs), and the solve a copy of rhs: the operands
    scipy.linalg's LAPACK wrappers make.
    """
    n = A.shape[0]
    a = _buffer(scratch, "factor", A.shape, order="F")
    np.copyto(a, A)
    if r is not None:  # the products r_i A_ij; faster in place than into the transposed layout
        a *= r[:, None]
    a.reshape(-1, order="F")[::n + 1] += 1.0 / c_reg  # the diagonal, as a strided view
    b = np.array(rhs, order="F")
    k = b.shape[1]
    if r is None:
        info = _call_lapack("dpotrf", b"L", n, a, n)
        if info > 0:
            raise FactorizationFailure(f"Cholesky factorization of G'S^2G + I/C failed: {info}-th "
                                       "leading minor of the array is not positive definite")
        _call_lapack("dpotrs", b"L", n, k, a, n, b, n)
        return b
    pivots = np.empty(n, dtype=np.intc)
    # A zero pivot, or inf or NaN in the factor (an overflow at a tiny C),
    # which min and max carry without an N x N mask.
    if (_call_lapack("dgetrf", n, n, a, n, pivots) > 0
            or not (np.isfinite(a.min()) and np.isfinite(a.max()))):
        raise FactorizationFailure("I/C + S^2GG' is singular")
    _call_lapack("dgetrs", b"N", n, k, a, n, pivots, b, n)
    return b


def _thin_qr(a: np.ndarray) -> np.ndarray:
    """The thin QR a = Q R of a column-major m x n array with m >= n, made in
    place: a is overwritten with Q, whose n columns are orthonormal, and the
    n x n upper-triangular R is returned. dgeqrf and dorgqr, the routines
    and operands of scipy.linalg.qr(a, mode="economic"), work in a itself,
    so no m x n copy is made."""
    m, n = a.shape
    tau, work = np.empty(n), np.empty(64 * n)  # room for a block of 64 columns
    _call_lapack("dgeqrf", m, n, a, m, tau, work, work.size)
    R = np.triu(a[:n])
    _call_lapack("dorgqr", m, n, n, a, m, tau, work, work.size)
    return R


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
