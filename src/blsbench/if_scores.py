"""Kernel-space intuitionistic fuzzy scoring.

Samples are implicitly mapped into the RKHS of a Gaussian kernel. Each
sample gets a membership value (distance to its class centroid in kernel
space, computed purely from kernel evaluations) and a non-membership
value driven by the fraction of opposite-class points inside its kernel
epsilon-neighborhood. Both combine into a single score weight via a
three-branch rule: pure neighborhoods keep their membership, samples
dominated by non-membership drop to zero, and mixed cases interpolate.
The membership rule and the delta check are fuzzy's, shared with f-bls.
trainer.fit checks its inputs and runs the if-bls step _score_vector
directly.

The only kernel built is that of the training samples with themselves,
and its diagonal is exactly 1 (linalg._sq_dist gives the (X, X)
diagonal as 0.0). So the squared RKHS distance of samples i and j is
2 - 2 K_ij, nonnegative and zero on the diagonal as K lies in [0, 1], and
that of sample i to its class centroid is 1 + mean(K_cc) - 2 mean_j(K_ij)
over its class block K_cc.

Scoring N samples holds one N x N float64 array, which holds the squared
distances and then the kernel; no N x N mask, distance matrix,
upper-triangle copy or class block is made. The centroid step's sums are
numpy's pairwise sums of the class blocks, bit for bit, added from class
rows gathered a row block at a time (see _class_sums). The RKHS distance
sqrt(2 - 2k) is non-increasing in k in floating point too (see
_rkhs_distance), so the median heuristic and the epsilon-neighborhoods are
selected in K, and only the two middle kernel values are mapped to
distances (see _score_vector, _median_distance and _kernel_threshold).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Union

import numpy as np

from .data import _check_positive
from .errors import ConfigError
from .fuzzy import DEFAULT_DELTA, _check_delta, _membership
from .linalg import _BLOCK, _check_memory, _row_blocks, _sq_dist
# Unused here: bench/tracing.py times linalg calls through these bindings.
from .linalg import as_matrix, pairwise_sq_dist  # noqa: F401

__all__ = [
    "MEDIAN_HEURISTIC",
    "KernelParams",
    "IFScoreBreakdown",
]

MEDIAN_HEURISTIC = "median_heuristic"

# Elements of the distance matrix sorted to bracket its median.
_SAMPLE = 1 << 14


@dataclass(frozen=True)
class KernelParams:
    """Gaussian width, radius offset, and neighborhood size policy.

    epsilon may be a fixed nonnegative float or the string
    "median_heuristic" (default), which resolves to the median pairwise
    kernel distance of the training fold.
    """

    mu: float = 1.0
    delta: float = DEFAULT_DELTA
    epsilon: Union[float, str] = MEDIAN_HEURISTIC

    def __post_init__(self):
        _check_positive(self.mu, "mu")
        if float(self.mu) * float(self.mu) == 0.0:  # the kernel divides by mu^2
            raise ConfigError(f"mu must have a nonzero square, got {self.mu!r}")
        _check_delta(self.delta)
        if isinstance(self.epsilon, str):
            if self.epsilon != MEDIAN_HEURISTIC:
                raise ConfigError(f"unknown epsilon policy {self.epsilon!r}")
        else:
            _check_positive(self.epsilon, "epsilon", zero=True)


@dataclass(frozen=True)
class IFScoreBreakdown:
    """Per-sample diagnostics: membership, non-membership, heterogeneity, score."""

    membership: np.ndarray
    non_membership: np.ndarray
    hetero_ratio: np.ndarray
    score: np.ndarray
    epsilon_used: float


def _combine(theta: np.ndarray, theta_tilde: np.ndarray) -> np.ndarray:
    """Combine membership and non-membership into one weight, elementwise.

    Pure neighborhoods (theta_tilde = 0) keep their membership, samples
    with theta <= theta_tilde get zero, and the rest interpolate. Both
    arrays lie in [0, 1] with theta + theta_tilde <= 1 up to rounding,
    which keeps 2 - theta - theta_tilde near or above 1: the mixed branch
    is finite.
    """
    mixed = (1.0 - theta_tilde) / (2.0 - theta - theta_tilde)
    return np.where(theta_tilde == 0.0, theta, np.where(theta <= theta_tilde, 0.0, mixed))


def _score_vector(
    X: np.ndarray, t: np.ndarray, params: KernelParams
) -> tuple[np.ndarray, IFScoreBreakdown]:
    """Full scoring pipeline of checked samples X and +/-1 labels t, both
    classes present: kernel, radii, membership, non-membership, score.

    One N x N float64 buffer carries the pipeline. _sq_dist fills it with
    the squared distances and overwrites each row block, while it is in
    cache, with the kernel exp(||x_i - x_j||^2 / -mu^2); the centroid step,
    the median heuristic and the neighborhood counts then read the kernel
    row block by row block. A distance is at most epsilon exactly when its
    kernel value is at least _kernel_threshold(epsilon), so no distance is
    formed, and _class_sums adds each class block from its gathered rows
    without copying it, so nothing but row blocks is made beside the
    buffer. Scoring that would not fit in physical memory raises
    ConfigError before anything is allocated.
    """
    n = t.shape[0]
    positive = t == 1
    _check_memory(8 * (n * n + _BLOCK), f"if-bls scoring of {n} rows")
    # d / -mu^2 rounds as -d / mu^2 does, sign and all.
    neg_mu2 = -(params.mu * params.mu)

    def kernel(block):
        # A quotient that overflows gives exp(-inf) = 0, its limit.
        with np.errstate(over="ignore"):
            np.divide(block, neg_mu2, out=block)
        np.exp(block, out=block)

    K = _sq_dist(X, X, kernel)
    sq = np.empty(n)
    for mask in (positive, ~positive):
        idx = np.flatnonzero(mask)
        m = idx.size
        total, row_sums = _class_sums(K, idx)
        # A squared norm, negative only by rounding.
        sq[mask] = np.maximum(1.0 + total / (m * m) - 2.0 * (row_sums / m), 0.0)
    theta = _membership(sq, t, params.delta)
    if isinstance(params.epsilon, str):
        epsilon = _median_distance(K)
    else:
        epsilon = float(params.epsilon)
    kappa = _kernel_threshold(epsilon)
    # The heterogeneity ratio is the opposite-class share of the points
    # within epsilon. A sample always sits in its own neighborhood at
    # distance zero, so the denominator is never empty. It lies in [0, 1],
    # as theta does, so theta_tilde keeps the bounds of _combine.
    within = np.empty(n, dtype=np.intp)
    within_pos = np.empty(n, dtype=np.intp)
    for rows in _row_blocks(n, n):
        near = K[rows] >= kappa
        within[rows] = np.count_nonzero(near, axis=1)
        within_pos[rows] = np.count_nonzero(near & positive, axis=1)
    hetero = np.where(positive, within - within_pos, within_pos) / within
    theta_tilde = (1.0 - theta) * hetero
    scores = _combine(theta, theta_tilde)
    return scores, IFScoreBreakdown(
        membership=theta,
        non_membership=theta_tilde,
        hetero_ratio=hetero,
        score=scores,
        epsilon_used=epsilon,
    )


def _class_sums(K: np.ndarray, idx: np.ndarray) -> tuple[np.float64, np.ndarray]:
    """K[np.ix_(idx, idx)].sum() and .sum(axis=1) of the n x n kernel K,
    bit for bit, without forming the m x m class block.

    numpy adds a contiguous float64 array pairwise: a run of more than 128
    values is split after its first n // 2 values, rounded down to a
    multiple of 8, and its halves are added recursively; any node of that
    tree, added on its own, gives the same bits. _node_sum walks the tree
    over the flattened class block down to nodes of about one row block
    and adds each from only the class rows it covers, gathered from K.
    A class row is added in the node that holds its last value, where the
    gathered rows hold it whole.
    """
    m = idx.size
    row_sums = np.empty(m)
    total = _node_sum(K, idx, 0, m * m, m * max(1, _BLOCK // K.shape[0]), row_sums)
    return total, row_sums


def _node_sum(K, idx, lo, hi, leaf, row_sums):
    """numpy's pairwise sum of values lo:hi of the flattened class block
    K[np.ix_(idx, idx)], setting row_sums of the rows that end in it. A
    module-level function: a closure that calls itself is a reference cycle,
    which would keep K alive after scoring until the cyclic collector runs."""
    n = hi - lo
    if n > max(leaf, 128):
        half = n // 2
        half -= half % 8
        return (_node_sum(K, idx, lo, lo + half, leaf, row_sums)
                + _node_sum(K, idx, lo + half, hi, leaf, row_sums))
    m = idx.size
    first = lo // m
    rows = K[idx[first:(hi - 1) // m + 1]].take(idx, axis=1)
    row_sums[first:hi // m] = rows[:hi // m - first].sum(axis=1)
    return np.add.reduce(rows.reshape(-1)[lo - first * m:hi - first * m])


def _rkhs_distance(k):
    """The RKHS distance sqrt(2 - 2k) of two samples with Gaussian kernel
    value k, in the float operations of the reference pipeline: an exact
    product by -2, a correctly rounded sum and a correctly rounded square
    root. Each is monotone, so the map is non-increasing in k."""
    return np.sqrt(k * -2.0 + 2.0)


def _kernel_threshold(epsilon: float) -> float:
    """The least double kappa in [0, 1] whose _rkhs_distance is at most
    epsilon >= 0: for every k in [0, 1], k >= kappa exactly when
    _rkhs_distance(k) <= epsilon. _rkhs_distance(1) = 0 bounds it, and
    nonnegative doubles order as their int64 bit patterns, so a bisection
    over the patterns of [0, 1] finds it in at most 62 steps."""
    lo, hi = 0, int(np.float64(1.0).view(np.int64))
    while lo < hi:
        mid = (lo + hi) // 2
        if _rkhs_distance(np.int64(mid).view(np.float64)) <= epsilon:
            hi = mid
        else:
            lo = mid + 1
    return float(np.int64(lo).view(np.float64))


def _median_distance(K: np.ndarray) -> float:
    """np.median of the strict upper triangle of the RKHS distances
    _rkhs_distance(K) of the n x n symmetric kernel K (n >= 2, entries in
    [0, 1], unit diagonal), bit for bit, without forming a distance.

    _rkhs_distance is non-increasing, so the ascending pair distances are
    its map of the descending pair kernel values. K holds its n unit
    diagonal entries at or above every other value and each of the
    M = n(n-1)/2 pair values twice, so the pair values that map to the two
    middle pair distances are K's sorted values at M - 1 and M; they are
    one value when M is odd. A sorted sample of K brackets both, and one
    row-blocked pass counts the values at or below each end and gathers
    those strictly between. Ties at an end are counted, not gathered, which
    keeps the gather small when most pairs share one value (0 at a small
    mu). Should the bracket miss a middle value, it is widened and the pass
    run again. The mean of the two mapped values is np.median's.
    """
    n = K.shape[0]
    size = n * n
    first = n * (n - 1) // 2 - 1
    # A stride that shares no factor with n samples every column alike.
    stride = max(1, size // _SAMPLE)
    while math.gcd(stride, n) != 1:
        stride += 1
    sample = np.sort(K.reshape(-1)[::stride])
    margin = sample.size // 64 + 1
    while True:
        lo_at = first * sample.size // size - margin
        hi_at = (first + 1) * sample.size // size + margin
        lo = sample[lo_at] if lo_at >= 0 else -np.inf
        hi = sample[hi_at] if hi_at < sample.size else np.inf
        below_lo = upto_lo = upto_hi = 0
        between = []
        for rows in _row_blocks(n, n):
            block = K[rows]
            below_lo += np.count_nonzero(block < lo)
            upto_lo += np.count_nonzero(block <= lo)
            upto_hi += np.count_nonzero(block <= hi)
            between.append(block[(block > lo) & (block < hi)])
        if below_lo <= first and first + 1 < upto_hi:
            break
        margin *= 4
    between = np.concatenate(between)
    at = [first - upto_lo, first + 1 - upto_lo]
    inner = [k for k in at if 0 <= k < between.size]
    if inner:
        between.partition(inner)
    middle = [lo if k < 0 else hi if k >= between.size else between[k] for k in at]
    return float(np.mean(_rkhs_distance(np.array(middle))))
