"""Kernel-space intuitionistic fuzzy scoring.

Samples are implicitly mapped into the RKHS of a Gaussian kernel. Each
sample gets a membership value (distance to its class centroid in kernel
space, computed purely from kernel evaluations) and a non-membership
value driven by the fraction of opposite-class points inside its kernel
epsilon-neighborhood. Both combine into a single score weight via a
three-branch rule: pure neighborhoods keep their membership, samples
dominated by non-membership drop to zero, and mixed cases interpolate.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Union

import numpy as np

from .errors import ClassBalanceError, ConfigError, InvalidKernel
from .fuzzy import DEFAULT_DELTA, signed_labels
from .linalg import _sq_dist, as_matrix, pairwise_sq_dist

__all__ = [
    "MEDIAN_HEURISTIC",
    "KernelParams",
    "IFScoreBreakdown",
    "gaussian_kernel",
    "kernel_pairwise_distances",
    "kernel_class_radii",
    "if_score",
    "if_score_vector",
]

# Negative radicands larger than this are treated as an invalid kernel
# rather than rounding noise.
_RADICAND_TOL = 1e-12

MEDIAN_HEURISTIC = "median_heuristic"


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
        if not (np.isfinite(self.mu) and self.mu > 0):
            raise ConfigError(f"mu must be positive, got {self.mu!r}")
        if not (np.isfinite(self.delta) and self.delta > 0):
            raise ConfigError(f"delta must be positive, got {self.delta!r}")
        if isinstance(self.epsilon, str):
            if self.epsilon != MEDIAN_HEURISTIC:
                raise ConfigError(f"unknown epsilon policy {self.epsilon!r}")
        elif not (np.isfinite(self.epsilon) and self.epsilon >= 0):
            raise ConfigError(f"epsilon must be nonnegative, got {self.epsilon!r}")


@dataclass(frozen=True)
class IFScoreBreakdown:
    """Per-sample diagnostics: membership, non-membership, heterogeneity, score."""

    membership: np.ndarray
    non_membership: np.ndarray
    hetero_ratio: np.ndarray
    score: np.ndarray
    epsilon_used: float


def gaussian_kernel(A, B, mu: float) -> np.ndarray:
    """K(a, b) = exp(-||a - b||^2 / mu^2), entries in (0, 1]."""
    if not (np.isfinite(mu) and mu > 0):
        raise ConfigError(f"mu must be positive, got {mu!r}")
    return np.exp(-pairwise_sq_dist(A, B) / (mu * mu))


def kernel_pairwise_distances(K) -> np.ndarray:
    """All pairwise RKHS distances from a full kernel matrix."""
    K = as_matrix(K, "K")
    if K.shape[0] != K.shape[1]:
        raise ConfigError("kernel matrix must be square")
    return _rkhs_distances(K)


def _rkhs_distances(K: np.ndarray) -> np.ndarray:
    """Pairwise RKHS distances sqrt(K_ii + K_jj - 2 K_ij) of a square kernel."""
    diag = np.diag(K)
    sq = diag[:, None] + diag[None, :] - 2.0 * K
    if sq.min() < -_RADICAND_TOL:
        raise InvalidKernel(
            f"negative squared kernel distance {sq.min()}; kernel is not PSD"
        )
    np.maximum(sq, 0.0, out=sq)
    np.fill_diagonal(sq, 0.0)
    return np.sqrt(sq, out=sq)


def _centroid_distances(K: np.ndarray, t: np.ndarray) -> tuple[np.ndarray, tuple[float, float]]:
    """RKHS distance of every sample to its class centroid, and both class radii.

    The class-sum term is computed once per class and shared across its
    members; a class radius is the largest distance among its members.
    """
    dist = np.empty(t.shape[0])
    radii = []
    for sign in (1, -1):
        mask = t == sign
        if not mask.any():
            raise ClassBalanceError("both classes must have at least one sample")
        n = int(mask.sum())
        block = K[np.ix_(mask, mask)]
        center_sq = block.sum() / (n * n)
        cross = block.sum(axis=1) / n
        sq = np.diag(K)[mask] + center_sq - 2.0 * cross
        if sq.min() < -_RADICAND_TOL:
            raise InvalidKernel(
                f"negative squared center distance {sq.min()}; kernel is not PSD"
            )
        np.maximum(sq, 0.0, out=sq)
        radii.append(float(np.sqrt(sq.max())))
        dist[mask] = np.sqrt(sq)
    return dist, tuple(radii)


def kernel_class_radii(K, labels) -> tuple[float, float]:
    """Max RKHS distance of each class member to its class centroid."""
    K = as_matrix(K, "K")
    t = signed_labels(labels)
    if K.shape[0] != K.shape[1] or K.shape[0] != t.shape[0]:
        raise ConfigError("kernel matrix must be N x N matching the labels")
    return _centroid_distances(K, t)[1]


def if_score(theta, theta_tilde) -> np.ndarray:
    """Combine membership and non-membership into one weight, elementwise.

    Pure neighborhoods (theta_tilde = 0) keep their membership, samples
    with theta <= theta_tilde get zero, and the rest interpolate.
    """
    theta = np.asarray(theta, dtype=np.float64)
    theta_tilde = np.asarray(theta_tilde, dtype=np.float64)
    if not ((0.0 <= theta) & (theta <= 1.0) & (0.0 <= theta_tilde) & (theta_tilde <= 1.0)).all():
        raise ConfigError("theta and theta_tilde must lie in [0, 1]")
    if (theta + theta_tilde > 1.0 + 1e-12).any():
        raise ConfigError("theta + theta_tilde must not exceed 1")
    # The checks keep 2 - theta - theta_tilde >= 1 - 1e-12, so the mixed
    # branch is finite everywhere.
    mixed = (1.0 - theta_tilde) / (2.0 - theta - theta_tilde)
    return np.where(theta_tilde == 0.0, theta, np.where(theta <= theta_tilde, 0.0, mixed))


def if_score_vector(X, labels, params: KernelParams) -> tuple[np.ndarray, IFScoreBreakdown]:
    """Full scoring pipeline: kernel, radii, membership, non-membership, score.

    Builds the kernel, the centroid distances and the RKHS distance matrix
    once each; the kernel is freed before the neighborhood step.
    """
    X = as_matrix(X, "X")
    t = signed_labels(labels)
    if t.shape[0] != X.shape[0]:
        raise ConfigError(f"{t.shape[0]} labels for {X.shape[0]} samples")
    return _score_vector(X, t, params)


def _score_vector(
    X: np.ndarray, t: np.ndarray, params: KernelParams
) -> tuple[np.ndarray, IFScoreBreakdown]:
    """if_score_vector of checked samples X and +/-1 labels t."""
    # gaussian_kernel(X, X, mu) without re-checking X.
    K = np.exp(-_sq_dist(X, X) / (params.mu * params.mu))
    dist, (r_pos, r_neg) = _centroid_distances(K, t)
    theta = 1.0 - dist / (np.where(t == 1, r_pos, r_neg) + params.delta)
    # Centroid distances can exceed the radius by rounding on the member
    # that attains the max; keep theta inside [0, 1].
    np.clip(theta, 0.0, 1.0, out=theta)
    dists = _rkhs_distances(K)
    del K
    if isinstance(params.epsilon, str):
        # Both classes are present, so there is at least one pair.
        epsilon = float(np.median(dists[np.triu_indices(dists.shape[0], k=1)]))
    else:
        epsilon = float(params.epsilon)
    # The heterogeneity ratio is the opposite-class share of the points
    # within epsilon. A sample always sits in its own neighborhood at
    # distance zero, so the denominator is never empty.
    within = dists <= epsilon
    del dists
    different = t[:, None] != t[None, :]
    hetero = (within & different).sum(axis=1) / within.sum(axis=1)
    theta_tilde = (1.0 - theta) * hetero
    scores = if_score(theta, theta_tilde)
    breakdown = IFScoreBreakdown(
        membership=theta,
        non_membership=theta_tilde,
        hetero_ratio=hetero,
        score=scores,
        epsilon_used=epsilon,
    )
    return scores, breakdown
