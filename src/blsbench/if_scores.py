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
from .linalg import as_matrix, pairwise_sq_dist

__all__ = [
    "MEDIAN_HEURISTIC",
    "KernelParams",
    "IFScoreBreakdown",
    "gaussian_kernel",
    "kernel_pairwise_distances",
    "kernel_class_radii",
    "kernel_membership",
    "non_membership",
    "if_score",
    "if_score_vector",
    "resolve_epsilon",
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
    diag = np.diag(K)
    sq = diag[:, None] + diag[None, :] - 2.0 * K
    if sq.min() < -_RADICAND_TOL:
        raise InvalidKernel(
            f"negative squared kernel distance {sq.min()}; kernel is not PSD"
        )
    np.maximum(sq, 0.0, out=sq)
    np.fill_diagonal(sq, 0.0)
    return np.sqrt(sq)


def _center_sq_dists(K: np.ndarray, mask: np.ndarray) -> np.ndarray:
    """Squared RKHS distance of every masked sample to its class centroid."""
    n = int(mask.sum())
    block = K[np.ix_(mask, mask)]
    center_sq = block.sum() / (n * n)
    cross = block.sum(axis=1) / n
    sq = np.diag(K)[mask] + center_sq - 2.0 * cross
    if sq.min() < -_RADICAND_TOL:
        raise InvalidKernel(
            f"negative squared center distance {sq.min()}; kernel is not PSD"
        )
    return np.maximum(sq, 0.0)


def kernel_class_radii(K, labels) -> tuple[float, float]:
    """Max RKHS distance of each class member to its class centroid.

    The class-sum term is computed once per class and shared across its
    members.
    """
    K = as_matrix(K, "K")
    t = signed_labels(labels)
    if K.shape[0] != K.shape[1] or K.shape[0] != t.shape[0]:
        raise ConfigError("kernel matrix must be N x N matching the labels")
    radii = []
    for sign in (1, -1):
        mask = t == sign
        if not mask.any():
            raise ClassBalanceError("both classes must have at least one sample")
        radii.append(float(np.sqrt(_center_sq_dists(K, mask).max())))
    return radii[0], radii[1]


def kernel_membership(K, labels, radii: tuple[float, float], delta: float = DEFAULT_DELTA) -> np.ndarray:
    """Membership per sample: 1 - centroid_distance / (class_radius + delta)."""
    if delta <= 0:
        raise ConfigError(f"delta must be positive, got {delta!r}")
    K = as_matrix(K, "K")
    t = signed_labels(labels)
    r_pos, r_neg = radii
    theta = np.empty(t.shape[0])
    for sign, radius in ((1, r_pos), (-1, r_neg)):
        mask = t == sign
        if not mask.any():
            raise ClassBalanceError("both classes must have at least one sample")
        dist = np.sqrt(_center_sq_dists(K, mask))
        theta[mask] = 1.0 - dist / (radius + delta)
    return theta


def non_membership(K, labels, theta, epsilon: float) -> tuple[np.ndarray, np.ndarray]:
    """Heterogeneity ratio and non-membership per sample.

    The ratio counts opposite-class points within kernel distance epsilon
    over all points within that distance. A sample always sits in its own
    neighborhood at distance zero, so the denominator is never empty.
    Returns (hetero_ratio, non_membership).
    """
    if not (np.isfinite(epsilon) and epsilon >= 0):
        raise ConfigError(f"epsilon must be nonnegative, got {epsilon!r}")
    K = as_matrix(K, "K")
    t = signed_labels(labels)
    theta = np.asarray(theta, dtype=np.float64).ravel()
    dists = kernel_pairwise_distances(K)
    within = dists <= epsilon
    different = t[:, None] != t[None, :]
    hetero = (within & different).sum(axis=1) / within.sum(axis=1)
    return hetero, (1.0 - theta) * hetero


def if_score(theta: float, theta_tilde: float) -> float:
    """Combine membership and non-membership into one weight."""
    if not (0.0 <= theta <= 1.0 and 0.0 <= theta_tilde <= 1.0):
        raise ConfigError("theta and theta_tilde must lie in [0, 1]")
    if theta + theta_tilde > 1.0 + 1e-12:
        raise ConfigError("theta + theta_tilde must not exceed 1")
    if theta_tilde == 0.0:
        return theta
    if theta <= theta_tilde:
        return 0.0
    return (1.0 - theta_tilde) / (2.0 - theta - theta_tilde)


def resolve_epsilon(K, policy: Union[float, str]) -> float:
    """Turn an epsilon policy into a concrete value for this kernel matrix."""
    if isinstance(policy, str):
        if policy != MEDIAN_HEURISTIC:
            raise ConfigError(f"unknown epsilon policy {policy!r}")
        dists = kernel_pairwise_distances(K)
        iu = np.triu_indices(dists.shape[0], k=1)
        if iu[0].size == 0:
            return 0.0
        return float(np.median(dists[iu]))
    return float(policy)


def if_score_vector(X, labels, params: KernelParams) -> tuple[np.ndarray, IFScoreBreakdown]:
    """Full scoring pipeline: kernel, radii, membership, non-membership, score."""
    X = as_matrix(X, "X")
    t = signed_labels(labels)
    if t.shape[0] != X.shape[0]:
        raise ConfigError(f"{t.shape[0]} labels for {X.shape[0]} samples")
    K = gaussian_kernel(X, X, params.mu)
    radii = kernel_class_radii(K, t)
    theta = kernel_membership(K, t, radii, params.delta)
    # Centroid distances can exceed the radius by rounding on the member
    # that attains the max; keep theta inside [0, 1].
    np.clip(theta, 0.0, 1.0, out=theta)
    epsilon = resolve_epsilon(K, params.epsilon)
    hetero, theta_tilde = non_membership(K, t, theta, epsilon)
    scores = np.array(
        [if_score(th, tt) for th, tt in zip(theta, theta_tilde)]
    )
    breakdown = IFScoreBreakdown(
        membership=theta,
        non_membership=theta_tilde,
        hetero_ratio=hetero,
        score=scores,
        epsilon_used=epsilon,
    )
    return scores, breakdown
