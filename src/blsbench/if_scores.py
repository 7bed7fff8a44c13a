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
and its diagonal is exactly 1 (pairwise_sq_dist gives the (X, X)
diagonal as 0.0). So the squared RKHS distance of samples i and j is
2 - 2 K_ij, nonnegative and zero on the diagonal as K lies in [0, 1], and
that of sample i to its class centroid is 1 + mean(K_cc) - 2 mean_j(K_ij)
over its class block K_cc.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Union

import numpy as np

from .errors import ConfigError
from .fuzzy import DEFAULT_DELTA, _check_delta, _membership
from .linalg import _sq_dist
# Unused here: bench/tracing.py times linalg calls through these bindings.
from .linalg import as_matrix, pairwise_sq_dist  # noqa: F401

__all__ = [
    "MEDIAN_HEURISTIC",
    "KernelParams",
    "IFScoreBreakdown",
]

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
        _check_delta(self.delta)
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

    Builds the kernel exp(-||x_i - x_j||^2 / mu^2) once and overwrites it
    with the RKHS distance matrix after the centroid step.
    """
    K = np.exp(-_sq_dist(X, X) / (params.mu * params.mu))
    sq = np.empty(t.shape[0])
    for sign in (1, -1):
        mask = t == sign
        n = int(mask.sum())
        block = K[np.ix_(mask, mask)]
        # A squared norm, negative only by rounding.
        sq[mask] = np.maximum(1.0 + block.sum() / (n * n) - 2.0 * (block.sum(axis=1) / n), 0.0)
    del block
    theta = _membership(sq, t, params.delta)
    # 2 - 2K in place of K.
    K *= -2.0
    K += 2.0
    dists = np.sqrt(K, out=K)
    del K
    if isinstance(params.epsilon, str):
        # Both classes are present, so there is at least one pair. The
        # median may partition the gathered copy in place.
        epsilon = float(np.median(dists[np.triu(np.ones(dists.shape, dtype=bool), k=1)],
                                  overwrite_input=True))
    else:
        epsilon = float(params.epsilon)
    # The heterogeneity ratio is the opposite-class share of the points
    # within epsilon. A sample always sits in its own neighborhood at
    # distance zero, so the denominator is never empty. It lies in [0, 1],
    # as theta does, so theta_tilde keeps the bounds of _combine.
    within = dists <= epsilon
    del dists
    different = t[:, None] != t[None, :]
    hetero = (within & different).sum(axis=1) / within.sum(axis=1)
    theta_tilde = (1.0 - theta) * hetero
    scores = _combine(theta, theta_tilde)
    return scores, IFScoreBreakdown(
        membership=theta,
        non_membership=theta_tilde,
        hetero_ratio=hetero,
        score=scores,
        epsilon_used=epsilon,
    )
