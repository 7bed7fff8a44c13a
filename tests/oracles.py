"""Scalar reference formulas the vectorized package code is checked against."""

import numpy as np

from blsbench.errors import ConfigError, InvalidKernel

# Negative radicands larger than this are an invalid kernel, not rounding.
RADICAND_TOL = 1e-12


def kernel_distance(k_rr: float, k_ll: float, k_rl: float) -> float:
    """RKHS distance between two points from their three kernel values."""
    radicand = k_rr + k_ll - 2.0 * k_rl
    if radicand < -RADICAND_TOL:
        raise InvalidKernel(
            f"negative squared kernel distance {radicand}; kernel is not PSD"
        )
    return float(np.sqrt(max(radicand, 0.0)))


def fuzzy_membership(x, label: int, geom, delta: float) -> float:
    """Membership of a single sample: 1 - dist_to_own_center / (radius + delta)."""
    if delta <= 0:
        raise ConfigError(f"delta must be positive, got {delta!r}")
    x = np.asarray(x, dtype=np.float64).ravel()
    if label == 1:
        center, radius = geom.center_pos, geom.radius_pos
    elif label == -1:
        center, radius = geom.center_neg, geom.radius_neg
    else:
        raise ConfigError(f"label must be +1 or -1, got {label!r}")
    dist = float(np.linalg.norm(x - center))
    return 1.0 - dist / (radius + delta)


def ridge_objective(G, S, T, c_reg: float, W) -> float:
    """Value of the weighted ridge objective (C/2)||S(GW - T)||^2 + ||W||^2/2."""
    resid = np.asarray(S)[:, None] * (G @ W - T)
    return 0.5 * c_reg * float(np.sum(resid * resid)) + 0.5 * float(np.sum(W * W))
