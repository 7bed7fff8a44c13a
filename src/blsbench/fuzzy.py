"""Fuzzy membership weights for binary training sets.

This module owns the radius offset delta (its default and its check) and
the membership 1 - d / (r + delta) that f-bls and if-bls share. d is a
sample's distance to its class center (input space for f-bls, kernel space
for if-bls) and r the largest d of its class, so outliers are attenuated.
trainer.fit checks its inputs and runs the f-bls step _scores directly.
"""

from __future__ import annotations

import numpy as np

from .data import _check_positive

__all__ = ["DEFAULT_DELTA"]

# The radius offset only has to keep the division finite when a class
# collapses to a point; any small positive value works.
DEFAULT_DELTA = 1e-4


def _check_delta(delta) -> None:
    """Raise ConfigError unless the radius offset is finite and positive."""
    _check_positive(delta, "delta")


def _scores(X: np.ndarray, t: np.ndarray, delta: float) -> np.ndarray:
    """Per-sample membership weights of checked samples X and +/-1 labels t,
    both classes present, from input-space distances to the class means.

    On training members the distance never exceeds the class radius, so
    every weight lies in [0, 1].
    """
    sq = np.empty(X.shape[0])
    for sign in (1, -1):
        mask = t == sign
        members = X[mask]
        sq[mask] = ((members - members.mean(axis=0)) ** 2).sum(axis=1)
    return _membership(sq, t, delta)


def _membership(sq: np.ndarray, t: np.ndarray, delta: float) -> np.ndarray:
    """1 - d / (r + delta) of squared center distances sq and +/-1 labels t;
    sqrt is monotone and correctly rounded, so no d exceeds its r."""
    dist = np.sqrt(sq)
    radius = np.where(t == 1, dist[t == 1].max(), dist[t == -1].max())
    return 1.0 - dist / (radius + delta)
