"""Input-space fuzzy membership weights for binary training sets.

Each training sample receives a weight in (0, 1] that decreases with its
distance to its own class center, relative to the class radius. Samples
near a center keep full influence on the output-layer fit; far-flung
samples (candidate outliers) are attenuated.
"""

from __future__ import annotations

import numpy as np

from .errors import ClassBalanceError, ConfigError
from .linalg import as_matrix

__all__ = [
    "DEFAULT_DELTA",
    "signed_labels",
    "fuzzy_score_vector",
]

# The radius offset only has to keep the division finite when a class
# collapses to a point; any small positive value works.
DEFAULT_DELTA = 1e-4


def signed_labels(labels) -> np.ndarray:
    """Validate a +/-1 label sequence and return it as an int array."""
    t = np.asarray(labels)
    if t.ndim != 1:
        raise ConfigError("labels must be a flat sequence")
    t = t.astype(np.int64, casting="unsafe")
    if not np.isin(t, (-1, 1)).all():
        raise ConfigError("labels must contain only +1 and -1")
    return t


def fuzzy_score_vector(X, labels, delta: float = DEFAULT_DELTA) -> np.ndarray:
    """Per-sample membership weights for a full training set.

    On training members the distance never exceeds the class radius, so
    every weight lies in (0, 1].
    """
    if delta <= 0:
        raise ConfigError(f"delta must be positive, got {delta!r}")
    X = as_matrix(X, "X")
    t = signed_labels(labels)
    if t.shape[0] != X.shape[0]:
        raise ConfigError(f"{t.shape[0]} labels for {X.shape[0]} samples")
    return _scores(X, t, delta)


def _scores(X: np.ndarray, t: np.ndarray, delta: float) -> np.ndarray:
    """fuzzy_score_vector of checked samples X and +/-1 labels t."""
    dist = np.empty(X.shape[0])
    radius = np.empty(X.shape[0])
    for sign in (1, -1):
        mask = t == sign
        members = X[mask]
        if members.shape[0] == 0:
            raise ClassBalanceError("both classes must have at least one sample")
        d = np.sqrt(((members - members.mean(axis=0)) ** 2).sum(axis=1))
        dist[mask] = d
        # sqrt is monotone and correctly rounded, so the radius equals the
        # square root of the largest squared distance exactly.
        radius[mask] = d.max()
    return 1.0 - dist / (radius + delta)
