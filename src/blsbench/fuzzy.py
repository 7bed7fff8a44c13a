"""Input-space fuzzy membership weights for binary training sets.

Each training sample receives a weight in (0, 1] that decreases with its
distance to its own class center, relative to the class radius. Samples
near a center keep full influence on the output-layer fit; far-flung
samples (candidate outliers) are attenuated.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ClassBalanceError, ConfigError
from .linalg import as_matrix

__all__ = [
    "DEFAULT_DELTA",
    "ClassGeometry",
    "signed_labels",
    "class_geometry",
    "fuzzy_score_vector",
]

# The radius offset only has to keep the division finite when a class
# collapses to a point; any small positive value works.
DEFAULT_DELTA = 1e-4


@dataclass(frozen=True)
class ClassGeometry:
    """Per-class centers (means) and radii (max member distance to center)."""

    center_pos: np.ndarray
    center_neg: np.ndarray
    radius_pos: float
    radius_neg: float
    n_pos: int
    n_neg: int


def signed_labels(labels) -> np.ndarray:
    """Validate a +/-1 label sequence and return it as an int array."""
    t = np.asarray(labels)
    if t.ndim != 1:
        raise ConfigError("labels must be a flat sequence")
    t = t.astype(np.int64, casting="unsafe")
    if not np.isin(t, (-1, 1)).all():
        raise ConfigError("labels must contain only +1 and -1")
    return t


def class_geometry(X, labels) -> ClassGeometry:
    """Compute both class centers and radii from training samples."""
    return _checked_geometry(X, labels)[2]


def _checked_geometry(X, labels) -> tuple[np.ndarray, np.ndarray, ClassGeometry]:
    """Check the samples and labels once; return them with the class geometry."""
    X = as_matrix(X, "X")
    t = signed_labels(labels)
    if t.shape[0] != X.shape[0]:
        raise ConfigError(
            f"{t.shape[0]} labels for {X.shape[0]} samples"
        )
    pos = X[t == 1]
    neg = X[t == -1]
    if pos.shape[0] == 0 or neg.shape[0] == 0:
        raise ClassBalanceError("both classes must have at least one sample")
    c_pos = pos.mean(axis=0)
    c_neg = neg.mean(axis=0)
    r_pos = float(np.sqrt(((pos - c_pos) ** 2).sum(axis=1).max()))
    r_neg = float(np.sqrt(((neg - c_neg) ** 2).sum(axis=1).max()))
    return X, t, ClassGeometry(
        center_pos=c_pos,
        center_neg=c_neg,
        radius_pos=r_pos,
        radius_neg=r_neg,
        n_pos=int(pos.shape[0]),
        n_neg=int(neg.shape[0]),
    )


def fuzzy_score_vector(X, labels, delta: float = DEFAULT_DELTA) -> np.ndarray:
    """Per-sample membership weights for a full training set.

    On training members the distance never exceeds the class radius, so
    every weight lies in (0, 1].
    """
    if delta <= 0:
        raise ConfigError(f"delta must be positive, got {delta!r}")
    X, t, geom = _checked_geometry(X, labels)
    dist = np.empty(X.shape[0])
    radius = np.empty(X.shape[0])
    for sign, center, r in (
        (1, geom.center_pos, geom.radius_pos),
        (-1, geom.center_neg, geom.radius_neg),
    ):
        mask = t == sign
        dist[mask] = np.sqrt(((X[mask] - center) ** 2).sum(axis=1))
        radius[mask] = r
    return 1.0 - dist / (radius + delta)
