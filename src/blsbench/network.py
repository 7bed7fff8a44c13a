"""Randomized feature/enhancement groups and the concatenated state matrix.

The network maps an input matrix X through m random feature groups of p
nodes each, then projects the concatenated feature block through l random
enhancement groups of q nodes each. The column concatenation of both
blocks is the design matrix handed to the output-layer solver.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .data import check_seed
from .errors import ConfigError, DimensionMismatch
from .linalg import as_matrix

__all__ = [
    "FEATURE_ACTIVATIONS",
    "ENHANCEMENT_ACTIVATIONS",
    "NetworkConfig",
    "RandomLayer",
    "init_random_layer",
    "state_matrix",
]


def _linear(z):
    return z


def _sigmoid(z):
    # exp(-z) overflows to inf for z below about -709, and 1 / (1 + inf) is the limit 0.
    with np.errstate(over="ignore"):
        return 1.0 / (1.0 + np.exp(-z))


def _relu(z):
    return np.maximum(z, 0.0)


FEATURE_ACTIVATIONS = {"linear": _linear, "tanh": np.tanh, "sigmoid": _sigmoid}
ENHANCEMENT_ACTIVATIONS = {"tanh": np.tanh, "sigmoid": _sigmoid, "relu": _relu}


def _sigmoid_in_place(z):
    # _sigmoid's steps, in its order, each overwriting z.
    np.negative(z, out=z)
    with np.errstate(over="ignore"):
        np.exp(z, out=z)
    z += 1.0
    return np.divide(1.0, z, out=z)


# _forward's activations: each of the above by name, overwriting its float64
# argument with its value by the same operations, so with the same bits.
_IN_PLACE = {"linear": _linear, "tanh": lambda z: np.tanh(z, out=z),
             "sigmoid": _sigmoid_in_place, "relu": lambda z: np.maximum(z, 0.0, out=z)}


@dataclass(frozen=True)
class NetworkConfig:
    """Shape and activation choices for the random layer.

    Defaults: a linear feature map (the tuned hyperparameter grids expose
    no feature nonlinearity), a single tanh enhancement group.
    """

    m: int = 5
    p: int = 10
    l: int = 1
    q: int = 25
    feature_activation: str = "linear"
    enhancement_activation: str = "tanh"
    seed: int = 0

    def __post_init__(self):
        for name in ("m", "p", "l", "q"):
            v = getattr(self, name)
            if not isinstance(v, int) or v < 1:
                raise ConfigError(f"{name} must be an integer >= 1, got {v!r}")
        if self.feature_activation not in FEATURE_ACTIVATIONS:
            raise ConfigError(
                f"unknown feature activation {self.feature_activation!r}"
            )
        if self.enhancement_activation not in ENHANCEMENT_ACTIVATIONS:
            raise ConfigError(
                f"unknown enhancement activation {self.enhancement_activation!r}"
            )
        object.__setattr__(self, "seed", check_seed(self.seed, "seed"))

    @property
    def width(self) -> int:
        """Total column count of the state matrix: m*p + l*q."""
        return self.m * self.p + self.l * self.q


@dataclass(frozen=True)
class RandomLayer:
    """Frozen random weights; regenerating from the same config is bit-identical."""

    config: NetworkConfig
    input_dim: int
    feature_weights: tuple[np.ndarray, ...] = field(repr=False)
    feature_biases: tuple[np.ndarray, ...] = field(repr=False)
    enhancement_weights: tuple[np.ndarray, ...] = field(repr=False)
    enhancement_biases: tuple[np.ndarray, ...] = field(repr=False)

    def __post_init__(self):
        _check_input_dim(self.input_dim)


# Segment tags keep the feature and enhancement streams independent even
# when group indices collide.
_FEATURE_STREAM = 1
_ENHANCEMENT_STREAM = 2


def _group_rng(seed: int, stream: int, group: int) -> np.random.Generator:
    return np.random.default_rng([seed, stream, group])


def init_random_layer(cfg: NetworkConfig, input_dim: int) -> RandomLayer:
    """Draw all weights and biases i.i.d. uniform on [-1, 1].

    Each (stream, group) pair gets its own deterministic generator derived
    from the config seed, so layouts are reproducible and groups are
    independent of one another.
    """
    _check_input_dim(input_dim)  # before numpy draws with it
    fw, fb = [], []
    for i in range(cfg.m):
        rng = _group_rng(cfg.seed, _FEATURE_STREAM, i)
        fw.append(rng.uniform(-1.0, 1.0, size=(input_dim, cfg.p)))
        fb.append(rng.uniform(-1.0, 1.0, size=(1, cfg.p)))
    ew, eb = [], []
    for j in range(cfg.l):
        rng = _group_rng(cfg.seed, _ENHANCEMENT_STREAM, j)
        ew.append(rng.uniform(-1.0, 1.0, size=(cfg.m * cfg.p, cfg.q)))
        eb.append(rng.uniform(-1.0, 1.0, size=(1, cfg.q)))
    return RandomLayer(
        config=cfg,
        input_dim=input_dim,
        feature_weights=tuple(fw),
        feature_biases=tuple(fb),
        enhancement_weights=tuple(ew),
        enhancement_biases=tuple(eb),
    )


def _check_input_dim(input_dim) -> None:
    if not isinstance(input_dim, int) or input_dim < 1:
        raise ConfigError(f"input_dim must be an integer >= 1, got {input_dim!r}")


def state_matrix(layer: RandomLayer, X) -> np.ndarray:
    """Full forward pass: [feature groups, enhancement groups of those features].

    Every feature group maps X; every enhancement group maps the
    concatenated feature block of m*p columns.
    """
    X = as_matrix(X, "X")
    if X.shape[1] != layer.input_dim:
        raise DimensionMismatch(
            f"X has {X.shape[1]} columns, layer expects {layer.input_dim}"
        )
    return _forward(layer, X)


def _forward(layer: RandomLayer, X: np.ndarray, out=None) -> np.ndarray:
    """state_matrix of a checked X with layer.input_dim columns, written into
    out (len(X) x width, C-contiguous) when it is given.

    Each group's product is written into its block of columns, then its
    bias and activation are applied in place: the operations, and so the
    bits, of concatenating fresh blocks. The enhancement groups read the
    feature block as a view of the first m*p columns.
    """
    cfg = layer.config
    G = np.empty((X.shape[0], cfg.width)) if out is None else out
    act, mp = _IN_PLACE[cfg.feature_activation], cfg.m * cfg.p
    groups = zip(layer.feature_weights, layer.feature_biases)
    for start, (W, b) in zip(range(0, mp, cfg.p), groups):
        block = np.matmul(X, W, out=G[:, start:start + cfg.p])
        block += b
        act(block)
    act, Fm = _IN_PLACE[cfg.enhancement_activation], G[:, :mp]
    groups = zip(layer.enhancement_weights, layer.enhancement_biases)
    for start, (W, b) in zip(range(mp, cfg.width, cfg.q), groups):
        block = np.matmul(Fm, W, out=G[:, start:start + cfg.q])
        block += b
        act(block)
    return G
