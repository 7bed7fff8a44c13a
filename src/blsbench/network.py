"""Randomized feature/enhancement groups and the concatenated state matrix.

The network maps an input matrix X through m random feature groups of p
nodes each, then projects the concatenated feature block through l random
enhancement groups of q nodes each. The column concatenation of both
blocks is the design matrix handed to the output-layer solver.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .data import _check_integer, check_seed
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


# Each activation writes its value into out when it is given, and out is then z
# itself; the same operations, and so the same bits, as a fresh result.
def _linear(z, out=None):
    return z


def _sigmoid(z, out=None):
    # exp(-z) overflows to inf for z below about -709, and 1 / (1 + inf) is the limit 0.
    with np.errstate(over="ignore"):
        e = np.exp(np.negative(z, out=out), out=out)
    return np.divide(1.0, np.add(e, 1.0, out=out), out=out)


def _relu(z, out=None):
    return np.maximum(z, 0.0, out=out)


FEATURE_ACTIVATIONS = {"linear": _linear, "tanh": np.tanh, "sigmoid": _sigmoid}
ENHANCEMENT_ACTIVATIONS = {"tanh": np.tanh, "sigmoid": _sigmoid, "relu": _relu}
_ACTIVATIONS = {"feature": FEATURE_ACTIVATIONS, "enhancement": ENHANCEMENT_ACTIVATIONS}


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
            object.__setattr__(self, name, _check_integer(
                getattr(self, name), 1, f"{name} must be an integer >= 1"))
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
        object.__setattr__(self, "input_dim", _check_input_dim(self.input_dim))


def _stages(cfg: NetworkConfig, input_dim: int) -> tuple:
    """The layer's layout on input_dim inputs, in forward order: per stage its
    name (RandomLayer holds its name_weights and name_biases, NetworkConfig its
    name_activation), stream tag, group count, and the rows and columns of each
    group's weight matrix; each bias is 1 x columns. The stream tags keep the
    stages' draws independent even when group indices collide."""
    return (("feature", 1, cfg.m, input_dim, cfg.p),
            ("enhancement", 2, cfg.l, cfg.m * cfg.p, cfg.q))


def init_random_layer(cfg: NetworkConfig, input_dim: int) -> RandomLayer:
    """Draw all weights and biases i.i.d. uniform on [-1, 1].

    Each (stream, group) pair gets its own deterministic generator derived
    from the config seed, which draws the group's weights, then its bias,
    so layouts are reproducible and groups are independent of one another.
    """
    _check_input_dim(input_dim)  # before numpy draws with it
    drawn = []
    for _, stream, groups, rows, cols in _stages(cfg, input_dim):
        rngs = [np.random.default_rng([cfg.seed, stream, g]) for g in range(groups)]
        drawn += [tuple(rng.uniform(-1.0, 1.0, size=(rows, cols)) for rng in rngs),
                  tuple(rng.uniform(-1.0, 1.0, size=(1, cols)) for rng in rngs)]
    return RandomLayer(cfg, input_dim, *drawn)


def _check_input_dim(input_dim) -> int:
    return _check_integer(input_dim, 1, "input_dim must be an integer >= 1")


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
    inputs, start = X, 0
    for name, _, _, _, cols in _stages(cfg, layer.input_dim):
        act = _ACTIVATIONS[name][getattr(cfg, f"{name}_activation")]
        for W, b in zip(getattr(layer, f"{name}_weights"), getattr(layer, f"{name}_biases")):
            block = np.matmul(inputs, W, out=G[:, start:start + cols])
            block += b
            act(block, out=block)
            start += cols
        inputs = G[:, :start]
    return G
