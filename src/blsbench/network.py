"""Randomized feature/enhancement groups and the concatenated state matrix.

The network maps an input matrix X through m random feature groups of p
nodes each, then projects the concatenated feature block through l random
enhancement groups of q nodes each. The column concatenation of both
blocks is the state matrix G, whose product with the output weights
scores a row.

The output-layer solver trains on the state matrix of _solved_layer's
layer: under a linear feature map of m*p > d+1 columns an equivalent layer
of one feature group of k = d+1 columns, whose state matrix has
r = k + l*q columns, not m*p + l*q; otherwise the layer itself.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .data import _check_integer, check_seed
from .errors import ConfigError, DimensionMismatch
from .linalg import _thin_qr, as_matrix

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
        for kind, known in _ACTIVATIONS.items():
            name = getattr(self, f"{kind}_activation")
            if not isinstance(name, str) or name not in known:  # a list is unhashable
                raise ConfigError(f"unknown {kind} activation {name!r}")
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


def _solved_config(cfg: NetworkConfig, input_dim: int) -> NetworkConfig:
    """The config of _solved_layer's layer on input_dim inputs: under a
    linear feature map of m*p > input_dim + 1 columns one feature group of
    k = input_dim + 1 columns and cfg's enhancement groups, else cfg itself."""
    if cfg.feature_activation != "linear" or cfg.m * cfg.p <= input_dim + 1:
        return cfg
    return dataclasses.replace(cfg, m=1, p=input_dim + 1)


def _solved_layer(layer: RandomLayer) -> tuple[RandomLayer, Optional[np.ndarray]]:
    """The layer whose state matrix U the ridge step solves on, and the
    back-map Q from its output weights to layer's; (layer, None) where
    _solved_config leaves the config as it is, and U is layer's G.

    Under a linear feature map the feature block is Z = [X 1] Wf, with Wf
    the (d+1) x m*p stack of the feature weights over their biases, so its
    rank is at most d+1. With the thin QR Wf' = Q R (Q of m*p x k with
    orthonormal columns, R of k x (d+1), k = d+1 < m*p), Z = [X 1] R' Q',
    and G = [Z H] = U diag(Q', I) for U = [[X 1] R', H]: the state matrix
    of a layer with one linear feature group, R' over its bias row, and the
    enhancement weights Q' We_j with the same biases. So the ridge solution
    on G is [Q b1; b2] for the solution b on U, b1 its first k rows
    (linalg._output_weights), and the N x m*p block Z is never formed.
    Wf' is written group by group into the array that the QR then
    overwrites with Q, so the step makes no other m*p x k array.
    """
    cfg, d = layer.config, layer.input_dim
    solved = _solved_config(cfg, d)
    if solved is cfg:
        return layer, None
    Q = np.empty((cfg.m * cfg.p, d + 1), order="F")
    for g, (W, b) in enumerate(zip(layer.feature_weights, layer.feature_biases)):
        Q[g * cfg.p:(g + 1) * cfg.p, :d] = W.T
        Q[g * cfg.p:(g + 1) * cfg.p, d] = b[0]
    R = _thin_qr(Q)
    return RandomLayer(solved, d, (R.T[:d],), (R.T[d:],),
                       tuple(Q.T @ W for W in layer.enhancement_weights),
                       layer.enhancement_biases), Q


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
