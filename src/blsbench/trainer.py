"""Model fitting and prediction for the BLS, F-BLS, and IF-BLS variants.

Fitting builds the random layer, forms the state matrix, computes the
per-sample weight vector for the chosen variant (all-ones for plain BLS),
and solves the weighted ridge problem for the output weights, picking the
primal or dual form by comparing the state width against the sample
count. Prediction replays normalization and the frozen random layer,
then takes a per-row argmax over the class columns.

fit is the validation boundary: it checks X, the labels and the feature
ranges once, then runs the private steps of the layer modules
(fuzzy._scores, if_scores._score_vector, network._forward, linalg._solve),
which trust their inputs. The weights and the solve have no other
entry; network.state_matrix, which prediction calls, is _forward behind
its checks.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, fields
from typing import Optional, Sequence, Union, get_type_hints

import numpy as np

from . import fuzzy, if_scores, linalg, network
from .errors import ClassBalanceError, ConfigError, DataFormatError, DimensionMismatch, NonFiniteInput

__all__ = [
    "VARIANTS",
    "FLAT_CASTS",
    "ModelConfig",
    "TrainedModel",
    "fit",
    "predict",
    "accuracy",
    "decision_scores",
    "save_model",
    "load_model",
]

VARIANTS = ("bls", "f-bls", "if-bls")

MODEL_FORMAT_VERSION = 1


@dataclass(frozen=True)
class ModelConfig:
    """Variant choice plus every hyperparameter the variant needs.

    delta applies to f-bls only and kernel to if-bls only; supplying
    either for the wrong variant is rejected so configs stay unambiguous.
    """

    variant: str
    network: network.NetworkConfig = field(default_factory=network.NetworkConfig)
    c_reg: float = 1.0
    delta: Optional[float] = None
    kernel: Optional[if_scores.KernelParams] = None

    def __post_init__(self):
        if self.variant not in VARIANTS:
            raise ConfigError(
                f"variant must be one of {VARIANTS}, got {self.variant!r}"
            )
        if not (np.isfinite(self.c_reg) and self.c_reg > 0):
            raise ConfigError(f"c_reg must be positive, got {self.c_reg!r}")
        if self.variant == "f-bls":
            if self.delta is None:
                object.__setattr__(self, "delta", fuzzy.DEFAULT_DELTA)
            fuzzy._check_delta(self.delta)
        elif self.delta is not None:
            raise ConfigError(f"delta is only valid for f-bls, not {self.variant}")
        if self.variant == "if-bls":
            if self.kernel is None:
                object.__setattr__(self, "kernel", if_scores.KernelParams())
        elif self.kernel is not None:
            raise ConfigError(f"kernel is only valid for if-bls, not {self.variant}")

    @classmethod
    def from_flat(cls, flat) -> "ModelConfig":
        """Build a config from flat keys: CLI flags, INI values or a grid point.

        Text values are parsed by FLAT_CASTS, missing keys take the field
        defaults, and keys that do not apply to the variant are ignored.
        """
        vals = {}
        for key, cast in FLAT_CASTS.items():
            value = flat.get(key)
            if isinstance(value, str):
                try:
                    value = cast(value)
                except ValueError:
                    raise ConfigError(f"{key} must be {cast.__name__}, got {value!r}") from None
            if value is not None:
                vals[key] = value

        def take(keys):
            return {k: vals[k] for k in keys if k in vals}

        variant = vals.get("variant")
        extra = take(("c_reg",))
        if variant == "if-bls":
            extra["kernel"] = if_scores.KernelParams(**take(_KERNEL_KEYS))
        elif variant == "f-bls":
            extra.update(take(("delta",)))
        return cls(variant, network.NetworkConfig(**take(_NETWORK_KEYS)), **extra)

    def to_flat(self) -> dict:
        """The flat keys that apply to this config's variant, with their values."""
        flat = {"variant": self.variant, "c_reg": self.c_reg, **vars(self.network)}
        if self.delta is not None:
            flat["delta"] = self.delta
        if self.kernel is not None:
            flat.update(vars(self.kernel))
        return flat

    def to_dict(self) -> dict:
        """Nested form written into model files, floats as float.hex()."""

        def group(obj):
            return None if obj is None else {k: _hex(k, v) for k, v in vars(obj).items()}

        doc = {k: _hex(k, getattr(self, k)) for k in ("variant", "c_reg", "delta")}
        return {**doc, "kernel": group(self.kernel), "network": group(self.network)}

    @classmethod
    def from_dict(cls, doc) -> "ModelConfig":
        """Inverse of to_dict, reading only the config keys of doc.

        Raises ConfigError unless to_dict writes those keys back exactly; a
        malformed doc may also raise KeyError, TypeError or ValueError.
        """
        flat = {k: doc[k] for k in ("variant", "c_reg", "delta")}
        for group in ("network", "kernel"):
            flat.update(doc[group] or {})
        cfg = cls.from_flat({
            k: float.fromhex(v) if isinstance(v, str) and v.startswith("0x") else v
            for k, v in flat.items()
        })
        # Compared as JSON, so that false does not pass for 0 nor 1.0 for 1.
        written = cfg.to_dict()
        if json.dumps(written, sort_keys=True) != json.dumps(
            {k: doc[k] for k in written}, sort_keys=True
        ):
            raise ConfigError("config fields differ from the ones a saved config has")
        return cfg


# --- flat config schema ---------------------------------------------------
#
# The flat keys are the scalar fields of ModelConfig, NetworkConfig and
# KernelParams, shared by CLI flags, --config INI files, grid points and
# gridsearch CSV columns. "delta" is ModelConfig.delta for f-bls and
# KernelParams.delta for if-bls. Each key's cast follows its annotation.


def _float_or_name(text: str):
    """A number, or else a policy name for the field's own check (epsilon)."""
    try:
        return float(text)
    except ValueError:
        return text


_CASTS = {int: int, float: float, str: str, Union[float, str]: _float_or_name}

FLAT_CASTS = {
    key: _CASTS[hint]
    for owner in (ModelConfig, network.NetworkConfig, if_scores.KernelParams)
    for key, hint in get_type_hints(owner).items()
    if hint in _CASTS
}
_NETWORK_KEYS = tuple(f.name for f in fields(network.NetworkConfig))
_KERNEL_KEYS = tuple(f.name for f in fields(if_scores.KernelParams))


def _hex(key: str, value):
    """A field's value as model files hold it: floats as float.hex()."""
    if value is None or isinstance(value, str):
        return value
    return int(value) if FLAT_CASTS[key] is int else float(value).hex()


@dataclass(frozen=True)
class NormState:
    """Per-feature min and range from the training fold."""

    feature_min: np.ndarray
    feature_range: np.ndarray

    def apply(self, X: np.ndarray) -> np.ndarray:
        rng = np.where(self.feature_range > 0.0, self.feature_range, 1.0)
        return (X - self.feature_min) / rng


@dataclass(frozen=True)
class TrainedModel:
    config: ModelConfig
    layer: network.RandomLayer
    w_out: np.ndarray
    norm_state: NormState
    class_labels: tuple[str, ...]
    solve_branch_used: str
    score_vector: np.ndarray = field(repr=False)


def _one_hot(indices: np.ndarray, n_classes: int) -> np.ndarray:
    T = np.zeros((indices.shape[0], n_classes))
    T[np.arange(indices.shape[0]), indices] = 1.0
    return T


@linalg._single_threaded_blas()
def fit(X, labels: Sequence, cfg: ModelConfig) -> TrainedModel:
    """Train one model. labels may be any strings; classes are ordered
    lexicographically and targets are one-hot rows over that order."""
    X = linalg.as_matrix(X, "X")
    labels = [str(v) for v in labels]
    if len(labels) != X.shape[0]:
        raise ConfigError(f"{len(labels)} labels for {X.shape[0]} samples")
    class_labels = tuple(sorted(set(labels)))
    if len(class_labels) < 2:
        raise ClassBalanceError("training data contains a single class")
    index_of = {c: i for i, c in enumerate(class_labels)}
    indices = np.array([index_of[v] for v in labels])

    if cfg.variant in ("f-bls", "if-bls"):
        if len(class_labels) != 2:
            raise ClassBalanceError(
                f"{cfg.variant} requires exactly 2 classes, got {len(class_labels)}"
            )
        counts = np.bincount(indices, minlength=2)
        if counts.min() < 2:
            raise ClassBalanceError(
                f"{cfg.variant} requires at least 2 samples per class"
            )

    feature_min = X.min(axis=0)
    with np.errstate(over="ignore"):
        feature_range = X.max(axis=0) - feature_min
    # A finite range keeps every normalized entry in [0, 1].
    overflow = np.flatnonzero(~np.isfinite(feature_range))
    if overflow.size:
        raise NonFiniteInput(f"X feature {overflow[0]} has a max - min range beyond float64")
    norm = NormState(feature_min=feature_min, feature_range=feature_range)
    Xn = norm.apply(X)

    # Class index 0 is the positive class, index 1 the negative class.
    signed = np.where(indices == 0, 1, -1)
    if cfg.variant == "bls":
        scores = np.ones(X.shape[0])
    elif cfg.variant == "f-bls":
        scores = fuzzy._scores(Xn, signed, cfg.delta)
    else:
        scores, _ = if_scores._score_vector(Xn, signed, cfg.kernel)

    layer = network.init_random_layer(cfg.network, X.shape[1])
    G = network._forward(layer, Xn)
    T = _one_hot(indices, len(class_labels))

    branch = "primal" if cfg.network.width <= X.shape[0] else "dual"
    w_out = linalg._solve(G, scores, T, float(cfg.c_reg), branch)

    return TrainedModel(
        config=cfg,
        layer=layer,
        w_out=np.ascontiguousarray(w_out),
        norm_state=norm,
        class_labels=class_labels,
        solve_branch_used=branch,
        score_vector=scores,
    )


@linalg._single_threaded_blas()
def decision_scores(model: TrainedModel, X_test) -> np.ndarray:
    """Raw output-layer activations, one column per class."""
    X_test = linalg.as_matrix(X_test, "X_test")
    if X_test.shape[1] != model.layer.input_dim:
        raise DimensionMismatch(
            f"X_test has {X_test.shape[1]} features, model expects {model.layer.input_dim}"
        )
    # Test values outside the training range can normalize beyond float64.
    with np.errstate(over="ignore"):
        Xn = model.norm_state.apply(X_test)
    overflow = np.flatnonzero(~np.isfinite(Xn).all(axis=0))
    if overflow.size:
        raise NonFiniteInput(f"X_test feature {overflow[0]} normalizes beyond float64")
    G = network.state_matrix(model.layer, Xn)
    return G @ model.w_out


def predict(model: TrainedModel, X_test) -> list[str]:
    """Per-row argmax class; ties break toward the lower class index."""
    scores = decision_scores(model, X_test)
    indices = np.argmax(scores, axis=1)
    return [model.class_labels[i] for i in indices]


def accuracy(model: TrainedModel, X, labels: Sequence) -> float:
    """Fraction of correctly classified rows."""
    pred = predict(model, X)
    truth = [str(v) for v in labels]
    return sum(p == t for p, t in zip(pred, truth)) / len(truth)


# --- persistence ----------------------------------------------------------
#
# Structured JSON with all floats hex-encoded (float.hex) so round-trips
# are bit-exact.


def _encode_array(a: np.ndarray) -> dict:
    a = np.asarray(a, dtype=np.float64)
    return {
        "shape": list(a.shape),
        "hex": [float(v).hex() for v in a.ravel()],
    }


def _decode_array(d: dict, shape: Optional[tuple] = None) -> np.ndarray:
    """Decode an array that must have the given shape (default: 1-D)."""
    hexes = d["hex"]
    shape = list(shape or (len(hexes),))
    if set(d) != {"shape", "hex"} or d["shape"] != shape or not isinstance(hexes, list):
        raise DataFormatError(f"array {d['shape']!r} where {shape} was expected")
    return np.array([float.fromhex(h) for h in hexes], dtype=np.float64).reshape(shape)


def save_model(model: TrainedModel, path) -> None:
    doc = {
        "format": "blsbench-model",
        "version": MODEL_FORMAT_VERSION,
        **model.config.to_dict(),
        "input_dim": model.layer.input_dim,
        "class_labels": list(model.class_labels),
        "solve_branch_used": model.solve_branch_used,
        "feature_weights": [_encode_array(w) for w in model.layer.feature_weights],
        "feature_biases": [_encode_array(b) for b in model.layer.feature_biases],
        "enhancement_weights": [_encode_array(w) for w in model.layer.enhancement_weights],
        "enhancement_biases": [_encode_array(b) for b in model.layer.enhancement_biases],
        "w_out": _encode_array(model.w_out),
        "norm_min": _encode_array(model.norm_state.feature_min),
        "norm_range": _encode_array(model.norm_state.feature_range),
        "score_vector": _encode_array(model.score_vector),
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1)
        fh.write("\n")


def load_model(path) -> TrainedModel:
    """Read a model file; a corrupt or inconsistent one raises DataFormatError."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except ValueError as exc:  # undecodable text or JSON
        raise DataFormatError(f"{path} is not a JSON model file: {exc}") from None
    if not isinstance(doc, dict) or doc.get("format") != "blsbench-model":
        raise DataFormatError(f"{path} is not a model file")
    if doc.get("version") != MODEL_FORMAT_VERSION:
        raise DataFormatError(
            f"{path}: unsupported model format version {doc.get('version')!r}"
        )
    try:
        return _model_from_doc(dict(doc))
    except (KeyError, TypeError, ValueError) as exc:  # ConfigError, DataFormatError too
        raise DataFormatError(f"{path}: bad model file: {type(exc).__name__} {exc}") from None


def _model_from_doc(doc: dict) -> TrainedModel:
    """Decode a model document, consuming its keys; any key left is unknown."""
    cfg = ModelConfig.from_dict(doc)
    for key in ("format", "version", *cfg.to_dict()):
        del doc[key]
    net, input_dim = cfg.network, doc.pop("input_dim")
    labels = doc.pop("class_labels")
    if not isinstance(labels, list) or not all(isinstance(c, str) for c in labels):
        raise DataFormatError("class_labels must be a list of strings")
    branch = doc.pop("solve_branch_used")
    if branch not in ("primal", "dual"):
        raise DataFormatError(f"unknown solve branch {branch!r}")

    def groups(key, count, shape):
        arrays = doc.pop(key)
        if not isinstance(arrays, list) or len(arrays) != count:
            raise DataFormatError(f"{key} must hold {count} groups")
        return tuple(_decode_array(d, shape) for d in arrays)

    layer = network.RandomLayer(
        config=net,
        input_dim=input_dim,
        feature_weights=groups("feature_weights", net.m, (input_dim, net.p)),
        feature_biases=groups("feature_biases", net.m, (1, net.p)),
        enhancement_weights=groups("enhancement_weights", net.l, (net.m * net.p, net.q)),
        enhancement_biases=groups("enhancement_biases", net.l, (1, net.q)),
    )
    model = TrainedModel(
        config=cfg,
        layer=layer,
        w_out=_decode_array(doc.pop("w_out"), (net.width, len(labels))),
        norm_state=NormState(
            feature_min=_decode_array(doc.pop("norm_min"), (input_dim,)),
            feature_range=_decode_array(doc.pop("norm_range"), (input_dim,)),
        ),
        class_labels=tuple(labels),
        solve_branch_used=branch,
        score_vector=_decode_array(doc.pop("score_vector")),
    )
    if doc:
        raise DataFormatError(f"unknown keys {sorted(doc)}")
    return model
