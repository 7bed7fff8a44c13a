"""Model fitting and prediction for the BLS, F-BLS, and IF-BLS variants.

Fitting builds the random layer, forms the state matrix, computes the
per-sample weight vector for the chosen variant (all-ones for plain BLS),
and solves the weighted ridge problem for the output weights, picking the
primal or dual form by comparing the width r of the matrix it solves on
against the sample count. Under a linear feature map of m*p > d+1 columns
that matrix is the state matrix of network._solved_layer's equivalent
layer, r = k + l*q with k = d+1, and its solution is mapped back to the
network's m*p + l*q output weights; otherwise it is the state matrix
itself, r = m*p + l*q. Prediction replays normalization and the frozen
random layer, then takes a per-row argmax over the class columns.

fit is the validation boundary: it checks X, the labels and the feature
ranges once (_prepare), then runs the private steps of the layer modules
(fuzzy._scores, if_scores._score_vector, network._solved_layer,
network._forward, linalg._gram, linalg._output_weights), which trust
their inputs. decision_scores is _test_rows, its checks of X_test, then
network._forward.

fit is _prepare, _sample_weights, then _states and the ridge step
linalg._output_weights for one C, in the buffers of a _scratch sized for
its network. stats' cross-validation engine runs the same steps, each at
the level where it varies: _prepare, _test_rows and _sample_weights once
per fold and weighting of a run; _states once per network and fold,
drawing the layer and its solved layer on the network's first; and the
ridge step once per weighting, for all its C values; in the buffers of
one _scratch sized for its largest network. So fit and every fold write
the N x r state matrix, the system of order min(r, N) and the factor
copies into buffers of linalg._buffer_sizes' layout, which one memory
model counts (_network_bytes), with a fold's test state matrix.
"""

from __future__ import annotations

import json
import os
import re
from dataclasses import dataclass, field, fields
from typing import Optional, Sequence, Union, get_type_hints

import numpy as np

from . import fuzzy, if_scores, linalg, network
from .data import _check_positive
from .errors import (ClassBalanceError, ConfigError, DataFormatError, DimensionMismatch,
                     NonFiniteInput)

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
        _check_positive(self.c_reg, "c_reg")
        if np.isinf(1.0 / float(self.c_reg)):  # the solve adds 1/C to the diagonal
            raise ConfigError(f"c_reg must have a finite reciprocal, got {self.c_reg!r}")
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
    score_vector: np.ndarray = field(repr=False)
    solve_branch_used: str  # the system fit solved: "primal" or "dual"


def _solve_branch(width: int, n_samples: int) -> str:
    """Solve the smaller system on an N x width state matrix: primal is
    width x width, dual is N x N."""
    return "primal" if width <= n_samples else "dual"


def _solve_branches(net: network.NetworkConfig, input_dim: int, n_samples: int) -> list:
    """The branches that a model file of net on n_samples training rows may
    hold: the one fit solves, on the solved layer's width, then the one a
    fit before the low-rank ridge step solved, on the full width, where
    that differs."""
    widths = (network._solved_config(net, input_dim).width, net.width)
    return list(dict.fromkeys(_solve_branch(w, n_samples) for w in widths))


def _classes(labels, variant: str) -> tuple[str, ...]:
    """The classes of fit and of a model file: the sorted distinct labels,
    at least 2, and exactly 2 for f-bls and if-bls."""
    classes = tuple(sorted(set(labels)))
    if len(classes) < 2:
        raise ClassBalanceError("training data contains a single class")
    if variant != "bls" and len(classes) != 2:
        raise ClassBalanceError(f"{variant} requires exactly 2 classes, got {len(classes)}")
    return classes


def _prepare(X, labels: Sequence, variant: str):
    """fit's checks of its training data, then its normalization.

    Returns the normalized X, its NormState, the classes and each row's
    class index. Class index 0 is the positive class of f-bls and if-bls.
    """
    X = linalg.as_matrix(X, "X")
    labels = [str(v) for v in labels]
    if len(labels) != X.shape[0]:
        raise ConfigError(f"{len(labels)} labels for {X.shape[0]} samples")
    class_labels = _classes(labels, variant)
    index_of = {c: i for i, c in enumerate(class_labels)}
    indices = np.array([index_of[v] for v in labels])

    if variant != "bls" and np.bincount(indices).min() < 2:
        raise ClassBalanceError(f"{variant} requires at least 2 samples per class")

    feature_min = X.min(axis=0)
    with np.errstate(over="ignore"):
        feature_range = X.max(axis=0) - feature_min
    # A finite range keeps every normalized entry in [0, 1].
    overflow = np.flatnonzero(~np.isfinite(feature_range))
    if overflow.size:
        raise NonFiniteInput(f"X feature {overflow[0]} has a max - min range beyond float64")
    norm = NormState(feature_min=feature_min, feature_range=feature_range)
    return norm.apply(X), norm, class_labels, indices


def _sample_weights(Xn: np.ndarray, indices: np.ndarray, cfg: ModelConfig) -> np.ndarray:
    """The variant's per-sample weights of _prepare's normalized rows and class indices."""
    if cfg.variant == "bls":
        return np.ones(Xn.shape[0])
    signed = np.where(indices == 0, 1, -1)
    if cfg.variant == "f-bls":
        return fuzzy._scores(Xn, signed, cfg.delta)
    return if_scores._score_vector(Xn, signed, cfg.kernel)[0]


def _test_rows(norm: NormState, input_dim: int, X_test) -> np.ndarray:
    """decision_scores' checks of its rows, then their normalization."""
    X_test = linalg.as_matrix(X_test, "X_test")
    if X_test.shape[1] != input_dim:
        raise DimensionMismatch(
            f"X_test has {X_test.shape[1]} features, model expects {input_dim}"
        )
    # Test values outside the training range can normalize beyond float64.
    with np.errstate(over="ignore"):
        Xn = norm.apply(X_test)
    overflow = np.flatnonzero(~np.isfinite(Xn).all(axis=0))
    if overflow.size:
        raise NonFiniteInput(f"X_test feature {overflow[0]} normalizes beyond float64")
    return Xn


def _network_bytes(n: int, d: int, net: network.NetworkConfig, n_test: int = 0) -> int:
    """The bytes of net's layer on d inputs, of the layer the ridge step
    solves on and its back-map Q (network._solved_layer) where they are
    new arrays, of the ridge step's buffers on n rows, and of the state
    matrix of n_test test rows that a cross-validation fold scores."""
    solved = network._solved_config(net, d)
    layers = [net] if solved is net else [net, solved]
    elements = n_test * net.width + sum(groups * (rows + 1) * cols for cfg in layers
                                        for *_, groups, rows, cols in network._stages(cfg, d))
    back = 0 if solved is net else net.m * net.p * solved.p
    return 8 * (elements + back + sum(linalg._buffer_sizes(n, solved.width).values()))


def _scratch(runs) -> dict:
    """linalg._buffer's scratch for the (n, d, net) runs of a network on n
    training rows of d features: per key one flat array, as long as the
    largest run that fits in memory on its training rows needs. Every key
    grows with the width r of the solved state matrix, across branches too,
    so together they hold what the widest such network needs on the most
    rows. A run that fails its check in _states raises before it writes."""
    sizes: dict = {}
    for n, d, net in runs:
        if _network_bytes(n, d, net) <= linalg._physical_memory():
            r = network._solved_config(net, d).width
            for key, size in linalg._buffer_sizes(n, r).items():
                sizes[key] = max(sizes.get(key, 0), size)
    return {key: np.empty(size) for key, size in sizes.items()}


def _states(net: network.NetworkConfig, layers, Xn: np.ndarray, scratch: dict,
            n_test: int = 0) -> tuple:
    """net's memory check on the rows Xn and n_test test rows, a ConfigError
    before anything is drawn when _network_bytes exceed physical memory;
    then its layers (drawn unless given): the layer, and the layer the ridge
    step solves on with its back-map (network._solved_layer); the solved
    layer's state matrix U of Xn in scratch["state"] and, on the dual, U U'
    in scratch["system"]: (layers, U, U U' or None on the primal)."""
    n, d = Xn.shape
    linalg._check_memory(_network_bytes(n, d, net, n_test),
                         f"network m={net.m}, p={net.p}, l={net.l}, q={net.q} on {n} rows")
    if layers is None:
        layer = network.init_random_layer(net, d)
        layers = (layer, *network._solved_layer(layer))
    width = layers[1].config.width
    U = network._forward(layers[1], Xn, linalg._buffer(scratch, "state", (n, width)))
    return layers, U, None if _solve_branch(width, n) == "primal" else linalg._gram(U, scratch)


@linalg._single_threaded_blas()
def fit(X, labels: Sequence, cfg: ModelConfig) -> TrainedModel:
    """Train one model. labels may be any strings; classes are ordered
    lexicographically and targets are one-hot rows over that order."""
    Xn, norm, class_labels, indices = _prepare(X, labels, cfg.variant)
    scores = _sample_weights(Xn, indices, cfg)
    scratch = _scratch([(*Xn.shape, cfg.network)])
    (layer, _, back), U, gram = _states(cfg.network, None, Xn, scratch)
    (w_out,) = linalg._output_weights(U, gram, scores, np.eye(len(class_labels))[indices],
                                      [cfg.c_reg], scratch, back)
    return TrainedModel(cfg, layer, w_out, norm, class_labels, scores,
                        "primal" if gram is None else "dual")


@linalg._single_threaded_blas()
def decision_scores(model: TrainedModel, X_test) -> np.ndarray:
    """Raw output-layer activations, one column per class."""
    Xn = _test_rows(model.norm_state, model.layer.input_dim, X_test)
    return network._forward(model.layer, Xn) @ model.w_out


def predict(model: TrainedModel, X_test) -> list[str]:
    """Per-row argmax class; ties break toward the lower class index."""
    scores = decision_scores(model, X_test)
    indices = np.argmax(scores, axis=1)
    return [model.class_labels[i] for i in indices]


def accuracy(model: TrainedModel, X, labels: Sequence) -> float:
    """Fraction of correctly classified rows, one label a row."""
    pred = predict(model, X)
    truth = [str(v) for v in labels]
    if len(truth) != len(pred):
        raise ConfigError(f"{len(truth)} labels for {len(pred)} samples")
    if not truth:
        raise ConfigError("accuracy needs at least one sample")
    return sum(p == t for p, t in zip(pred, truth)) / len(truth)


# --- persistence ----------------------------------------------------------
#
# _document is the one statement of the model-file format. Floats are written
# as float.hex() so round trips are bit-exact. load_model accepts a file only
# if the decoded model's document matches it: arrays by their shape as
# written, everything else as JSON. What that comparison cannot see has one
# owner each: _classes, _model_from_doc's finite check and its check of
# solve_branch_used against _solve_branches, _check_score_vector.


def _hex(key: str, value):
    """A field's value as model files hold it: floats as float.hex()."""
    if value is None or isinstance(value, str):
        return value
    return int(value) if FLAT_CASTS[key] is int else float(value).hex()


def _document(model: TrainedModel) -> dict:
    """A model file's content, its arrays still numpy arrays."""
    cfg = model.config

    def group(obj):
        return None if obj is None else {k: _hex(k, v) for k, v in vars(obj).items()}

    return {
        "format": "blsbench-model",
        "version": MODEL_FORMAT_VERSION,
        **{k: _hex(k, getattr(cfg, k)) for k in ("variant", "c_reg", "delta")},
        "kernel": group(cfg.kernel),
        "network": group(cfg.network),
        "input_dim": model.layer.input_dim,
        "class_labels": list(model.class_labels),
        "solve_branch_used": model.solve_branch_used,
        **{f"{name}_{part}": getattr(model.layer, f"{name}_{part}")
           for name, *_ in network._stages(cfg.network, model.layer.input_dim)
           for part in ("weights", "biases")},
        "w_out": model.w_out,
        "norm_min": model.norm_state.feature_min,
        "norm_range": model.norm_state.feature_range,
        "score_vector": model.score_vector,
    }


# An array's stand-in in save_model's layout: a "hex" list holding the array's
# index, and the indent of its items. A JSON string holds no raw newline, so
# no other text matches.
_HEX_SLOT = re.compile(r'"hex": \[\n( +)(\d+)\n')


def save_model(model: TrainedModel, path) -> None:
    """Write _document as json.dump(indent=1) does, arrays as {"shape", "hex"}.

    json's indenting encoder is pure Python, so it lays out the document
    with each array's hex list standing in as its index, and the list's
    items are written in joins of 4096.
    """
    arrays = []

    def stand_in(a):
        arrays.append(a.ravel())
        return {"shape": list(a.shape), "hex": [len(arrays) - 1] if a.size else []}

    parts = _HEX_SLOT.split(json.dumps(_document(model), indent=1, default=stand_in))
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(parts[0])
        for pad, index, rest in zip(parts[1::3], parts[2::3], parts[3::3]):
            values, sep = arrays[int(index)], f'",\n{pad}"'
            fh.write(f'"hex": [\n{pad}"')
            for start in range(0, values.size, 4096):
                fh.write((sep if start else "")
                         + sep.join(map(float.hex, values[start:start + 4096].tolist())))
            fh.write(f'"\n{rest}')
        fh.write("\n")


def load_model(path) -> TrainedModel:
    """Read a model file; raise DataFormatError unless saving the decoded model
    writes the same document, up to how array hex values are spelled, and
    its values pass the rules the comparison cannot see."""
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
        model = _model_from_doc(doc)
        built = _document(model)
        for key in sorted(doc.keys() | built.keys()):
            found, written = _as_json(doc, key), _as_json(built, key)
            if found != written:  # quote both from 40 characters before they differ
                at = max(0, len(os.path.commonprefix((found, written))) - 40)
                raise DataFormatError(
                    f"{key} is {_cut(found, at)} where saving the model writes {_cut(written, at)}"
                )
        _check_score_vector(model)
    except DataFormatError as exc:  # names its key
        raise DataFormatError(f"{path}: bad model file: {exc}") from None
    except (KeyError, OverflowError, TypeError, ValueError) as exc:  # ConfigError too
        raise DataFormatError(f"{path}: bad model file: {type(exc).__name__} {exc}") from None
    return model


def _as_json(doc: dict, key: str) -> str:
    """doc[key] as JSON, arrays reduced to their shape."""
    if key not in doc:
        return "missing"
    return json.dumps(doc[key], sort_keys=True, default=lambda a: {"shape": list(a.shape)})


def _cut(text: str, start: int) -> str:
    """117 characters of text from start, with "..." where either end is cut."""
    end = start + 117
    return ("..." if start else "") + text[start:end] + ("..." if end < len(text) else "")


def _model_from_doc(doc: dict) -> TrainedModel:
    """The model a document decodes to, each array in the shape that the
    config, input_dim and the classes give it (the layer's by
    network._stages), and its solve_branch_used one of _solve_branches, so
    a file written before the low-rank ridge step keeps the branch it
    holds. Decoding takes each array's "hex" list out of doc, leaving what
    load_model compares."""
    flat = {k: doc[k] for k in ("variant", "c_reg", "delta")}
    for group in ("network", "kernel"):
        flat.update(doc[group] if isinstance(doc[group], dict) else {})
    cfg = ModelConfig.from_flat({
        k: _fromhex(k, v) if isinstance(v, str) and v.startswith("0x") else v
        for k, v in flat.items()
    })
    net, input_dim = cfg.network, doc["input_dim"]
    try:
        labels = _classes([str(c) for c in doc["class_labels"]], cfg.variant)
    except (TypeError, ClassBalanceError) as exc:
        raise DataFormatError(f"class_labels: {exc}") from None

    def arrays(key, shape, count=None):
        """doc[key] as one array, or as a tuple of count arrays."""
        try:
            out = []
            for d in [doc[key]] if count is None else [doc[key][i] for i in range(count)]:
                hexes = d.pop("hex")
                if not isinstance(hexes, list):
                    raise TypeError(f"hex is a {type(hexes).__name__}")
                out.append(np.array(list(map(float.fromhex, hexes))).reshape(shape))
        except (AttributeError, LookupError, OverflowError, TypeError, ValueError) as exc:
            raise DataFormatError(f"{key}: {type(exc).__name__} {exc}") from None
        if not all(np.isfinite(a).all() for a in out):
            raise DataFormatError(f"{key} holds a non-finite value")
        return out[0] if count is None else tuple(out)

    layer = network.RandomLayer(net, input_dim, *(
        arrays(f"{name}_{part}", shape, groups)
        for name, _, groups, rows, cols in network._stages(net, input_dim)
        for part, shape in (("weights", (rows, cols)), ("biases", (1, cols)))))
    score_vector = arrays("score_vector", (-1,))
    branch, branches = doc["solve_branch_used"], _solve_branches(
        net, input_dim, score_vector.shape[0])
    if branch not in branches:
        raise DataFormatError(f"solve_branch_used is {json.dumps(branch)} where fit solves "
                              + " or ".join(map(json.dumps, branches)))
    return TrainedModel(
        config=cfg,
        layer=layer,
        w_out=arrays("w_out", (net.width, len(labels))),
        norm_state=NormState(arrays("norm_min", (input_dim,)), arrays("norm_range", (input_dim,))),
        class_labels=labels,
        score_vector=score_vector,
        solve_branch_used=branch,
    )


def _fromhex(key: str, text: str) -> float:
    """A config float's float.fromhex, its errors naming the key as array errors do."""
    try:
        return float.fromhex(text)
    except (OverflowError, ValueError) as exc:
        raise DataFormatError(f"{key}: {type(exc).__name__} {exc}") from None


def _check_score_vector(model: TrainedModel) -> None:
    """The rule for the weights fit writes: one per training row, and fit
    trains on at least one row per class (two for f-bls and if-bls); each
    weight is 1.0 for bls and lies in [0, 1] otherwise."""
    scores, variant = model.score_vector, model.config.variant
    least = len(model.class_labels) * (1 if variant == "bls" else 2)
    if scores.shape[0] < least:
        raise DataFormatError(
            f"score_vector has {scores.shape[0]} weights; {variant} trains on at least {least} rows")
    if variant == "bls" and not (scores == 1.0).all():
        raise DataFormatError("score_vector holds a weight other than 1.0, which bls never writes")
    if not ((scores >= 0.0) & (scores <= 1.0)).all():
        raise DataFormatError("score_vector holds a weight outside [0, 1]")
