import contextlib
import copy
import json
import os
import sys
import tempfile
import warnings
from functools import reduce
from operator import getitem

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from blsbench import data, if_scores, linalg, network, stats, trainer
from blsbench.errors import (
    ClassBalanceError, ConfigError, DataFormatError, DimensionMismatch, FactorizationFailure,
    NonFiniteInput,
)
from blsbench.if_scores import KernelParams
from blsbench.network import NetworkConfig
from blsbench.trainer import ModelConfig, fit, load_model, predict, save_model
from conftest import make_blobs
import oracles


def small_net(seed=0, **kw):
    defaults = dict(m=2, p=5, l=1, q=8, seed=seed)
    defaults.update(kw)
    return NetworkConfig(**defaults)


class TestModelConfig:
    def test_defaults_filled_per_variant(self):
        f = ModelConfig("f-bls", small_net())
        assert f.delta == pytest.approx(1e-4) and f.kernel is None
        i = ModelConfig("if-bls", small_net())
        assert isinstance(i.kernel, KernelParams) and i.delta is None
        b = ModelConfig("bls", small_net())
        assert b.delta is None and b.kernel is None

    def test_foreign_options_rejected(self):
        with pytest.raises(ConfigError):
            ModelConfig("bls", small_net(), delta=0.1)
        with pytest.raises(ConfigError):
            ModelConfig("f-bls", small_net(), kernel=KernelParams())

    @pytest.mark.parametrize("delta", [0.0, -1.0, np.nan, np.inf])
    def test_invalid_delta_rejected(self, delta):
        with pytest.raises(ConfigError, match="delta must be positive"):
            ModelConfig("f-bls", small_net(), delta=delta)

    @pytest.mark.parametrize("c_reg", [0.0, -1.0, np.nan, np.inf])
    def test_invalid_c_reg_rejected(self, c_reg):
        with pytest.raises(ConfigError, match="c_reg must be positive"):
            ModelConfig("bls", small_net(), c_reg=c_reg)

    def test_unknown_variant_rejected(self):
        with pytest.raises(ConfigError):
            ModelConfig("deep-bls", small_net())


class TestFit:
    @pytest.mark.parametrize("variant", trainer.VARIANTS)
    def test_separable_blobs_learned(self, variant, blobs):
        X, y = blobs
        model = fit(X, y, ModelConfig(variant, small_net()))
        assert trainer.accuracy(model, X, y) == 1.0

    def test_class_labels_sorted_lexicographically(self, blobs):
        X, y = blobs
        model = fit(X, y, ModelConfig("bls", small_net()))
        assert model.class_labels == ("a", "b")
        model2 = fit(X, y[::-1].copy(), ModelConfig("bls", small_net()))
        assert model2.class_labels == ("a", "b")

    def test_branch_rule(self, blobs):
        X, y = blobs  # 80 samples
        narrow = fit(X, y, ModelConfig("bls", small_net()))  # width 18
        assert narrow.solve_branch_used == "primal"
        wide = fit(X, y, ModelConfig("bls", small_net(m=10, p=10, q=20)))  # 120
        assert wide.solve_branch_used == "dual"

    def test_primal_fit_matches_dual_solve(self, blobs):
        # The primal branch fit takes must agree with the dual solve of the
        # same system: the model's own state matrix, weights and targets.
        X, y = blobs
        model = fit(X, y, ModelConfig("bls", small_net()))
        assert model.solve_branch_used == "primal"
        G = network.state_matrix(model.layer, model.norm_state.apply(X))
        T = np.where(np.asarray([str(v) for v in y])[:, None] == np.array(["a", "b"]), 1.0, 0.0)
        wd = linalg._solve(G, model.score_vector, T, model.config.c_reg, "dual")
        np.testing.assert_allclose(model.w_out, wd, rtol=1e-7)

    def test_deterministic_given_seed(self, blobs):
        X, y = blobs
        cfg = ModelConfig("if-bls", small_net(seed=3))
        a = fit(X, y, cfg)
        b = fit(X, y, cfg)
        np.testing.assert_array_equal(a.w_out, b.w_out)

    def test_bls_scores_are_unit(self, blobs):
        X, y = blobs
        model = fit(X, y, ModelConfig("bls", small_net()))
        np.testing.assert_array_equal(model.score_vector, 1.0)

    def test_fuzzy_scores_computed_on_normalized_features(self, blobs):
        X, y = blobs
        model = fit(X, y, ModelConfig("f-bls", small_net()))
        Xn = model.norm_state.apply(X)
        signed = np.where(np.asarray([str(v) for v in y]) == "a", 1, -1)
        expected = [oracles.fuzzy_membership(x, t, Xn, signed, delta=1e-4)
                    for x, t in zip(Xn, signed)]
        np.testing.assert_allclose(model.score_vector, expected, rtol=1e-10)

    def test_output_weights_solve_weighted_ridge(self, blobs):
        # The trained weights must equal a direct weighted ridge solve on
        # the assembled state matrix.
        X, y = blobs
        cfg = ModelConfig("f-bls", small_net(seed=5), c_reg=2.0)
        model = fit(X, y, cfg)
        Xn = model.norm_state.apply(X)
        G = network.state_matrix(model.layer, Xn)
        T = np.where(np.asarray([str(v) for v in y])[:, None] == np.array(["a", "b"]), 1.0, 0.0)
        W = linalg._solve(G, model.score_vector, T, 2.0, "primal")
        np.testing.assert_allclose(model.w_out, W, rtol=1e-8)

    @pytest.mark.parametrize("variant", trainer.VARIANTS)
    def test_rank_deficient_primal_raises_factorization_failure(self, variant, blobs_overlap):
        # 75 state columns from 2 features leave the Gram matrix singular,
        # and 1/C = 1e-100 cannot lift it.
        X, y = blobs_overlap
        with pytest.raises(FactorizationFailure, match="Cholesky factorization"):
            fit(X, y, ModelConfig(variant, NetworkConfig(), c_reg=1e100))

    def test_single_class_rejected(self):
        X = np.random.default_rng(0).normal(size=(10, 2))
        with pytest.raises(ClassBalanceError):
            fit(X, ["a"] * 10, ModelConfig("bls", small_net()))

    def test_fuzzy_variants_require_binary(self):
        rng = np.random.default_rng(0)
        X = rng.normal(size=(12, 2))
        y = ["a", "b", "c"] * 4
        with pytest.raises(ClassBalanceError):
            fit(X, y, ModelConfig("f-bls", small_net()))
        # plain variant accepts three classes
        fit(X, y, ModelConfig("bls", small_net()))

    def test_multiclass_predictions_cover_labels(self):
        rng = np.random.default_rng(1)
        X = np.vstack([rng.normal(c, 0.3, size=(15, 2)) for c in (0.0, 3.0, 6.0)])
        y = ["u"] * 15 + ["v"] * 15 + ["w"] * 15
        model = fit(X, y, ModelConfig("bls", small_net()))
        assert set(predict(model, X)) == {"u", "v", "w"}
        assert trainer.accuracy(model, X, y) == 1.0


def corrupt(X, kind, rows):
    """A copy of X with a non-finite entry, or with feature 1 spanning
    [-1e308, 1e308], whose range overflows float64, in the given rows."""
    X = X.copy()
    if kind == "overflow":
        X[rows[0], 1], X[rows[1], 1] = -1e308, 1e308
    else:
        X[rows[0], 1] = {"nan": np.nan, "+inf": np.inf, "-inf": -np.inf}[kind]
    return X


class TestInputBoundary:
    @pytest.mark.parametrize("variant", trainer.VARIANTS)
    @pytest.mark.parametrize("kind", ["nan", "+inf", "-inf", "overflow"])
    def test_fit_rejects_non_finite(self, variant, kind, blobs):
        X, y = blobs
        message = "X feature 1" if kind == "overflow" else "X contains non-finite"
        with pytest.raises(NonFiniteInput, match=message):
            fit(corrupt(X, kind, [3, 7]), y, ModelConfig(variant, small_net()))

    @pytest.mark.parametrize("variant", trainer.VARIANTS)
    @pytest.mark.parametrize("kind", ["nan", "+inf", "-inf", "overflow"])
    def test_cross_validate_rejects_non_finite(self, variant, kind, blobs):
        X, y = blobs
        plan = data.make_folds(len(y), 5, seed=0)
        # Rows in the first training fold, so that its fit sees them.
        ds = data.Dataset("bad", corrupt(X, kind, plan.train_indices(0)[:2]), y)
        with pytest.raises(NonFiniteInput):
            stats.cross_validate(ds, ModelConfig(variant, small_net()), plan)

    @pytest.mark.parametrize("variant", trainer.VARIANTS)
    def test_predict_rejects_nan_row(self, variant, blobs):
        X, y = blobs
        model = fit(X, y, ModelConfig(variant, small_net()))
        with pytest.raises(NonFiniteInput, match="X_test"):
            predict(model, corrupt(X, "nan", [5]))

    def test_decision_scores_rejects_wrong_feature_count(self, blobs):
        X, y = blobs
        model = fit(X, y, ModelConfig("bls", small_net()))
        with pytest.raises(DimensionMismatch, match="X_test has 3 features, model expects 2"):
            trainer.decision_scores(model, np.hstack([X, X[:, :1]]))

    def test_predict_names_overflowing_feature(self, blobs):
        # Feature 1 spans about 1e-300 in training, so 1e10 normalizes to
        # about 1e310.
        X, y = blobs
        X = X.copy()
        X[:, 1] *= 1e-300
        model = fit(X, y, ModelConfig("bls", small_net()))
        row = X[:1].copy()
        row[0, 1] = 1e10
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NonFiniteInput, match="X_test feature 1 normalizes beyond float64"):
                predict(model, row)

    @pytest.mark.parametrize("variant", trainer.VARIANTS)
    @pytest.mark.parametrize("net,branch", [(small_net(), "primal"),
                                            (small_net(m=10, p=10, q=20), "dual")])
    def test_fit_checks_x_once(self, variant, net, branch, blobs, monkeypatch):
        # Only the N x d input is scanned; the normalized X, the weights'
        # inputs, the state matrix G and the targets T are not.
        original, calls = linalg.as_matrix, []

        def counting(a, name="matrix"):
            calls.append((name, np.shape(a)))
            return original(a, name)

        bound = [m for n, m in list(sys.modules.items())
                 if n.startswith("blsbench.") and getattr(m, "as_matrix", None) is original]
        assert {linalg, if_scores, network} <= set(bound)
        for module in bound:
            monkeypatch.setattr(module, "as_matrix", counting)
        X, y = blobs
        model = fit(X, y, ModelConfig(variant, net))
        assert model.solve_branch_used == branch
        assert calls == [("X", X.shape)]


@contextlib.contextmanager
def outer_blas_threads(n):
    """Set every bundled OpenBLAS to n threads, as a caller of the library might."""
    controls = linalg._openblas_thread_controls()
    if not controls:
        pytest.skip("numpy and scipy bundle no OpenBLAS")
    saved = [get() for get, _ in controls]
    for _, put in controls:
        put(n)
    try:
        yield lambda: [get() for get, _ in controls]
    finally:
        for (_, put), k in zip(controls, saved):
            put(k)


class TestBlasThreads:
    def test_fit_bits_independent_of_caller_threads(self):
        # N=1200 and width 375: a primal fit whose products OpenBLAS would
        # split across 2 threads.
        X, y = make_blobs(600, [(0.0,) * 10, (0.8,) * 10], 1.0, seed=5)
        cfg = ModelConfig("bls", small_net(m=5, p=10, q=325))
        weights = []
        for n in (1, 2):
            with outer_blas_threads(n):
                model = fit(X, y, cfg)
            assert model.solve_branch_used == "primal"
            weights.append(model.w_out.tobytes())
        assert weights[0] == weights[1]

    def test_caller_thread_count_restored(self, blobs):
        X, y = blobs
        ds = data.Dataset("blobs", X, y)
        grid = stats.GridSpec(c_reg=(0.1, 10.0), m=(2,), p=(4,), q=(5,))
        with outer_blas_threads(2) as threads:
            with linalg._single_threaded_blas():
                assert threads() == [1] * len(threads())
            model = fit(X, y, ModelConfig("bls", small_net()))
            assert threads() == [2] * len(threads())
            predict(model, X)
            stats.grid_search(ds, "bls", grid, data.make_folds(ds.n_samples, 5, 0))
            assert threads() == [2] * len(threads())
            with pytest.raises(ConfigError):
                fit(X, y[:-1], ModelConfig("bls", small_net()))
            assert threads() == [2] * len(threads())


class TestNormalization:
    def test_training_features_mapped_to_unit_box(self, blobs):
        X, y = blobs
        model = fit(X, y, ModelConfig("bls", small_net()))
        Xn = model.norm_state.apply(X)
        np.testing.assert_allclose(Xn.min(axis=0), 0.0, atol=1e-12)
        np.testing.assert_allclose(Xn.max(axis=0), 1.0, atol=1e-12)

    def test_constant_feature_handled(self):
        X = np.array([[1.0, 5.0], [2.0, 5.0], [3.0, 5.0], [4.0, 5.0]])
        y = ["a", "a", "b", "b"]
        model = fit(X, y, ModelConfig("bls", small_net()))
        Xn = model.norm_state.apply(X)
        assert np.isfinite(Xn).all()


class TestPersistence:
    @pytest.mark.parametrize("variant", trainer.VARIANTS)
    def test_round_trip_bit_exact(self, variant, blobs, tmp_path):
        X, y = blobs
        model = fit(X, y, ModelConfig(variant, small_net(seed=11)))
        path = tmp_path / "model.json"
        save_model(model, path)
        loaded = load_model(path)
        np.testing.assert_array_equal(model.w_out, loaded.w_out)
        assert loaded.class_labels == model.class_labels
        a = trainer.decision_scores(model, X)
        b = trainer.decision_scores(loaded, X)
        np.testing.assert_array_equal(a, b)

    def test_file_is_json_with_format_marker(self, blobs, tmp_path):
        X, y = blobs
        model = fit(X, y, ModelConfig("bls", small_net()))
        path = tmp_path / "m.json"
        save_model(model, path)
        payload = json.loads(path.read_text())
        assert payload["format"] == "blsbench-model"
        assert payload["version"] == trainer.MODEL_FORMAT_VERSION

    def test_corrupt_payload_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"format": "something-else", "version": 1}')
        with pytest.raises(DataFormatError):
            load_model(path)

    @pytest.mark.parametrize("corrupt", [
        lambda d: d.pop("w_out"),
        lambda d: d.update(extra=1),
        lambda d: d["network"].pop("l"),
        lambda d: d.update(c_reg=None),
        lambda d: d.update(delta=d["c_reg"]),
        lambda d: d["w_out"]["hex"].__setitem__(0, "0xzz"),
        lambda d: d["feature_weights"].pop(),
        lambda d: d["w_out"].update(shape=d["w_out"]["shape"][::-1]),
        lambda d: d["norm_min"].update(shape=[1], hex=d["norm_min"]["hex"][:1]),
        lambda d: d["enhancement_biases"][0].update(shape=[1, 1], hex=["0x1p0"]),
        lambda d: d.update(class_labels=["a", 2]),
        lambda d: d.update(score_vector=None),
    ], ids=["missing-key", "unknown-key", "missing-field", "null-field", "foreign-delta",
            "bad-hex", "group-count", "w_out-shape", "norm-length", "bias-shape",
            "label-type", "null-score-vector"])
    def test_inconsistent_file_rejected(self, corrupt, tmp_path):
        path = tmp_path / "model.json"
        doc = json.loads(_tiny_model_text())
        corrupt(doc)
        path.write_text(json.dumps(doc))
        with pytest.raises(DataFormatError, match="model.json"):
            load_model(path)

    def test_nan_delta_rejected(self, blobs, tmp_path):
        X, y = blobs
        path = tmp_path / "model.json"
        save_model(fit(X, y, ModelConfig("f-bls", small_net())), path)
        doc = json.loads(path.read_text())
        load_model(path)
        doc["delta"] = "nan"
        path.write_text(json.dumps(doc))
        with pytest.raises(DataFormatError, match="delta must be positive"):
            load_model(path)

    def test_truncated_file_rejected(self, tmp_path):
        path = tmp_path / "model.json"
        path.write_text(_tiny_model_text()[:-40])
        with pytest.raises(DataFormatError, match="model.json"):
            load_model(path)

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_mutated_file_reloads_identically_or_is_rejected(self, data):
        text = _tiny_model_text()
        kind = data.draw(st.sampled_from(["truncate", "delete", "retype"]))
        if kind == "truncate":
            text = text[:data.draw(st.integers(0, len(text) - 1))]
        else:
            doc = json.loads(text)
            path = data.draw(st.sampled_from(list(_json_paths(doc))))
            parent = reduce(getitem, path[:-1], doc)
            if kind == "delete":
                del parent[path[-1]]
            else:
                old = parent[path[-1]]
                parent[path[-1]] = data.draw(
                    _JSON_VALUES.filter(lambda v: type(v) is not type(old)))
            text = json.dumps(doc)
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "model.json")
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(text)
            try:
                loaded = load_model(path)
            except DataFormatError:
                return
        # Only edits that keep the content (a dropped trailing newline, 1 -> 1.0)
        # may load, and then to the same model.
        original = _tiny_model()
        assert loaded.config == original.config
        assert loaded.class_labels == original.class_labels
        assert loaded.solve_branch_used == original.solve_branch_used
        for name in ("feature_weights", "feature_biases", "enhancement_weights",
                     "enhancement_biases"):
            for a, b in zip(getattr(loaded.layer, name), getattr(original.layer, name)):
                np.testing.assert_array_equal(a, b)
        np.testing.assert_array_equal(loaded.w_out, original.w_out)
        np.testing.assert_array_equal(loaded.norm_state.feature_min, original.norm_state.feature_min)
        np.testing.assert_array_equal(loaded.norm_state.feature_range,
                                      original.norm_state.feature_range)
        np.testing.assert_array_equal(loaded.score_vector, original.score_vector)


_JSON_VALUES = st.one_of(
    st.none(), st.booleans(), st.integers(-2, 3), st.floats(-2.0, 2.0), st.text(max_size=4),
    st.lists(st.integers(0, 3), max_size=2),
    st.dictionaries(st.text(max_size=2), st.integers(0, 3), max_size=2),
)


def _json_paths(node, prefix=()):
    """Key paths to every value below the root of a JSON document."""
    items = node.items() if isinstance(node, dict) else enumerate(node) if isinstance(node, list) else ()
    for key, child in items:
        yield prefix + (key,)
        yield from _json_paths(child, prefix + (key,))


_TINY = {}


def _tiny_model():
    """A small if-bls model with a float epsilon, so every config field is set."""
    if "model" not in _TINY:
        X = np.array([[0.0, 0.1], [0.2, 0.0], [0.1, 0.3], [2.0, 2.1], [2.2, 1.9], [1.8, 2.0]])
        y = ["a", "a", "a", "b", "b", "b"]
        cfg = ModelConfig("if-bls", NetworkConfig(m=1, p=2, l=1, q=2, seed=1),
                          c_reg=0.5, kernel=KernelParams(mu=0.5, epsilon=0.25))
        _TINY["model"] = fit(X, y, cfg)
    return _TINY["model"]


def _tiny_model_text():
    if "text" not in _TINY:
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "model.json")
            save_model(_tiny_model(), path)
            with open(path, encoding="utf-8") as fh:
                _TINY["text"] = fh.read()
    return _TINY["text"]
