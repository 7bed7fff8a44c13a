import contextlib
import copy
import dataclasses
import json
import os
import subprocess
import sys
import tempfile
import tracemalloc
import warnings
from functools import reduce
from operator import getitem
from pathlib import Path

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
from conftest import make_blobs, outer_blas_threads, solve, solves_in_bundle
import oracles


def small_net(seed=0, **kw):
    defaults = dict(m=2, p=5, l=1, q=8, seed=seed)
    defaults.update(kw)
    return NetworkConfig(**defaults)


def solved_width(net, d=2):
    """The width r of the state matrix the ridge step solves on for net on d
    inputs: k + l*q with k = min(m*p, d+1) under a linear feature map."""
    return network._solved_config(net, d).width


# A dual network on the 80 rows of blobs: r = 3 + 80 columns.
DUAL = small_net(m=20, p=5, q=80)


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

    @pytest.mark.parametrize("delta", [0.0, -1.0, np.nan, np.inf, True, "0.1"])
    def test_invalid_delta_rejected(self, delta):
        with pytest.raises(ConfigError, match="delta must be positive"):
            ModelConfig("f-bls", small_net(), delta=delta)

    @pytest.mark.parametrize("c_reg", [0.0, -1.0, np.nan, np.inf, True, "1", None,
                                       pytest.param(10**400, id="int-beyond-float64"),
                                       pytest.param(-10**400, id="negative-int-beyond-float64")])
    def test_invalid_c_reg_rejected(self, c_reg):
        with pytest.raises(ConfigError, match="c_reg must be positive"):
            ModelConfig("bls", small_net(), c_reg=c_reg)

    @pytest.mark.parametrize("c_reg", [2.0**-1024, 1e-320, 5e-324])
    def test_c_reg_with_infinite_reciprocal_rejected(self, c_reg):
        # The solve adds 1/C to the diagonal; at C <= 2**-1024 that is inf.
        with pytest.raises(ConfigError, match="c_reg must have a finite reciprocal"):
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
        # The branch follows the width of the matrix solved on: under a linear
        # feature map d + 1 + q columns of 2 features, else m p + q.
        X, y = blobs  # 80 samples
        narrow = fit(X, y, ModelConfig("bls", small_net()))  # solved width 11
        assert narrow.solve_branch_used == "primal"
        reduced = fit(X, y, ModelConfig("bls", small_net(m=10, p=10, q=20)))  # width 120, r 23
        assert reduced.solve_branch_used == "primal"
        wide = fit(X, y, ModelConfig("bls", small_net(m=10, p=10, q=80)))  # width 180, r 83
        assert wide.solve_branch_used == "dual"
        tanh = fit(X, y, ModelConfig("bls", small_net(m=10, p=10, q=20,
                                                      feature_activation="tanh")))  # 120
        assert tanh.solve_branch_used == "dual"

    def test_primal_fit_matches_dual_solve(self, blobs):
        # The primal branch fit takes must agree with the dual solve of the
        # same system: the model's own state matrix, weights and targets.
        X, y = blobs
        model = fit(X, y, ModelConfig("bls", small_net()))
        assert model.solve_branch_used == "primal"
        G = network.state_matrix(model.layer, model.norm_state.apply(X))
        T = np.where(np.asarray([str(v) for v in y])[:, None] == np.array(["a", "b"]), 1.0, 0.0)
        wd = solve(G, model.score_vector, T, model.config.c_reg, "dual")
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
        W = solve(G, model.score_vector, T, 2.0, "primal")
        np.testing.assert_allclose(model.w_out, W, rtol=1e-8)

    @pytest.mark.parametrize("variant", trainer.VARIANTS)
    def test_rank_deficient_primal_raises_factorization_failure(self, variant, blobs_overlap):
        # 93 solved state columns from 2 features (3 linear and 90 tanh) leave
        # the Gram matrix of 100 rows singular, and 1/C = 1e-100 cannot lift it.
        X, y = blobs_overlap
        net = NetworkConfig(q=90)
        assert trainer._solve_branch(solved_width(net), len(y)) == "primal"
        with pytest.raises(FactorizationFailure, match="Cholesky factorization"):
            fit(X, y, ModelConfig(variant, net, c_reg=1e100))

    def test_oversized_network_refused_before_drawing(self, blobs, monkeypatch):
        def draw(*args):
            raise AssertionError("init_random_layer was called")

        monkeypatch.setattr(network, "init_random_layer", draw)
        X, y = blobs
        with pytest.raises(ConfigError, match=(
                r"^network m=100000, p=100000, l=1, q=25 on 80 rows needs about "
                r"\S+ GiB; this machine has \S+ GiB$")):
            fit(X, y, ModelConfig("bls", NetworkConfig(m=100000, p=100000)))

    @pytest.mark.parametrize("branch,net", [("primal", small_net()), ("dual", DUAL)])
    def test_memory_estimate_is_the_refusal_bound(self, branch, net, blobs, monkeypatch):
        # 8 bytes x (layer weights and biases + the solved layer's, k x (d + 1)
        # and (k + 1) x q, and its m p x k back-map Q + the solved state matrix
        # of r = k + q columns, the system and the factor copy: S^2 U then the
        # r x r copy on the primal, N x N each on the dual), against page size
        # x pages.
        X, y = blobs
        n, d, mp = X.shape[0], X.shape[1], net.m * net.p
        k = min(mp, d + 1)
        r = k + net.l * net.q
        assert trainer._solve_branch(r, n) == branch
        arrays = 2 * n * r + r * r if branch == "primal" else n * r + 2 * n * n
        solved = k * (d + 1) + net.l * net.q * (k + 1) + mp * k
        need = 8 * (mp * (d + 1) + net.l * net.q * (mp + 1) + solved + arrays)
        for l in (1, 2):  # the layer term is the element count of the drawn arrays
            layer = network.init_random_layer(dataclasses.replace(net, l=l), d)
            drawn = (*layer.feature_weights, *layer.feature_biases,
                     *layer.enhancement_weights, *layer.enhancement_biases)
            assert sum(a.size for a in drawn) == mp * (d + 1) + l * net.q * (mp + 1)
        for pages, refused in ((need, False), (need - 1, True)):
            monkeypatch.setattr(os, "sysconf", lambda key: {"SC_PAGE_SIZE": 1,
                                                             "SC_PHYS_PAGES": pages}[key])
            with pytest.raises(ConfigError) if refused else contextlib.nullcontext():
                fit(X, y, ModelConfig("bls", net))

    @pytest.mark.parametrize("branch,net", [("primal", small_net()), ("dual", DUAL)])
    def test_every_c_solved_from_one_unchanged_system(self, branch, net, blobs, monkeypatch):
        # No per-C copy of A: the solve leaves A as it is, so the memory
        # estimate's system and factor buffers are A (the dual's G G') and the
        # scaled copy that the factorization overwrites.
        solve_system, systems = linalg._solve_system, []

        def recording(A, *args):
            systems.append((A, A.copy()))
            return solve_system(A, *args)

        X, y = blobs
        c_regs = [0.1, 1.0, 10.0]
        cfg = ModelConfig("f-bls", net)
        Xn, _, classes, indices = trainer._prepare(X, y, cfg.variant)
        s = trainer._sample_weights(Xn, indices, cfg)
        monkeypatch.setattr(linalg, "_solve_system", recording)
        scratch = trainer._scratch([(*Xn.shape, net, 0)])
        with linalg._single_threaded_blas():
            (_, _, back), U, gram, _ = trainer._states(net, None, Xn, scratch)
            weights = linalg._output_weights(U, gram, s, np.eye(len(classes))[indices], c_regs,
                                             scratch, back)
        assert trainer._solve_branch(solved_width(net), len(y)) == branch
        assert len(systems) == len(c_regs)
        A, before = systems[0]
        assert all(a is A and np.array_equal(seen, before) for a, seen in systems)
        assert np.array_equal(A, before)
        for c_reg, w_out in zip(c_regs, weights):
            assert np.array_equal(w_out, fit(X, y, ModelConfig("f-bls", net, c_reg=c_reg)).w_out)

    @pytest.mark.parametrize("variant", trainer.VARIANTS)
    @pytest.mark.parametrize("branch,net", [
        ("primal", small_net()), ("dual", DUAL),
        ("primal", small_net(m=1, p=3)),  # m p <= d + 1: k = m p
        ("dual", small_net(m=10, p=10, q=20, feature_activation="tanh"))])
    def test_fit_is_the_fresh_array_composition_bit_for_bit(self, variant, branch, net, blobs):
        # fit writes its steps into buffers and on the dual scales its factor
        # copy of U U' by S^2; the reference writes each step into a fresh array
        # and solves through scipy.linalg.
        X, y = blobs
        assert trainer._solve_branch(solved_width(net), len(y)) == branch
        cfg = ModelConfig(variant, net)
        assert np.array_equal(fit(X, y, cfg).w_out, oracles.fit_w_out(X, y, cfg))

    @pytest.mark.parametrize("variant", ["bls", "f-bls"])
    @pytest.mark.parametrize("branch,net,d", [("primal", NetworkConfig(m=10, p=30, q=600), 10),
                                              ("dual", NetworkConfig(m=21, p=50, q=900), 10),
                                              ("primal", NetworkConfig(m=12, p=500, q=5), 130)],
                             ids=["primal-net0", "dual-net1", "primal-wide-feature-map"])
    def test_peak_memory_is_the_memory_estimate(self, variant, branch, net, d):
        # fit writes what its memory check counts: its peak is _network_bytes,
        # plus 3% for the vectors, the K-column arrays and numpy's ufunc
        # buffers (about 200 kB on a column block of the state matrix), plus
        # the N x d normalized rows. 800 rows of 10 features, solved on 611 and
        # 911 columns; on the dual an N x N bool mask (2.7% of _network_bytes)
        # breaks the bound, and a third N x N float array more so. On 130
        # features the back-map Q of 6,000 x 131 outweighs the ridge step's
        # buffers on 136 columns; a copy of Wf' in the QR breaks the bound.
        X, y = make_blobs(400, [(0.0,) * d, (1.0,) * d], 1.0, seed=3)
        assert trainer._solve_branch(solved_width(net, d), len(y)) == branch
        tracemalloc.start()
        try:
            fit(X, y, ModelConfig(variant, net))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.03 * trainer._network_bytes(*X.shape, net) + X.nbytes

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


def count_as_matrix_calls(monkeypatch) -> list:
    """Record (name, shape) of every linalg.as_matrix call, through any module's binding."""
    original, calls = linalg.as_matrix, []

    def counting(a, name="matrix"):
        calls.append((name, np.shape(a)))
        return original(a, name)

    bound = [m for n, m in list(sys.modules.items())
             if n.startswith("blsbench.") and getattr(m, "as_matrix", None) is original]
    assert {linalg, if_scores, network} <= set(bound)
    for module in bound:
        monkeypatch.setattr(module, "as_matrix", counting)
    return calls


def corrupt(X, kind, rows):
    """A copy of X with a non-finite entry, or with feature 1 spanning
    [-1e308, 1e308], whose range overflows float64, in the given rows."""
    X = X.copy()
    if kind == "overflow":
        X[rows[0], 1], X[rows[1], 1] = -1e308, 1e308
    else:
        X[rows[0], 1] = {"nan": np.nan, "+inf": np.inf, "-inf": -np.inf}[kind]
    return X


class TestLowRankStep:
    # Under a linear feature map of m p > d + 1 columns fit solves on the
    # r = d + 1 + q columns of the solved layer's state matrix and maps the
    # solution back; at m p <= d + 1 it solves on the state matrix G itself,
    # as under a nonlinear map. Its test scores are checked against the SVD
    # ridge solution on the
    # full state matrix G, which forms no normal equations, at every power of
    # 10 from 1e-6 to 1e6. The relative error of the normal equations grows
    # with the condition number of G'S^2G + I/C, at most 1 + C ||S G||^2:
    # every case is within 40 eps (1 + C ||S G||^2), at least 4x the largest
    # error measured. All but the relu primal cases, whose unbounded columns
    # raise ||S G||, are also within 1e-13 + 1e-12 C, tighter at large C.
    C_VALUES = [10.0**e for e in range(-6, 7)]
    RELU = {"enhancement_activation": "relu"}

    @pytest.mark.parametrize("variant,n_per,d,net,mu,branch", [
        ("bls", 200, 10, NetworkConfig(m=9, p=30, q=105), None, "primal"),  # k = d + 1
        ("bls", 200, 10, NetworkConfig(m=2, p=4, q=20), None, "primal"),  # m p = 8: on G
        ("bls", 30, 10, NetworkConfig(m=5, p=10, q=80), None, "dual"),  # r = 91 > N = 60
        ("f-bls", 200, 10, NetworkConfig(m=21, p=50, q=105), None, "primal"),
        ("if-bls", 100, 4, NetworkConfig(m=5, p=10, q=25), 0.5, "primal"),  # 42 zero weights
        ("bls", 200, 10, NetworkConfig(m=9, p=30, l=2, q=40), None, "primal"),
        ("bls", 30, 10, NetworkConfig(m=5, p=10, l=3, q=80, **RELU), None, "dual"),
        ("bls", 200, 10, NetworkConfig(m=9, p=30, l=3, q=40, **RELU), None, "primal"),
        ("bls", 200, 10, NetworkConfig(m=9, p=30, l=3, q=10, **RELU), None, "primal"),
        ("f-bls", 200, 10, NetworkConfig(m=21, p=50, l=3, q=105, **RELU), None, "primal"),
    ])
    def test_scores_match_the_svd_ridge_solution_per_c(self, variant, n_per, d, net, mu,
                                                       branch):
        X, y = make_blobs(n_per, [(0.0,) * d, (1.0,) * d], 1.0, seed=1)
        X_test, _ = make_blobs(50, [(0.0,) * d, (1.0,) * d], 1.0, seed=101)
        extra = {} if mu is None else {"kernel": KernelParams(mu=mu)}
        for c_reg in self.C_VALUES:
            model = fit(X, y, ModelConfig(variant, net, c_reg=c_reg, **extra))
            assert model.solve_branch_used == branch
            G = network.state_matrix(model.layer, model.norm_state.apply(X))
            T = np.eye(2)[[model.class_labels.index(str(v)) for v in y]]
            W = oracles.svd_ridge(G, model.score_vector, T, c_reg)
            want = network.state_matrix(model.layer, model.norm_state.apply(X_test)) @ W
            error = np.abs(trainer.decision_scores(model, X_test) - want).max()
            sg2 = np.linalg.norm(model.score_vector[:, None] * G, 2) ** 2
            scale = np.abs(want).max()
            assert error <= 40 * np.finfo(float).eps * (1 + c_reg * sg2) * scale, c_reg
            if branch == "dual" or net.enhancement_activation != "relu":
                assert error <= (1e-13 + 1e-12 * c_reg) * scale, c_reg
        if mu is not None:  # the weight vector holds zeros, and not only zeros
            assert 0 < np.count_nonzero(model.score_vector == 0.0) < len(y)

    def test_solved_layer_is_the_layer_on_k_columns(self):
        # The solved layer's state matrix U and the back-map Q give the state
        # matrix G = [U_1 Q', U_2], every enhancement group in U_2; at
        # m p <= d + 1, and under a nonlinear feature map, the solved layer is
        # the layer.
        X = np.random.default_rng(4).uniform(size=(30, 3))
        for net in (small_net(m=3, p=5), NetworkConfig(m=9, p=30, l=2, q=40),
                    NetworkConfig(m=5, p=10, l=3, q=80, enhancement_activation="relu")):
            layer = network.init_random_layer(net, 3)
            solved, Q = network._solved_layer(layer)
            assert solved.config == network._solved_config(net, 3)
            assert Q.shape == (net.m * net.p, 4) and Q.flags.f_contiguous
            assert solved.config.width == 4 + net.l * net.q
            np.testing.assert_allclose(Q.T @ Q, np.eye(4), atol=1e-14)
            U, G = network.state_matrix(solved, X), network.state_matrix(layer, X)
            np.testing.assert_allclose(np.hstack((U[:, :4] @ Q.T, U[:, 4:])), G, atol=1e-13)
        for net in (small_net(m=1, p=4), small_net(m=2, p=2), small_net(feature_activation="tanh")):
            layer = network.init_random_layer(net, 3)
            assert network._solved_config(net, 3) is net
            assert network._solved_layer(layer) == (layer, None)


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

    @pytest.mark.parametrize("rows,n_labels,message", [
        (20, 5, "^5 labels for 20 samples$"), (20, 30, "^30 labels for 20 samples$"),
        (0, 0, "^accuracy needs at least one sample$"),
    ], ids=["fewer-labels", "more-labels", "no-rows"])
    def test_accuracy_rejects_labels_that_do_not_match_the_rows(self, rows, n_labels, message,
                                                                 blobs):
        # zip would score the shorter of the two, and no rows would divide by 0.
        X, y = blobs
        model = fit(X, y, ModelConfig("bls", small_net()))
        labels = (list(y) * 2)[:n_labels]
        with pytest.raises(ConfigError, match=message):
            trainer.accuracy(model, X[:rows], labels)

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

    def test_sigmoid_predicts_far_outside_training_range(self, blobs):
        # The activation's exp overflows to inf on these rows, and its
        # limit 0 is the output.
        X, y = blobs
        net = small_net(feature_activation="sigmoid", enhancement_activation="sigmoid")
        model = fit(X, y, ModelConfig("bls", net))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert len(predict(model, X * 1e4)) == len(y)

    @pytest.mark.parametrize("variant", trainer.VARIANTS)
    @pytest.mark.parametrize("net,branch", [(small_net(), "primal"), (DUAL, "dual")])
    def test_fit_checks_x_once(self, variant, net, branch, blobs, monkeypatch):
        # Only the N x d input is scanned; the normalized X, the weights'
        # inputs, the state matrix G and the targets T are not.
        calls = count_as_matrix_calls(monkeypatch)
        X, y = blobs
        model = fit(X, y, ModelConfig(variant, net))
        assert model.solve_branch_used == branch
        assert calls == [("X", X.shape)]

    @pytest.mark.parametrize("variant", trainer.VARIANTS)
    @pytest.mark.parametrize("net,branch", [(small_net(), "primal"), (DUAL, "dual")])
    def test_predict_checks_x_test_once(self, variant, net, branch, blobs, monkeypatch):
        # _test_rows checks X_test; the forward pass does not check it again.
        X, y = blobs
        model = fit(X, y, ModelConfig(variant, net))
        assert model.solve_branch_used == branch
        calls = count_as_matrix_calls(monkeypatch)
        predict(model, X)
        assert calls == [("X_test", X.shape)]


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

    def test_cap_reaches_the_library_the_solve_calls(self):
        # The solve calls LAPACK in the copy of scipy's OpenBLAS that the cap
        # sets, so it runs at one thread, and imports no scipy.linalg.
        if len(linalg._openblas_thread_controls()) != 2 or not solves_in_bundle():
            pytest.skip("numpy and scipy do not both bundle OpenBLAS")
        if not os.path.exists("/proc/self/maps"):
            pytest.skip("no /proc/self/maps to list the mapped libraries")
        code = """if True:
            import ctypes, json, os, sys
            import numpy as np
            from blsbench import linalg
            controls = linalg._openblas_thread_controls()
            for _, put in controls:
                put(2)
            [path] = linalg._bundled_openblas("scipy")
            lib = ctypes.CDLL(path)
            before = [get() for get, _ in controls]
            with linalg._single_threaded_blas():
                linalg._solve_system(np.eye(3), None, np.ones((3, 1)), 1.0, {"factor": np.empty(9)})
                inside = [get() for get, _ in controls] + [lib.scipy_openblas_get_num_threads()]
            after = [get() for get, _ in controls] + [lib.scipy_openblas_get_num_threads()]
            name = os.path.basename(lib._name)
            maps = [line.split() for line in open("/proc/self/maps")]
            maps = [(f[1], f[5]) for f in maps if len(f) > 5 and os.path.basename(f[5]) == name]
            print(json.dumps({
                "controls": len(controls), "before": before, "inside": inside, "after": after,
                "paths": sorted({path for _, path in maps}),
                "code_segments": sum("x" in perms for perms, _ in maps),
                "scipy.linalg": "scipy.linalg" in sys.modules,
            }))
        """
        res = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
        assert res.returncode == 0, res.stderr
        out = json.loads(res.stdout)
        assert out["controls"] == 2
        assert out["inside"] == [1, 1, 1]
        assert out["after"] == out["before"] + [2]
        assert len(out["paths"]) == 1 and out["code_segments"] == 1, out
        assert not out["scipy.linalg"]


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

    # Each case names the key its message must name.
    @pytest.mark.parametrize("corrupt,key", [
        (lambda d: d.pop("w_out"), "w_out"),
        (lambda d: d.update(extra=1), "extra"),
        (lambda d: d["network"].pop("l"), "network"),
        (lambda d: d.update(c_reg=None), "c_reg"),
        (lambda d: d.update(delta=d["c_reg"]), "delta"),
        (lambda d: d["w_out"]["hex"].__setitem__(0, "0xzz"), "w_out"),
        (lambda d: d["feature_weights"].pop(), "feature_weights"),
        (lambda d: d["w_out"].update(shape=d["w_out"]["shape"][::-1]), "w_out"),
        (lambda d: d["norm_min"].update(shape=[1], hex=d["norm_min"]["hex"][:1]), "norm_min"),
        (lambda d: d["enhancement_biases"][0].update(shape=[1, 1], hex=["0x1p0"]),
         "enhancement_biases"),
        (lambda d: d.update(class_labels=["a", 2]), "class_labels"),
        (lambda d: d.update(score_vector=None), "score_vector"),
        (lambda d: d["score_vector"].update(shape=[-1]), "score_vector"),
        (lambda d: d["w_out"].update(dtype="float64"), "w_out"),
        (lambda d: d["feature_biases"][0].update(hex="00"), "feature_biases"),
        (lambda d: d["feature_biases"][0].update(shape=[1.0, 2]), "feature_biases"),
        (lambda d: d.update(input_dim=-1), "input_dim"),
    ], ids=["missing-key", "unknown-key", "missing-field", "null-field", "foreign-delta",
            "bad-hex", "group-count", "w_out-shape", "norm-length", "bias-shape",
            "label-type", "null-score-vector", "shape-minus-one", "unknown-array-key",
            "hex-not-a-list", "float-shape", "negative-input-dim"])
    def test_inconsistent_file_rejected(self, corrupt, key, tmp_path):
        path = tmp_path / "model.json"
        doc = json.loads(_tiny_model_text())
        corrupt(doc)
        path.write_text(json.dumps(doc))
        with pytest.raises(DataFormatError) as exc:
            load_model(path)
        assert str(exc.value).startswith(f"{path}: ") and key in str(exc.value)

    # The tiny model has width 4 and 6 training rows, so fit solved the primal.
    @pytest.mark.parametrize("corrupt,needle", [
        (lambda d: d.update(version=2), "unsupported model format version 2"),
        (lambda d: d.update(version=1.0), "version is 1.0 where saving the model writes 1"),
        (lambda d: d.update(class_labels=[], w_out={"shape": [4, 0], "hex": []}),
         "class_labels: training data contains a single class"),
        (lambda d: d.update(class_labels=["a", "a"]),
         "class_labels: training data contains a single class"),
        (lambda d: d.update(class_labels=["b", "a"]),
         'class_labels is ["b", "a"] where saving the model writes ["a", "b"]'),
        (lambda d: d.update(solve_branch_used="dual"),
         'solve_branch_used is "dual" where fit solves "primal"'),
        (lambda d: d.update(score_vector={"shape": [1], "hex": ["0x1.0000000000000p+0"]}),
         'solve_branch_used is "primal" where fit solves "dual"'),
        (lambda d: d["w_out"]["hex"].__setitem__(1, "nan"), "w_out holds a non-finite value"),
        (lambda d: d["norm_min"]["hex"].__setitem__(0, "inf"),
         "norm_min holds a non-finite value"),
        (lambda d: d["score_vector"]["hex"].__setitem__(2, "-inf"),
         "score_vector holds a non-finite value"),
        (lambda d: d["norm_range"]["hex"].__setitem__(0, "0x1p+1024"),
         "norm_range: OverflowError"),
    ], ids=["version", "float-version", "no-labels", "duplicate-labels", "unsorted-labels",
            "flipped-branch", "score-vector-length", "nan-w_out", "inf-norm_min",
            "inf-score_vector", "overflowing-hex"])
    def test_file_fit_cannot_write_rejected(self, corrupt, needle, tmp_path):
        path = tmp_path / "model.json"
        doc = json.loads(_tiny_model_text())
        corrupt(doc)
        path.write_text(json.dumps(doc))
        with pytest.raises(DataFormatError) as exc:
            load_model(path)
        assert str(exc.value).startswith(f"{path}: ") and needle in str(exc.value)

    # Values whose JSON runs past 120 characters, changed only near the end.
    @pytest.mark.parametrize("corrupt,key", [
        (lambda d: d["feature_weights"].append(d["feature_weights"][-1]), "feature_weights"),
        (lambda d: d["feature_weights"][-1].update(shape=[3, 2]), "feature_weights"),
        (lambda d: d["feature_weights"][-1].update(shape=[-1]), "feature_weights"),
        (lambda d: d["feature_biases"][-1].update(shape=[1.0, 3]), "feature_biases"),
        (lambda d: d["feature_biases"][-1].update(dtype="float64"), "feature_biases"),
        (lambda d: d["class_labels"].insert(-2, d["class_labels"].pop()), "class_labels"),
        (lambda d: d.update(class_labels=d["class_labels"][:-1] + d["class_labels"][-2:-1],
                            w_out={"shape": [26, 29], "hex": d["w_out"]["hex"][:26 * 29]}),
         "class_labels"),
    ], ids=["extra-group", "transposed-shape", "shape-minus-one", "float-shape",
            "unknown-array-key", "unsorted-labels", "duplicate-labels"])
    def test_late_difference_in_long_value_rejected(self, corrupt, key, tmp_path):
        rng = np.random.default_rng(0)
        labels = [f"class{i:02d}" for i in range(30)]
        cfg = ModelConfig("bls", NetworkConfig(m=8, p=3, l=1, q=2))
        path = tmp_path / "model.json"
        save_model(fit(rng.normal(size=(30, 2)), labels, cfg), path)
        doc = json.loads(path.read_text())
        corrupt(doc)
        path.write_text(json.dumps(doc))
        with pytest.raises(DataFormatError) as exc:
            load_model(path)
        assert str(exc.value).startswith(f"{path}: ") and key in str(exc.value)

    def test_long_mismatch_message_shows_the_difference(self, tmp_path):
        labels = [f"class{i:02d}" for i in range(30)]
        path = tmp_path / "model.json"
        save_model(fit(np.arange(60.0).reshape(30, 2) % 7, labels, ModelConfig("bls")), path)
        doc = json.loads(path.read_text())
        doc["class_labels"][-2:] = doc["class_labels"][:-3:-1]
        path.write_text(json.dumps(doc))
        with pytest.raises(DataFormatError) as exc:
            load_model(path)
        found, written = str(exc.value).split("class_labels is ")[1].split(" where saving")
        assert found.startswith("...") and found.endswith('"class29", "class28"]')
        assert written.startswith(" the model writes ...")
        assert written.endswith('"class28", "class29"]')

    def test_overflowing_config_hex_rejected(self, tmp_path):
        path = tmp_path / "model.json"
        doc = json.loads(_tiny_model_text())
        doc["c_reg"] = "0x1p+1024"
        path.write_text(json.dumps(doc))
        with pytest.raises(DataFormatError,
                           match="model.json: bad model file: c_reg: OverflowError hexadecimal"):
            load_model(path)

    @pytest.mark.parametrize("key", ["c_reg", "mu", "epsilon"])
    def test_unparseable_config_hex_names_its_key(self, key, tmp_path):
        path = tmp_path / "model.json"
        doc = json.loads(_tiny_model_text())
        group = doc if key == "c_reg" else doc["kernel"]
        group[key] = "0xzz"
        path.write_text(json.dumps(doc))
        with pytest.raises(DataFormatError) as exc:
            load_model(path)
        assert str(exc.value) == (
            f"{path}: bad model file: {key}: ValueError invalid hexadecimal floating-point string")

    # Edited copies of saved models: weights that fit never writes.
    @pytest.mark.parametrize("variant,weights,needle", [
        ("bls", lambda w: w[:1] + ["0x1.0000000000000p-1"] + w[2:],
         "score_vector holds a weight other than 1.0, which bls never writes"),
        ("bls", lambda w: [], "score_vector has 0 weights; bls trains on at least 2 rows"),
        ("bls", lambda w: w[:1], "score_vector has 1 weights; bls trains on at least 2 rows"),
        ("f-bls", lambda w: ["-0x1.0000000000000p-52"] + w[1:],
         "score_vector holds a weight outside [0, 1]"),
        ("if-bls", lambda w: w[:-1] + ["0x1.0000000000001p+0"],
         "score_vector holds a weight outside [0, 1]"),
        ("if-bls", lambda w: w[:3], "score_vector has 3 weights; if-bls trains on at least 4 rows"),
    ], ids=["bls-half", "bls-empty", "bls-one", "f-bls-negative", "if-bls-above-one",
            "if-bls-three"])
    def test_score_vector_fit_cannot_write_rejected(self, variant, weights, needle, tmp_path):
        X, y = _TINY_DATA
        path = tmp_path / "model.json"
        # Width 60 against 6 rows: the dual branch, which any shorter vector keeps.
        save_model(fit(X, y, ModelConfig(variant, NetworkConfig(m=5, p=10, l=1, q=10))), path)
        load_model(path)
        doc = json.loads(path.read_text())
        hexes = weights(doc["score_vector"]["hex"])
        doc["score_vector"] = {"shape": [len(hexes)], "hex": hexes}
        path.write_text(json.dumps(doc))
        with pytest.raises(DataFormatError) as exc:
            load_model(path)
        assert str(exc.value) == f"{path}: bad model file: {needle}"

    @pytest.mark.parametrize("variant", ["f-bls", "if-bls"])
    def test_three_classes_rejected_for_two_class_variants(self, variant, tmp_path):
        X, y = _TINY_DATA
        path = tmp_path / "model.json"
        save_model(fit(X, y, ModelConfig(variant, NetworkConfig(m=1, p=2, l=1, q=2))), path)
        doc = json.loads(path.read_text())
        doc["class_labels"] = ["a", "b", "c"]
        doc["w_out"] = {"shape": [4, 3], "hex": ["0x1p-1"] * 12}
        path.write_text(json.dumps(doc))
        with pytest.raises(DataFormatError) as exc:
            load_model(path)
        assert str(exc.value).startswith(f"{path}: ")
        assert f"class_labels: {variant} requires exactly 2 classes, got 3" in str(exc.value)

    def test_respelled_hex_loads_and_saves_canonically(self, tmp_path):
        path = tmp_path / "model.json"
        doc = json.loads(_tiny_model_text())
        doc["w_out"]["hex"] = [h.replace("0x", "0X").replace("+", "") for h in doc["w_out"]["hex"]]
        path.write_text(json.dumps(doc))
        save_model(load_model(path), path)
        assert path.read_text() == _tiny_model_text()

    @settings(max_examples=20, deadline=None)
    @given(variant=st.sampled_from(trainer.VARIANTS), branch=st.sampled_from(["primal", "dual"]),
           seed=st.integers(0, 2**16), c_reg=st.floats(1e-3, 1e3))
    def test_save_load_save_is_byte_identical(self, variant, branch, seed, c_reg):
        X, y = make_blobs(6, [(0.0, 0.0, 0.0), (1.5, 1.0, 0.5)], 0.7, seed=seed)
        shape = dict(m=1, p=2, l=1, q=3) if branch == "primal" else dict(m=2, p=4, l=2, q=5)
        model = fit(X, y, ModelConfig(variant, NetworkConfig(seed=seed, **shape), c_reg=c_reg))
        assert model.solve_branch_used == branch
        with tempfile.TemporaryDirectory() as tmp:
            first, second = os.path.join(tmp, "first.json"), os.path.join(tmp, "second.json")
            save_model(model, first)
            save_model(load_model(first), second)
            with open(first, "rb") as a, open(second, "rb") as b:
                assert a.read() == b.read()

    def test_dual_model_round_trip(self, blobs, tmp_path):
        X, y = blobs  # 80 samples, solved width 83
        model = fit(X, y, ModelConfig("f-bls", DUAL))
        path = tmp_path / "model.json"
        save_model(model, path)
        loaded = load_model(path)
        assert json.loads(path.read_text())["solve_branch_used"] == "dual"
        assert loaded.solve_branch_used == "dual"
        np.testing.assert_array_equal(loaded.w_out, model.w_out)
        np.testing.assert_array_equal(loaded.score_vector, model.score_vector)

    def test_file_written_before_the_low_rank_step_loads(self, tmp_path):
        # tests/data/bls_dual_before_low_rank.model was saved by fit before
        # the low-rank ridge step, which solved the dual on the full width 23
        # of 12 rows; fit now solves the primal on 3 + 3 columns. The file
        # loads with the branch it holds, predicts as it did when it was
        # written, and saves to the same bytes.
        path = Path(__file__).parent / "data" / "bls_dual_before_low_rank.model"
        model = load_model(path)
        net = model.config.network
        assert (net.m, net.p, net.q, model.score_vector.size) == (4, 5, 3, 12)
        assert trainer._solve_branches(net, 2, 12) == ["primal", "dual"]
        assert model.solve_branch_used == "dual"
        rng = np.random.default_rng(0)
        rng.normal(size=(12, 2))  # the training rows
        X_test = rng.normal(size=(8, 2)) + 0.5
        assert predict(model, X_test) == ["b", "b", "a", "b", "a", "a", "b", "a"]
        assert [float(v).hex() for v in trainer.decision_scores(model, X_test)[:, 0]] == [
            "0x1.f894966f83689p-2", "0x1.fdabfeb4cfb0ap-3", "0x1.0964e55f86850p-1",
            "0x1.a93b1ef5df654p-2", "0x1.307c2260f6ac2p-1", "0x1.1abd3cac9cd26p-1",
            "0x1.bde00bbbe9a62p-2", "0x1.a48c9a0d92674p-1"]
        save_model(model, tmp_path / "again.model")
        assert (tmp_path / "again.model").read_bytes() == path.read_bytes()

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
            # Only edits that keep the document (a dropped trailing newline)
            # may load, and then to a model that saves back to the same bytes.
            save_model(loaded, path)
            with open(path, encoding="utf-8") as fh:
                assert fh.read() == _tiny_model_text()


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


_TINY_DATA = (
    np.array([[0.0, 0.1], [0.2, 0.0], [0.1, 0.3], [2.0, 2.1], [2.2, 1.9], [1.8, 2.0]]),
    ["a", "a", "a", "b", "b", "b"],
)


def _tiny_model():
    """A small if-bls model with a float epsilon, so every config field is set."""
    if "model" not in _TINY:
        X, y = _TINY_DATA
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
