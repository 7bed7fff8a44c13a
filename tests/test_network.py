import dataclasses

import numpy as np
import pytest

from blsbench import linalg, network
from blsbench.errors import ConfigError, DimensionMismatch
from blsbench.network import NetworkConfig, init_random_layer
import oracles


@pytest.fixture
def small_layer():
    cfg = NetworkConfig(m=3, p=4, l=2, q=5, seed=42)
    return cfg, init_random_layer(cfg, input_dim=6)


def concatenated_forward(layer, X):
    """The state matrix as fresh group blocks of the textbook activations,
    concatenated: the reference that the in-place forward pass must equal
    bit for bit."""
    act = oracles.ACTIVATIONS[layer.config.feature_activation]
    F = np.concatenate([act(X @ W + b) for W, b in zip(layer.feature_weights,
                                                         layer.feature_biases)], axis=1)
    act = oracles.ACTIVATIONS[layer.config.enhancement_activation]
    return np.concatenate([F, *(act(F @ W + b) for W, b in zip(layer.enhancement_weights,
                                                                layer.enhancement_biases))],
                          axis=1)


class TestConfig:
    def test_width(self):
        cfg = NetworkConfig(m=3, p=4, l=2, q=5)
        assert cfg.width == 3 * 4 + 2 * 5

    @pytest.mark.parametrize("field,value", [
        ("m", 0), ("p", -1), ("l", 0), ("q", 0),
        ("m", True), ("p", 2.0), ("l", np.float64(1.0)), ("q", "5"),
        ("feature_activation", "relu"),
        ("enhancement_activation", "linear"),
        ("feature_activation", ["linear"]), ("enhancement_activation", ["tanh"]),
        ("seed", -1),
    ])
    def test_invalid_config_rejected(self, field, value):
        with pytest.raises(ConfigError):
            NetworkConfig(**{field: value})

    def test_numpy_integer_seed_stored_as_int(self):
        cfg = NetworkConfig(seed=np.int64(7))
        assert type(cfg.seed) is int and cfg == NetworkConfig(seed=7)

    def test_numpy_integer_counts_stored_as_int(self):
        cfg = NetworkConfig(m=np.int64(3), p=np.int32(4), l=np.uint8(2), q=np.int64(5))
        assert all(type(getattr(cfg, name)) is int for name in "mplq")
        assert cfg == NetworkConfig(m=3, p=4, l=2, q=5)
        assert type(init_random_layer(cfg, np.int64(2)).input_dim) is int

    def test_frozen(self):
        cfg = NetworkConfig()
        with pytest.raises(dataclasses.FrozenInstanceError):
            cfg.m = 2


class TestInit:
    def test_shapes(self, small_layer):
        cfg, layer = small_layer
        assert len(layer.feature_weights) == cfg.m
        assert all(w.shape == (6, cfg.p) for w in layer.feature_weights)
        assert all(b.shape == (1, cfg.p) for b in layer.feature_biases)
        assert len(layer.enhancement_weights) == cfg.l
        assert all(w.shape == (cfg.m * cfg.p, cfg.q) for w in layer.enhancement_weights)

    @pytest.mark.parametrize("input_dim", [0, 2.0, True])
    def test_bad_input_dim_rejected(self, input_dim):
        with pytest.raises(ConfigError, match="input_dim must be an integer >= 1"):
            init_random_layer(NetworkConfig(), input_dim)

    def test_deterministic_per_seed(self):
        cfg = NetworkConfig(seed=9)
        a = init_random_layer(cfg, 5)
        b = init_random_layer(cfg, 5)
        for wa, wb in zip(a.feature_weights, b.feature_weights):
            np.testing.assert_array_equal(wa, wb)
        c = init_random_layer(NetworkConfig(seed=10), 5)
        assert not np.array_equal(a.feature_weights[0], c.feature_weights[0])

    def test_groups_independent_of_total_count(self):
        # Adding a group must not disturb the draws of earlier groups.
        few = init_random_layer(NetworkConfig(m=2, p=3, seed=1), 4)
        many = init_random_layer(NetworkConfig(m=5, p=3, seed=1), 4)
        for i in range(2):
            np.testing.assert_array_equal(few.feature_weights[i], many.feature_weights[i])

    def test_weights_in_unit_interval(self, small_layer):
        _, layer = small_layer
        for w in layer.feature_weights + layer.enhancement_weights:
            assert np.abs(w).max() <= 1.0


class TestForward:
    def test_linear_feature_groups_match_affine_map(self, small_layer):
        cfg, layer = small_layer
        X = np.random.default_rng(0).normal(size=(10, 6))
        F = network.state_matrix(layer, X)[:, : cfg.m * cfg.p]
        assert F.shape == (10, cfg.m * cfg.p)
        manual = X @ layer.feature_weights[0] + layer.feature_biases[0]
        np.testing.assert_allclose(F[:, : cfg.p], manual)

    def test_tanh_enhancement_bounded(self, small_layer):
        cfg, layer = small_layer
        X = np.random.default_rng(0).normal(size=(10, 6))
        E = network.state_matrix(layer, X)[:, cfg.m * cfg.p:]
        assert E.shape == (10, cfg.l * cfg.q)
        assert np.abs(E).max() <= 1.0

    def test_state_matrix_is_concatenation(self, small_layer):
        cfg, layer = small_layer
        X = np.random.default_rng(0).normal(size=(8, 6))
        # Linear feature groups, then tanh enhancement groups of all features.
        F = np.hstack([X @ W + b for W, b in zip(layer.feature_weights, layer.feature_biases)])
        E = np.hstack([
            np.tanh(F @ W + b)
            for W, b in zip(layer.enhancement_weights, layer.enhancement_biases)
        ])
        G = network.state_matrix(layer, X)
        np.testing.assert_array_equal(G, np.hstack([F, E]))
        assert G.shape == (8, cfg.width)

    def test_sigmoid_activation(self):
        cfg = NetworkConfig(m=1, p=2, l=1, q=2,
                            feature_activation="sigmoid",
                            enhancement_activation="sigmoid", seed=0)
        layer = init_random_layer(cfg, 3)
        G = network.state_matrix(layer, np.zeros((4, 3)))
        assert ((G > 0) & (G < 1)).all()

    def test_relu_enhancement(self):
        cfg = NetworkConfig(enhancement_activation="relu", seed=0)
        layer = init_random_layer(cfg, 3)
        G = network.state_matrix(layer, np.random.default_rng(2).normal(size=(6, 3)))
        E = G[:, cfg.m * cfg.p:]
        assert (E >= 0).all() and (E > 0).any()

    def test_input_dim_mismatch_rejected(self, small_layer):
        _, layer = small_layer
        with pytest.raises(DimensionMismatch):
            network.state_matrix(layer, np.ones((4, 5)))

    @pytest.mark.parametrize("feature", sorted(network.FEATURE_ACTIVATIONS))
    @pytest.mark.parametrize("enhancement", sorted(network.ENHANCEMENT_ACTIVATIONS))
    @pytest.mark.parametrize("l", [1, 2])
    @pytest.mark.parametrize("rows", [1, 13])
    def test_forward_in_place_is_the_concatenation_bit_for_bit(self, feature, enhancement, l,
                                                               rows):
        # Written into a view of a longer buffer, as the engine writes it, and
        # into a fresh array, as fit does. Inputs at scale 300 overflow the
        # feature sigmoid's exp(-z).
        cfg = NetworkConfig(m=3, p=4, l=l, q=5, feature_activation=feature,
                            enhancement_activation=enhancement, seed=7)
        layer = init_random_layer(cfg, 3)
        X = np.random.default_rng(rows).normal(scale=300.0, size=(rows, 3))
        spare = np.full((rows + 2) * cfg.width, np.nan)  # two spare rows past the view
        out = spare[:rows * cfg.width].reshape(rows, cfg.width)
        with linalg._single_threaded_blas():
            want = concatenated_forward(layer, X)
            assert network._forward(layer, X, out) is out
            fresh = network._forward(layer, X)
        assert np.array_equal(out, want) and np.array_equal(fresh, want)
        assert np.isnan(spare[rows * cfg.width:]).all()

    @pytest.mark.parametrize("name,act", [*network.FEATURE_ACTIVATIONS.items(),
                                          *network.ENHANCEMENT_ACTIVATIONS.items()])
    def test_public_activations_leave_their_argument(self, name, act):
        # Only a call with out=z, as _forward makes, overwrites the argument,
        # and it writes the bits of the fresh result.
        z = np.array([[-800.0, -1.0, 0.0, 2.0]])
        z.flags.writeable = False
        assert np.array_equal(act(z), oracles.ACTIVATIONS[name](z))
        w = z.copy()
        assert act(w, out=w) is w and np.array_equal(w, act(z))
        act(np.arange(-1, 3))  # integer input, which no float64 out= could take
        assert act(-800.0) == oracles.ACTIVATIONS[name](-800.0)  # and a scalar
