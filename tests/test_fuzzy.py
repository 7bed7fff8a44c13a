import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import oracles
from blsbench import fuzzy
from blsbench.errors import ClassBalanceError, ConfigError
from blsbench.trainer import ModelConfig, fit


def tiny_problem():
    # Positive class: (0,0) and (2,0); negative class: (10,0) and (10,4).
    X = np.array([[0.0, 0.0], [2.0, 0.0], [10.0, 0.0], [10.0, 4.0]])
    y = np.array([1, 1, -1, -1])
    return X, y


def centered_problem():
    # tiny_problem plus a sample at each class mean, which leaves both means
    # at (1, 0) and (10, 2); member distances are 1, 1, 0 and 2, 2, 0.
    X, y = tiny_problem()
    return np.vstack([X, [[1.0, 0.0], [10.0, 2.0]]]), np.append(y, [1, -1])


class TestGeometry:
    def test_centers_are_class_means(self):
        X, y = centered_problem()
        scores = fuzzy._scores(X, y, 1e-4)
        np.testing.assert_array_equal(scores[4:], 1.0)
        assert (scores[:4] < 1.0).all()

    def test_radii_are_max_member_distance(self):
        # With delta = 1 each score is 1 - dist / (radius + 1); a radius
        # of 1 and 2 is the largest member distance, not the mean one.
        X, y = centered_problem()
        scores = fuzzy._scores(X, y, 1.0)
        expected = [1 - 1 / 2, 1 - 1 / 2, 1 - 2 / 3, 1 - 2 / 3, 1.0, 1.0]
        np.testing.assert_allclose(scores, expected, rtol=1e-15)

    def test_single_class_rejected(self):
        # _scores needs both classes; fit, its one caller, checks for them.
        X = np.ones((3, 2))
        with pytest.raises(ClassBalanceError):
            fit(X, ["a"] * 3, ModelConfig("f-bls"))


class TestMembership:
    def test_hand_computed_values(self):
        # Sample (0,0): distance 1 from its center, radius 1
        #   -> 1 - 1/(1 + delta).
        X, y = tiny_problem()
        scores = fuzzy._scores(X, y, 1e-4)
        expected0 = 1.0 - 1.0 / (1.0 + 1e-4)
        assert scores[0] == pytest.approx(expected0, rel=1e-12)
        # Sample (10,0): distance 2 from (10,2), radius 2.
        assert scores[2] == pytest.approx(1.0 - 2.0 / (2.0 + 1e-4), rel=1e-12)

    def test_center_sample_scores_one(self):
        X = np.array([[0.0], [1.0], [-1.0], [5.0], [7.0]])
        y = np.array([1, 1, 1, -1, -1])
        scores = fuzzy._scores(X, y, 0.5)
        assert scores[0] == pytest.approx(1.0)

    def test_scores_in_unit_interval(self, blobs):
        X, labels = blobs
        y = np.where(labels == "a", 1, -1)
        scores = fuzzy._scores(X, y, 1e-4)
        assert (scores >= 0.0).all() and (scores <= 1.0).all()

    def test_vector_matches_scalar_api(self):
        X, y = tiny_problem()
        vec = fuzzy._scores(X, y, 1e-4)
        for i in range(len(y)):
            one = oracles.fuzzy_membership(X[i], y[i], X, y, delta=1e-4)
            assert vec[i] == pytest.approx(one, rel=1e-12)

    def test_delta_keeps_boundary_sample_positive(self):
        # The farthest member of a class sits exactly at the radius; the
        # slack term must keep its membership strictly above zero.
        X, y = tiny_problem()
        scores = fuzzy._scores(X, y, 1e-4)
        assert scores.min() > 0.0

    def test_delta_below_radius_rounding_gives_zero(self):
        # Every member of tiny_problem sits at its class radius (1 or 2),
        # and r + 1e-17 rounds to r: the weights are exactly 0, not below.
        X, y = tiny_problem()
        scores = fuzzy._scores(X, y, 1e-17)
        np.testing.assert_array_equal(scores, 0.0)

    @pytest.mark.parametrize("delta", [0.0, -1.0, np.nan, np.inf, True, "x", None])
    def test_invalid_delta_rejected(self, delta):
        with pytest.raises(ConfigError, match="delta must be positive"):
            fuzzy._check_delta(delta)

    @given(st.floats(1e-6, 1.0))
    @settings(max_examples=30, deadline=None)
    def test_monotone_in_distance(self, delta):
        X = np.array([[0.0], [4.0], [1.0], [9.0], [11.0]])
        y = np.array([1, 1, 1, -1, -1])
        scores = fuzzy._scores(X, y, delta)
        # samples 0 (dist 5/3), 2 (dist 2/3) from center 5/3: closer scores higher
        assert scores[2] > scores[0]
