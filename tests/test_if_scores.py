import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import oracles
from blsbench import if_scores
from blsbench.errors import ClassBalanceError, ConfigError
from blsbench.if_scores import KernelParams
from blsbench.trainer import ModelConfig, fit


def kernel_problem(seed=0, n=30, mu=1.0):
    rng = np.random.default_rng(seed)
    X = np.vstack([
        rng.normal(0.0, 0.5, size=(n // 2, 2)),
        rng.normal(1.5, 0.5, size=(n - n // 2, 2)),
    ])
    y = np.array([1] * (n // 2) + [-1] * (n - n // 2))
    K = oracles.gaussian_kernel(X, X, mu)
    return X, y, K


class TestKernel:
    def test_matches_direct_exponential(self):
        rng = np.random.default_rng(3)
        A, B = rng.normal(size=(6, 4)), rng.normal(size=(5, 4))
        K = oracles.gaussian_kernel(A, B, 1.7)
        direct = np.exp(-((A[:, None] - B[None, :]) ** 2).sum(-1) / 1.7 ** 2)
        np.testing.assert_allclose(K, direct, rtol=1e-12)

    def test_self_similarity_is_one(self):
        _, _, K = kernel_problem()
        np.testing.assert_allclose(np.diag(K), 1.0)


class TestKernelParams:
    @pytest.mark.parametrize("field", ["mu", "delta"])
    @pytest.mark.parametrize("value", [0.0, -1.0, np.nan, np.inf])
    def test_invalid_value_rejected(self, field, value):
        with pytest.raises(ConfigError, match=f"{field} must be positive"):
            KernelParams(**{field: value})


class TestKernelDistance:
    def test_identical_points_distance_zero(self):
        assert oracles.kernel_distance(1.0, 1.0, 1.0) == 0.0

    def test_hand_value(self):
        # d = sqrt(k_rr + k_ll - 2 k_rl) = sqrt(1 + 1 - 2*0.5) = 1.
        assert oracles.kernel_distance(1.0, 1.0, 0.5) == pytest.approx(1.0)

    def test_pairwise_matches_feature_space_norm(self):
        X, _, K = kernel_problem(mu=2.0)
        D = oracles.kernel_pairwise_distances(K)
        i, j = 3, 17
        expected = np.sqrt(K[i, i] + K[j, j] - 2 * K[i, j])
        assert D[i, j] == pytest.approx(expected, rel=1e-12)
        assert np.diag(D).max() == 0.0

    def test_inconsistent_kernel_rejected(self):
        with pytest.raises(oracles.InvalidKernel):
            oracles.kernel_distance(1.0, 1.0, 1.5)


class TestClassRadii:
    def test_two_sample_class_closed_form(self):
        # For a two-point class the distance of either point to the class
        # mean in feature space is sqrt((1 - k) / 2) where k is their
        # kernel similarity.
        X = np.array([[0.0, 0.0], [1.0, 0.0], [5.0, 5.0], [6.0, 5.0]])
        y = np.array([1, 1, -1, -1])
        K = oracles.gaussian_kernel(X, X, 1.3)
        r_pos, r_neg = oracles.kernel_class_radii(K, y)
        k = K[0, 1]
        assert r_pos == pytest.approx(np.sqrt((1 - k) / 2), rel=1e-10)
        kn = K[2, 3]
        assert r_neg == pytest.approx(np.sqrt((1 - kn) / 2), rel=1e-10)

    def test_huge_mu_recovers_input_geometry(self):
        # As the kernel width grows the feature map turns affine, so the
        # kernel radii approach the input-space radii divided by mu.
        rng = np.random.default_rng(5)
        X = rng.normal(size=(20, 3))
        y = np.array([1] * 10 + [-1] * 10)
        mu = 1e4
        K = oracles.gaussian_kernel(X, X, mu)
        r_pos, _ = oracles.kernel_class_radii(K, y)
        pos = X[y == 1]
        euclid = np.linalg.norm(pos - pos.mean(0), axis=1).max()
        # exp(-d^2/mu^2) ~ 1 - d^2/mu^2 makes the feature-space squared
        # distance to the class mean approach 2 * ||x - mean||^2 / mu^2.
        assert r_pos * mu == pytest.approx(euclid * np.sqrt(2), rel=1e-4)


class TestMembership:
    def test_values_match_manual_formula(self):
        X, y, K = kernel_problem(seed=2)
        radii = oracles.kernel_class_radii(K, y)
        _, br = if_scores._score_vector(X, y, KernelParams(mu=1.0, delta=1e-4))
        theta = br.membership
        # manual for sample 0 (positive class)
        pos = np.flatnonzero(y == 1)
        n = len(pos)
        d2 = K[0, 0] - 2 * K[0, pos].sum() / n + K[np.ix_(pos, pos)].sum() / n ** 2
        expected = 1 - np.sqrt(max(d2, 0.0)) / (radii[0] + 1e-4)
        assert theta[0] == pytest.approx(expected, rel=1e-10)

    def test_bounded(self):
        X, y, _ = kernel_problem(seed=4)
        _, br = if_scores._score_vector(X, y, KernelParams(mu=1.0))
        theta = br.membership
        assert (theta > 0).all() and (theta <= 1).all()

    def test_bounded_when_delta_is_below_radius_rounding(self):
        # r + 1e-17 rounds to r, so the members at the radius get exactly 0;
        # no centroid distance exceeds its radius, so none goes below.
        X = np.array([[0.0, 0.0], [2.0, 0.0], [10.0, 0.0], [10.0, 4.0]])
        y = np.array([1, 1, -1, -1])
        _, br = if_scores._score_vector(X, y, KernelParams(mu=3.0, delta=1e-17))
        theta = br.membership
        assert (theta >= 0).all() and (theta <= 1).all()
        assert theta.min() == 0.0


class TestNonMembership:
    def test_hand_computed_ratio(self):
        # Line of four points; epsilon chosen so each end point sees only
        # its same-class neighbor while the middle pair see each other.
        X = np.array([[0.0], [1.0], [1.5], [2.5]])
        y = np.array([1, 1, -1, -1])
        K = oracles.gaussian_kernel(X, X, 2.0)
        D = oracles.kernel_pairwise_distances(K)
        eps = (D[0, 1] + D[1, 3]) / 2  # admits gaps up to 1.0, rejects 1.5
        _, br = if_scores._score_vector(X, y, KernelParams(mu=2.0, epsilon=eps))
        hetero, tilde, theta = br.hetero_ratio, br.non_membership, br.membership
        # Sample 1: neighborhood {0, 1, 2} -> one opposite out of three.
        assert hetero[1] == pytest.approx(1 / 3)
        # Sample 0: neighborhood {0, 1} -> no opposite.
        assert hetero[0] == 0.0
        np.testing.assert_allclose(tilde, (1 - theta) * hetero)

    def test_self_always_counted(self):
        # Even with epsilon = 0 the denominator includes the sample itself.
        X = np.array([[0.0], [3.0], [6.0], [9.0]])
        y = np.array([1, 1, -1, -1])
        _, br = if_scores._score_vector(X, y, KernelParams(mu=1.0, epsilon=0.0))
        np.testing.assert_array_equal(br.hetero_ratio, 0.0)

    def test_ties_at_epsilon_included(self):
        X = np.array([[0.0], [1.0]])
        y = np.array([1, -1])
        K = oracles.gaussian_kernel(X, X, 1.0)
        D = oracles.kernel_pairwise_distances(K)
        _, br = if_scores._score_vector(X, y, KernelParams(mu=1.0, epsilon=D[0, 1]))
        assert br.hetero_ratio[0] == pytest.approx(0.5)


class TestScore:
    def test_pure_membership_branch(self):
        assert oracles.if_score(0.7, 0.0) == 0.7

    def test_dominated_branch_is_zero(self):
        assert oracles.if_score(0.2, 0.3) == 0.0
        assert oracles.if_score(0.2, 0.2) == 0.0

    def test_mixed_branch_hand_value(self):
        # (1 - 0.3) / (2 - 0.6 - 0.3) = 0.7 / 1.1
        assert oracles.if_score(0.6, 0.3) == pytest.approx(0.7 / 1.1)

    @given(st.floats(0, 1), st.floats(0, 1))
    @settings(max_examples=200, deadline=None)
    def test_score_in_unit_interval(self, theta, tilde):
        if theta + tilde > 1:
            tilde = 1 - theta
        s = oracles.if_score(theta, tilde)
        assert 0.0 <= s <= 1.0

    def test_invalid_inputs_rejected(self):
        with pytest.raises(ValueError):
            oracles.if_score(0.8, 0.3)  # sum exceeds 1
        with pytest.raises(ValueError):
            oracles.if_score(-0.1, 0.0)


class TestEpsilonPolicy:
    def test_median_of_offdiagonal_distances(self):
        X = np.array([[0.0], [1.0], [3.0]])
        y = np.array([1, 1, -1])
        K = oracles.gaussian_kernel(X, X, 2.0)
        D = oracles.kernel_pairwise_distances(K)
        uppers = [D[0, 1], D[0, 2], D[1, 2]]
        _, br = if_scores._score_vector(X, y, KernelParams(mu=2.0))
        assert br.epsilon_used == pytest.approx(np.median(uppers))

    def test_fixed_value_passthrough(self):
        X, y, _ = kernel_problem(n=6)
        _, br = if_scores._score_vector(X, y, KernelParams(epsilon=0.25))
        assert br.epsilon_used == 0.25

    def test_unknown_policy_rejected(self):
        X, y, _ = kernel_problem(n=6)
        with pytest.raises(ValueError):
            if_scores._score_vector(X, y, KernelParams(epsilon="mean_heuristic"))


class TestVector:
    def test_breakdown_consistency(self):
        X, y, _ = kernel_problem(seed=8, n=40)
        scores, br = if_scores._score_vector(X, y, KernelParams(mu=1.0))
        np.testing.assert_array_equal(scores, br.score)
        assert (br.membership + br.non_membership <= 1 + 1e-12).all()
        assert (scores >= 0).all() and (scores <= 1).all()
        recomputed = np.array([
            oracles.if_score(t, nt)
            for t, nt in zip(br.membership, br.non_membership)
        ])
        np.testing.assert_allclose(scores, recomputed, rtol=1e-12)

    def test_isolated_samples_keep_full_membership_weight(self):
        # Well-separated classes with a tiny epsilon: no heterogeneity, so
        # every score equals the membership.
        X = np.array([[0.0], [0.2], [5.0], [5.2]])
        y = np.array([1, 1, -1, -1])
        params = KernelParams(mu=1.0, epsilon=0.01)
        scores, br = if_scores._score_vector(X, y, params)
        np.testing.assert_array_equal(br.hetero_ratio, 0.0)
        np.testing.assert_allclose(scores, br.membership)

    def test_single_class_rejected(self):
        # _score_vector needs both classes; fit, its one caller, checks for them.
        X, _, _ = kernel_problem(n=6)
        with pytest.raises(ClassBalanceError):
            fit(X, ["a"] * 6, ModelConfig("if-bls"))

    def test_deterministic(self):
        X, y, _ = kernel_problem(seed=9)
        a, _ = if_scores._score_vector(X, y, KernelParams())
        b, _ = if_scores._score_vector(X, y, KernelParams())
        np.testing.assert_array_equal(a, b)

    def test_peak_memory_is_the_distance_step(self):
        # The peak is the two N x N temporaries of the squared distances;
        # the median step must not add to it.
        N = 600
        X = np.random.default_rng(0).normal(size=(N, 10))
        y = np.array([1, -1] * (N // 2))
        tracemalloc.start()
        try:
            if_scores._score_vector(X, y, KernelParams())
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2.25 * N * N * 8


def oracle_problem(seed, dups):
    """Two overlapping classes plus duplicated points with flipped labels."""
    rng = np.random.default_rng(seed)
    X = np.vstack([rng.normal(0.0, 0.7, size=(14, 3)), rng.normal(1.0, 0.7, size=(14, 3))])
    y = np.array([1] * 14 + [-1] * 14)
    dup = rng.choice(28, size=dups, replace=False)
    return np.vstack([X, X[dup]]), np.concatenate([y, -y[dup]])


@pytest.mark.parametrize("epsilon", ["median_heuristic", 0.3, 0.0])
@pytest.mark.parametrize("mu", [2.0**-5, 0.25, 1.0, 4.0, 2.0**5])
# 33 samples give 528 pairs, an even count for the median; 34 give 561.
@pytest.mark.parametrize("seed,dups", [(0, 5), (1, 5), (2, 6)], ids=["0", "1", "2-odd-pairs"])
def test_vector_matches_step_by_step_oracle_exactly(seed, dups, mu, epsilon):
    X, y = oracle_problem(seed, dups)
    params = KernelParams(mu=mu, epsilon=epsilon)
    scores, br = if_scores._score_vector(X, y, params)
    ref_scores, ref = oracles.if_score_vector(X, y, params)
    np.testing.assert_array_equal(scores, ref_scores)
    for name in ("score", "membership", "non_membership", "hetero_ratio"):
        np.testing.assert_array_equal(getattr(br, name), getattr(ref, name), err_msg=name)
    assert br.epsilon_used == ref.epsilon_used
    # Duplicates with flipped labels always see each other, even at epsilon 0.
    assert (br.hetero_ratio[-dups:] > 0).all()
