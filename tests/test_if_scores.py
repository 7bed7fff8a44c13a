import contextlib
import gc
import os
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import oracles
from blsbench import if_scores, linalg
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
    @pytest.mark.parametrize("value", [0.0, -1.0, np.nan, np.inf, True, "a"])
    def test_invalid_value_rejected(self, field, value):
        with pytest.raises(ConfigError, match=f"{field} must be positive"):
            KernelParams(**{field: value})

    @pytest.mark.parametrize("mu,message", [(1e-170, "mu must have a nonzero square"),
                                            (-1e-170, "mu must be positive")])
    def test_mu_whose_square_is_zero_rejected(self, mu, message):
        with pytest.raises(ConfigError, match=message):
            KernelParams(mu=mu)

    def test_kernel_quotient_overflow_gives_its_limit(self):
        # At mu = 2e-154, mu^2 = 4e-308 is a normal float, and the squared
        # distances between the classes, all above 7.2, overflow the quotient
        # to inf. exp(-inf) = 0 is the limit, so every off-diagonal kernel
        # entry is 0, as at mu = 1e-100.
        rng = np.random.default_rng(0)
        near = rng.uniform(0.0, 0.05, size=(4, 10))
        X, y = np.vstack([near, 1.0 - near]), np.repeat([1, -1], 4)
        scores, _ = if_scores._score_vector(X, y, KernelParams(mu=2e-154))
        np.testing.assert_array_equal(
            scores, if_scores._score_vector(X, y, KernelParams(mu=1e-100))[0])

    @pytest.mark.parametrize("epsilon", [-0.5, np.nan, np.inf, None, False, 1j])
    def test_invalid_epsilon_rejected(self, epsilon):
        with pytest.raises(ConfigError, match="epsilon must be nonnegative"):
            KernelParams(epsilon=epsilon)


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

    def test_peak_memory_is_one_buffer(self):
        # The peak is the one N x N buffer; the distance passes, the class
        # sums, the median and the neighborhood counts add only row blocks.
        # A copy of either class block, N^2 / 4 here, breaks the bound.
        N = 1200
        X = np.random.default_rng(0).normal(size=(N, 10))
        y = np.array([1, -1] * (N // 2))
        tracemalloc.start()
        try:
            if_scores._score_vector(X, y, KernelParams())
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.1 * N * N * 8

    def test_no_reference_cycle_keeps_the_buffer(self):
        # With the cyclic collector off, the N x N buffer is freed when
        # scoring returns: nothing in a reference cycle holds it.
        N = 600
        X = np.random.default_rng(1).normal(size=(N, 10))
        y = np.array([1, -1] * (N // 2))
        gc.disable()
        tracemalloc.start()
        try:
            if_scores._score_vector(X, y, KernelParams())
            current = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
            gc.enable()
        assert current < 0.01 * N * N * 8

    @pytest.mark.parametrize("n_pos", [5, 9])
    def test_memory_estimate_is_the_refusal_bound(self, n_pos, monkeypatch):
        # 8 bytes x (the N x N buffer + one row block), against page size x
        # pages, whatever the class sizes.
        X = kernel_problem(n=14)[0]
        y = np.where(np.arange(14) < n_pos, 1, -1)
        need = 8 * (14 * 14 + linalg._BLOCK)
        for pages, refused in ((need, False), (need - 1, True)):
            monkeypatch.setattr(os, "sysconf", lambda key: {"SC_PAGE_SIZE": 1,
                                                             "SC_PHYS_PAGES": pages}[key])
            with pytest.raises(ConfigError, match=(
                    r"^if-bls scoring of 14 rows needs about \S+ GiB; this machine has \S+ GiB$"
            )) if refused else contextlib.nullcontext():
                if_scores._score_vector(X, y, KernelParams())


def class_rows(layout, m, rng):
    """n and the sorted rows idx of a class of m among n samples: one run
    of rows, every other row, or a random 10% or 90% of the rows."""
    n = class_total(layout, m)
    if layout == "contiguous":
        return n, np.arange(1, m + 1)
    if layout == "interleaved":
        return n, np.arange(1, 2 * m + 1, 2)
    return n, np.sort(rng.choice(n, size=m, replace=False))


def class_total(layout, m):
    if layout == "contiguous":
        return m + 3
    if layout == "interleaved":
        return 2 * m + 1
    return max(m + 1, round(m / {"10%": 0.1, "90%": 0.9}[layout]))


def leaf_edge(layout):
    """The largest class size m whose class block, m^2 values, fits in one
    _class_sums leaf of m * max(1, _BLOCK // n) values."""
    return max(m for m in range(1, 1000) if m <= linalg._BLOCK // class_total(layout, m))


class RowGathers(np.ndarray):
    """A kernel that records how many rows each index-array gather takes."""

    def __getitem__(self, key):
        if isinstance(key, np.ndarray):
            self.gathered.append(key.size)
        return np.asarray(self)[key]


class TestClassSums:
    # _class_sums walks numpy's pairwise tree: runs of at most 8 and of at
    # most 128 values and their neighbors, class blocks just inside and
    # just beyond one leaf, and one split into many leaves. A 10% class of
    # 1300 rows would need a kernel of 13000^2 values, so it is left out.
    # Each class row is gathered once, or twice where it crosses a leaf
    # edge: at most 2m rows in all.
    @pytest.mark.parametrize("mu", [2.0**-5, 4.0])
    @pytest.mark.parametrize("m,layout", [
        (m, layout)
        for m in [2, 3, 7, 8, 9, 127, 128, 129, "leaf", "leaf+1", 1300]
        for layout in ["contiguous", "interleaved", "10%", "90%"]
        if (m, layout) != (1300, "10%")
    ])
    def test_equals_the_class_block_sums(self, m, layout, mu):
        if isinstance(m, str):
            m = leaf_edge(layout) + (m == "leaf+1")
        rng = np.random.default_rng(m)
        n, idx = class_rows(layout, m, rng)
        X = rng.normal(size=(n, 3))
        K = oracles.gaussian_kernel(X, X, mu)
        block = K[np.ix_(idx, idx)]
        counted = K.view(RowGathers)
        counted.gathered = []
        total, row_sums = if_scores._class_sums(counted, idx)
        assert np.array_equal(total, block.sum())
        assert np.array_equal(row_sums, block.sum(axis=1))
        assert sum(counted.gathered) <= 2 * m


class TestMedianDistance:
    @staticmethod
    def kernel(rng, n, levels):
        """A symmetric n x n matrix in [0, 1] with unit diagonal: continuous
        values, or levels tied values from 0 up to 1 when levels > 0."""
        if levels:
            U = rng.integers(0, levels, size=(n, n)) / max(levels - 1, 1)
        else:
            U = rng.uniform(size=(n, n)) ** 3
        K = np.triu(U, 1)
        K += K.T
        np.fill_diagonal(K, 1.0)
        return K

    @staticmethod
    def expected(K):
        return np.median(np.sqrt(K * -2.0 + 2.0)[np.triu_indices(K.shape[0], k=1)])

    @pytest.mark.parametrize("levels", [0, 1, 2, 3, 7])
    def test_equals_median_of_upper_triangle(self, levels):
        # Sizes below and above the sample size, with n(n-1)/2 odd and even;
        # few levels put the middle values in runs of ties at either end of
        # the bracket, and the top level 1 ties pairs with the diagonal.
        rng = np.random.default_rng(levels)
        for n in (2, 3, 4, 5, 127, 128, 181, 182, 255, 256, 301, 302):
            K = self.kernel(rng, n, levels)
            assert if_scores._median_distance(K) == self.expected(K), n

    def test_missed_bracket_is_widened(self, monkeypatch):
        # At n = 256 the sample is every 5th entry (n^2 / 2^14 = 4 shares a
        # factor with n; 5 does not). Every sampled entry and its mirror hold
        # the smallest value, so the first bracket lies wholly below the middle
        # values; the pass that finds the miss is followed by wider ones until
        # the bracket holds them.
        n = 256
        rng = np.random.default_rng(0)
        K = 0.5 + self.kernel(rng, n, 0) / 2
        rows, cols = np.divmod(np.arange(0, n * n, 5), n)
        K[rows, cols] = K[cols, rows] = 0.0
        np.fill_diagonal(K, 1.0)
        passes = []
        monkeypatch.setattr(if_scores, "_row_blocks",
                            lambda *shape: passes.append(shape) or linalg._row_blocks(*shape))
        assert if_scores._median_distance(K) == self.expected(K)
        assert len(passes) > 1


class TestKernelThreshold:
    @staticmethod
    def around(values):
        """The values and the doubles next to them."""
        values = np.asarray(values, dtype=np.float64)
        return np.concatenate([np.nextafter(values, -np.inf), values, np.nextafter(values, np.inf)])

    def test_kernel_test_is_the_distance_test(self):
        # kappa(epsilon) splits [0, 1] where the reference's distance crosses
        # epsilon, at every kernel value: epsilon at and next to exact pair
        # distances, sqrt(2) (the distance at k = 0) and the ends; k at and
        # next to every kappa, subnormal, and at the ends of [0, 1].
        K = kernel_problem(seed=1, n=12, mu=0.8)[2][np.triu_indices(12, k=1)]
        pairs = np.sqrt(K * -2.0 + 2.0)
        epsilons = self.around(np.concatenate([pairs, [0.0, 5e-324, np.sqrt(2.0), 2.0]]))
        epsilons = epsilons[epsilons >= 0.0]
        kappas = np.array([if_scores._kernel_threshold(e) for e in epsilons])
        assert ((kappas >= 0.0) & (kappas <= 1.0)).all()
        k = self.around(np.concatenate([kappas, K, [0.0, 5e-324, 1e-310, 1.0]]))
        k = k[(k >= 0.0) & (k <= 1.0)]
        for epsilon, kappa in zip(epsilons, kappas):
            np.testing.assert_array_equal(k >= kappa, np.sqrt(k * -2.0 + 2.0) <= epsilon,
                                          err_msg=repr(epsilon))
        assert if_scores._kernel_threshold(0.0) == 1.0
        assert if_scores._kernel_threshold(np.sqrt(2.0)) == 0.0

    @pytest.mark.parametrize("x", [-0.0, -5e-324, -1e-300, -1e-16])
    def test_kernel_of_a_nonpositive_exponent_is_at_most_one(self, x):
        # The kernel test needs K in [0, 1]: exp of -d^2 / mu^2 <= 0 never
        # rounds above 1.
        assert np.exp(x) <= 1.0


def oracle_problem(seed, dups):
    """Two overlapping classes plus duplicated points with flipped labels."""
    rng = np.random.default_rng(seed)
    X = np.vstack([rng.normal(0.0, 0.7, size=(14, 3)), rng.normal(1.0, 0.7, size=(14, 3))])
    y = np.array([1] * 14 + [-1] * 14)
    dup = rng.choice(28, size=dups, replace=False)
    return np.vstack([X, X[dup]]), np.concatenate([y, -y[dup]])


def large_oracle_problem(n, shape):
    """n samples of two overlapping classes whose last 10 rows repeat earlier
    ones with flipped labels. shape "rounded" keeps one decimal, and
    "duplicated" draws 60% of the rows from 5 of them, so that ties fill
    the middle of the pair distances."""
    rng = np.random.default_rng(n)
    X = rng.normal(0.0, 0.7, size=(n - 10, 3))
    y = np.where(np.arange(n - 10) % 2 == 0, 1, -1)
    X[y == -1] += 1.0
    if shape == "rounded":
        X = np.round(X, 1)
    elif shape == "duplicated":
        copies = rng.choice(n - 10, size=6 * n // 10, replace=False)
        X[copies] = X[rng.integers(0, 5, size=copies.size)]
    dup = rng.choice(n - 10, size=10, replace=False)
    return np.vstack([X, X[dup]]), np.concatenate([y, -y[dup]])


# A fixed epsilon of 1.5 lies above sqrt(2), the largest distance, so every
# neighborhood holds every sample.
@pytest.mark.parametrize("epsilon", ["median_heuristic", 0.3, 0.0, 1.5])
@pytest.mark.parametrize("mu", [2.0**-5, 0.25, 1.0, 4.0, 2.0**5])
# 33 samples give 528 pairs, an even count for the median; 34 give 561. Both
# are sorted whole to bracket the median. From 182 samples on, a strided
# sample of the distances brackets it: 702 give 246,051 pairs, an odd count,
# and at 512 the stride n^2 / 2^14 = 16 divides n, so the sample is drawn at
# the next stride that does not.
@pytest.mark.parametrize("problem,dups", [
    pytest.param(lambda: oracle_problem(0, 5), 5, id="0"),
    pytest.param(lambda: oracle_problem(1, 5), 5, id="1"),
    pytest.param(lambda: oracle_problem(2, 6), 6, id="2-odd-pairs"),
    pytest.param(lambda: large_oracle_problem(300, "normal"), 10, id="300"),
    pytest.param(lambda: large_oracle_problem(702, "normal"), 10, id="702-odd-pairs"),
    pytest.param(lambda: large_oracle_problem(512, "normal"), 10, id="512-stride-divides-n"),
    pytest.param(lambda: large_oracle_problem(300, "rounded"), 10, id="300-rounded"),
    pytest.param(lambda: large_oracle_problem(300, "duplicated"), 10, id="300-duplicated"),
])
def test_vector_matches_step_by_step_oracle_exactly(problem, dups, mu, epsilon):
    X, y = problem()
    assert_matches_oracle(X, y, KernelParams(mu=mu, epsilon=epsilon), dups)


def test_vector_matches_oracle_at_an_epsilon_that_is_a_pair_distance():
    # The pairs at exactly epsilon are inside the neighborhoods.
    X, y = large_oracle_problem(300, "normal")
    D = oracles.kernel_pairwise_distances(oracles.gaussian_kernel(X, X, 1.0))
    epsilon = np.sort(D[np.triu_indices(300, k=1)])[10_000]
    assert_matches_oracle(X, y, KernelParams(mu=1.0, epsilon=float(epsilon)), 10)


def assert_matches_oracle(X, y, params, dups):
    """Every field of _score_vector's breakdown equals the oracle's; the last
    dups samples repeat earlier ones with flipped labels."""
    scores, br = if_scores._score_vector(X, y, params)
    ref_scores, ref = oracles.if_score_vector(X, y, params)
    np.testing.assert_array_equal(scores, ref_scores)
    for name in ("score", "membership", "non_membership", "hetero_ratio"):
        np.testing.assert_array_equal(getattr(br, name), getattr(ref, name), err_msg=name)
    assert br.epsilon_used == ref.epsilon_used
    # Duplicates with flipped labels always see each other, even at epsilon 0.
    assert (br.hetero_ratio[-dups:] > 0).all()
