import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

import oracles
from blsbench import linalg
from blsbench.errors import DimensionMismatch, NonFiniteInput


def dense_oracle_primal(G, S, T, c):
    """Reference solve via explicit inverse of the regularized normal matrix."""
    S2 = np.diag(S ** 2)
    A = G.T @ S2 @ G + np.eye(G.shape[1]) / c
    return np.linalg.inv(A) @ G.T @ S2 @ T


def dense_oracle_dual(G, S, T, c):
    S2 = np.diag(S ** 2)
    A = np.eye(G.shape[0]) / c + S2 @ G @ G.T
    return G.T @ np.linalg.inv(A) @ S2 @ T


def random_problem(seed, n=12, d=5, k=2, weighted=True):
    rng = np.random.default_rng(seed)
    G = rng.normal(size=(n, d))
    T = rng.normal(size=(n, k))
    S = rng.uniform(0.1, 1.0, size=n) if weighted else np.ones(n)
    return G, S, T


class TestSolvers:
    @pytest.mark.parametrize("seed", range(5))
    @pytest.mark.parametrize("weighted", [True, False])
    def test_primal_matches_dense_oracle(self, seed, weighted):
        G, S, T = random_problem(seed, weighted=weighted)
        W = linalg.solve_weighted_ridge_primal(G, S, T, c_reg=10.0)
        np.testing.assert_allclose(W, dense_oracle_primal(G, S, T, 10.0), rtol=1e-9)

    @pytest.mark.parametrize("seed", range(5))
    @pytest.mark.parametrize("weighted", [True, False])
    def test_dual_matches_dense_oracle(self, seed, weighted):
        G, S, T = random_problem(seed, weighted=weighted)
        W = linalg.solve_weighted_ridge_dual(G, S, T, c_reg=10.0)
        np.testing.assert_allclose(W, dense_oracle_dual(G, S, T, 10.0), rtol=1e-9)

    def test_primal_dual_agree(self):
        G, S, T = random_problem(3, n=30, d=8)
        Wp = linalg.solve_weighted_ridge_primal(G, S, T, c_reg=100.0)
        Wd = linalg.solve_weighted_ridge_dual(G, S, T, c_reg=100.0)
        np.testing.assert_allclose(Wp, Wd, rtol=1e-8)

    def test_unit_weights_reduce_to_plain_ridge(self):
        # With S = 1 the solution must equal the ordinary ridge solution.
        G, _, T = random_problem(4, n=20, d=6)
        ones = np.ones(20)
        W = linalg.solve_weighted_ridge_primal(G, ones, T, c_reg=1.0)
        ridge = np.linalg.solve(G.T @ G + np.eye(6), G.T @ T)
        np.testing.assert_allclose(W, ridge, rtol=1e-10)

    def test_solution_minimizes_objective(self):
        G, S, T = random_problem(8, n=15, d=4)
        W = linalg.solve_weighted_ridge_primal(G, S, T, c_reg=5.0)
        base = oracles.ridge_objective(G, S, T, 5.0, W)
        rng = np.random.default_rng(0)
        for _ in range(20):
            perturbed = W + rng.normal(scale=1e-3, size=W.shape)
            assert oracles.ridge_objective(G, S, T, 5.0, perturbed) > base

    def test_shape_mismatch_rejected(self):
        G, S, T = random_problem(0)
        with pytest.raises(DimensionMismatch):
            linalg.solve_weighted_ridge_primal(G, S[:-1], T, c_reg=1.0)
        with pytest.raises(DimensionMismatch):
            linalg.solve_weighted_ridge_primal(G, S, T[:-1], c_reg=1.0)

    def test_nonfinite_rejected(self):
        G, S, T = random_problem(0)
        G[0, 0] = np.nan
        with pytest.raises(NonFiniteInput):
            linalg.solve_weighted_ridge_primal(G, S, T, c_reg=1.0)

    @pytest.mark.parametrize("c", [0.0, -1.0])
    def test_nonpositive_regularization_rejected(self, c):
        G, S, T = random_problem(0)
        with pytest.raises(ValueError):
            linalg.solve_weighted_ridge_primal(G, S, T, c_reg=c)


class TestPairwiseSqDist:
    def test_matches_direct_computation(self):
        rng = np.random.default_rng(1)
        A = rng.normal(size=(7, 3))
        B = rng.normal(size=(5, 3))
        D = linalg.pairwise_sq_dist(A, B)
        direct = ((A[:, None, :] - B[None, :, :]) ** 2).sum(axis=2)
        np.testing.assert_allclose(D, direct, rtol=1e-10, atol=1e-12)

    def test_identical_rows_give_exact_zero(self):
        A = np.array([[1e6, -2e6, 3.5e5]])
        D = linalg.pairwise_sq_dist(A, A.copy())
        assert D[0, 0] == 0.0

    @pytest.mark.parametrize("n,d,offset", [(40, 3, 0.0), (400, 10, 0.0), (300, 10, 1e3)])
    def test_self_distances_equal_full_fixup_reference(self, n, d, offset):
        # pairwise_sq_dist(A, A) zeroes its diagonal instead of recomputing
        # it, and screens rows before testing pairs; the reference
        # recomputes every suspect pair, diagonal included.
        rng = np.random.default_rng(n)
        A = rng.normal(offset, 1.0, size=(n, d))
        A[-5:] = A[:5]  # duplicated rows still go through the fix-up
        D = linalg.pairwise_sq_dist(A, A)
        np.testing.assert_array_equal(D, oracles.pairwise_sq_dist(A, A))
        assert (np.diag(D) == 0.0).all() and (D[-5:, :5].diagonal() == 0.0).all()
        # Distinct operands: rows shared with A, rows of A moved by about
        # the fix-up tolerance, and a zero row, so that screening rows by
        # anything below the largest norm of B would miss suspect pairs.
        near = A[1::7].copy()
        near[:, 0] += np.sqrt(32 * np.finfo(np.float64).eps * (near**2).sum(axis=1)
                              * rng.uniform(0.3, 1.2, len(near)))
        B = np.vstack([A[::7], near, np.zeros((1, d))])
        D = linalg.pairwise_sq_dist(A, B)
        np.testing.assert_array_equal(D, oracles.pairwise_sq_dist(A, B))
        assert (D[::7, :len(A[::7])].diagonal() == 0.0).all()

    @given(arrays(np.float64, (4, 3), elements=st.floats(-100, 100)))
    @settings(max_examples=50, deadline=None)
    def test_nonnegative_and_symmetric(self, A):
        D = linalg.pairwise_sq_dist(A, A)
        assert (D >= 0).all()
        np.testing.assert_allclose(D, D.T, atol=1e-9)


class TestValidation:
    def test_as_matrix_promotes_to_2d_float(self):
        M = linalg.as_matrix([[1, 2], [3, 4]], "m")
        assert M.dtype == np.float64 and M.shape == (2, 2)

    def test_as_matrix_rejects_1d(self):
        with pytest.raises(DimensionMismatch):
            linalg.as_matrix(np.ones(3), "m")

    def test_as_weights_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            linalg.as_weights(np.array([0.5, 1.5]), 2, "s")
