import ctypes
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

import oracles
from blsbench import linalg
from conftest import scratch_for, solve, solves_in_bundle
from blsbench.errors import DimensionMismatch, FactorizationFailure


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
        W = solve(G, S, T, 10.0, "primal")
        np.testing.assert_allclose(W, dense_oracle_primal(G, S, T, 10.0), rtol=1e-9)

    @pytest.mark.parametrize("seed", range(5))
    @pytest.mark.parametrize("weighted", [True, False])
    def test_dual_matches_dense_oracle(self, seed, weighted):
        G, S, T = random_problem(seed, weighted=weighted)
        W = solve(G, S, T, 10.0, "dual")
        np.testing.assert_allclose(W, dense_oracle_dual(G, S, T, 10.0), rtol=1e-9)

    def test_primal_dual_agree(self):
        G, S, T = random_problem(3, n=30, d=8)
        Wp = solve(G, S, T, 100.0, "primal")
        Wd = solve(G, S, T, 100.0, "dual")
        np.testing.assert_allclose(Wp, Wd, rtol=1e-8)

    def test_unit_weights_reduce_to_plain_ridge(self):
        # With S = 1 the solution must equal the ordinary ridge solution.
        G, _, T = random_problem(4, n=20, d=6)
        ones = np.ones(20)
        W = solve(G, ones, T, 1.0, "primal")
        ridge = np.linalg.solve(G.T @ G + np.eye(6), G.T @ T)
        np.testing.assert_allclose(W, ridge, rtol=1e-10)

    def test_solution_minimizes_objective(self):
        G, S, T = random_problem(8, n=15, d=4)
        W = solve(G, S, T, 5.0, "primal")
        base = oracles.ridge_objective(G, S, T, 5.0, W)
        rng = np.random.default_rng(0)
        for _ in range(20):
            perturbed = W + rng.normal(scale=1e-3, size=W.shape)
            assert oracles.ridge_objective(G, S, T, 5.0, perturbed) > base


def without_bundled_lapack(monkeypatch):
    """Solve as on a scipy whose wheel bundles no OpenBLAS: through the
    routines that scipy.linalg.cython_lapack exports."""
    with monkeypatch.context() as m:
        m.setattr(linalg, "_bundled_openblas", lambda package: [])
        routines = linalg._lapack.__wrapped__()
    assert not hasattr(routines["dpotrf"], "__name__")  # not a library's symbol
    monkeypatch.setattr(linalg, "_lapack", lambda: routines)


class TestDirectLapack:
    # "bundled" solves through the routines _lapack() chose, scipy's bundled
    # OpenBLAS where there is one, the other cases through those of
    # scipy.linalg.cython_lapack. 4 shapes (two primal, two dual with F > N) x
    # 3 weightings x 3 C values = 36 systems, each solved both ways and
    # compared bit for bit with scipy.linalg. The test builds each system as
    # oracles.fit_w_out does, G'(S^2 G) from a separate S^2 G on the primal
    # and S^2 (G G') on the dual, and maps the dual's solution back itself.
    @pytest.mark.parametrize("n,f,branch", [(60, 20, "primal"), (200, 150, "primal"),
                                            (40, 90, "dual"), (120, 400, "dual")])
    @pytest.mark.parametrize("weights", ["ones", "random", "zeros"])
    def test_solve_is_scipy_linalg_bit_for_bit(self, n, f, branch, weights, monkeypatch):
        rng = np.random.default_rng(n + f)
        G = rng.normal(size=(n, f))
        T = np.eye(3)[rng.integers(0, 3, size=n)]
        s = {"ones": np.ones(n), "random": rng.uniform(size=n),
             "zeros": np.where(rng.uniform(size=n) < 0.3, 0.0, rng.uniform(size=n))}[weights]
        scratch = scratch_for(n, f)
        s2 = s * s
        with linalg._single_threaded_blas():
            if branch == "primal":
                A, r, rhs = G.T @ (s2[:, None] * G), None, G.T @ (s2[:, None] * T)
            else:
                A, r, rhs = linalg._gram(G, scratch), s2, s2[:, None] * T
            A0, rhs0 = A.copy(), rhs.copy()

            def solved(c):
                X = linalg._solve_system(A, r, rhs, c, scratch)
                return X if r is None else G.T @ X

            for c in (1e-2, 1.0, 1e4):
                want = oracles.scipy_solve(A if r is None else r[:, None] * A, rhs, c, branch, G)
                assert np.array_equal(solved(c), want)
                with monkeypatch.context() as m:
                    without_bundled_lapack(m)
                    assert np.array_equal(solved(c), want)
        # Both sources factorize copies: every C is solved from the same A and rhs.
        assert np.array_equal(A, A0) and np.array_equal(rhs, rhs0)

    # Shapes of Wf' of the paper grid's widest network on 10 and on 57
    # features, and one past dgeqrf's crossover to blocked code (128 columns).
    @pytest.mark.parametrize("bundled", [True, False])
    @pytest.mark.parametrize("m,n", [(1050, 11), (1050, 58), (400, 140)])
    def test_thin_qr_is_scipy_linalg_bit_for_bit_in_place(self, m, n, bundled, monkeypatch):
        import scipy.linalg

        if not bundled:
            without_bundled_lapack(monkeypatch)
        a = np.asfortranarray(np.random.default_rng(m + n).uniform(-1.0, 1.0, size=(m, n)))
        with linalg._single_threaded_blas():
            Q_want, R_want = scipy.linalg.qr(a, mode="economic")
            R = linalg._thin_qr(a)
        assert np.array_equal(a, Q_want) and np.array_equal(R, R_want)

    @pytest.mark.parametrize("bundled", [True, False])
    def test_failed_cholesky_names_the_minor(self, bundled, monkeypatch):
        if not bundled:
            without_bundled_lapack(monkeypatch)
        A = np.diag([1.0, 1.0, -2.0, 1.0])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(FactorizationFailure, match=(
                    r"^Cholesky factorization of G'S\^2G \+ I/C failed: 3-th leading minor "
                    r"of the array is not positive definite$")):
                linalg._solve_system(A, None, np.ones((4, 2)), 1.0, scratch_for(4, 4))

    def test_singular_dual_raises(self, monkeypatch):
        # A + I/C = 0, a zero pivot; scipy.linalg's LU would warn on it.
        for bundled in (True, False):
            with monkeypatch.context() as m, warnings.catch_warnings():
                if not bundled:
                    without_bundled_lapack(m)
                warnings.simplefilter("error")
                with pytest.raises(FactorizationFailure, match=r"^I/C \+ S\^2GG' is singular$"):
                    linalg._solve_system(-np.eye(3), np.ones(3), np.ones((3, 2)), 1.0,
                                         scratch_for(3, 4))

    def test_overflowing_dual_raises(self):
        # I/C overflows to inf at this C, which ModelConfig would refuse: no zero
        # pivot, but a factor that is not finite.
        with pytest.raises(FactorizationFailure, match=r"^I/C \+ S\^2GG' is singular$"):
            linalg._solve_system(np.eye(3), np.ones(3), np.ones((3, 2)), 1e-320, scratch_for(3, 4))

    @pytest.mark.parametrize("bundled", [True, False])
    def test_nan_dual_raises(self, bundled, monkeypatch):
        # The NaN in row 0 spreads through the elimination into the later
        # pivots, which dgetrf does not count as zero (INFO 0): only the check
        # of the factor's minimum and maximum sees it.
        if not bundled:
            without_bundled_lapack(monkeypatch)
        A = np.eye(3)
        A[0, 1] = np.nan
        with pytest.raises(FactorizationFailure, match=r"^I/C \+ S\^2GG' is singular$"):
            linalg._solve_system(A, np.ones(3), np.ones((3, 2)), 1.0, scratch_for(3, 4))

    def test_illegal_argument_raises(self):
        # Bundle only: a system LAPACK's XERBLA may stop the process instead.
        if not solves_in_bundle():
            pytest.skip("scipy bundles no OpenBLAS")
        a = np.eye(3, order="F")
        with pytest.raises(ValueError, match="^LAPACK dpotrf rejected its argument 1$"):
            linalg._call_lapack("dpotrf", b"X", 3, a, 3)
        with pytest.raises(ctypes.ArgumentError):  # row-major: the routine never sees it
            linalg._call_lapack("dpotrf", b"L", 3, np.eye(3), 3)


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

    @pytest.mark.parametrize("n,blocks", [(40, [40]), (200, [65, 65, 65, 5])])
    def test_row_blocks_equal_one_expression_form(self, n, blocks):
        # 1,000 columns give row blocks of 65 rows: 40 rows are one partial
        # block, 200 rows three whole blocks and a partial one. B repeats A's
        # rows, and moves them by about the fix-up tolerance, so that every
        # block holds pairs that the fix-up recomputes.
        assert [r.stop - r.start for r in linalg._row_blocks(n, 1000)] == blocks
        rng = np.random.default_rng(n)
        A = rng.normal(size=(n, 6))
        B = rng.normal(size=(1000, 6))
        B[:n] = A
        B[n:2 * n] = A
        B[n:2 * n, 0] += np.sqrt(16 * np.finfo(np.float64).eps * (A**2).sum(axis=1)
                                 * rng.uniform(0.3, 1.2, n))
        D = linalg._sq_dist(A, B)
        np.testing.assert_array_equal(D, oracles.pairwise_sq_dist(A, B))
        assert (D[:, :n].diagonal() == 0.0).all()

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

    def test_pairwise_sq_dist_rejects_column_mismatch(self):
        with pytest.raises(DimensionMismatch, match="A has 2 columns but B has 3"):
            linalg.pairwise_sq_dist(np.ones((4, 2)), np.ones((5, 3)))
