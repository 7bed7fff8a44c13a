import numpy as np
import pytest
import scipy.stats

from blsbench import data, stats
from blsbench.errors import ClassBalanceError, ConfigError
from blsbench.network import NetworkConfig
from blsbench.trainer import ModelConfig

import published_tables as pt


def toy_dataset(seed=0, n=60):
    rng = np.random.default_rng(seed)
    X = np.vstack([
        rng.normal(0.0, 0.5, size=(n // 2, 2)),
        rng.normal(2.0, 0.5, size=(n - n // 2, 2)),
    ])
    labels = np.array(["a"] * (n // 2) + ["b"] * (n - n // 2), dtype=object)
    return data.Dataset("toy", X, labels)


class TestCrossValidate:
    def test_fold_count_and_range(self):
        ds = toy_dataset()
        plan = data.make_folds(ds.n_samples, 5, seed=1)
        cfg = ModelConfig("bls", NetworkConfig(m=2, p=5, l=1, q=5, seed=0))
        res = stats.cross_validate(ds, cfg, plan)
        assert len(res.per_fold_accuracy) == 5
        assert all(0.0 <= a <= 1.0 for a in res.per_fold_accuracy)
        assert res.mean_accuracy == pytest.approx(np.mean(res.per_fold_accuracy))

    def test_std_uses_sample_dof(self):
        ds = toy_dataset()
        plan = data.make_folds(ds.n_samples, 5, seed=1)
        cfg = ModelConfig("bls", NetworkConfig(seed=0))
        res = stats.cross_validate(ds, cfg, plan)
        assert res.std_dev == pytest.approx(np.std(res.per_fold_accuracy, ddof=1))

    def test_deterministic(self):
        ds = toy_dataset()
        plan = data.make_folds(ds.n_samples, 5, seed=2)
        cfg = ModelConfig("if-bls", NetworkConfig(seed=4))
        a = stats.cross_validate(ds, cfg, plan)
        b = stats.cross_validate(ds, cfg, plan)
        assert a.per_fold_accuracy == b.per_fold_accuracy

    def test_fold_without_a_class_is_skipped(self):
        # The one "b" sample leaves its fold's training part with a single class.
        ds = toy_dataset()
        ds = data.Dataset("one-b", ds.X[:31], ds.labels[:31])
        plan = data.make_folds(ds.n_samples, 5, seed=1)
        skipped = int(plan.assignments[30])
        cfg = ModelConfig("bls", NetworkConfig(m=2, p=5, l=1, q=5, seed=0))
        res = stats.cross_validate(ds, cfg, plan)
        assert res.skipped == (
            f"fold {skipped} of 'one-b' skipped: training data contains a single class",
        )
        assert res.per_fold_accuracy[skipped] is None
        present = [a for a in res.per_fold_accuracy if a is not None]
        assert len(present) == 4
        assert res.mean_accuracy == pytest.approx(np.mean(present))
        assert res.std_dev == pytest.approx(np.std(present, ddof=1))

    def test_every_fold_degenerate_raises(self):
        ds = toy_dataset()
        ds = data.Dataset("one-class", ds.X[:20], ds.labels[:20])
        plan = data.make_folds(ds.n_samples, 4, seed=1)
        cfg = ModelConfig("bls", NetworkConfig(m=2, p=5, l=1, q=5, seed=0))
        with pytest.raises(ClassBalanceError) as exc:
            stats.cross_validate(ds, cfg, plan)
        assert str(exc.value) == (
            "every fold of 'one-class' was degenerate for bls: "
            "training data contains a single class"
        )
        # The distinct reasons follow fold order: the fold that tests the one
        # "b" trains on "a" alone, and every other fold trains on one "b".
        ds = data.Dataset("one-b", ds.X[:19], (*ds.labels[:18], "b"))
        plan = data.make_folds(19, 4, seed=1)
        reasons = ["training data contains a single class" if fold == plan.assignments[18]
                   else "f-bls requires at least 2 samples per class" for fold in range(4)]
        with pytest.raises(ClassBalanceError) as exc:
            stats.cross_validate(ds, ModelConfig("f-bls", cfg.network), plan)
        assert str(exc.value) == (
            "every fold of 'one-b' was degenerate for f-bls: " + "; ".join(dict.fromkeys(reasons))
        )


class TestGridSearch:
    def test_best_is_argmax_over_grid(self):
        ds = toy_dataset(seed=5)
        plan = data.make_folds(ds.n_samples, 5, seed=0)
        grid = stats.GridSpec(c_reg=(0.01, 100.0), m=(2,), p=(4, 8), q=(5,))
        best, results = stats.grid_search(ds, "bls", grid, plan)
        assert len(results) == 4
        assert best.mean_accuracy == max(r.mean_accuracy for r in results)

    def test_first_best_wins_ties(self):
        ds = toy_dataset(seed=6)
        plan = data.make_folds(ds.n_samples, 5, seed=0)
        grid = stats.GridSpec(c_reg=(1.0, 1.0), m=(2,), p=(4,), q=(5,))
        best, results = stats.grid_search(ds, "bls", grid, plan)
        assert best is results[0]

    def test_parallel_matches_serial(self):
        ds = toy_dataset(seed=7)
        plan = data.make_folds(ds.n_samples, 5, seed=0)
        grid = stats.GridSpec(c_reg=(0.1, 10.0), m=(2,), p=(4,), q=(5,))
        b1, r1 = stats.grid_search(ds, "f-bls", grid, plan, jobs=1)
        b2, r2 = stats.grid_search(ds, "f-bls", grid, plan, jobs=2)
        assert [r.mean_accuracy for r in r1] == [r.mean_accuracy for r in r2]
        assert b1.best_config == b2.best_config

    @pytest.mark.parametrize("jobs", [0, -3])
    def test_jobs_below_one_rejected(self, jobs):
        ds = toy_dataset()
        plan = data.make_folds(ds.n_samples, 5, seed=0)
        grid = stats.GridSpec(c_reg=(1.0,), m=(2,), p=(4,), q=(5,))
        with pytest.raises(ConfigError, match="jobs"):
            stats.grid_search(ds, "bls", grid, plan, jobs=jobs)

    def test_pool_never_larger_than_grid(self, monkeypatch):
        import concurrent.futures

        sizes = []

        class RecordingPool(concurrent.futures.ProcessPoolExecutor):
            def __init__(self, max_workers=None, **kwargs):
                sizes.append(max_workers)
                super().__init__(max_workers, **kwargs)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
        ds = toy_dataset(seed=7)
        plan = data.make_folds(ds.n_samples, 5, seed=0)
        grid = stats.GridSpec(c_reg=(0.1, 10.0), m=(2,), p=(4,), q=(5,))
        _, serial = stats.grid_search(ds, "bls", grid, plan, jobs=1)
        _, pooled = stats.grid_search(ds, "bls", grid, plan, jobs=3)
        assert sizes == [2]
        assert pooled == serial

    @pytest.mark.parametrize("name", ["c_reg", "m", "p", "q", "mu", "delta", "epsilon"])
    def test_empty_list_rejected(self, name):
        lists = {"c_reg": (1.0,), "m": (2,), "p": (4,), "q": (5,), name: ()}
        with pytest.raises(ConfigError, match=f"grid list '{name}' must be nonempty"):
            stats.GridSpec(**lists)

    def test_benchmark_grid_sizes(self):
        grid = stats.GridSpec.benchmark_default()
        assert len(grid.configs("bls", 0)) == 7 * 11 * 10 * 11
        assert len(grid.configs("if-bls", 0)) == 7 * 11 * 10 * 11 * 11


class TestRanks:
    def test_published_rank_table_reproduced(self):
        table = stats.rank_models(pt.ACCURACY, pt.DATASETS, pt.MODELS)
        np.testing.assert_array_equal(table.ranks, pt.RANKS)
        np.testing.assert_allclose(
            np.round(table.average_rank, 4), pt.AVERAGE_RANKS, atol=1e-12)

    def test_ties_share_average_rank(self):
        acc = np.array([[0.9, 0.8, 0.9, 0.7]])
        table = stats.rank_models(acc)
        np.testing.assert_array_equal(table.ranks[0], [1.5, 3, 1.5, 4])

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_accuracy_rejected(self, bad):
        acc = np.array([[0.9, 0.8], [0.7, bad]])
        with pytest.raises(ConfigError, match="non-finite"):
            stats.rank_models(acc)

    def test_row_rank_sums_invariant(self):
        rng = np.random.default_rng(0)
        acc = rng.uniform(size=(6, 5))
        table = stats.rank_models(acc)
        np.testing.assert_allclose(table.ranks.sum(axis=1), 5 * 6 / 2)


class TestFriedman:
    def test_hand_worked_small_example(self):
        # Three models over two datasets, ranks (1,2,3) and (2,1,3):
        # average ranks (1.5, 1.5, 3), sum of squares 13.5, so
        # chi2 = 12*2/(3*4) * (13.5 - 3*16/4) = 2 * 1.5 = 3 and
        # F = chi2 (K-1) / (K(D-1) - chi2) = 3 * 1 / (4 - 3) = 3.
        ranks = np.array([[1.0, 2.0, 3.0], [2.0, 1.0, 3.0]])
        table = stats.RankTable(
            datasets=["d1", "d2"], models=["a", "b", "c"],
            ranks=ranks, average_rank=ranks.mean(axis=0))
        res = stats.friedman_test(table)
        assert res.chi2 == pytest.approx(3.0)
        assert res.f_stat == pytest.approx(3.0)
        assert res.chi2_dof == 2
        assert res.f_dof == (2, 2)

    def test_perfect_agreement_makes_f_undefined(self):
        from blsbench.errors import ClassBalanceError, ConfigError

        ranks = np.array([[1.0, 2.0, 3.0], [1.0, 2.0, 3.0]])
        table = stats.RankTable(
            datasets=["d1", "d2"], models=["a", "b", "c"],
            ranks=ranks, average_rank=ranks.mean(axis=0))
        with pytest.raises(ConfigError):
            stats.friedman_test(table)

    def test_matches_scipy_chi2_without_ties(self):
        rng = np.random.default_rng(1)
        acc = rng.normal(size=(10, 4))  # continuous, so no ties
        table = stats.rank_models(acc)
        res = stats.friedman_test(table)
        ref = scipy.stats.friedmanchisquare(*acc.T)
        assert res.chi2 == pytest.approx(ref.statistic, rel=1e-10)

    def test_accepts_published_average_ranks(self):
        res = stats.friedman_test(pt.AVERAGE_RANKS, n_datasets=28)
        assert res.chi2 == pytest.approx(pt.FRIEDMAN_CHI2, abs=1e-3)
        assert res.f_stat == pytest.approx(pt.FRIEDMAN_F, abs=1e-3)
        assert res.chi2_dof == 6
        assert res.f_dof == (6, 6 * 27)


class TestWilcoxon:
    def test_matches_scipy_normal_approximation(self):
        rng = np.random.default_rng(2)
        for trial in range(5):
            a = rng.normal(size=25)
            b = a + rng.normal(scale=0.5, size=25)
            res = stats.wilcoxon_signed_rank(a, b)
            ref = scipy.stats.wilcoxon(
                a, b, zero_method="wilcox", correction=True, mode="approx")
            assert res.statistic == pytest.approx(ref.statistic)
            assert res.p_value == pytest.approx(ref.pvalue, rel=1e-10)

    def test_zero_differences_dropped(self):
        a = np.array([1.0, 2.0, 3.0, 4.0, 5.0])
        b = np.array([1.0, 2.0, 2.5, 4.5, 4.0])
        res = stats.wilcoxon_signed_rank(a, b)
        assert res.n_nonzero == 3

    def test_statistic_is_smaller_rank_sum(self):
        a = np.arange(1.0, 11.0)
        b = a - 1.0  # a always wins
        res = stats.wilcoxon_signed_rank(a, b)
        assert res.statistic == 0.0

    def test_identical_samples_raise(self):
        # All differences are zero; the comparison is undefined and should
        # surface as a structured error the caller can report per pair.
        from blsbench.errors import ClassBalanceError, ConfigError

        a = np.ones(10)
        with pytest.raises(ConfigError):
            stats.wilcoxon_signed_rank(a, a)

    def test_reject_flag_matches_alpha(self):
        rng = np.random.default_rng(3)
        a = rng.normal(size=30)
        b = a + 1.0
        res = stats.wilcoxon_signed_rank(a, b)
        assert res.reject and res.p_value < 0.05

    @pytest.mark.parametrize("alpha", [0.0, 1.0, 7.0, -0.1, np.nan])
    def test_alpha_outside_unit_interval_rejected(self, alpha):
        a = np.arange(1.0, 11.0)
        with pytest.raises(ConfigError, match=r"alpha must lie in \(0, 1\)"):
            stats.wilcoxon_signed_rank(a, a - 1.0, alpha)


class TestWinTieLoss:
    def test_counts_with_tolerance(self):
        a = np.array([0.90, 0.80, 0.70001, 0.60])
        b = np.array([0.85, 0.85, 0.70, 0.70])
        res = stats.win_tie_loss(a, b, tie_tol=1e-4)
        assert (res.wins_a, res.ties, res.wins_b) == (1, 1, 2)

    def test_threshold_formula(self):
        res = stats.win_tie_loss(np.ones(28), np.zeros(28))
        assert res.threshold == pytest.approx(28 / 2 + 1.96 * np.sqrt(28) / 2)
        assert res.significant  # 28 wins exceeds 19.19

    def test_published_matrix_reproduced(self):
        idx = {m: i for i, m in enumerate(pt.MODELS)}
        for (ma, mb), (w, t, l) in pt.WIN_TIE_LOSS.items():
            res = stats.win_tie_loss(
                pt.ACCURACY[:, idx[ma]], pt.ACCURACY[:, idx[mb]])
            assert (res.wins_a, res.ties, res.wins_b) == (w, t, l), (ma, mb)

    def test_symmetry(self):
        rng = np.random.default_rng(4)
        a, b = rng.uniform(size=20), rng.uniform(size=20)
        fwd = stats.win_tie_loss(a, b)
        rev = stats.win_tie_loss(b, a)
        assert (fwd.wins_a, fwd.ties, fwd.wins_b) == (rev.wins_b, rev.ties, rev.wins_a)

    @pytest.mark.parametrize("tie_tol", [-1.0, -1e-12, np.nan, np.inf])
    def test_negative_or_non_finite_tie_tol_rejected(self, tie_tol):
        with pytest.raises(ConfigError, match="tie_tol must be finite and non-negative"):
            stats.win_tie_loss(np.ones(5), np.zeros(5), tie_tol)

    def test_zero_tie_tol_counts_exact_ties_only(self):
        res = stats.win_tie_loss(np.array([1.0, 0.5, 0.2]), np.array([1.0, 0.6, 0.1]), 0.0)
        assert (res.wins_a, res.ties, res.wins_b) == (1, 1, 1)
