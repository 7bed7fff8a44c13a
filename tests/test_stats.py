import os
import tracemalloc

import numpy as np
import pytest
import scipy.stats
from hypothesis import given, settings, strategies as st

from blsbench import data, linalg, network, stats, trainer
from blsbench.errors import (BlsBenchError, ClassBalanceError, ConfigError, FactorizationFailure,
                             NonFiniteInput)
from blsbench.network import NetworkConfig
from blsbench.trainer import ModelConfig

import oracles
import published_tables as pt
from conftest import make_blobs, outer_blas_threads


def toy_dataset(seed=0, n=60):
    rng = np.random.default_rng(seed)
    X = np.vstack([
        rng.normal(0.0, 0.5, size=(n // 2, 2)),
        rng.normal(2.0, 0.5, size=(n - n // 2, 2)),
    ])
    labels = np.array(["a"] * (n // 2) + ["b"] * (n - n // 2), dtype=object)
    return data.Dataset("toy", X, labels)


@pytest.fixture
def pool_sizes(monkeypatch):
    """The max_workers of each process pool that the test starts."""
    import concurrent.futures

    sizes = []

    class RecordingPool(concurrent.futures.ProcessPoolExecutor):
        def __init__(self, max_workers=None, **kwargs):
            sizes.append(max_workers)
            super().__init__(max_workers, **kwargs)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
    return sizes


class TestCrossValidate:
    def test_fold_count_and_range(self):
        ds = toy_dataset()
        plan = data.make_folds(ds.n_samples, 5, seed=1)
        cfg = ModelConfig("bls", NetworkConfig(m=2, p=5, l=1, q=5, seed=0))
        res = stats.cross_validate(ds, cfg, plan)
        assert len(res.per_fold_accuracy) == 5
        assert all(0.0 <= a <= 1.0 for a in res.per_fold_accuracy)
        assert res.mean_accuracy == pytest.approx(np.mean(res.per_fold_accuracy))

    def test_plan_for_another_size_rejected(self):
        ds = toy_dataset()
        plan = data.make_folds(ds.n_samples + 1, 5, seed=1)
        with pytest.raises(ConfigError, match="fold plan does not match the dataset size"):
            stats.cross_validate(ds, ModelConfig("bls"), plan)

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

    def test_every_fold_degenerate_raises(self, pool_sizes, monkeypatch):
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
        # The grid fails alike, before any weight vector or worker process.
        sample_weights, calls = trainer._sample_weights, []
        monkeypatch.setattr(trainer, "_sample_weights",
                            lambda *args: calls.append(args) or sample_weights(*args))
        grid = stats.GridSpec(c_reg=(0.1, 10.0), m=(2,), p=(4,), q=(5,))
        with pytest.raises(ClassBalanceError) as grid_exc:
            stats.grid_search(ds, "bls", grid, plan, jobs=2)
        assert str(grid_exc.value) == str(exc.value)
        assert pool_sizes == [] and calls == []
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

    @pytest.mark.parametrize("variant", ["bls", "f-bls"])
    @pytest.mark.parametrize("branch,net", [("primal", NetworkConfig(m=10, p=30, q=600)),
                                            ("dual", NetworkConfig(m=21, p=50, q=900))])
    def test_peak_memory_is_the_memory_estimate(self, variant, branch, net):
        # The engine writes what its memory check counts: its peak is
        # _network_bytes on the 800 training rows and 200 test rows of a
        # fold, plus 12 X.nbytes for the run's folds (their normalized rows
        # alone are 5 X.nbytes), the vectors, the K-column arrays and numpy's
        # ufunc buffers. 1,000 rows of 10 features, solved on 611 and 911
        # columns; on the dual an N x N bool mask breaks the bound.
        X, y = make_blobs(500, [(0.0,) * 10, (1.0,) * 10], 1.0, seed=3)
        ds, plan = data.Dataset("blobs", X, y), data.make_folds(1000, 5, 0)
        assert trainer._solve_branch(network._solved_config(net, 10).width, 800) == branch
        tracemalloc.start()
        try:
            stats.cross_validate(ds, ModelConfig(variant, net), plan)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= trainer._network_bytes(800, 10, net, 200) + 12 * X.nbytes


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
        grid = stats.GridSpec(c_reg=(1.0, np.nextafter(1.0, 2.0)), m=(2,), p=(4,), q=(5,))
        best, results = stats.grid_search(ds, "bls", grid, plan)
        assert results[0].mean_accuracy == results[1].mean_accuracy
        assert best is results[0]

    def test_parallel_matches_serial(self):
        ds = toy_dataset(seed=7)
        plan = data.make_folds(ds.n_samples, 5, seed=0)
        grid = stats.GridSpec(c_reg=(0.1, 10.0), m=(2,), p=(4,), q=(5,))
        b1, r1 = stats.grid_search(ds, "f-bls", grid, plan, jobs=1)
        b2, r2 = stats.grid_search(ds, "f-bls", grid, plan, jobs=2)
        assert [r.mean_accuracy for r in r1] == [r.mean_accuracy for r in r2]
        assert b1.best_config == b2.best_config

    @pytest.mark.parametrize("jobs", [0, -3, 2.0, True])
    def test_jobs_below_one_rejected(self, jobs):
        ds = toy_dataset()
        plan = data.make_folds(ds.n_samples, 5, seed=0)
        grid = stats.GridSpec(c_reg=(1.0,), m=(2,), p=(4,), q=(5,))
        with pytest.raises(ConfigError, match="jobs"):
            stats.grid_search(ds, "bls", grid, plan, jobs=jobs)

    def test_pool_never_larger_than_grid(self, pool_sizes):
        ds = toy_dataset(seed=7)
        plan = data.make_folds(ds.n_samples, 5, seed=0)
        grid = stats.GridSpec(c_reg=(0.1, 10.0), m=(2,), p=(4,), q=(5,))
        _, serial = stats.grid_search(ds, "bls", grid, plan, jobs=1)
        _, pooled = stats.grid_search(ds, "bls", grid, plan, jobs=3)
        assert pool_sizes == [2]
        assert pooled == serial
        # 20 "a" rows and one "b" in 2 folds: the fold that tests the "b"
        # trains on "a" alone and has no cell, so the one cell left runs in
        # the parent process.
        ds = toy_dataset(seed=7, n=40)
        ds = data.Dataset("one-b", ds.X[:21], ds.labels[:21])
        plan = data.make_folds(ds.n_samples, 2, seed=0)
        _, serial = stats.grid_search(ds, "bls", grid, plan, jobs=1)
        _, pooled = stats.grid_search(ds, "bls", grid, plan, jobs=3)
        assert pool_sizes == [2]
        assert pooled == serial
        assert all(len(r.skipped) == 1 and r.per_fold_accuracy.count(None) == 1 for r in serial)

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_each_weight_vector_built_once_per_run(self, jobs, monkeypatch, tmp_path):
        # 5 folds x 3 mu values are 15 weight vectors, each built once before
        # any cell, in the parent or in one worker, whatever the slices.
        log = tmp_path / "weights.log"
        sample_weights = trainer._sample_weights

        def counted(*args):
            with open(log, "a") as fh:  # one line per call, from any process
                fh.write("call\n")
            return sample_weights(*args)

        monkeypatch.setattr(trainer, "_sample_weights", counted)  # before the pool forks
        ds = toy_dataset(seed=8, n=400)
        plan = data.make_folds(ds.n_samples, 5, seed=0)
        grid = stats.GridSpec(c_reg=(0.1, 10.0), m=(2,), p=(4, 8), q=(5, 10), mu=(0.5, 1.0, 2.0))
        stats.grid_search(ds, "if-bls", grid, plan, jobs=jobs)
        assert len(log.read_text().splitlines()) == 15

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_weight_vectors_built_at_one_blas_thread(self, jobs, monkeypatch, tmp_path):
        # The caller runs BLAS at 2 threads; fit scores at one, whose bits
        # the engine must keep, in the parent process or in a worker.
        log = tmp_path / "threads.log"
        sample_weights = trainer._sample_weights

        def counted(*args):
            with open(log, "a") as fh:  # one line per call, from any process
                fh.write(f"{[get() for get, _ in linalg._openblas_thread_controls()]}\n")
            return sample_weights(*args)

        monkeypatch.setattr(trainer, "_sample_weights", counted)  # before the pool forks
        ds = toy_dataset(seed=8, n=100)
        plan = data.make_folds(ds.n_samples, 5, seed=0)
        grid = stats.GridSpec(c_reg=(1.0,), m=(2,), p=(4, 8), q=(5,), mu=(0.5, 2.0))
        with outer_blas_threads(2) as threads:
            stats.grid_search(ds, "if-bls", grid, plan, jobs=jobs)
            assert threads() == [2] * len(threads())
        lines = log.read_text().splitlines()
        assert len(lines) == 10 and set(lines) == {str([1] * len(threads()))}

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_first_failure_in_cell_order_stops_the_grid(self, jobs, monkeypatch):
        # Solved widths 5 and 6 on 32 training rows, both primal. In config
        # order (C outermost) the first failing config is C=1 at width 6; in
        # cell order (network, fold, C) the first failure is the width-5
        # network's fold-0 cell at C=100.
        solve_system, solves = linalg._solve_system, []

        def failing(A, r, rhs, c, scratch):
            solves.append(c)
            w = A.shape[0]
            if (c, w) in ((1.0, 6), (100.0, 5)):
                raise FactorizationFailure(f"fail C={c:g} width={w}")
            return solve_system(A, r, rhs, c, scratch)

        monkeypatch.setattr(linalg, "_solve_system", failing)  # before the pool forks
        X, y = make_blobs(20, [(0.0, 0.0), (3.0, 3.0)], 0.6, seed=7)
        ds, plan = data.Dataset("blobs", X, y), data.make_folds(40, 5, 0)
        grid = stats.GridSpec(c_reg=(1.0, 100.0), m=(1, 2), p=(2,), q=(3,))
        with pytest.raises(FactorizationFailure, match="^fail C=100 width=5$"):
            stats.grid_search(ds, "bls", grid, plan, jobs=jobs)
        assert len(solves) == (2 if jobs == 1 else 0)  # pooled solves run in the workers

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_network_major_order_reports_the_first_failure(self, jobs, monkeypatch):
        # 42 rows in 5 folds: folds 0 and 1 train on 33 rows, folds 2-4 on 34.
        # The network of solved width 5 fails on 34 training rows and that of
        # solved width 6 on 33. Fold-major order (fold, then network) would
        # stop at the width-6 network on fold 0; network-major order finishes
        # folds 0 and 1 of the width-5 network and stops at its fold 2.
        forward = network._forward

        def failing(layer, X, out=None):
            width, rows = layer.config.width, X.shape[0]
            if (width, rows) in ((5, 34), (6, 33)):
                raise FactorizationFailure(f"fail width={width} rows={rows}")
            return forward(layer, X, out)

        monkeypatch.setattr(network, "_forward", failing)  # before the pool forks
        X, y = make_blobs(21, [(0.0, 0.0), (3.0, 3.0)], 0.6, seed=7)
        ds, plan = data.Dataset("blobs", X, y), data.make_folds(42, 5, 0)
        assert [len(plan.train_indices(fold)) for fold in range(5)] == [33, 33, 34, 34, 34]
        grid = stats.GridSpec(c_reg=(1.0, 100.0), m=(1, 2), p=(2,), q=(3,))
        with pytest.raises(FactorizationFailure, match="^fail width=5 rows=34$"):
            stats.grid_search(ds, "bls", grid, plan, jobs=jobs)
        with pytest.raises(FactorizationFailure, match="^fail width=5 rows=34$"):
            oracles.grid_search_by_fit(ds, grid.configs("bls", 0), plan)

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_fold_error_stops_the_run_before_any_cell(self, jobs, pool_sizes, monkeypatch,
                                                      tmp_path):
        # Fold 1 trains on a range of 1e-300 and tests row 0, which normalizes
        # beyond float64. Every solve fails, and fold 0's cells come first in
        # cell order, yet no solve runs: fold 1's error raises as the folds are
        # built, before any weight vector, worker process or cell.
        log = tmp_path / "solves.log"

        def failing(*args):
            with open(log, "a") as fh:  # one line per call, from any process
                fh.write("solve\n")
            raise FactorizationFailure("every solve fails")

        monkeypatch.setattr(linalg, "_solve_system", failing)  # before the pool forks
        X = np.vstack([[1e300], np.linspace(0.0, 1e-300, 9)[:, None]])
        ds, plan = data.Dataset("wide", X, tuple("ab" * 5)), data.make_folds(10, 2, 0)
        assert plan.assignments[0] == 1
        grid = stats.GridSpec(c_reg=(1.0, 100.0), m=(1,), p=(2,), q=(3,))
        with pytest.raises(NonFiniteInput, match="^X_test feature 0 normalizes beyond float64$"):
            stats.grid_search(ds, "bls", grid, plan, jobs=jobs)
        assert not log.exists() and pool_sizes == []

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_weight_vector_error_stops_the_run_before_any_cell(self, jobs, monkeypatch,
                                                               tmp_path):
        # Only fold 3's second weighting fails to build its weight vector. The
        # cells of folds 0-2 come first in cell order, yet no solve runs: the
        # error raises as the weight vectors are built, at any jobs.
        log = tmp_path / "solves.log"
        solve_system, sample_weights = linalg._solve_system, trainer._sample_weights
        X, y = make_blobs(21, [(0.0, 0.0), (3.0, 3.0)], 0.6, seed=7)
        ds, plan = data.Dataset("blobs", X, y), data.make_folds(42, 5, 0)
        train = plan.train_indices(3)
        Xn = trainer._prepare(ds.X[train], [ds.labels[i] for i in train], "f-bls")[0]

        def counted(*args):
            with open(log, "a") as fh:  # one line per call, from any process
                fh.write("solve\n")
            return solve_system(*args)

        def failing(Xn_fold, indices, cfg):
            if cfg.delta == 0.1 and np.array_equal(Xn_fold, Xn):
                raise ConfigError("fold 3 fails at delta 0.1")
            return sample_weights(Xn_fold, indices, cfg)

        monkeypatch.setattr(linalg, "_solve_system", counted)  # before the pool forks
        monkeypatch.setattr(trainer, "_sample_weights", failing)
        grid = stats.GridSpec(c_reg=(1.0, 100.0), m=(1, 2), p=(2,), q=(3,), delta=(1e-4, 0.1))
        with pytest.raises(ConfigError, match="^fold 3 fails at delta 0.1$"):
            stats.grid_search(ds, "f-bls", grid, plan, jobs=jobs)
        assert not log.exists()

    @pytest.mark.parametrize("jobs,most", [(1, 4), (2, 5)])
    def test_each_layer_drawn_once_per_slice(self, jobs, most, monkeypatch, tmp_path):
        # 4 networks, each run on 5 folds and 3 weightings; a slice edge cuts at
        # most jobs - 1 networks in two.
        log = tmp_path / "draws.log"
        draw = network.init_random_layer

        def counted(*args):
            with open(log, "a") as fh:  # one line per call, from any process
                fh.write("draw\n")
            return draw(*args)

        monkeypatch.setattr(network, "init_random_layer", counted)  # before the pool forks
        ds = toy_dataset(seed=8, n=100)
        plan = data.make_folds(ds.n_samples, 5, seed=0)
        grid = stats.GridSpec(c_reg=(0.1, 10.0), m=(2,), p=(4, 8), q=(5, 10), mu=(0.5, 1.0, 2.0))
        stats.grid_search(ds, "if-bls", grid, plan, jobs=jobs)
        assert 4 <= len(log.read_text().splitlines()) <= most

    def test_each_state_matrix_built_once_per_network_and_fold_in_one_buffer(self, monkeypatch):
        # 4 networks x 5 folds, each with 3 mu weightings: one training pass per
        # (network, fold), every one written into the same buffer, and one
        # test-row pass, through state_matrix, into a fresh array.
        forward, into, fresh = network._forward, [], []

        def recording(layer, X, out=None):
            (fresh if out is None else into).append(out)
            return forward(layer, X, out)

        monkeypatch.setattr(network, "_forward", recording)
        ds = toy_dataset(seed=8, n=100)
        plan = data.make_folds(ds.n_samples, 5, seed=0)
        grid = stats.GridSpec(c_reg=(0.1, 10.0), m=(2,), p=(4, 8), q=(5, 10), mu=(0.5, 1.0, 2.0))
        stats.grid_search(ds, "if-bls", grid, plan)
        assert len(into) == len(fresh) == 20
        assert len({out.ctypes.data for out in into}) == 1

    @pytest.mark.parametrize("p,q,branch", [(2, 6, "primal"), (12, 30, "dual")])
    def test_engine_memory_check_counts_its_buffers(self, p, q, branch, monkeypatch):
        # 8 bytes x (layer weights and biases + the solved layer's, k x (d + 1)
        # and (k + 1) x q, and its m p x k back-map Q + the solved state matrix
        # of r = k + q columns, the system and the factor copy: S^2 U, which
        # the r x r copy reuses, on the primal, N x N each on the dual, where
        # U U' is the system + the state matrix of the 6 test rows, on the
        # layer's m p + q columns), on 24 training rows, against page size x
        # pages: fit's estimate plus the test rows.
        ds = toy_dataset(seed=9, n=30)
        plan = data.make_folds(ds.n_samples, 5, seed=0)
        net = NetworkConfig(m=2, p=p, q=q)
        n, n_test, d, mp = 24, 6, 2, net.m * net.p
        k = min(mp, d + 1)
        r = k + net.l * net.q
        assert trainer._solve_branch(r, n) == branch
        arrays = 2 * n * r + r * r if branch == "primal" else n * r + 2 * n * n
        solved = k * (d + 1) + net.l * net.q * (k + 1) + mp * k
        need = 8 * (mp * (d + 1) + net.l * net.q * (mp + 1) + solved + arrays + n_test * net.width)
        for pages, refused in ((need, False), (need - 1, True)):
            monkeypatch.setattr(os, "sysconf", lambda key: {"SC_PAGE_SIZE": 1,
                                                             "SC_PHYS_PAGES": pages}[key])
            if refused:
                with pytest.raises(ConfigError, match=(
                        rf"^network m=2, p={p}, l=1, q={q} on 24 rows needs about ")):
                    stats.cross_validate(ds, ModelConfig("bls", net), plan)
            else:
                stats.cross_validate(ds, ModelConfig("bls", net), plan)

    @pytest.mark.parametrize("p,q", [(2, 6), (12, 30)])
    def test_refused_network_gets_no_buffers(self, p, q, monkeypatch):
        # At one page less than the need that _states checks, the 6 test rows
        # included, _scratch sizes no buffer for the network _states refuses.
        ds = toy_dataset(seed=9, n=30)
        plan = data.make_folds(ds.n_samples, 5, seed=0)
        net = NetworkConfig(m=2, p=p, q=q)
        pages = trainer._network_bytes(24, 2, net, 6) - 1
        monkeypatch.setattr(os, "sysconf", lambda key: {"SC_PAGE_SIZE": 1,
                                                         "SC_PHYS_PAGES": pages}[key])
        scratch, sized = trainer._scratch, []

        def recording(runs):
            sized.append(scratch(runs))
            return sized[-1]

        monkeypatch.setattr(trainer, "_scratch", recording)
        with pytest.raises(ConfigError, match=(
                rf"^network m=2, p={p}, l=1, q={q} on 24 rows needs about \S+ GiB; "
                r"this machine has \S+ GiB$")):
            stats.cross_validate(ds, ModelConfig("bls", net), plan)
        assert sized == [{}]

    def test_mixed_branch_buffers_hold_the_widest_networks_need(self):
        # A slice of a primal (solved width 9) and a dual (solved width 33)
        # network on 24 training and 6 test rows shares one buffer per key:
        # together exactly the dual's buffers, so the primal adds nothing.
        primal, dual = NetworkConfig(m=2, p=2, q=6), NetworkConfig(m=2, p=12, q=30)
        widths = [network._solved_config(net, 2).width for net in (primal, dual)]
        assert [trainer._solve_branch(r, 24) for r in widths] == ["primal", "dual"]
        pair = [(24, 2, primal, 6), (24, 2, dual, 6)]
        for runs in (pair, pair[::-1]):
            sizes = {key: len(buf) for key, buf in trainer._scratch(runs).items()}
            assert sizes == linalg._buffer_sizes(24, widths[1])

    @pytest.mark.parametrize("name", ["c_reg", "m", "p", "q", "mu", "delta", "epsilon"])
    def test_empty_list_rejected(self, name):
        lists = {"c_reg": (1.0,), "m": (2,), "p": (4,), "q": (5,), name: ()}
        with pytest.raises(ConfigError, match=f"grid list '{name}' must be nonempty"):
            stats.GridSpec(**lists)

    @pytest.mark.parametrize("values", ["15", 1.0])
    def test_string_or_scalar_list_rejected(self, values):
        # A string would split into its characters: c_reg "15" into 1.0 and 5.0.
        with pytest.raises(ConfigError) as exc:
            stats.GridSpec(c_reg=values, m=(1,), p=(2,), q=(3,))
        assert str(exc.value) == f"grid list 'c_reg' must be a sequence, got {values!r}"

    @pytest.mark.parametrize("name,values,shown", [
        ("c_reg", (1, 10.0, 1.0), "1.0"),
        ("m", (2, 3, 2), "2"),
        ("epsilon", ("median_heuristic", 0.5, "median_heuristic"), "'median_heuristic'"),
    ])
    def test_repeated_value_rejected(self, name, values, shown):
        # 1 and 1.0 are one value: a grid would fit the same configs twice.
        lists = {"c_reg": (1.0,), "m": (2,), "p": (4,), "q": (5,), name: values}
        with pytest.raises(ConfigError, match=f"^grid list '{name}' repeats {shown}$"):
            stats.GridSpec(**lists)

    def test_benchmark_grid_sizes(self):
        grid = stats.GridSpec.benchmark_default()
        assert len(grid.configs("bls", 0)) == 7 * 11 * 10 * 11
        assert len(grid.configs("if-bls", 0)) == 7 * 11 * 10 * 11 * 11


def rare_class_dataset(seed, n, d, n_classes, rare):
    """Gaussian classes a, b (and c), 1.5 apart; class b has `rare` samples
    when rare is set."""
    rng = np.random.default_rng(seed)
    names = "abc"[:n_classes]
    others = names.replace("b", "") if rare else names
    labels = ["b"] * (rare or 0) + [others[i % len(others)] for i in range(n - (rare or 0))]
    offsets = np.array([names.index(v) for v in labels], dtype=float)[:, None]
    X = rng.normal(size=(n, d)) + 1.5 * offsets
    perm = rng.permutation(n)
    return data.Dataset("rare", X[perm], tuple(labels[i] for i in perm))


def assert_engine_matches_fit(ds, variant, grid, plan):
    """grid_search's results equal one fit per config and fold, or both raise
    the first failure in cell order, of the same type and with the same message."""
    try:
        expected = oracles.grid_search_by_fit(ds, grid.configs(variant, 0), plan)
    except BlsBenchError as exc:
        with pytest.raises(BlsBenchError) as raised:
            stats.grid_search(ds, variant, grid, plan)
        assert (type(raised.value), str(raised.value)) == (type(exc), str(exc))
        return None
    _, results = stats.grid_search(ds, variant, grid, plan)
    assert results == expected
    return results


class TestEngineMatchesFit:
    """The network-major engine against per-config trainer.fit and trainer.accuracy:
    per-fold accuracies, skipped reasons, means and stds exactly equal."""

    @settings(max_examples=30, deadline=None)
    @given(st.data())
    def test_random_small_grids(self, draw):
        variant = draw.draw(st.sampled_from(trainer.VARIANTS))
        n_classes = 2 if variant != "bls" else draw.draw(st.integers(2, 3))
        ds = rare_class_dataset(draw.draw(st.integers(0, 2**16)), draw.draw(st.integers(12, 36)),
                                draw.draw(st.integers(1, 3)), n_classes,
                                draw.draw(st.sampled_from([None, 1, 2, 3])))
        plan = data.make_folds(ds.n_samples, draw.draw(st.integers(2, 5)), 0)

        def axis(values, most=2):
            return tuple(draw.draw(st.lists(st.sampled_from(values), min_size=1,
                                            max_size=most, unique=True)))

        grid = stats.GridSpec(
            c_reg=axis((1e-3, 1.0, 1e3), 3), m=axis((1, 2, 3)), p=axis((1, 4, 9)),
            q=axis((1, 6, 14)), mu=axis((2.0**-5, 0.5, 2.0)), delta=axis((1e-4, 0.1)),
            epsilon=axis(("median_heuristic", 0.5)))
        assert_engine_matches_fit(ds, variant, grid, plan)

    @pytest.mark.parametrize("variant", trainer.VARIANTS)
    @pytest.mark.parametrize("p,q,branch", [(2, 6, "primal"), (12, 30, "dual")])
    def test_each_variant_and_branch_with_a_single_class_complement(self, variant, p, q,
                                                                     branch):
        # 30 rows in 5 folds: 24 training rows against solved widths
        # min(2p, 3) + q = 9 and 33. A fold that tests a b sample trains without
        # b (bls) or on one b (f-bls and if-bls need 2), and is skipped.
        ds = rare_class_dataset(3, 30, 2, 2, 1 if variant == "bls" else 2)
        plan = data.make_folds(ds.n_samples, 5, 0)
        grid = stats.GridSpec(c_reg=(0.01, 100.0), m=(2,), p=(p,), q=(q,), mu=(2.0**-5, 1.0))
        assert trainer._solve_branch(min(2 * p, 3) + q, 24) == branch
        results = assert_engine_matches_fit(ds, variant, grid, plan)
        assert all(r.skipped and None in r.per_fold_accuracy for r in results)
        assert all(len(r.skipped) < 5 for r in results)

    def test_test_row_of_a_class_the_training_part_lacks(self):
        # bls on classes a, b and c with one b: the fold that tests the b
        # trains on a and c, and the b row counts as wrong whatever it gets.
        ds = rare_class_dataset(3, 30, 2, 3, 1)
        plan = data.make_folds(ds.n_samples, 5, 0)
        grid = stats.GridSpec(c_reg=(0.01, 100.0), m=(2,), p=(2, 12), q=(6,))
        results = assert_engine_matches_fit(ds, "bls", grid, plan)
        assert not any(r.skipped for r in results)

    def test_rank_deficient_grid_raises_the_first_failure(self, blobs_overlap):
        # At C = 1e100 the Cholesky of the solved width-28 Gram fails on 80 rows
        # of 2 features; the solved width-83 network is a dual solve, which
        # succeeds.
        ds = data.Dataset("overlap", *blobs_overlap)
        plan = data.make_folds(ds.n_samples, 5, 0)
        grid = stats.GridSpec(c_reg=(1.0, 1e100), m=(1,), p=(10,), q=(25, 80))
        assert assert_engine_matches_fit(ds, "bls", grid, plan) is None

    def test_test_row_overflow_keeps_its_message(self):
        # The fold that tests row 0 trains on a range of 1e-300, and row 0
        # normalizes beyond float64; fit on that fold succeeds.
        X = np.vstack([[1e300], np.linspace(0.0, 1e-300, 9)[:, None]])
        ds = data.Dataset("wide", X, tuple("ab" * 5))
        plan = data.make_folds(10, 2, 0)
        with pytest.raises(NonFiniteInput, match="^X_test feature 0 normalizes beyond float64$"):
            stats.cross_validate(ds, trainer.ModelConfig("bls"), plan)


def per_row_reference(name, result):
    """The CvResult that oracles._cv_result, one np.mean and np.std per
    config, gives for result's fold accuracies and skipped folds."""
    reasons = {int(note.split()[1]): note.split(" skipped: ", 1)[1] for note in result.skipped}
    outcomes = [ClassBalanceError(reasons[fold]) if accuracy is None else accuracy
                for fold, accuracy in enumerate(result.per_fold_accuracy)]
    return oracles._cv_result(name, result.best_config, outcomes)


class TestAccuracyTable:
    """Each config's mean and deviation, taken along its row of the engine's
    accuracy table, equal the per-row reference's in every bit."""

    GRID = stats.GridSpec(c_reg=(0.01, 1.0, 100.0), m=(1, 3), p=(4,), q=(5, 20))

    @pytest.mark.parametrize("k", [2, 3, 8, 10])  # numpy's pairwise sum unrolls from 8 terms
    def test_each_row_equals_the_per_row_reference(self, k):
        ds = rare_class_dataset(k, 80, 2, 2, None)
        _, results = stats.grid_search(ds, "bls", self.GRID, data.make_folds(80, k, k))
        assert len({r.std_dev for r in results}) > 1
        for result in results:
            assert result == per_row_reference(ds.name, result)

    @pytest.mark.parametrize("k,kept", [(5, 4), (2, 1)])
    def test_a_skipped_fold_is_left_out_of_every_row(self, k, kept):
        # Two overlapping blobs, and fold 0 holds every "b" row: it trains on
        # "a" alone and is skipped, and the other folds test "a" rows against
        # both classes. With one fold kept, every deviation is 0.
        X, y = make_blobs(30, [(0.0, 0.0), (1.0, 1.0)], 1.0, seed=2)
        assignments = np.zeros(60, dtype=np.int64)
        assignments[y == "a"] = np.arange(30) % k
        ds, plan = data.Dataset("b-in-fold-0", X, y), data.FoldPlan(k, assignments)
        _, results = stats.grid_search(ds, "bls", self.GRID, plan)
        for result in results:
            assert result.per_fold_accuracy[0] is None and len(result.skipped) == 1
            assert sum(a is not None for a in result.per_fold_accuracy) == kept
            assert result == per_row_reference(ds.name, result)
        assert (max(r.std_dev for r in results) == 0.0) == (kept == 1)


class TestRanks:
    def test_published_rank_table_reproduced(self):
        ranks = stats.rank_models(pt.ACCURACY)
        np.testing.assert_array_equal(ranks, pt.RANKS)
        np.testing.assert_allclose(
            np.round(ranks.mean(axis=0), 4), pt.AVERAGE_RANKS, atol=1e-12)

    def test_ties_share_average_rank(self):
        acc = np.array([[0.9, 0.8, 0.9, 0.7]])
        ranks = stats.rank_models(acc)
        np.testing.assert_array_equal(ranks[0], [1.5, 3, 1.5, 4])

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_accuracy_rejected(self, bad):
        acc = np.array([[0.9, 0.8], [0.7, bad]])
        with pytest.raises(ConfigError, match="non-finite"):
            stats.rank_models(acc)

    @pytest.mark.parametrize("acc,message", [
        (np.ones(3), "must be 2-D"),
        (np.empty((0, 3)), "no dataset rows"),
    ], ids=["1-D", "no-rows"])
    def test_malformed_table_rejected(self, acc, message):
        with pytest.raises(ConfigError, match=message):
            stats.rank_models(acc)

    def test_row_rank_sums_invariant(self):
        rng = np.random.default_rng(0)
        acc = rng.uniform(size=(6, 5))
        ranks = stats.rank_models(acc)
        np.testing.assert_allclose(ranks.sum(axis=1), 5 * 6 / 2)


class TestFriedman:
    def test_hand_worked_small_example(self):
        # Three models over two datasets, ranks (1,2,3) and (2,1,3):
        # average ranks (1.5, 1.5, 3), sum of squares 13.5, so
        # chi2 = 12*2/(3*4) * (13.5 - 3*16/4) = 2 * 1.5 = 3 and
        # F = chi2 (K-1) / (K(D-1) - chi2) = 3 * 1 / (4 - 3) = 3.
        ranks = np.array([[1.0, 2.0, 3.0], [2.0, 1.0, 3.0]])
        res = stats.friedman_test(ranks.mean(axis=0), 2)
        assert res.chi2 == pytest.approx(3.0)
        assert res.f_stat == pytest.approx(3.0)
        assert res.chi2_dof == 2
        assert res.f_dof == (2, 2)

    def test_perfect_agreement_makes_f_undefined(self):
        # Every dataset ranks the models 1..D, so chi2 reaches its maximum
        # K(D-1), the F form divides by 0, and f_stat is its limit, inf. At
        # D=7 with K=41 or 79, a chi2 formula that divides before
        # multiplying misses K(D-1) by one rounding step and gives F of
        # about -3.5e17 or +6.5e17.
        for k, d in [(2, 3), (5, 3), (41, 7), (79, 7)]:
            ranks = np.tile(np.arange(1.0, d + 1), (k, 1))
            res = stats.friedman_test(ranks.mean(axis=0), k)
            assert res.chi2 == k * (d - 1), (k, d)
            assert res.f_stat == np.inf, (k, d)

    def test_matches_scipy_chi2_without_ties(self):
        rng = np.random.default_rng(1)
        acc = rng.normal(size=(10, 4))  # continuous, so no ties
        res = stats.friedman_test(stats.rank_models(acc).mean(axis=0), acc.shape[0])
        ref = scipy.stats.friedmanchisquare(*acc.T)
        assert res.chi2 == pytest.approx(ref.statistic, rel=1e-10)

    @pytest.mark.parametrize("average_rank,n_datasets,message", [
        ([1.5, 1.5], 1, "need at least 2 datasets and 2 models"),
        ([1.0], 5, "need at least 2 datasets and 2 models"),
        ([1.5, np.nan], 5, "the average ranks contain non-finite entries"),
        ([1.5, np.inf], 5, "the average ranks contain non-finite entries"),
    ], ids=["one-dataset", "one-model", "nan", "inf"])
    def test_too_small_comparison_rejected(self, average_rank, n_datasets, message):
        with pytest.raises(ConfigError, match=message):
            stats.friedman_test(average_rank, n_datasets)

    @pytest.mark.parametrize("n_datasets", [3.7, 3.0, "3"])
    def test_non_integer_dataset_count_rejected(self, n_datasets):
        with pytest.raises(ConfigError, match="n_datasets must be an integer"):
            stats.friedman_test([1.0, 2.0], n_datasets)

    def test_accepts_published_average_ranks(self):
        res = stats.friedman_test(pt.AVERAGE_RANKS, n_datasets=28)
        assert res.chi2 == pytest.approx(pt.FRIEDMAN_CHI2, abs=1e-3)
        assert res.f_stat == pytest.approx(pt.FRIEDMAN_F, abs=1e-3)
        assert res.chi2_dof == 6
        assert res.f_dof == (6, 6 * 27)

    @pytest.mark.parametrize("average_rank", [3.0, [[1, 2], [2, 1]], [[1, 2], [1]]],
                             ids=["scalar", "2-D", "ragged"])
    def test_average_ranks_not_a_flat_sequence_rejected(self, average_rank):
        # A scalar raised a raw IndexError, and a 2-D table gave chi2 = 55, F = -4.4.
        with pytest.raises(ConfigError) as exc:
            stats.friedman_test(average_rank, 5)
        assert str(exc.value) == "the average ranks must be a flat sequence, one per model"

    @pytest.mark.parametrize("average_rank", [[1.0, 5.0], [0.5, 2.5], [1.0, 1.0, 1.0],
                                              [1.0, 2.0, 3.05], [3.0, 3.0, 3.0]],
                             ids=["above-D", "below-1", "sum-low", "sum-high", "sum-high-in-range"])
    def test_average_ranks_no_rank_table_gives_rejected(self, average_rank):
        # D models' average ranks lie in [1, D] and sum to D(D+1)/2; [1, 5] on
        # 3 datasets gave chi2 = 129 and F = -2.05.
        d = len(average_rank)
        with pytest.raises(ConfigError) as exc:
            stats.friedman_test(average_rank, 3)
        assert str(exc.value) == (f"the average ranks of {d} models must lie in [1, {d}] and sum "
                                  f"to {d * (d + 1) // 2} within {d / 100:g}, got {average_rank}")

    def test_rounded_average_ranks_accepted(self):
        # The published 4-decimal ranks sum to 28.0001; ranks rounded to 2
        # decimals miss D(D+1)/2 by at most D/200.
        assert sum(pt.AVERAGE_RANKS) != 28.0
        avg = stats.rank_models(np.random.default_rng(3).normal(size=(12, 7))).mean(axis=0)
        rounded = np.round(avg, 2)
        assert rounded.sum() != 28.0
        assert stats.friedman_test(rounded, 12).chi2_dof == 6


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

    @pytest.mark.parametrize("a,b,message", [
        (np.ones(6), np.ones(5), "equal-length flat sequences"),
        (np.ones((3, 2)), np.ones((3, 2)), "equal-length flat sequences"),
        (np.arange(4.0), np.zeros(4), "need at least 5 pairs"),
        (np.array([1.0, 2, 3, 4, np.nan]), np.zeros(5), "a and b contain non-finite entries"),
        (np.arange(5.0), np.array([0.0, 0, 0, 0, -np.inf]), "a and b contain non-finite entries"),
    ], ids=["lengths", "2-D", "four-pairs", "nan", "inf"])
    def test_malformed_pairs_rejected(self, a, b, message):
        with pytest.raises(ConfigError, match=message):
            stats.wilcoxon_signed_rank(a, b)

    def test_identical_samples_raise(self):
        # All differences are zero; the comparison is undefined and should
        # surface as a structured error the caller can report per pair.
        from blsbench.errors import ClassBalanceError, ConfigError

        a = np.ones(10)
        with pytest.raises(ConfigError):
            stats.wilcoxon_signed_rank(a, a)


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

    @pytest.mark.parametrize("tie_tol", ["x", "0.1", True, None])
    def test_tie_tol_that_is_not_a_real_rejected(self, tie_tol):
        with pytest.raises(ConfigError) as exc:
            stats.win_tie_loss(np.ones(5), np.zeros(5), tie_tol)
        assert str(exc.value) == f"tie_tol must be finite and non-negative, got {tie_tol!r}"

    @pytest.mark.parametrize("a,b,message", [
        (np.ones(3), np.ones(2), "equal-length nonempty flat sequences"),
        (np.ones((2, 2)), np.ones((2, 2)), "equal-length nonempty flat sequences"),
        (np.ones(0), np.ones(0), "equal-length nonempty flat sequences"),
        (np.array([1.0, np.nan]), np.ones(2), "a and b contain non-finite entries"),
        (np.ones(2), np.array([np.inf, 1.0]), "a and b contain non-finite entries"),
    ], ids=["lengths", "2-D", "empty", "nan", "inf"])
    def test_malformed_pairs_rejected(self, a, b, message):
        with pytest.raises(ConfigError, match=message):
            stats.win_tie_loss(a, b)

    def test_zero_tie_tol_counts_exact_ties_only(self):
        res = stats.win_tie_loss(np.array([1.0, 0.5, 0.2]), np.array([1.0, 0.6, 0.1]), 0.0)
        assert (res.wins_a, res.ties, res.wins_b) == (1, 1, 1)


@pytest.mark.parametrize("call", [
    lambda: stats.rank_models([["0.9", "0.8"], ["0.7", "0.6"]]),
    lambda: stats.rank_models([[True, False]]),
    lambda: stats.friedman_test(["1", "2"], 5),
    lambda: stats.wilcoxon_signed_rank(["a"] * 5, ["b"] * 5),
    lambda: stats.wilcoxon_signed_rank(np.arange(5.0), [0.0, 1.0, None, 3.0, 4.0]),
    lambda: stats.win_tie_loss(["a"], ["b"]),
    lambda: stats.win_tie_loss([0.9], ["0.8"]),
], ids=["table-text", "table-bool", "ranks-text", "wilcoxon-text", "wilcoxon-none",
        "win-tie-loss-text", "win-tie-loss-numeric-text"])
def test_statistics_refuse_what_is_not_real_numbers(call):
    # numpy read text as floats where it could and raised a raw ValueError
    # where it could not; the CLI parses its floats itself.
    with pytest.raises(ConfigError, match="^(the accuracies|the average ranks|a and b) "
                                          "must hold real numbers$"):
        call()
