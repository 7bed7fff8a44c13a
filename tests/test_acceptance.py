"""Acceptance gate: one test per published-behavior criterion.

Each test prints a single PASS/FAIL line (run with -s to see them all) and
then asserts, so the suite both reports and enforces the contract.
"""

import subprocess
import sys
import time

import numpy as np
import pytest

from blsbench import data, fuzzy, if_scores, linalg, stats
from blsbench.errors import ConfigError
from blsbench.if_scores import KernelParams
from blsbench.network import NetworkConfig
from blsbench.trainer import ModelConfig, decision_scores, fit, predict

import published_tables as pt
from oracles import kernel_class_radii, kernel_pairwise_distances


def report(num, ok, desc, detail=""):
    line = f"[criterion {num:2d}] {'PASS' if ok else 'FAIL'} - {desc}"
    if detail:
        line += f" ({detail})"
    print(line)
    assert ok, line


class TestAcceptance:
    def test_01_friedman_from_published_average_ranks(self):
        start = time.perf_counter()
        res = stats.friedman_test(pt.AVERAGE_RANKS, n_datasets=28)
        elapsed = time.perf_counter() - start
        ok = (
            abs(res.chi2 - pt.FRIEDMAN_CHI2) <= 1e-3
            and abs(res.f_stat - pt.FRIEDMAN_F) <= 1e-3
            and elapsed < 1e-3
        )
        report(1, ok, "Friedman stats from published average ranks",
               f"chi2={res.chi2:.4f} F={res.f_stat:.4f} t={elapsed * 1e3:.3f}ms")

    def test_02_rank_table_reproduction(self):
        table = stats.rank_models(pt.ACCURACY, pt.DATASETS, pt.MODELS)
        rows_ok = np.array_equal(table.ranks, pt.RANKS)
        avg_ok = np.allclose(
            np.round(table.average_rank, 4), pt.AVERAGE_RANKS, atol=1e-4)
        report(2, rows_ok and avg_ok, "published rank table reproduced",
               f"all 28 rows={rows_ok} average ranks={avg_ok}")

    def test_03_win_tie_loss_matrix(self):
        idx = {m: i for i, m in enumerate(pt.MODELS)}
        mismatches = []
        for (ma, mb), expected in pt.WIN_TIE_LOSS.items():
            res = stats.win_tie_loss(
                pt.ACCURACY[:, idx[ma]], pt.ACCURACY[:, idx[mb]], tie_tol=1e-4)
            if (res.wins_a, res.ties, res.wins_b) != expected:
                mismatches.append((ma, mb))
        thr = stats.win_tie_loss(np.ones(28), np.zeros(28)).threshold
        thr_ok = abs(thr - pt.WIN_THRESHOLD_28) <= 1e-3
        report(3, not mismatches and thr_ok,
               "published win-tie-loss matrix reproduced",
               f"mismatched pairs={len(mismatches)} threshold={thr:.4f}")

    def test_04_wilcoxon_decisions_and_pvalues(self):
        idx = {m: i for i, m in enumerate(pt.MODELS)}
        decision_fails, factor_fails, worst = [], [], 1.0
        for (ma, mb), (pub_p, pub_reject) in pt.WILCOXON.items():
            res = stats.wilcoxon_signed_rank(
                pt.ACCURACY[:, idx[ma]], pt.ACCURACY[:, idx[mb]])
            if res.reject != pub_reject:
                decision_fails.append((ma, mb))
            factor = max(res.p_value / pub_p, pub_p / res.p_value)
            worst = max(worst, factor)
            if factor > 3.0:
                factor_fails.append((ma, mb, round(factor, 2)))
        ok = not decision_fails and not factor_fails
        report(4, ok, "published pairwise significance outcomes",
               f"decision mismatches={len(decision_fails)}/10, "
               f"pairs beyond 3x p-factor={factor_fails}, worst={worst:.2f}x")

    @staticmethod
    def _dense_inverse(A):
        """Gauss-Jordan explicit inverse in extended precision.

        The regularized normal matrix can reach condition numbers around
        1e8 at the extreme regularization settings, where a double-precision
        explicit inverse is itself only good to ~4e-8; carrying the oracle
        in long double keeps its own error far below the 1e-8 tolerance
        being verified.
        """
        n = A.shape[0]
        M = np.hstack([A.astype(np.longdouble),
                       np.eye(n, dtype=np.longdouble)])
        for col in range(n):
            piv = col + int(np.argmax(np.abs(M[col:, col])))
            M[[col, piv]] = M[[piv, col]]
            M[col] /= M[col, col]
            for r in range(n):
                if r != col:
                    M[r] -= M[r, col] * M[col]
        return M[:, n:]

    def test_05_solver_oracle_200_instances(self):
        rng = np.random.default_rng(12345)
        start = time.perf_counter()
        worst = 0.0
        for trial in range(200):
            n = int(rng.integers(5, 51))
            f = int(rng.integers(2, 61))
            k = int(rng.integers(1, 4))
            c = float(10.0 ** rng.integers(-6, 7))
            G = rng.normal(size=(n, f))
            T = rng.normal(size=(n, k))
            S = rng.uniform(0.05, 1.0, size=n)
            Wp = linalg._solve(G, S, T, c, "primal")
            Wd = linalg._solve(G, S, T, c, "dual")
            Gl = G.astype(np.longdouble)
            S2 = np.diag(S.astype(np.longdouble) ** 2)
            A = Gl.T @ S2 @ Gl + np.eye(f, dtype=np.longdouble) / np.longdouble(c)
            Wo = (self._dense_inverse(A) @ Gl.T @ S2
                  @ T.astype(np.longdouble)).astype(np.float64)
            scale = max(np.abs(Wo).max(), 1e-30)
            worst = max(
                worst,
                np.abs(Wp - Wd).max() / scale,
                np.abs(Wp - Wo).max() / scale,
            )
        elapsed = time.perf_counter() - start
        ok = worst <= 1e-8 and elapsed < 10.0
        report(5, ok, "primal/dual/dense-oracle agreement on 200 instances",
               f"worst rel err={worst:.2e} t={elapsed:.2f}s")

    def test_06_linear_kernel_matches_input_geometry(self):
        rng = np.random.default_rng(777)
        worst = 0.0
        for trial in range(100):
            n = int(rng.integers(6, 40))
            f = int(rng.integers(2, 6))
            X = rng.normal(size=(n, f))
            y = np.where(rng.uniform(size=n) < 0.5, 1, -1)
            if len(np.unique(y)) < 2:
                y[0] = -y[0]
            K = X @ X.T  # identity feature map
            D = kernel_pairwise_distances(K)
            direct = np.sqrt(
                ((X[:, None, :] - X[None, :, :]) ** 2).sum(axis=2))
            worst = max(worst, np.abs(D - direct).max())
            r_pos, r_neg = kernel_class_radii(K, y)
            for r, cls in ((r_pos, 1), (r_neg, -1)):
                pts = X[y == cls]
                euclid = np.linalg.norm(pts - pts.mean(axis=0), axis=1).max()
                worst = max(worst, abs(r - euclid))
        ok = worst <= 1e-9
        report(6, ok, "linear-kernel distances and radii match input space",
               f"worst abs err={worst:.2e}")

    def test_07_score_invariants_and_branch_coverage(self):
        rng = np.random.default_rng(2024)
        branches = {1: 0, 2: 0, 3: 0}
        violations = 0
        for trial in range(100):
            n = int(rng.integers(16, 50))
            sep = float(rng.uniform(0.0, 4.0))
            std = float(rng.uniform(0.3, 1.2))
            half = n // 2
            X = np.vstack([
                rng.normal(0.0, std, size=(half, 2)),
                rng.normal(sep, std, size=(n - half, 2)),
            ])
            y = np.array([1] * half + [-1] * (n - half))
            eps = 0.05 if trial % 3 == 0 else "median_heuristic"
            mu = float(rng.choice([0.3, 1.0, 3.0]))
            scores, br = if_scores._score_vector(
                X, y, KernelParams(mu=mu, epsilon=eps))
            theta = np.clip(br.membership, 0.0, 1.0)
            tilde = br.non_membership
            hetero = br.hetero_ratio
            bad = (
                (scores < 0) | (scores > 1)
                | (theta < 0) | (theta > 1)
                | (tilde < 0) | (tilde > 1)
                | (hetero < 0) | (hetero > 1)
                | (theta + tilde > 1 + 1e-12)
            )
            violations += int(bad.sum())
            branches[1] += int((tilde == 0).sum())
            branches[2] += int(((tilde > 0) & (theta <= tilde)).sum())
            branches[3] += int(((tilde > 0) & (theta > tilde)).sum())
        ok = violations == 0 and all(branches[b] > 0 for b in (1, 2, 3))
        report(7, ok, "score bounds hold and all three score branches fire",
               f"violations={violations} branch hits={branches}")

    def test_08_all_ones_scores_reduce_to_plain_variant(self, monkeypatch):
        # fit takes its weights from these steps; all-ones weights in their
        # place must leave nothing but the plain bls solve.
        monkeypatch.setattr(fuzzy, "_scores", lambda Xn, signed, delta: np.ones(len(signed)))
        monkeypatch.setattr(if_scores, "_score_vector",
                            lambda Xn, signed, kernel: (np.ones(len(signed)), None))
        rng = np.random.default_rng(99)
        mismatch = 0
        for trial in range(20):
            n = int(rng.integers(20, 60))
            X = np.vstack([
                rng.normal(0.0, 1.0, size=(n // 2, 3)),
                rng.normal(1.5, 1.0, size=(n - n // 2, 3)),
            ])
            y = ["a"] * (n // 2) + ["b"] * (n - n // 2)
            net = NetworkConfig(m=3, p=4, l=1, q=6, seed=trial)
            base = fit(X, y, ModelConfig("bls", net))
            for variant in ("f-bls", "if-bls"):
                alt = fit(X, y, ModelConfig(variant, net))
                if not np.array_equal(
                        decision_scores(base, X), decision_scores(alt, X)):
                    mismatch += 1
                if predict(base, X) != predict(alt, X):
                    mismatch += 1
        report(8, mismatch == 0,
               "all-ones weights reproduce plain variant bitwise",
               f"mismatching runs={mismatch}/40")

    @staticmethod
    def _noisy_blobs(seed, n_per_class=100, flipped_per_class=15,
                     sep=3.0, std=1.0):
        """Two blobs with labels flipped on each class's far-side outliers."""
        rng = np.random.default_rng(seed)
        ca, cb = np.array([0.0, 0.0]), np.array([sep, sep])
        Xa = rng.normal(ca, std, size=(n_per_class, 2))
        Xb = rng.normal(cb, std, size=(n_per_class, 2))
        X = np.vstack([Xa, Xb])
        y = np.array([1] * n_per_class + [-1] * n_per_class)
        flip = []
        for block, offset, own, other in [(Xa, 0, ca, cb),
                                          (Xb, n_per_class, cb, ca)]:
            away = (own - other) / np.linalg.norm(own - other)
            proj = (block - own) @ away
            flip.extend(offset + np.argsort(proj)[-flipped_per_class:])
        flip = np.array(flip)
        y_noisy = y.copy()
        y_noisy[flip] *= -1
        labels = np.where(y_noisy == 1, "a", "b").astype(object)
        ds = data.Dataset(f"noisy-blobs-{seed}", X, labels)
        return ds, y_noisy, flip

    def test_09_robustness_to_flipped_outlier_labels(self):
        start = time.perf_counter()
        net = NetworkConfig(m=2, p=5, l=1, q=10, seed=0)
        kern = KernelParams(mu=0.5)
        score_trials_ok = 0
        gaps = []
        every_trial_ok = True
        for seed in range(10):
            ds, y_noisy, flip = self._noisy_blobs(seed)
            span = ds.X.max(axis=0) - ds.X.min(axis=0)
            Xn = (ds.X - ds.X.min(axis=0)) / span
            scores, _ = if_scores._score_vector(Xn, y_noisy, kern)
            clean = np.setdiff1d(np.arange(ds.n_samples), flip)
            if (scores[flip] < np.median(scores[clean])).all():
                score_trials_ok += 1
            plan = data.make_folds(ds.n_samples, 5, seed=seed)
            acc_b = stats.cross_validate(
                ds, ModelConfig("bls", net, c_reg=3.0), plan).mean_accuracy
            acc_i = stats.cross_validate(
                ds, ModelConfig("if-bls", net, c_reg=3.0, kernel=kern),
                plan).mean_accuracy
            gaps.append(acc_i - acc_b)
            if acc_i < acc_b - 0.005:
                every_trial_ok = False
        elapsed = time.perf_counter() - start
        mean_gap = float(np.mean(gaps))
        ok = (score_trials_ok >= 9 and every_trial_ok and mean_gap > 0
              and elapsed < 60.0)
        report(9, ok, "flipped-label outliers downweighted and accuracy kept",
               f"score trials={score_trials_ok}/10 worst gap={min(gaps):+.4f} "
               f"mean gap={mean_gap:+.4f} t={elapsed:.1f}s")

    def test_10_gridsearch_byte_identical_reruns(self, tmp_path):
        import csv

        rng = np.random.default_rng(5)
        path = tmp_path / "blobs.csv"
        with open(path, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["x1", "x2", "label"])
            for _ in range(30):
                w.writerow([f"{rng.normal():.6f}", f"{rng.normal():.6f}", "a"])
            for _ in range(30):
                w.writerow([f"{rng.normal(2.5):.6f}",
                            f"{rng.normal(2.5):.6f}", "b"])
        grid = tmp_path / "grid.ini"
        grid.write_text("[grid]\nc_reg = 0.1, 1, 10\nm = 2\np = 4\nq = 6\n")
        outputs = []
        for tag in ("one", "two"):
            out = tmp_path / f"grid_{tag}.csv"
            res = subprocess.run(
                [sys.executable, "-m", "blsbench.cli", "gridsearch",
                 "--data", str(path), "--variant", "f-bls",
                 "--grid", str(grid), "--seed", "3", "--out", str(out)],
                capture_output=True, text=True)
            assert res.returncode == 0, res.stderr
            outputs.append(out.read_bytes())
        ok = outputs[0] == outputs[1]
        report(10, ok, "gridsearch reruns produce byte-identical CSV",
               f"bytes={len(outputs[0])}")
