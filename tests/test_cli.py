import csv
import json
import os
import re
import resource
import subprocess
import sys

import numpy as np
import pytest

import published_tables as pt
from conftest import make_blobs, solves_in_bundle


def run_cli(*args, env=None, preexec_fn=None):
    return subprocess.run(
        [sys.executable, "-W", "error::RuntimeWarning", "-m", "blsbench.cli", *args],
        capture_output=True, text=True, env=env, preexec_fn=preexec_fn)


def write_dataset(path, n=60, seed=3):
    X, y = make_blobs(n // 2, [(0.0, 0.0), (2.5, 2.5)], 0.5, seed=seed)
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["x1", "x2", "label"])
        for row, lab in zip(X, y):
            w.writerow([f"{row[0]:.6f}", f"{row[1]:.6f}", lab])
    return path


def one_b_csv(tmp_path):
    """30 "a" samples and one "b": the fold that tests the "b" trains on "a" alone."""
    path = tmp_path / "one_b.csv"
    path.write_text("x,label\n" + "".join(f"{i / 10},a\n" for i in range(30)) + "5.0,b\n")
    return path


@pytest.fixture
def dataset_csv(tmp_path):
    return write_dataset(tmp_path / "blobs.csv")


class TestTrainPredict:
    def test_train_writes_model_and_manifest(self, dataset_csv, tmp_path):
        out = tmp_path / "model.json"
        res = run_cli("train", "--data", str(dataset_csv), "--variant", "bls",
                      "--out", str(out))
        assert res.returncode == 0, res.stderr
        assert out.exists()
        manifest = json.loads((tmp_path / "model.json.manifest.json").read_text())
        assert manifest["tool"] == "blsbench"
        digest = next(iter(manifest["datasets"].values()))
        assert re.fullmatch(r"[0-9a-f]{64}", digest)
        assert "accuracy" in res.stdout

    def test_predict_round_trip(self, dataset_csv, tmp_path):
        model = tmp_path / "model.json"
        run_cli("train", "--data", str(dataset_csv), "--variant", "f-bls",
                "--out", str(model))
        feats = tmp_path / "features.csv"
        with open(dataset_csv) as fh:
            rows = list(csv.reader(fh))
        with open(feats, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(rows[0][:2])
            for r in rows[1:]:
                w.writerow(r[:2])
        out = tmp_path / "preds.csv"
        res = run_cli("predict", "--model", str(model), "--data", str(feats),
                      "--out", str(out))
        assert res.returncode == 0, res.stderr
        preds = [r[-1] for r in list(csv.reader(out.open()))[1:]]
        truth = [r[-1] for r in rows[1:]]
        agree = np.mean([p == t for p, t in zip(preds, truth)])
        assert agree == 1.0

    def test_predicted_labels_are_quoted(self, tmp_path):
        train = tmp_path / "train.csv"
        train.write_text('x,label\n0.0,"yes, sure"\n0.2,"yes, sure"\n3.0,no\n3.2,no\n')
        feats = tmp_path / "features.csv"
        feats.write_text("x\n0.1\n3.1\n")
        model, out = tmp_path / "model.json", tmp_path / "preds.csv"
        res = run_cli("train", "--data", str(train), "--variant", "bls", "--m", "1",
                      "--p", "2", "--q", "3", "--out", str(model))
        assert res.returncode == 0, res.stderr
        res = run_cli("predict", "--model", str(model), "--data", str(feats), "--out", str(out))
        assert res.returncode == 0, res.stderr
        assert list(csv.reader(out.open(newline=""))) == [["prediction"], ["yes, sure"], ["no"]]

    def test_predict_names_overflowing_feature(self, tmp_path, capsys):
        from blsbench import cli

        # Feature x2 spans about 1e-300 in training; 1e10 normalizes beyond float64.
        train = tmp_path / "train.csv"
        train.write_text("x1,x2,label\n0.0,0.0,a\n0.2,1e-300,a\n3.0,0.0,b\n3.2,1e-300,b\n")
        feats = tmp_path / "features.csv"
        feats.write_text("x1,x2\n0.1,1e10\n")
        model, out = tmp_path / "model.json", tmp_path / "preds.csv"
        assert cli.main(["train", "--data", str(train), "--variant", "bls", "--m", "1",
                         "--p", "2", "--q", "3", "--out", str(model)]) == 0
        capsys.readouterr()
        code = cli.main(["predict", "--model", str(model), "--data", str(feats), "--out", str(out)])
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith("error:") and "X_test feature 1 normalizes beyond float64" in err
        assert not out.exists()

    def test_predict_with_label_less_model_is_runtime_error(self, dataset_csv, tmp_path,
                                                            capsys):
        from blsbench import cli

        model, out = tmp_path / "model.json", tmp_path / "preds.csv"
        assert cli.main(["train", "--data", str(dataset_csv), "--variant", "bls",
                         "--out", str(model)]) == 0
        capsys.readouterr()
        doc = json.loads(model.read_text())
        doc["class_labels"] = []
        doc["w_out"] = {"shape": [doc["w_out"]["shape"][0], 0], "hex": []}
        model.write_text(json.dumps(doc))
        feats = tmp_path / "features.csv"
        feats.write_text("x1,x2\n0.1,0.2\n")
        code = cli.main(["predict", "--model", str(model), "--data", str(feats),
                         "--out", str(out)])
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith(f"error: {model}: bad model file:") and err.count("\n") == 1
        assert "class_labels" in err
        assert not out.exists()

    def test_nonpositive_c_is_runtime_error(self, dataset_csv, tmp_path, capsys):
        from blsbench import cli

        out = tmp_path / "model.json"
        code = cli.main(["train", "--data", str(dataset_csv), "--variant", "bls",
                         "--C", "0", "--out", str(out)])
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith("error:") and "c_reg must be positive, got 0.0" in err
        assert not out.exists()

    def test_rank_deficient_primal_is_factorization_error(self, tmp_path, capsys):
        # At C = 1e100 the ridge term vanishes next to the Gram matrix of 28
        # solved state columns built from 2 features, and the Cholesky fails.
        from blsbench import cli

        path = write_dataset(tmp_path / "blobs100.csv", n=100)
        out = tmp_path / "model.json"
        code = cli.main(["train", "--data", str(path), "--variant", "bls",
                         "--C", "1e100", "--out", str(out)])
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith("error: Cholesky factorization of G'S^2G + I/C failed: ")
        assert not out.exists()

    @pytest.mark.parametrize("command", ["train", "cv", "gridsearch"])
    def test_oversized_network_is_one_error_line(self, command, dataset_csv, tmp_path, capsys):
        # gridsearch fits the q = 6 network on fold 0, then stops at the next cell.
        from blsbench import cli

        grid = tmp_path / "grid.ini"
        grid.write_text("[grid]\nc_reg = 1\nm = 2\np = 4\nq = 6, 100000000000\n")
        extra = {"train": ["--m", "100000", "--p", "100000"],
                 "cv": ["--m", "100000", "--p", "100000", "--k", "2"],
                 "gridsearch": ["--grid", str(grid), "--k", "2"]}[command]
        out = tmp_path / "out"
        assert cli.main([command, "--data", str(dataset_csv), "--variant", "bls", *extra,
                         "--out", str(out)]) == 1
        err = capsys.readouterr().err
        rows = 60 if command == "train" else 30
        assert re.fullmatch(rf"error: network m=\d+, p=\d+, l=1, q=\d+ on {rows} rows needs "
                            r"about \S+ GiB; this machine has \S+ GiB\n", err)
        assert not out.exists() and not (tmp_path / "out.manifest.json").exists()

    @pytest.mark.parametrize("command", ["train", "cv", "gridsearch"])
    def test_if_scoring_beyond_memory_is_one_error_line(self, command, dataset_csv, tmp_path,
                                                        capsys, monkeypatch):
        # A machine one byte short of scoring N rows of two equal classes,
        # 8 x (N^2 + (N/2)^2) bytes: N = 60 for train, 30 for a fold at k = 2.
        from blsbench import cli

        rows = 60 if command == "train" else 30
        have = 8 * (rows * rows + (rows // 2) ** 2) - 1
        monkeypatch.setattr(os, "sysconf", lambda key: {"SC_PAGE_SIZE": 1,
                                                         "SC_PHYS_PAGES": have}[key])
        grid = tmp_path / "grid.ini"
        grid.write_text("[grid]\nc_reg = 1\nm = 2\np = 4\nq = 6\n")
        extra = {"train": [], "cv": ["--k", "2"],
                 "gridsearch": ["--grid", str(grid), "--k", "2"]}[command]
        out = tmp_path / "out"
        assert cli.main([command, "--data", str(dataset_csv), "--variant", "if-bls", *extra,
                         "--out", str(out)]) == 1
        assert re.fullmatch(rf"error: if-bls scoring of {rows} rows needs about \S+ GiB; "
                            r"this machine has \S+ GiB\n", capsys.readouterr().err)
        assert not out.exists() and not (tmp_path / "out.manifest.json").exists()

    @pytest.mark.parametrize("label,message", [
        ("3", "column index 3 is outside a 3-column file"),
        ("--1", "no column named '--1'"),
    ])
    def test_bad_label_column_is_runtime_error(self, label, message, dataset_csv, tmp_path,
                                               capsys):
        from blsbench import cli

        out = tmp_path / "model.json"
        code = cli.main(["train", "--data", str(dataset_csv), f"--label-column={label}",
                         "--variant", "bls", "--out", str(out)])
        err = capsys.readouterr().err
        assert code == 1
        assert err == f"error: {dataset_csv}: {message}\n"
        assert not out.exists()

    def test_label_column_name_without_header_is_runtime_error(self, dataset_csv, tmp_path,
                                                               capsys):
        from blsbench import cli

        out = tmp_path / "model.json"
        code = cli.main(["train", "--data", str(dataset_csv), "--no-header",
                         "--label-column", "label", "--variant", "bls", "--out", str(out)])
        assert code == 1
        assert capsys.readouterr().err == (
            f"error: {dataset_csv}: column name 'label' needs a header row\n"
        )
        assert not out.exists()

    @pytest.mark.parametrize("command", ["train", "cv", "noise"])
    def test_label_only_file_is_runtime_error(self, command, tmp_path, capsys):
        from blsbench import cli

        path = tmp_path / "labels.csv"
        path.write_text("label\n" + "a\nb\n" * 5)
        out = tmp_path / "out"
        flags = ["--level", "10"] if command == "noise" else ["--variant", "bls"]
        code = cli.main([command, "--data", str(path), *flags, "--out", str(out)])
        assert code == 1
        assert capsys.readouterr().err == f"error: {path}: no feature columns besides the label\n"
        assert not out.exists()

    def test_non_finite_cell_names_file_row_and_column(self, dataset_csv, tmp_path, capsys):
        from blsbench import cli

        model, out = tmp_path / "model.json", tmp_path / "preds.csv"
        rows = dataset_csv.read_text().splitlines()
        bad = tmp_path / "bad.csv"
        bad.write_text("\n".join([*rows[:3], "1e999,0.5,a", *rows[3:]]) + "\n")
        assert cli.main(["train", "--data", str(bad), "--variant", "bls",
                         "--out", str(model)]) == 1
        assert capsys.readouterr().err == (
            f"error: {bad}: non-finite cell '1e999' at row 4, column x1\n"
        )
        assert cli.main(["train", "--data", str(dataset_csv), "--variant", "bls",
                         "--out", str(model)]) == 0
        feats = tmp_path / "features.csv"
        feats.write_text("x1,x2\n0.1,0.2\n0.3,nan\n")
        capsys.readouterr()
        code = cli.main(["predict", "--model", str(model), "--data", str(feats), "--out", str(out)])
        assert code == 1
        assert capsys.readouterr().err == f"error: {feats}: non-finite cell 'nan' at row 3, column x2\n"
        assert not out.exists()

    def test_predict_wrong_column_count_names_file(self, dataset_csv, tmp_path, capsys):
        from blsbench import cli

        model, out = tmp_path / "model.json", tmp_path / "preds.csv"
        assert cli.main(["train", "--data", str(dataset_csv), "--variant", "bls",
                         "--out", str(model)]) == 0
        feats = tmp_path / "features.csv"
        feats.write_text("x1,x2,x3\n0.1,0.2,0.3\n")
        capsys.readouterr()
        code = cli.main(["predict", "--model", str(model), "--data", str(feats), "--out", str(out)])
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith("error:") and str(feats) in err
        assert "3 feature columns, model expects 2" in err
        assert not out.exists()

    def test_header_only_feature_file_gives_header_only_predictions(self, dataset_csv, tmp_path):
        from blsbench import cli

        model, out = tmp_path / "model.json", tmp_path / "preds.csv"
        assert cli.main(["train", "--data", str(dataset_csv), "--variant", "bls",
                         "--out", str(model)]) == 0
        feats = tmp_path / "features.csv"
        feats.write_text("x1,x2\n")
        assert cli.main(["predict", "--model", str(model), "--data", str(feats),
                         "--out", str(out)]) == 0
        assert out.read_text() == "prediction\n"

    def test_relative_data_path_resolves_against_data_dir(self, tmp_path, monkeypatch):
        from blsbench import cli

        store, work = tmp_path / "store", tmp_path / "work"
        store.mkdir()
        work.mkdir()
        write_dataset(store / "blobs.csv")
        monkeypatch.setenv("BLSBENCH_DATA_DIR", str(store))
        monkeypatch.chdir(work)
        assert cli.main(["train", "--data", "blobs.csv", "--variant", "bls",
                         "--out", "model.json"]) == 0
        manifest = json.loads((work / "model.json.manifest.json").read_text())
        assert list(manifest["datasets"]) == [os.path.join(str(store), "blobs.csv")]

    def test_model_bytes_independent_of_blas_threads(self, tmp_path):
        # A primal fit (N=1200, solved on 336 columns) large enough for OpenBLAS to split
        # its products across threads when it is allowed to.
        X, y = make_blobs(600, [(0.0,) * 10, (0.8,) * 10], 1.0, seed=5)
        train = tmp_path / "train.csv"
        with open(train, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow([f"x{i}" for i in range(10)] + ["label"])
            w.writerows([repr(float(v)) for v in row] + [lab] for row, lab in zip(X, y))
        models = []
        for threads in ("1", "2"):
            out = tmp_path / f"model{threads}.json"
            res = run_cli("train", "--data", str(train), "--variant", "bls", "--m", "5",
                          "--p", "10", "--q", "325", "--out", str(out),
                          env={**os.environ, "OPENBLAS_NUM_THREADS": threads})
            assert res.returncode == 0, res.stderr
            assert "primal" in res.stdout
            models.append(out.read_bytes())
        assert models[0] == models[1]

    def test_missing_variant_is_usage_error(self, dataset_csv, tmp_path):
        for command in ("train", "cv"):
            res = run_cli(command, "--data", str(dataset_csv), "--out", str(tmp_path / "out"))
            assert res.returncode == 2
            assert res.stderr.endswith(
                "blsbench: error: --variant is required (directly or via --config)\n")
            assert not (tmp_path / "out").exists()
        # A --config file stands in for --variant, so a file without one
        # reaches the model's variant check.
        cfg = tmp_path / "cv.ini"
        cfg.write_text("[cv]\nk = 2\n")
        res = run_cli("cv", "--data", str(dataset_csv), "--config", str(cfg),
                      "--out", str(tmp_path / "out"))
        assert res.returncode == 1
        assert res.stderr == "error: variant must be one of ('bls', 'f-bls', 'if-bls'), got None\n"
        assert not (tmp_path / "out").exists()

    def test_missing_file_is_runtime_error(self, tmp_path):
        res = run_cli("train", "--data", str(tmp_path / "absent.csv"),
                      "--variant", "bls", "--out", str(tmp_path / "m.json"))
        assert res.returncode == 1
        assert res.stderr.strip()

    def test_config_file_with_flag_override(self, dataset_csv, tmp_path):
        cfg = tmp_path / "run.ini"
        cfg.write_text("[model]\nvariant = if-bls\nm = 2\np = 4\nq = 6\nseed = 5\n")
        out = tmp_path / "model.json"
        res = run_cli("train", "--data", str(dataset_csv), "--config", str(cfg),
                      "--seed", "9", "--out", str(out))
        assert res.returncode == 0, res.stderr
        doc = json.loads(out.read_text())
        assert doc["variant"] == "if-bls"
        assert doc["network"]["seed"] == 9  # flag beats file
        assert doc["network"]["m"] == 2

    def test_epsilon_flag_parses_like_config_value(self, dataset_csv, tmp_path):
        cfg = tmp_path / "eps.ini"
        cfg.write_text("[model]\nepsilon = 0.5\n")
        by_flag, by_file = tmp_path / "flag.json", tmp_path / "file.json"
        res = run_cli("train", "--data", str(dataset_csv), "--variant", "if-bls",
                      "--epsilon", "0.5", "--out", str(by_flag))
        assert res.returncode == 0, res.stderr
        res = run_cli("train", "--data", str(dataset_csv), "--variant", "if-bls",
                      "--config", str(cfg), "--out", str(by_file))
        assert res.returncode == 0, res.stderr
        assert json.loads(by_flag.read_text())["kernel"]["epsilon"] == (0.5).hex()
        assert by_flag.read_bytes() == by_file.read_bytes()

    def test_nan_delta_is_runtime_error(self, dataset_csv, tmp_path):
        out = tmp_path / "m.json"
        res = run_cli("train", "--data", str(dataset_csv), "--variant", "f-bls",
                      "--delta", "nan", "--out", str(out))
        assert res.returncode == 1
        assert "error: delta must be positive, got nan" in res.stderr
        assert not out.exists()

    def test_non_numeric_config_value_is_runtime_error(self, dataset_csv, tmp_path):
        cfg = tmp_path / "bad.ini"
        cfg.write_text("[model]\nvariant = bls\nm = abc\n")
        res = run_cli("train", "--data", str(dataset_csv), "--config", str(cfg),
                      "--out", str(tmp_path / "m.json"))
        assert res.returncode == 1
        assert res.stderr.startswith("error:") and "'abc'" in res.stderr


class TestCv:
    def test_writes_per_fold_rows(self, dataset_csv, tmp_path):
        out = tmp_path / "cv.csv"
        res = run_cli("cv", "--data", str(dataset_csv), "--variant", "bls",
                      "--k", "5", "--out", str(out))
        assert res.returncode == 0, res.stderr
        rows = list(csv.DictReader(out.open()))
        fold_rows = [r for r in rows if r["fold"].isdigit()]
        assert len(fold_rows) == 5
        assert {r["fold"] for r in rows} >= {"mean", "std"}
        accs = [float(r["accuracy"]) for r in fold_rows]
        assert all(0.0 <= a <= 1.0 for a in accs)

    def test_non_integer_fold_count_in_config_is_runtime_error(self, dataset_csv, tmp_path,
                                                                capsys):
        from blsbench import cli

        cfg = tmp_path / "cv.ini"
        cfg.write_text("[cv]\nk = abc\n")
        out = tmp_path / "cv.csv"
        assert cli.main(["cv", "--data", str(dataset_csv), "--variant", "bls",
                         "--config", str(cfg), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: k and fold_seed must be integers:") and "'abc'" in err
        assert not out.exists()

    def test_deterministic_across_runs(self, dataset_csv, tmp_path):
        outs = []
        for tag in ("a", "b"):
            out = tmp_path / f"cv_{tag}.csv"
            res = run_cli("cv", "--data", str(dataset_csv), "--variant", "if-bls",
                          "--seed", "4", "--fold-seed", "2", "--out", str(out))
            assert res.returncode == 0, res.stderr
            outs.append(out.read_text())
        assert outs[0] == outs[1]


    def test_fold_without_a_class_writes_empty_cell(self, tmp_path, capsys):
        from blsbench import cli, data

        path = one_b_csv(tmp_path)
        skipped = int(data.make_folds(31, 5, 0).assignments[30])
        out = tmp_path / "cv.csv"
        code = cli.main(["cv", "--data", str(path), "--variant", "bls", "--m", "1",
                         "--p", "2", "--q", "3", "--out", str(out)])
        assert code == 0
        assert capsys.readouterr().err == (
            f"warning: fold {skipped} of 'one_b' skipped: training data contains a single class\n"
        )
        rows = list(csv.reader(out.open()))
        folds = {int(r[0]): r[1] for r in rows[1:] if r[0].isdigit()}
        assert folds[skipped] == ""
        present = [float(v) for f, v in folds.items() if f != skipped]
        assert len(present) == 4
        mean = [r[1] for r in rows if r[0] == "mean"][0]
        assert float(mean) == pytest.approx(np.mean(present), abs=1e-10)

    def test_every_fold_degenerate_is_runtime_error(self, tmp_path, capsys):
        from blsbench import cli

        path = tmp_path / "one_class.csv"
        path.write_text("x,label\n" + "".join(f"{i / 10},a\n" for i in range(10)))
        out = tmp_path / "cv.csv"
        code = cli.main(["cv", "--data", str(path), "--variant", "bls", "--out", str(out)])
        err = capsys.readouterr().err
        assert code == 1
        assert err == ("error: every fold of 'one_class' was degenerate for bls: "
                       "training data contains a single class\n")
        assert not out.exists()
        # f-bls on one "b": the fold that tests it trains on "a" alone, every
        # other fold on one "b". The reasons follow fold order, and the grid
        # stops at its first config.
        from blsbench import data

        path = one_b_csv(tmp_path)
        skipped = int(data.make_folds(31, 5, 0).assignments[30])
        reasons = ["training data contains a single class" if fold == skipped
                   else "f-bls requires at least 2 samples per class" for fold in range(5)]
        expected = ("error: every fold of 'one_b' was degenerate for f-bls: "
                    + "; ".join(dict.fromkeys(reasons)) + "\n")
        grid = tmp_path / "grid.ini"
        grid.write_text("[grid]\nc_reg = 0.1, 10\nm = 1\np = 2\nq = 3\n")
        for args in (["cv", "--variant", "f-bls"],
                     ["gridsearch", "--variant", "f-bls", "--grid", str(grid)]):
            code = cli.main([*args, "--data", str(path), "--out", str(out)])
            assert code == 1
            assert capsys.readouterr().err == expected
            assert not out.exists()


class TestGridSearch:
    def test_small_grid_file(self, dataset_csv, tmp_path):
        grid = tmp_path / "grid.ini"
        grid.write_text("[grid]\nc_reg = 0.1, 10\nm = 2\np = 4\nq = 6\n")
        out = tmp_path / "grid.csv"
        res = run_cli("gridsearch", "--data", str(dataset_csv), "--variant",
                      "bls", "--grid", str(grid), "--out", str(out))
        assert res.returncode == 0, res.stderr
        rows = list(csv.DictReader(out.open()))
        assert len(rows) == 2
        assert "best" in res.stdout

    def test_paper_grid_parses_to_benchmark_default(self):
        # Parsed only: the full sweep is far too large to run here.
        import argparse

        from blsbench import cli, stats

        grid = cli._parse_grid(argparse.Namespace(grid="paper"))
        assert grid == stats.GridSpec.benchmark_default()
        assert len(grid.configs("bls", 0)) == 8470

    def test_jobs_do_not_change_bytes(self, dataset_csv, tmp_path):
        from blsbench import cli

        grid = tmp_path / "grid.ini"
        grid.write_text("[grid]\nc_reg = 0.1, 10\nm = 2\np = 3, 5\nq = 4\n")
        outs = []
        for jobs in ("1", "2"):
            out = tmp_path / f"grid{jobs}.csv"
            assert cli.main(["gridsearch", "--data", str(dataset_csv), "--variant", "f-bls",
                             "--grid", str(grid), "--jobs", jobs, "--out", str(out)]) == 0
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]

    def test_skipped_fold_warns_once_for_any_jobs(self, tmp_path):
        # Every config skips the same fold; its reason is printed once, and
        # worker processes add nothing to stderr.
        from blsbench import data

        path = one_b_csv(tmp_path)
        skipped = int(data.make_folds(31, 5, 0).assignments[30])
        grid = tmp_path / "grid.ini"
        grid.write_text("[grid]\nc_reg = 0.1, 10\nm = 1\np = 2\nq = 3\n")
        errs = []
        for jobs in ("1", "2"):
            res = run_cli("gridsearch", "--data", str(path), "--variant", "bls", "--grid",
                          str(grid), "--jobs", jobs, "--out", str(tmp_path / f"grid{jobs}.csv"))
            assert res.returncode == 0, res.stderr
            errs.append(res.stderr)
        assert errs[0] == errs[1] == (
            f"warning: fold {skipped} of 'one_b' skipped: training data contains a single class\n"
        )

    @pytest.mark.parametrize("jobs", ["0", "-3"])
    def test_jobs_below_one_is_runtime_error(self, jobs, dataset_csv, tmp_path, capsys):
        from blsbench import cli

        grid = tmp_path / "grid.ini"
        grid.write_text("[grid]\nc_reg = 1\nm = 2\np = 4\nq = 6\n")
        out = tmp_path / "grid.csv"
        code = cli.main(["gridsearch", "--data", str(dataset_csv), "--variant", "bls",
                         "--grid", str(grid), "--jobs", jobs, "--out", str(out)])
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith("error:") and "jobs" in err
        assert not out.exists()

    @pytest.mark.parametrize("variant,key,values", [
        ("bls", "c_reg", "1, 0"),
        ("f-bls", "c_reg", "1, 1e-320"),
        ("bls", "m", "2, 0"),
        ("bls", "p", "4, -2"),
        ("bls", "q", "5, -1"),
        ("if-bls", "mu", "1, 0"),
        ("f-bls", "delta", "0.1, -1"),
        ("if-bls", "delta", "0.1, 0"),
        ("if-bls", "epsilon", "0.5, nope"),
        ("if-bls", "epsilon", "median_heuristic, -1"),
    ])
    def test_bad_grid_list_is_one_error_line(self, variant, key, values, tmp_path, capsys):
        # The per-point builder's message, before any fold: every fold of the
        # one-class data would be skipped, a ClassBalanceError.
        import argparse

        import oracles
        from blsbench import cli
        from blsbench.errors import ConfigError

        lists = {"c_reg": "1", "m": "2", "p": "4", "q": "5", key: values}
        grid = tmp_path / "grid.ini"
        grid.write_text("[grid]\n" + "".join(f"{k} = {v}\n" for k, v in lists.items()))
        with pytest.raises(ConfigError) as expected:
            oracles.configs_by_flat(cli._parse_grid(argparse.Namespace(grid=str(grid))),
                                    variant, 0)
        path = tmp_path / "one_class.csv"
        path.write_text("x,label\n" + "".join(f"{i / 10},a\n" for i in range(20)))
        out = tmp_path / "grid.csv"
        code = cli.main(["gridsearch", "--data", str(path), "--variant", variant,
                         "--grid", str(grid), "--out", str(out)])
        assert code == 1
        assert capsys.readouterr().err == f"error: {expected.value}\n"
        assert not out.exists()

    def test_nan_delta_in_grid_is_runtime_error(self, dataset_csv, tmp_path, capsys):
        from blsbench import cli

        grid = tmp_path / "grid.ini"
        grid.write_text("[grid]\nc_reg = 1\nm = 2\np = 4\nq = 6\ndelta = 0.001, nan\n")
        out = tmp_path / "grid.csv"
        code = cli.main(["gridsearch", "--data", str(dataset_csv), "--variant", "f-bls",
                         "--grid", str(grid), "--out", str(out)])
        assert code == 1
        assert "delta must be positive, got nan" in capsys.readouterr().err
        assert not out.exists()

    def test_grid_file_without_a_required_key_is_runtime_error(self, dataset_csv, tmp_path,
                                                               capsys):
        from blsbench import cli

        grid = tmp_path / "grid.ini"
        grid.write_text("[grid]\nc_reg = 1\nm = 2\np = 4\n")
        out = tmp_path / "g.csv"
        assert cli.main(["gridsearch", "--data", str(dataset_csv), "--variant", "bls",
                         "--grid", str(grid), "--out", str(out)]) == 1
        assert capsys.readouterr().err == "error: grid file is missing 'q'\n"
        assert not out.exists()

    def test_non_numeric_grid_value_is_runtime_error(self, dataset_csv, tmp_path):
        grid = tmp_path / "grid.ini"
        grid.write_text("[grid]\nc_reg = 1, x\nm = 2\np = 4\nq = 6\n")
        res = run_cli("gridsearch", "--data", str(dataset_csv), "--variant",
                      "bls", "--grid", str(grid), "--out", str(tmp_path / "g.csv"))
        assert res.returncode == 1
        assert res.stderr.startswith("error:") and "'x'" in res.stderr

    def test_repeated_grid_value_is_runtime_error(self, dataset_csv, tmp_path, capsys):
        # 1 and 1.0 parse to one C; the grid would run and write each point twice.
        from blsbench import cli

        grid, out = tmp_path / "grid.ini", tmp_path / "g.csv"
        grid.write_text("[grid]\nc_reg = 1, 1.0\nm = 2\np = 4\nq = 6\n")
        code = cli.main(["gridsearch", "--data", str(dataset_csv), "--variant", "bls",
                         "--grid", str(grid), "--out", str(out)])
        assert code == 1
        assert capsys.readouterr().err == "error: grid list 'c_reg' repeats 1.0\n"
        assert not out.exists()


@pytest.mark.parametrize("text,needle", [
    pytest.param(None, "config file not found", id="missing-file"),
    pytest.param("m = 3\n", "no section headers", id="no-header"),
    pytest.param("[x]\nc_reg = 1\nm = 2\np = 4\nq = 6\nc_rge = 5\n", "unknown key 'c_rge'",
                 id="unknown-key"),
])
@pytest.mark.parametrize("command,flag", [("train", "--config"), ("gridsearch", "--grid")])
def test_bad_ini_file_is_runtime_error(command, flag, text, needle, dataset_csv, tmp_path, capsys):
    from blsbench import cli

    ini = tmp_path / "bad.ini"
    if text is not None:
        ini.write_text(text)
    code = cli.main([command, "--data", str(dataset_csv), "--variant", "bls",
                     flag, str(ini), "--out", str(tmp_path / "out")])
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith("error:") and needle in err and str(ini) in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command,flag", [
    ("train", "--data"), ("gridsearch", "--grid"), ("stats", "--table"), ("cv", "--config"),
])
def test_non_utf8_file_is_one_error_line(command, flag, dataset_csv, tmp_path, capsys):
    from blsbench import cli

    bad = tmp_path / "latin1"
    text = {"--data": "x1,x2,caf\xe9\n0,1,a\n1,0,b\n",
            "--grid": "[grid]\nc_reg = 1\nm = 2\np = 4\nq = 6\n# caf\xe9\n",
            "--table": "dataset,A,B,caf\xe9\nd1,1,2,3\nd2,3,2,1\n",
            "--config": "[model]\n# caf\xe9\nm = 2\n"}[flag]
    bad.write_bytes(text.encode("latin-1"))
    args = {"train": ["--variant", "bls", "--out", str(tmp_path / "out")],
            "gridsearch": ["--data", str(dataset_csv), "--variant", "bls",
                           "--out", str(tmp_path / "out")],
            "stats": ["--out-dir", str(tmp_path / "out")],
            "cv": ["--data", str(dataset_csv), "--variant", "bls",
                   "--out", str(tmp_path / "out")]}[command]
    assert cli.main([command, flag, str(bad), *args]) == 1
    err = capsys.readouterr().err
    assert err == f"error: {bad} is not UTF-8 text: byte 0xe9: invalid continuation byte\n"
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("flag,text,args", [
    ("--data", "f0,f1,f2\na,0.1,0.2\nb,0.9,0.8\na,0.2,0.3\nb,0.7,0.9\n",
     ["--label-column", "f0", "--variant", "bls"]),
    ("--data", "0.1,0.2,a\n0.9,0.8,b\n0.2,0.3,a\n0.7,0.9,b\n",
     ["--no-header", "--variant", "bls"]),
    ("--config", "[model]\nvariant = bls\nq = 6\n", ["--data", None]),
], ids=["headed-csv", "headerless-csv", "config-ini"])
def test_byte_order_mark_is_read_past(flag, text, args, dataset_csv, tmp_path):
    # Excel's "CSV UTF-8" and older Notepad start a file with a UTF-8 byte
    # order mark; such a file trains the same model as the file without it.
    from blsbench import cli

    args = [str(dataset_csv) if a is None else a for a in args]
    models = []
    for bom in ("", "\ufeff"):
        path, out = tmp_path / f"in{len(models)}", tmp_path / f"model{len(models)}.json"
        path.write_text(bom + text, encoding="utf-8")
        assert cli.main(["train", flag, str(path), *args, "--m", "2", "--p", "4",
                         "--out", str(out)]) == 0
        models.append(out.read_bytes())
    assert models[0] == models[1]


@pytest.mark.parametrize("command", ["train", "cv", "gridsearch"])
def test_empty_label_is_one_error_line(command, tmp_path, capsys):
    from blsbench import cli

    blank = tmp_path / "blank.csv"
    blank.write_text("x1,x2,label\n0,1,x\n1,0,\n1,1,y\n0,0,x\n2,1,y\n")
    grid = tmp_path / "grid.ini"
    grid.write_text("[grid]\nc_reg = 1\nm = 2\np = 4\nq = 6\n")
    extra = {"train": [], "cv": ["--k", "2"], "gridsearch": ["--grid", str(grid), "--k", "2"]}
    out = tmp_path / "out"
    assert cli.main([command, "--data", str(blank), "--variant", "bls", *extra[command],
                     "--out", str(out)]) == 1
    assert capsys.readouterr().err == f"error: {blank}: empty label at row 3\n"
    assert not out.exists()


@pytest.mark.parametrize("command,flag,needle", [
    ("noise", "--seed", "noise seed"),
    ("cv", "--fold-seed", "fold seed"),
    ("gridsearch", "--fold-seed", "fold seed"),
])
def test_negative_seed_is_runtime_error(command, flag, needle, dataset_csv, tmp_path):
    grid = tmp_path / "grid.ini"
    grid.write_text("[grid]\nc_reg = 1\nm = 2\np = 4\nq = 6\n")
    extra = {"noise": ["--level", "20"], "cv": ["--variant", "bls"],
             "gridsearch": ["--variant", "bls", "--grid", str(grid)]}[command]
    out = tmp_path / "out.csv"
    res = run_cli(command, "--data", str(dataset_csv), *extra, flag, "-1", "--out", str(out))
    assert res.returncode == 1
    assert res.stderr == f"error: {needle} must be a nonnegative integer, got -1\n"
    assert not out.exists() and not (tmp_path / "out.csv.manifest.json").exists()


class TestNoise:
    def test_writes_corrupted_copy(self, dataset_csv, tmp_path):
        out = tmp_path / "noisy.csv"
        res = run_cli("noise", "--data", str(dataset_csv), "--level", "20",
                      "--seed", "1", "--out", str(out))
        assert res.returncode == 0, res.stderr
        orig = np.array([r[:2] for r in list(csv.reader(dataset_csv.open()))[1:]],
                        dtype=float)
        noisy = np.array([r[:2] for r in list(csv.reader(out.open()))[1:]],
                         dtype=float)
        changed = (orig != noisy).any(axis=1).sum()
        assert changed == round(0.2 * len(orig))

    def test_out_of_range_level_is_runtime_error(self, dataset_csv, tmp_path):
        # The library owns the range check, so the message is its ConfigError.
        out = tmp_path / "n.csv"
        res = run_cli("noise", "--data", str(dataset_csv), "--level", "150",
                      "--seed", "1", "--out", str(out))
        assert res.returncode == 1
        assert res.stderr == "error: noise level must be in [0, 100], got 150.0\n"
        assert not out.exists()

    def test_non_numeric_level_is_usage_error(self, dataset_csv, tmp_path, capsys):
        from blsbench import cli

        with pytest.raises(SystemExit) as exc:
            cli.main(["noise", "--data", str(dataset_csv), "--level", "ten",
                      "--out", str(tmp_path / "n.csv")])
        assert exc.value.code == 2
        assert "argument --level" in capsys.readouterr().err


class TestStats:
    @pytest.fixture
    def table_csv(self, tmp_path):
        path = tmp_path / "accuracy.csv"
        with open(path, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["dataset"] + pt.MODELS)
            for ds, row in zip(pt.DATASETS, pt.ACCURACY):
                w.writerow([ds] + [repr(float(v)) for v in row])
        return path

    def test_reports_written_and_consistent(self, table_csv, tmp_path):
        out_dir = tmp_path / "reports"
        res = run_cli("stats", "--table", str(table_csv),
                      "--out-dir", str(out_dir))
        assert res.returncode == 0, res.stderr
        for name in ("ranks.csv", "friedman.csv", "wilcoxon.csv",
                     "win_tie_loss.csv"):
            assert (out_dir / name).exists(), name
        ranks_rows = list(csv.reader((out_dir / "ranks.csv").open()))
        avg_row = [r for r in ranks_rows if r[0] == "average"][0]
        np.testing.assert_allclose(
            np.round([float(v) for v in avg_row[1:]], 4), pt.AVERAGE_RANKS)
        fr = list(csv.DictReader((out_dir / "friedman.csv").open()))[0]
        # full-precision average ranks, so compare to the recomputed value
        from blsbench import stats as bstats
        expected = bstats.friedman_test(
            bstats.rank_models(pt.ACCURACY).mean(axis=0), len(pt.DATASETS))
        assert float(fr["chi2"]) == pytest.approx(expected.chi2, abs=1e-3)

    def test_identical_columns_give_reason_as_decision(self, tmp_path):
        from blsbench import cli

        table = tmp_path / "accuracy.csv"
        table.write_text("dataset,m1,m2,m3\n" + "".join(
            f"d{i},0.{80 + i},0.{80 + i},0.{90 - 2 * i}\n" for i in range(6)))
        out_dir = tmp_path / "reports"
        assert cli.main(["stats", "--table", str(table), "--out-dir", str(out_dir)]) == 0
        rows = list(csv.DictReader((out_dir / "wilcoxon.csv").open()))
        same = [r for r in rows if (r["model_a"], r["model_b"]) == ("m1", "m2")][0]
        assert same["p_value"] == "" and same["decision"] == "no nonzero pairs"
        assert all(r["decision"] in ("rejected", "not-rejected") for r in rows if r is not same)

    @pytest.mark.parametrize("flag,value,message", [
        ("--tie-tol", "-1", "tie_tol must be finite and non-negative, got -1.0"),
        ("--alpha", "7", "alpha must lie in (0, 1), got 7.0"),
        ("--alpha", "0", "alpha must lie in (0, 1), got 0.0"),
        ("--alpha", "1", "alpha must lie in (0, 1), got 1.0"),
        ("--alpha", "-0.1", "alpha must lie in (0, 1), got -0.1"),
        ("--alpha", "nan", "alpha must lie in (0, 1), got nan"),
    ])
    def test_bad_test_parameter_is_runtime_error(self, flag, value, message, table_csv,
                                                 tmp_path, capsys):
        from blsbench import cli

        out_dir = tmp_path / "reports"
        code = cli.main(["stats", "--table", str(table_csv), flag, value,
                         "--out-dir", str(out_dir)])
        assert code == 1
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not out_dir.exists()

    def test_decisions_follow_alpha(self, table_csv, tmp_path):
        from blsbench import cli, stats

        out_dir = tmp_path / "reports"
        assert cli.main(["stats", "--table", str(table_csv), "--alpha", "0.01",
                         "--out-dir", str(out_dir)]) == 0
        rows = list(csv.DictReader((out_dir / "wilcoxon.csv").open()))
        idx = {m: i for i, m in enumerate(pt.MODELS)}
        acc = np.array(pt.ACCURACY, dtype=float)
        p_values = [stats.wilcoxon_signed_rank(acc[:, idx[r["model_a"]]],
                                               acc[:, idx[r["model_b"]]]).p_value
                    for r in rows]
        assert [r["decision"] == "rejected" for r in rows] == [p < 0.01 for p in p_values]
        # Two of the 21 pairs rejected at the default 0.05 are kept at 0.01.
        assert len(rows) == 21
        assert (sum(p < 0.01 for p in p_values), sum(p < 0.05 for p in p_values)) == (13, 15)

    def test_unanimous_table_gives_infinite_f(self, tmp_path):
        # A beats B beats C on every dataset: chi2 = K(D-1) = 10 and F is inf.
        table = tmp_path / "accuracy.csv"
        table.write_text("dataset,A,B,C\n" + "".join(
            f"d{i},0.9{i},0.8{i},0.7{i}\n" for i in range(5)))
        out_dir = tmp_path / "reports"
        res = run_cli("stats", "--table", str(table), "--out-dir", str(out_dir))
        assert res.returncode == 0, res.stderr
        for name in ("ranks.csv", "friedman.csv", "wilcoxon.csv", "win_tie_loss.csv"):
            assert (out_dir / name).exists(), name
        assert (out_dir / "friedman.csv").read_text().splitlines()[1] == "10.0000,inf,2,2,8"

    def test_one_dataset_row_is_runtime_error(self, tmp_path, capsys):
        from blsbench import cli

        table = tmp_path / "accuracy.csv"
        table.write_text("dataset,m1,m2\nd1,0.9,0.8\n")
        out_dir = tmp_path / "reports"
        assert cli.main(["stats", "--table", str(table), "--out-dir", str(out_dir)]) == 1
        assert capsys.readouterr().err == (
            f"error: {table}: expected a header of model names and at least two dataset rows\n"
        )
        assert not out_dir.exists()

    def test_bad_table_is_runtime_error(self, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("dataset,m1\nd1,not-a-number\n")
        res = run_cli("stats", "--table", str(bad),
                      "--out-dir", str(tmp_path / "r"))
        assert res.returncode == 1

    def test_non_finite_accuracy_is_runtime_error(self, tmp_path, capsys):
        from blsbench import cli

        table = tmp_path / "accuracy.csv"
        table.write_text("dataset,m1,m2,m3\n" + "".join(
            f"d{i},0.{80 + i},0.{70 + i},{'inf' if i == 4 else 0.5}\n" for i in range(6)))
        out_dir = tmp_path / "reports"
        assert cli.main(["stats", "--table", str(table), "--out-dir", str(out_dir)]) == 1
        assert capsys.readouterr().err == (
            f"error: {table}: non-finite cell 'inf' at row 6, column m3\n"
        )
        assert not out_dir.exists()


class TestOutputsMatchLibrary:
    """Each CSV the CLI writes equals the library result on the same inputs,
    formatted the way the CLI formats it."""

    MODEL_FLAGS = ["--m", "2", "--p", "3", "--q", "4"]

    @pytest.fixture(scope="class")
    def run(self, tmp_path_factory):
        from blsbench import cli

        d = tmp_path_factory.mktemp("outputs")
        write_dataset(d / "data.csv")
        rows = list(csv.reader((d / "data.csv").open(newline="")))
        with open(d / "features.csv", "w", newline="") as fh:
            csv.writer(fh).writerows(r[:-1] for r in rows)
        with open(d / "table.csv", "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["dataset"] + pt.MODELS)
            w.writerows([ds] + [repr(float(v)) for v in row] for ds, row in zip(pt.DATASETS, pt.ACCURACY))
        (d / "grid.ini").write_text("[grid]\nc_reg = 0.1, 10\nm = 2\np = 3, 5\nq = 4\n")
        data_flag = ["--data", str(d / "data.csv")]
        for argv in (
            ["noise", *data_flag, "--level", "20", "--seed", "1", "--out", str(d / "noisy.csv")],
            ["cv", *data_flag, "--variant", "if-bls", *self.MODEL_FLAGS, "--k", "3",
             "--out", str(d / "cv.csv")],
            ["gridsearch", *data_flag, "--variant", "f-bls", "--grid", str(d / "grid.ini"),
             "--k", "3", "--jobs", "1", "--out", str(d / "grid.csv")],
            ["train", *data_flag, "--variant", "bls", *self.MODEL_FLAGS, "--out", str(d / "model.json")],
            ["predict", "--model", str(d / "model.json"), "--data", str(d / "features.csv"),
             "--out", str(d / "preds.csv")],
            ["stats", "--table", str(d / "table.csv"), "--out-dir", str(d / "stats")],
        ):
            assert cli.main(argv) == 0, argv
        return d

    @staticmethod
    def rows(path):
        with open(path, newline="", encoding="utf-8") as fh:
            return list(csv.reader(fh))

    def test_noise_reloads_exactly(self, run):
        from blsbench import data

        expected = data.inject_gaussian_noise(data.load_csv(run / "data.csv"), 20, 1)
        noisy = data.load_csv(run / "noisy.csv")
        np.testing.assert_array_equal(noisy.X, expected.X)
        assert noisy.labels == expected.labels

    def test_cv_rows(self, run):
        from blsbench import data, stats, trainer

        ds = data.load_csv(run / "data.csv")
        cfg = trainer.ModelConfig.from_flat({"variant": "if-bls", "m": "2", "p": "3", "q": "4"})
        result = stats.cross_validate(ds, cfg, data.make_folds(ds.n_samples, 3, 0))
        assert self.rows(run / "cv.csv") == [
            ["fold", "accuracy"],
            *([str(i), f"{a:.10f}"] for i, a in enumerate(result.per_fold_accuracy)),
            ["mean", f"{result.mean_accuracy:.10f}"],
            ["std", f"{result.std_dev:.10f}"],
        ]

    def test_gridsearch_rows(self, run):
        from blsbench import data, stats

        ds = data.load_csv(run / "data.csv")
        grid = stats.GridSpec(c_reg=(0.1, 10.0), m=(2,), p=(3, 5), q=(4,))
        _, results = stats.grid_search(ds, "f-bls", grid, data.make_folds(ds.n_samples, 3, 0))
        keys = ["c_reg", "m", "p", "q", "mu", "delta", "epsilon"]
        assert self.rows(run / "grid.csv") == [
            keys + ["mean_accuracy", "std_dev"],
            *([str(r.best_config.to_flat().get(k, "")) for k in keys]
              + [f"{r.mean_accuracy:.10f}", f"{r.std_dev:.10f}"] for r in results),
        ]

    def test_predictions(self, run):
        from blsbench import data, trainer

        model = trainer.load_model(run / "model.json")
        X = data.load_csv(run / "data.csv").X
        assert self.rows(run / "preds.csv") == [["prediction"], *([p] for p in trainer.predict(model, X))]

    def test_stats_reports(self, run):
        from blsbench import stats

        acc = np.array(pt.ACCURACY, dtype=float)
        ranks = stats.rank_models(acc)
        fried = stats.friedman_test(ranks.mean(axis=0), len(pt.DATASETS))
        assert self.rows(run / "stats" / "ranks.csv") == [
            ["dataset", *pt.MODELS],
            *([ds, *(f"{v:g}" for v in row)] for ds, row in zip(pt.DATASETS, ranks)),
            ["average", *(f"{v:.4f}" for v in ranks.mean(axis=0))],
        ]
        assert self.rows(run / "stats" / "friedman.csv") == [
            ["chi2", "f_stat", "chi2_dof", "f_dof1", "f_dof2"],
            [f"{fried.chi2:.4f}", f"{fried.f_stat:.4f}", *map(str, (fried.chi2_dof, *fried.f_dof))],
        ]
        wilcoxon = [["model_a", "model_b", "p_value", "decision"]]
        win_tie_loss = [["model_a", "model_b", "wins_a", "ties", "wins_b", "threshold", "significant"]]
        for i in range(len(pt.MODELS)):
            for j in range(i + 1, len(pt.MODELS)):
                a, b = pt.MODELS[i], pt.MODELS[j]
                w = stats.wilcoxon_signed_rank(acc[:, i], acc[:, j])
                wilcoxon.append([a, b, f"{w.p_value:.6g}",
                                 "rejected" if w.p_value < 0.05 else "not-rejected"])
                t = stats.win_tie_loss(acc[:, i], acc[:, j])
                win_tie_loss.append([a, b, *map(str, (t.wins_a, t.ties, t.wins_b)),
                                     f"{t.threshold:.4f}", "yes" if t.significant else "no"])
        assert self.rows(run / "stats" / "wilcoxon.csv") == wilcoxon
        assert self.rows(run / "stats" / "win_tie_loss.csv") == win_tie_loss


class TestResourceFailures:
    def test_train_out_of_memory_is_one_error_line(self, tmp_path):
        # IF scoring of 12,000 rows makes a 1.07 GiB kernel matrix, which passes
        # the check against physical memory. Only the child's address space is
        # capped, at 800 MiB: far below that matrix, well above what Python,
        # numpy and the CLI map at one BLAS thread.
        X = np.random.default_rng(0).normal(size=(12000, 2)).tolist()
        data_csv = tmp_path / "big.csv"
        data_csv.write_text("x1,x2,label\n"
                            + "".join(f"{a!r},{b!r},{'ab'[a > 0]}\n" for a, b in X))

        def cap_address_space():
            _, hard = resource.getrlimit(resource.RLIMIT_AS)
            limit = 800 * 2**20
            resource.setrlimit(resource.RLIMIT_AS, (
                limit if hard == resource.RLIM_INFINITY else min(limit, hard), hard))

        res = run_cli("train", "--data", str(data_csv), "--variant", "if-bls",
                      "--out", str(tmp_path / "model.json"),
                      env={**os.environ, "OPENBLAS_NUM_THREADS": "1"},
                      preexec_fn=cap_address_space)
        assert res.returncode == 1
        assert res.stderr.startswith("error: out of memory: Unable to allocate ")
        assert res.stderr.count("\n") == 1
        assert not (tmp_path / "model.json").exists()

    def test_bare_memory_error_is_one_error_line(self, dataset_csv, tmp_path, monkeypatch,
                                                 capsys):
        # A MemoryError with no message, as Python raises for its own objects.
        from blsbench import cli, network

        def exhausted(*args):
            raise MemoryError()

        monkeypatch.setattr(network, "init_random_layer", exhausted)
        out = tmp_path / "model.json"
        code = cli.main(["train", "--data", str(dataset_csv), "--variant", "bls",
                         "--out", str(out)])
        assert code == 1
        assert capsys.readouterr().err == "error: out of memory\n"
        assert not out.exists()

    def test_gridsearch_worker_death_is_one_error_line(self, dataset_csv, tmp_path, monkeypatch,
                                                       capsys):
        from blsbench import cli, network

        parent, forward = os.getpid(), network._forward

        def dying(*args):
            if os.getpid() != parent:
                os._exit(3)
            return forward(*args)

        monkeypatch.setattr(network, "_forward", dying)  # before the pool forks
        grid, out = tmp_path / "grid.ini", tmp_path / "grid.csv"
        grid.write_text("[grid]\nc_reg = 1\nm = 1 2\np = 2\nq = 3\n")
        code = cli.main(["gridsearch", "--data", str(dataset_csv), "--variant", "bls",
                         "--grid", str(grid), "--jobs", "2", "--out", str(out)])
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith("error: a worker process died: ") and err.count("\n") == 1
        assert not out.exists()


class TestTopLevel:
    def test_version_exits_zero(self):
        res = run_cli("--version")
        assert res.returncode == 0

    def test_no_command_is_usage_error(self):
        res = run_cli()
        assert res.returncode == 2

    def test_import_leaves_scipy_stats_unloaded(self):
        # Only the stats subcommand needs scipy.stats; every other
        # subcommand should not pay for importing it.
        res = subprocess.run(
            [sys.executable, "-c",
             "import sys, blsbench.cli; print('scipy.stats' in sys.modules)"],
            capture_output=True, text=True)
        assert res.returncode == 0, res.stderr
        assert res.stdout.strip() == "False"

    @staticmethod
    def scipy_loaded_by(argv):
        """Run cli.main(argv) in a fresh interpreter; its exit code and whether
        it, or a worker process it forked, imported scipy and scipy.linalg, as
        -X importtime reports every import on stderr."""
        code = ("import json, sys\n"
                "from blsbench import cli\n"
                "try:\n"
                "    code = cli.main(json.loads(sys.argv[1]))\n"
                "except SystemExit as exc:\n"
                "    code = exc.code\n"
                "print(json.dumps(code))")
        res = subprocess.run([sys.executable, "-X", "importtime", "-c", code, json.dumps(argv)],
                             capture_output=True, text=True)
        assert res.returncode == 0, res.stderr
        imported = {line.rpartition("|")[2].strip() for line in res.stderr.splitlines()
                    if line.startswith("import time:")}
        return [json.loads(res.stdout.splitlines()[-1]), "scipy" in imported,
                "scipy.linalg" in imported]

    @pytest.mark.parametrize("command", ["noise", "predict", "--version"])
    def test_commands_that_never_solve_leave_scipy_unloaded(self, command, dataset_csv, tmp_path):
        # Only a solve needs scipy.linalg, which is most of the CLI's import time.
        from blsbench import cli

        model, feats = tmp_path / "model.json", tmp_path / "features.csv"
        argv = {
            "noise": ["noise", "--data", str(dataset_csv), "--level", "20",
                      "--out", str(tmp_path / "noisy.csv")],
            "predict": ["predict", "--model", str(model), "--data", str(feats),
                        "--out", str(tmp_path / "preds.csv")],
            "--version": ["--version"],
        }[command]
        if command == "predict":
            assert cli.main(["train", "--data", str(dataset_csv), "--variant", "f-bls",
                             "--out", str(model)]) == 0
            feats.write_text("".join(",".join(line.split(",")[:2]) + "\n"
                                     for line in dataset_csv.read_text().splitlines()))
        assert self.scipy_loaded_by(argv) == [0, False, False]

    @pytest.mark.parametrize("command", ["train", "cv", "gridsearch", "gridsearch-jobs2"])
    def test_solving_commands_leave_scipy_linalg_unloaded(self, command, dataset_csv, tmp_path):
        # The solve calls LAPACK in scipy's bundled OpenBLAS, which is found, not imported.
        if not solves_in_bundle():
            pytest.skip("scipy bundles no OpenBLAS; the solve imports scipy.linalg.cython_lapack")
        grid = tmp_path / "grid.ini"
        grid.write_text("[grid]\nc_reg = 0.1, 10\nm = 2\np = 3, 5\nq = 4\n")
        extra = {"train": [], "cv": ["--k", "2"],
                 "gridsearch": ["--grid", str(grid), "--k", "2"],
                 "gridsearch-jobs2": ["--grid", str(grid), "--k", "2", "--jobs", "2"]}[command]
        argv = [command.split("-")[0], "--data", str(dataset_csv), "--variant", "f-bls",
                *extra, "--out", str(tmp_path / "out")]
        assert self.scipy_loaded_by(argv) == [0, False, False]

    def test_stats_loads_scipy(self, tmp_path):
        # The positive control of scipy_loaded_by: stats needs scipy.stats.
        table = tmp_path / "table.csv"
        table.write_text("dataset,m1,m2,m3\n" + "".join(
            f"d{i},0.{80 + i},0.{85 - i},0.{90 - 2 * i}\n" for i in range(6)))
        argv = ["stats", "--table", str(table), "--out-dir", str(tmp_path / "reports")]
        assert self.scipy_loaded_by(argv)[:2] == [0, True]


@pytest.mark.parametrize("value", ["0", "-1", "nan", "inf", "1e999", "1e-170", "1e-320",
                                   "5e-324", "1e-160", "1e308"])
@pytest.mark.parametrize("flag", ["--C", "--mu", "--delta", "--epsilon"])
@pytest.mark.parametrize("variant", ["bls", "f-bls", "if-bls"])
@pytest.mark.parametrize("command", ["train", "cv"])
def test_hyperparameter_flag_value_succeeds_or_fails_cleanly(command, variant, flag, value,
                                                              tmp_path, capsys):
    # The network stays small (m, p, q are not varied): nothing bounds its size yet.
    from blsbench import cli

    data = write_dataset(tmp_path / "blobs.csv", n=40)
    argv = [command, "--data", str(data), "--variant", variant, "--m", "2", "--p", "3",
            "--q", "4", flag, value, "--out", str(tmp_path / "out")]
    try:
        code = cli.main(argv)
    except SystemExit as exc:
        assert exc.code == 2
        return
    assert code in (0, 1)
    if code == 1:
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1, err


# Config portion of model.json, manifest config block and gridsearch
# parameter columns, recorded from the pre-schema CLI; none depend on BLAS.
_NET = {"m": 2, "p": 3, "l": 1, "q": 4, "feature_activation": "linear",
        "enhancement_activation": "tanh", "seed": 3}
_MANIFEST = {"c_reg": 0.1, "enhancement_activation": "tanh", "feature_activation": "linear",
             "l": 1, "m": 2, "p": 3, "q": 4, "seed": 3}
_HEX_C, _HEX_DELTA, _HEX_HALF = "0x1.999999999999ap-4", "0x1.0624dd2f1a9fcp-10", "0x1.0000000000000p-1"
SCHEMA_PINS = {
    ("bls", "median_heuristic"): (
        {"delta": None, "kernel": None},
        {},
        ["", "", ""],
    ),
    ("f-bls", "median_heuristic"): (
        {"delta": _HEX_DELTA, "kernel": None},
        {"delta": 0.001},
        ["", "0.001", ""],
    ),
    ("if-bls", "median_heuristic"): (
        {"delta": None,
         "kernel": {"mu": _HEX_HALF, "delta": _HEX_DELTA, "epsilon": "median_heuristic"}},
        {"mu": 0.5, "kernel_delta": 0.001, "epsilon": "median_heuristic"},
        ["0.5", "0.001", "median_heuristic"],
    ),
    ("if-bls", "0.5"): (
        {"delta": None, "kernel": {"mu": _HEX_HALF, "delta": _HEX_DELTA, "epsilon": _HEX_HALF}},
        {"mu": 0.5, "kernel_delta": 0.001, "epsilon": 0.5},
        ["0.5", "0.001", "0.5"],
    ),
}
_ARRAY_KEYS = ["feature_weights", "feature_biases", "enhancement_weights",
               "enhancement_biases", "w_out", "norm_min", "norm_range", "score_vector"]


@pytest.mark.parametrize("variant,epsilon", list(SCHEMA_PINS))
def test_config_schema_pinned(variant, epsilon, dataset_csv, tmp_path):
    from blsbench import cli

    model_part, manifest_part, grid_part = SCHEMA_PINS[variant, epsilon]
    # One INI serves as --config and as a one-point grid; keys the variant
    # does not use are ignored by both.
    ini = tmp_path / "run.ini"
    ini.write_text("[model]\nc_reg = 0.1\nm = 2\np = 3\nq = 4\ndelta = 0.001\nmu = 0.5\n"
                   f"[kernel]\nepsilon = {epsilon}\n")
    model = tmp_path / "model.json"
    assert cli.main(["train", "--data", str(dataset_csv), "--variant", variant,
                     "--config", str(ini), "--seed", "3", "--out", str(model)]) == 0
    grid = tmp_path / "grid.csv"
    assert cli.main(["gridsearch", "--data", str(dataset_csv), "--variant", variant,
                     "--grid", str(ini), "--k", "3", "--seed", "3", "--out", str(grid)]) == 0

    doc = json.loads(model.read_text())
    expected = {"format": "blsbench-model", "version": 1, "variant": variant,
                "c_reg": _HEX_C, **model_part, "network": _NET, "input_dim": 2,
                "class_labels": ["a", "b"], "solve_branch_used": "primal"}
    config_part = {k: v for k, v in doc.items() if k not in _ARRAY_KEYS}
    assert json.dumps(config_part) == json.dumps(expected)  # values and key order
    assert list(doc) == list(expected) + _ARRAY_KEYS

    expected_manifest = {**_MANIFEST, "variant": variant, **manifest_part}
    for path in (model, grid):
        manifest = json.loads((tmp_path / f"{path.name}.manifest.json").read_text())
        assert manifest["config"] == expected_manifest

    rows = list(csv.reader(grid.open()))
    assert rows[0] == ["c_reg", "m", "p", "q", "mu", "delta", "epsilon",
                       "mean_accuracy", "std_dev"]
    assert len(rows) == 2 and rows[1][:7] == ["0.1", "2", "3", "4"] + grid_part
