"""The three benchmark workloads: their inputs, one measured pass, and checks.

Every workload is a closed loop with one client: the next pass starts
when the previous one has returned. Inputs come from the seed alone.

- grid-bls: stats.grid_search over 24 bls configs, in process, jobs=1.
  The paper's hot loop of many small primal fits (network.state_matrix and
  linalg.solve_weighted_ridge_primal); weighting does no work.
- ifbls-noisy-cv: stats.cross_validate of one if-bls config on data with
  20% of rows corrupted. if_scores dominates fit time and peak memory; a
  single config, so grid-level sharing has nothing to share here.
- cli-pipeline: the blsbench CLI as subprocesses, noise -> gridsearch
  (f-bls, dual branch, --jobs 1) -> train -> predict. The only workload
  paying process start-up, imports, CSV and model files. The --jobs 2
  process pool runs once per run after timing, on the same grid: its CSV
  must equal the timed passes' and its wall time is reported unbounded.
"""

from __future__ import annotations

import csv
import hashlib
import os
import resource
import shutil
import signal
import subprocess
import sys
import time

import numpy as np

import tracing

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")

# Class means sit SEPARATION standard deviations either side of the origin
# along one random direction, so the Bayes accuracy is Phi(1.5) = 0.933.
# The floors leave more than ten binomial standard deviations of a test
# fold below it; a fold under its floor is a wrong output.
SEPARATION = 1.5
FLOOR_CLEAN = 0.80
FLOOR_NOISY = 0.75
NOISE_LEVEL = 20.0
FOLDS = 5
COMMAND_TIMEOUT_S = 120


def make_data(n, d, seed, stream):
    """Balanced two-class Gaussian data; labels are 'neg' and 'pos'."""
    rng = np.random.default_rng([seed, stream])
    direction = rng.normal(size=d)
    direction /= np.linalg.norm(direction)
    y = rng.permutation(np.arange(n) % 2)
    X = rng.normal(size=(n, d)) + np.outer(np.where(y == 1, SEPARATION, -SEPARATION), direction)
    return X, ["pos" if v else "neg" for v in y]


def write_csv(path, X, labels=None):
    """Write features (and labels) with repr floats, which parse back exactly."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow([f"f{i}" for i in range(X.shape[1])] + ([] if labels is None else ["label"]))
        for i, row in enumerate(X):
            writer.writerow([repr(float(v)) for v in row] + ([] if labels is None else [labels[i]]))


def python_env(**extra):
    """The caller's environment plus the checkout's src on PYTHONPATH.

    BLAS thread settings are passed through untouched: the benchmark
    measures the program's own defaults.
    """
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (SRC, env.get("PYTHONPATH")) if p)
    env.update(extra)
    return env


def run_process(argv, env, cwd):
    """Run one command in its own session; kill the whole group on timeout."""
    start = time.perf_counter()
    proc = subprocess.Popen(argv, env=env, cwd=cwd, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True, start_new_session=True)
    try:
        out, err = proc.communicate(timeout=COMMAND_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        out, err = proc.communicate()
    return proc.returncode, time.perf_counter() - start, out, err


class Pass:
    """One measured pass: its wall time, trace chunks and per-operation outputs.

    ``outcomes`` maps an operation key to (value, ok). ``value`` must equal
    the first pass's value for the same key; ``ok`` is the pass's own check.
    """

    def __init__(self, wall, chunks, outcomes, config_wall=None, commands=None):
        self.wall = wall
        self.chunks = chunks
        self.outcomes = outcomes
        self.config_wall = wall if config_wall is None else config_wall
        self.commands = commands or {}


class _Library:
    """A workload that calls the library in this process."""

    configs = 1

    def __init__(self, seed, work_dir):
        self.seed = seed
        self.work_dir = work_dir
        self.tracer = None

    def setup(self):
        # A fresh interpreter pays the import cost a user of the library pays.
        code, _, _, err = run_process([sys.executable, "-c", "import blsbench.stats"],
                                      python_env(), self.work_dir)
        if code != 0:
            raise RuntimeError(f"importing blsbench failed: {err.strip()}")
        from blsbench import data, trainer

        X, labels = make_data(self.n, 10, self.seed, stream=self.stream)
        path = os.path.join(self.work_dir, "data.csv")
        write_csv(path, X, labels)
        ds = data.load_csv(path)
        if self.noisy:
            ds = data.inject_gaussian_noise(ds, NOISE_LEVEL, self.seed)
        self.ds = ds
        self.plan = data.make_folds(ds.n_samples, FOLDS, self.seed)
        # Warm-up: one small fit loads BLAS kernels and lazy module state.
        trainer.fit(ds.X[:200], ds.labels[:200], self.warmup_config())

    def set_tracing(self, on):
        self.close()
        if on:
            self.tracer = tracing.Tracer().install()

    def close(self):
        if self.tracer is not None:
            self.tracer.uninstall()
            self.tracer = None

    def run_pass(self):
        start = time.perf_counter()
        results = self.call()
        wall = time.perf_counter() - start
        outcomes = {}
        for i, res in enumerate(results):
            for fold, acc in enumerate(res.per_fold_accuracy):
                outcomes[(i, fold)] = (acc, acc is not None and acc >= self.floor)
        return Pass(wall, [] if self.tracer is None else [self.tracer.take()], outcomes)

    def final_checks(self):
        return {}

    def peak_rss_mb(self):
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class GridBls(_Library):
    n, stream, noisy, floor = 2000, 1, False, FLOOR_CLEAN
    configs = 24

    def grid(self):
        from blsbench import stats

        # Widths 55..375 stay under the 1600 training rows: primal branch.
        return stats.GridSpec(c_reg=(1.0, 100.0, 1e4), m=(3, 9), p=(10, 30), q=(25, 105))

    def warmup_config(self):
        return self.grid().configs("bls", self.seed)[0]

    def call(self):
        from blsbench import stats

        _, results = stats.grid_search(self.ds, "bls", self.grid(), self.plan, seed=self.seed, jobs=1)
        return results


class IfBlsNoisyCv(_Library):
    n, stream, noisy, floor = 3000, 2, True, FLOOR_NOISY

    def config(self):
        from blsbench import if_scores, network, trainer

        return trainer.ModelConfig("if-bls", network.NetworkConfig(m=5, p=10, q=25, seed=self.seed),
                                   c_reg=100.0, kernel=if_scores.KernelParams(mu=1.0))

    warmup_config = config

    def call(self):
        from blsbench import stats

        return [stats.cross_validate(self.ds, self.config(), self.plan)]


class CliPipeline:
    """noise -> gridsearch -> train -> predict, each a blsbench CLI process.

    The timed gridsearch runs with --jobs 1. With --jobs 2 the two pool
    workers each start the default BLAS threads on a two-core host, and
    one command's wall time varied by a quarter to a half from call to
    call, more than a run has passes to average out; so the pool runs
    once per run, untimed by the bounded metrics (see final_checks).
    """

    N_TRAIN, N_TEST = 500, 200
    # Widths 475..1155 exceed the 400 training rows of a fold: dual branch.
    GRID = "[grid]\nc_reg = 1, 100\nm = 9 21\np = 50\nq = 25 105\n"
    TRAIN = {"m": 21, "p": 50, "q": 105, "C": 100.0}
    COMMANDS = ("noise", "gridsearch", "train", "predict")
    configs = 8

    def __init__(self, seed, work_dir):
        self.seed = seed
        self.work_dir = work_dir
        self.traced = False
        self.pool_jobs = min(2, os.cpu_count() or 1)
        self.pool_wall = None
        self.model_bytes = 0

    def path(self, name):
        return os.path.join(self.work_dir, name)

    def setup(self):
        X, labels = make_data(self.N_TRAIN + self.N_TEST, 10, self.seed, stream=3)
        write_csv(self.path("data.csv"), X[: self.N_TRAIN], labels[: self.N_TRAIN])
        write_csv(self.path("features.csv"), X[self.N_TRAIN:])
        self.test_labels = labels[self.N_TRAIN:]
        with open(self.path("grid.ini"), "w", encoding="utf-8") as fh:
            fh.write(self.GRID)
        # Warm-up: one CLI process brings the interpreter and the libraries
        # into the page cache; its time stands for the import cost.
        code, _, _, err = self.cli(["--version"])
        if code != 0:
            raise RuntimeError(f"blsbench --version failed: {err.strip()}")

    def set_tracing(self, on):
        self.traced = on

    def close(self):
        pass

    def cli(self, args):
        """Run the shipped CLI, or the tracing launcher in a traced pass."""
        if not self.traced:
            return run_process([sys.executable, "-m", "blsbench.cli"] + args, python_env(),
                               self.work_dir)
        spans = self.path("spans")
        os.makedirs(spans, exist_ok=True)
        launcher = os.path.join(BENCH_DIR, "cli_launcher.py")
        return run_process([sys.executable, launcher] + args, python_env(BENCH_TRACE_DIR=spans),
                           self.work_dir)

    def command_args(self, name, jobs=1, out="grid.csv"):
        seed = str(self.seed)
        if name == "noise":
            return ["noise", "--data", "data.csv", "--level", str(NOISE_LEVEL),
                    "--seed", seed, "--out", "noisy.csv"]
        if name == "gridsearch":
            return ["gridsearch", "--data", "noisy.csv", "--variant", "f-bls", "--grid", "grid.ini",
                    "--k", str(FOLDS), "--fold-seed", seed, "--seed", seed,
                    "--jobs", str(jobs), "--out", out]
        if name == "train":
            t = self.TRAIN
            return ["train", "--data", "noisy.csv", "--variant", "f-bls", "--m", str(t["m"]),
                    "--p", str(t["p"]), "--q", str(t["q"]), "--C", repr(t["C"]),
                    "--seed", seed, "--out", "model.json"]
        return ["predict", "--model", "model.json", "--data", "features.csv", "--out", "pred.csv"]

    def run_pass(self):
        shutil.rmtree(self.path("spans"), ignore_errors=True)
        commands, outcomes = {}, {}
        start = time.perf_counter()
        for name in self.COMMANDS:
            code, seconds, out, err = self.cli(self.command_args(name))
            commands[name] = seconds
            outcomes[name] = self.check(name, code, out)
        wall = time.perf_counter() - start
        chunks = []
        if self.traced:
            spans = self.path("spans")
            chunks = [c for f in sorted(os.listdir(spans))
                      for c in tracing.read_chunks(os.path.join(spans, f))]
        return Pass(wall, chunks, outcomes, config_wall=commands["gridsearch"], commands=commands)

    def read_bytes(self, name):
        with open(self.path(name), "rb") as fh:
            return fh.read()

    def check(self, name, code, out):
        """(digest of the command's output, whether the output is valid)."""
        if code != 0:
            return (None, False)
        if name == "noise":
            with open(self.path("noisy.csv"), newline="") as fh:
                rows = list(csv.reader(fh))[1:]
            with open(self.path("data.csv"), newline="") as fh:
                clean = list(csv.reader(fh))[1:]
            changed = sum(a[:-1] != b[:-1] for a, b in zip(rows, clean))
            ok = (len(rows) == len(clean) and [r[-1] for r in rows] == [r[-1] for r in clean]
                  and changed == round(NOISE_LEVEL / 100.0 * len(clean)))
            return (hashlib.sha256(self.read_bytes("noisy.csv")).hexdigest(), ok)
        if name == "gridsearch":
            with open(self.path("grid.csv"), newline="") as fh:
                rows = list(csv.DictReader(fh))
            ok = len(rows) == self.configs and all(float(r["mean_accuracy"]) >= FLOOR_NOISY for r in rows)
            return (hashlib.sha256(self.read_bytes("grid.csv")).hexdigest(), ok)
        if name == "train":
            blob = self.read_bytes("model.json")
            self.model_bytes = len(blob)
            acc = float(out.split("training accuracy:")[1].split()[0]) if "training accuracy:" in out else 0.0
            return (hashlib.sha256(blob).hexdigest(), acc >= FLOOR_NOISY)
        with open(self.path("pred.csv"), newline="") as fh:
            preds = tuple(r[0] for r in list(csv.reader(fh))[1:])
        hits = sum(p == t for p, t in zip(preds, self.test_labels))
        return (preds, len(preds) == self.N_TEST and hits >= FLOOR_NOISY * self.N_TEST)

    def final_checks(self):
        """Checks against in-process references, made once after timing.

        Every pass already matched the first pass, so checking the files the
        last pass left covers them all.
        """
        from blsbench import data, fuzzy, network, trainer

        checks = {}
        clean = data.load_csv(self.path("data.csv"))
        expected = data.inject_gaussian_noise(clean, NOISE_LEVEL, self.seed)
        noisy = data.load_csv(self.path("noisy.csv"))
        checks["noise_matches_library"] = (
            np.array_equal(noisy.X, expected.X) and noisy.labels == expected.labels)

        t = self.TRAIN
        cfg = trainer.ModelConfig("f-bls", network.NetworkConfig(m=t["m"], p=t["p"], q=t["q"], seed=self.seed),
                                  c_reg=t["C"], delta=fuzzy.DEFAULT_DELTA)
        model = trainer.fit(noisy.X, noisy.labels, cfg)
        X_test = _read_features(self.path("features.csv"))
        with open(self.path("pred.csv"), newline="") as fh:
            preds = [r[0] for r in list(csv.reader(fh))[1:]]
        checks["predict_matches_in_memory_model"] = preds == trainer.predict(model, X_test)

        # The process pool on the timed grid: the same bytes as --jobs 1.
        out = f"grid-jobs{self.pool_jobs}.csv"
        code, self.pool_wall, _, _ = self.cli(self.command_args("gridsearch", jobs=self.pool_jobs, out=out))
        checks["gridsearch_bytes_equal_across_jobs"] = (
            code == 0 and os.path.exists(self.path("grid.csv"))
            and self.read_bytes(out) == self.read_bytes("grid.csv"))
        return checks

    def peak_rss_mb(self):
        return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0


def _read_features(path):
    with open(path, newline="") as fh:
        return np.array([[float(c) for c in row] for row in list(csv.reader(fh))[1:]])


WORKLOADS = {"grid-bls": GridBls, "ifbls-noisy-cv": IfBlsNoisyCv, "cli-pipeline": CliPipeline}
