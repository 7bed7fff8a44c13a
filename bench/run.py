"""blsbench benchmark: one workload, measured for a fixed time, outputs checked.

    python3 bench/run.py --workload grid-bls --seed 1 --seconds 26 --trace 0

Run from the root of a source checkout; the program is imported from its
src/ directory. With --trace 0 the last stdout line carries the end-to-end
metrics; with --trace 1 it carries the per-layer metrics of a traced run.
Earlier stdout lines give each metric with its sample count, the checks
that failed and the environment. See bench/README.md.
"""

from __future__ import annotations

import argparse
import ctypes
import glob
import hashlib
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

import tracing
import workloads
from workloads import BENCH_DIR, ROOT, SRC

SETUP_REPEATS = 5

# Per-layer metrics reported by every traced run, whichever layers the
# workload reaches; see README.md for the end-to-end metric each should move.
LAYER_FUNCTIONS = {
    "linalg.as_matrix": ("calls", "self_s"),
    "linalg.as_weights": ("calls", "self_s"),
    "linalg.solve_weighted_ridge_primal": ("calls", "self_s"),
    "linalg.solve_weighted_ridge_dual": ("calls", "self_s"),
    "linalg.pairwise_sq_dist": ("calls", "self_s"),
    "network.state_matrix": ("calls", "self_s", "total_s"),
    "network.feature_groups": ("self_s",),
    "network.enhancement_groups": ("self_s",),
    "fuzzy.fuzzy_score_vector": ("calls", "self_s"),
    "if_scores.if_score_vector": ("calls", "self_s", "total_s"),
    "if_scores.gaussian_kernel": ("calls", "self_s"),
    "if_scores.kernel_pairwise_distances": ("calls", "self_s"),
    "if_scores.resolve_epsilon": ("calls", "self_s"),
    "if_scores.non_membership": ("calls", "self_s"),
    "if_scores.kernel_class_radii": ("calls", "self_s"),
    "if_scores.kernel_membership": ("calls", "self_s"),
    "if_scores.if_score": ("calls", "self_s"),
    "trainer.fit": ("calls", "self_s", "total_s"),
    "trainer.decision_scores": ("self_s",),
    "trainer.save_model": ("self_s",),
    "trainer.load_model": ("self_s",),
    "data.load_csv": ("self_s",),
    "data.inject_gaussian_noise": ("self_s",),
    "data.make_folds": ("self_s",),
    "stats.grid_search": ("calls", "self_s"),
    "stats.cross_validate": ("calls", "self_s"),
}
UNITS = {"calls": "count", "self_s": "s", "total_s": "s"}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=list(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def environment():
    """What the figures depend on besides the code."""
    import numpy
    import scipy

    env = {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas_env": {k: os.environ[k] for k in sorted(os.environ)
                     if k.endswith("_NUM_THREADS") or k.startswith("OPENBLAS")},
        "blas": [_openblas(numpy), _openblas(scipy)],
        "git_commit": _git_commit(),
        "src_sha256": _tree_digest(SRC),
    }
    return env


def _openblas(package):
    """Library, configuration and thread count of a package's bundled OpenBLAS."""
    info = {"package": package.__name__}
    try:
        info["build"] = package.__config__.CONFIG["Build Dependencies"]["blas"].get("version")
    except (AttributeError, KeyError):
        pass
    for path in glob.glob(os.path.dirname(package.__file__) + ".libs/*openblas*"):
        lib = ctypes.CDLL(path)
        for suffix in ("64_", ""):
            threads = getattr(lib, f"scipy_openblas_get_num_threads{suffix}", None)
            config = getattr(lib, f"scipy_openblas_get_config{suffix}", None)
            if threads is not None and config is not None:
                threads.argtypes, threads.restype = [], ctypes.c_int
                config.argtypes, config.restype = [], ctypes.c_char_p
                info.update(library=os.path.basename(path), config=config().decode(),
                            threads=threads())
                break
    return info


def _git_commit():
    """HEAD of the checkout, or None when the checkout is not a git work tree."""
    try:
        out = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    lines = out.stdout.split()
    if out.returncode != 0 or len(lines) != 2 or os.path.realpath(lines[0]) != os.path.realpath(ROOT):
        return None
    return lines[1]


def _tree_digest(top):
    h = hashlib.sha256()
    for dirpath, dirnames, filenames in os.walk(top):
        dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
        for name in sorted(filenames):
            path = os.path.join(dirpath, name)
            h.update(os.path.relpath(path, top).encode() + b"\0")
            with open(path, "rb") as fh:
                h.update(fh.read())
    return h.hexdigest()


def tail(values):
    """The highest percentile with at least ten samples beyond it.

    Returns (value, percentile); with ten samples or fewer, the maximum.
    """
    ordered = sorted(values)
    n = len(ordered)
    if n <= 10:
        return ordered[-1], 100.0
    return ordered[n - 11], 100.0 * (n - 10) / n


def measure(workload, seconds):
    """Run passes until `seconds` have elapsed; at least one."""
    passes = []
    start = time.perf_counter()
    while not passes or time.perf_counter() - start < seconds:
        passes.append(workload.run_pass())
    return passes


class Verdicts:
    """Counts operations and compares each output with the first pass's."""

    def __init__(self):
        self.reference = None
        self.attempted = 0
        self.failures = []

    def add_pass(self, p, label):
        if self.reference is None:
            self.reference = {k: v for k, (v, _) in p.outcomes.items()}
        for key, (value, ok) in p.outcomes.items():
            self.attempted += 1
            if not ok:
                self.failures.append(f"{label}: {key} failed its check ({value!r})")
            elif value != self.reference.get(key):
                self.failures.append(f"{label}: {key} differs from the first pass")

    def add_checks(self, checks):
        for name, ok in checks.items():
            self.attempted += 1
            if not ok:
                self.failures.append(f"check {name} failed")


def metric(value, unit, n=None, **extra):
    entry = {"value": value, "unit": unit}
    if n is not None:
        entry["n"] = n
    entry.update(extra)
    return entry


def end_to_end(workload, setup_times, passes):
    walls = [p.wall for p in passes]
    if passes[0].commands:
        # One CLI process per subcommand; the median over subcommands of
        # each subcommand's median.
        cmd = statistics.median(statistics.median(p.commands[name] for p in passes)
                                for name in passes[0].commands)
        cmd_n = len(passes) * len(passes[0].commands)
    else:
        # In the library workloads the user-level command is the pass itself.
        cmd, cmd_n = statistics.median(walls), len(walls)
    config_walls = [p.config_wall for p in passes]
    return {
        "setup_s": metric(statistics.median(setup_times), "s", len(setup_times)),
        "wall_s": metric(statistics.median(walls), "s", len(walls)),
        "configs_per_s": metric(workload.configs / statistics.median(config_walls), "1/s",
                                len(config_walls)),
        "cmd_p50_s": metric(cmd, "s", cmd_n),
        "peak_rss_mb": metric(workload.peak_rss_mb(), "MB", 1),
    }


def per_layer(workload, untraced, traced):
    chunks = [c for p in traced for c in p.chunks]
    stats, counts = tracing.summarize(chunks)
    n = len(traced)
    out = {}
    for module in tracing.LAYERS:
        total = sum(s["self_s"] for name, s in stats.items() if name.startswith(module + "."))
        out[f"{module}.self_s"] = metric(total / n, "s", n)
    for name, fields in LAYER_FUNCTIONS.items():
        s = stats.get(name, {"calls": 0, "self_s": 0.0, "total_s": 0.0})
        for field in fields:
            out[f"{name}.{field}"] = metric(s[field] / n, UNITS[field], n)
    fits = tracing.durations(chunks, "trainer.fit")
    fit_tail, pct = tail(fits) if fits else (0.0, 0.0)
    out["trainer.fit.p50_s"] = metric(statistics.median(fits) if fits else 0.0, "s", len(fits))
    out["trainer.fit.tail_s"] = metric(fit_tail, "s", len(fits), percentile=pct)
    fit_calls = len(fits)
    out["linalg.solve.flops_computed"] = metric(
        counts.get("linalg.solve.flops_computed", 0.0) / n, "flop", n)
    out["if_scores.kernel_bytes_computed"] = metric(
        counts.get("if_scores.kernel_bytes_computed", 0.0) / max(fit_calls, 1), "B", fit_calls)
    out["trainer.model_file_bytes"] = metric(getattr(workload, "model_bytes", 0), "B", 1)
    imports = tracing.durations(chunks, "import blsbench.cli")
    out["cli.import_s"] = metric(statistics.median(imports) if imports else 0.0, "s", len(imports))
    for name in ("noise", "gridsearch", "train", "predict"):
        times = [p.commands[name] for p in traced if name in p.commands]
        out[f"cli.{name}.s"] = metric(statistics.median(times) if times else 0.0, "s", len(times))
    pool_wall = getattr(workload, "pool_wall", None)
    out["cli.gridsearch_jobs2.s"] = metric(pool_wall or 0.0, "s", int(pool_wall is not None))
    traced_wall = statistics.median(p.wall for p in traced)
    out["trace.wall_s"] = metric(traced_wall, "s", n)
    out["trace.overhead_s"] = metric(
        traced_wall - statistics.median(p.wall for p in untraced), "s", len(untraced))
    return out, chunks


def run(args):
    cls = workloads.WORKLOADS[args.workload]
    work_root = os.path.join(BENCH_DIR, ".work")
    os.makedirs(work_root, exist_ok=True)
    work_dir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=work_root)
    workload = cls(args.seed, work_dir)
    try:
        setup_times = []
        for _ in range(SETUP_REPEATS):
            start = time.perf_counter()
            workload.setup()
            setup_times.append(time.perf_counter() - start)

        verdicts = Verdicts()
        untraced = measure(workload, args.seconds / 2 if args.trace else args.seconds)
        for i, p in enumerate(untraced):
            verdicts.add_pass(p, f"pass {i}")
        if args.trace:
            workload.set_tracing(True)
            traced = measure(workload, args.seconds / 2)
            workload.set_tracing(False)
            for i, p in enumerate(traced):
                verdicts.add_pass(p, f"traced pass {i}")
        verdicts.add_checks(workload.final_checks())
        if args.trace:
            metrics, chunks = per_layer(workload, untraced, traced)
            trace_path = os.path.join(work_root, f"trace-{args.workload}.jsonl")
            if os.path.exists(trace_path):
                os.remove(trace_path)
            tracing.write_chunks(trace_path, chunks)
        else:
            metrics = end_to_end(workload, setup_times, untraced)
    finally:
        workload.close()
        shutil.rmtree(work_dir, ignore_errors=True)

    for name, m in metrics.items():
        extra = "".join(f" {k}={v:g}" for k, v in m.items() if k not in ("value", "unit"))
        print(f"{name:44s} {m['value']:.6g} {m['unit']}{extra}")
    detail = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "pass_walls": [p.wall for p in untraced],
        "pool_gridsearch_s": getattr(workload, "pool_wall", None),
        "failures": verdicts.failures[:20],
        "failed_frac": len(verdicts.failures) / verdicts.attempted,
        "environment": environment(),
    }
    print(json.dumps({"detail": detail, "metrics": metrics}))
    result = {
        "correct": not verdicts.failures,
        "attempted": verdicts.attempted,
        "failed": len(verdicts.failures),
        "metrics": {k: {"value": m["value"], "unit": m["unit"]} for k, m in metrics.items()},
    }
    print(json.dumps(result))
    return 0


def main(argv=None):
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "blsbench", "__init__.py")):
        print(f"error: no blsbench sources under {SRC}", file=sys.stderr)
        return 2
    if not (args.seconds > 0 and math.isfinite(args.seconds)):
        print("error: --seconds must be positive", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import blsbench  # noqa: F401  (imported once here so no timed set-up pays for it)

    return run(args)


if __name__ == "__main__":
    sys.exit(main())
