"""Golden outputs of every `blsbench` command, and the script that writes them.

    PYTHONPATH=src python tests/golden_battery.py

rewrites tests/golden/ from the current code: the input CSVs (drawn with
the standard library's random, so they do not depend on numpy, and the
published accuracy table), the output CSVs, the SHA-256 of each model file
(models.json), the commands' stdout and the environment the outputs came
from. tests/test_golden.py runs the same battery and compares. A change
that rewrites any golden file lists it in CHANGES.md.

The battery covers bls, f-bls and if-bls, a 3-class bls dataset, one
primal and one dual width (a 96-row training complement against widths 20
and 200, whose linear feature map solves on 15 and 105 columns), and grid
search at --jobs 1 and 2 over a primal and a dual network on an f-bls
delta grid and an if-bls mu and epsilon grid whose mu = 2^-5 gives
all-zero weights. Each variant is trained on all 120 rows of
two_class.csv at a primal and a dual width and predicts features.csv, and
so is bls under each nonlinear feature map (tanh and sigmoid); noise
corrupts two_class.csv, and stats reports on the published 28 x 7 table.
"""

from __future__ import annotations

import contextlib
import ctypes
import glob
import hashlib
import io
import json
import os
import random
import sys
import tempfile
from pathlib import Path

GOLDEN = Path(__file__).resolve().parent / "golden"

WIDTHS = {"primal": ["--m", "2", "--p", "5", "--q", "10"],
          "dual": ["--m", "2", "--p", "50", "--q", "100"]}
SEEDS = ["--k", "5", "--fold-seed", "1", "--seed", "2"]
_BASE_GRID = "[grid]\nc_reg = 0.01, 1, 100\nm = 2\np = 5\nq = 10, 100\n"
GRIDS = {
    "bls": ("two_class.csv", "bls", _BASE_GRID),
    "f-bls": ("two_class.csv", "f-bls", _BASE_GRID + "delta = 0.0001, 0.1\n"),
    "if-bls": ("two_class.csv", "if-bls",
               _BASE_GRID + "mu = 0.03125, 0.5, 2\nepsilon = median_heuristic, 0.8\n"),
    "bls3": ("three_class.csv", "bls", "[grid]\nc_reg = 0.1, 10\nm = 2\np = 5\nq = 20, 80\n"),
}
JOBS = ("1", "2")
# train fits all 120 rows of two_class.csv, so its dual width must exceed 120:
# under the linear feature map the 5 + l*q columns it solves on, under tanh
# and sigmoid the width m*p + l*q.
TRAIN_WIDTHS = {"primal": WIDTHS["primal"], "dual": ["--m", "3", "--p", "50", "--q", "120"]}
NONLINEAR_TRAIN_WIDTHS = {"primal": WIDTHS["primal"],
                          "dual": ["--m", "3", "--p", "50", "--q", "10"]}
# (name, flags, widths): each variant trains under the default linear feature
# map, and bls under each nonlinear one too.
TRAININGS = [(variant, [], TRAIN_WIDTHS) for variant in ("bls", "f-bls", "if-bls")] + [
    (f"bls_{act}", ["--feature-activation", act], NONLINEAR_TRAIN_WIDTHS)
    for act in ("tanh", "sigmoid")]
STATS_REPORTS = ("ranks.csv", "friedman.csv", "wilcoxon.csv", "win_tie_loss.csv")


def _dataset(n: int, centers, seed: int) -> str:
    """n rows of unit-variance Gaussian features around each class center in turn."""
    rng = random.Random(seed)
    rows = [[f"{rng.gauss(c, 1.0):.6f}" for c in centers[i % len(centers)][1]]
            + [centers[i % len(centers)][0]] for i in range(n)]
    rng.shuffle(rows)
    header = [f"x{j}" for j in range(len(centers[0][1]))] + ["label"]
    return "".join(",".join(r) + "\n" for r in [header, *rows])


def _features(n: int, dim: int, seed: int) -> str:
    """n rows of dim features drawn uniformly from [-2, 2], without a label column."""
    rng = random.Random(seed)
    rows = [[f"x{j}" for j in range(dim)]]
    rows += [[f"{rng.uniform(-2.0, 2.0):.6f}" for _ in range(dim)] for _ in range(n)]
    return "".join(",".join(r) + "\n" for r in rows)


def _published_table() -> str:
    """The published 28 x 7 accuracy table as a `stats --table` CSV."""
    import published_tables as pt

    rows = [["dataset", *pt.MODELS]]
    rows += [[name, *(repr(float(v)) for v in row)] for name, row in zip(pt.DATASETS, pt.ACCURACY)]
    return "".join(",".join(r) + "\n" for r in rows)


INPUTS = {
    "two_class.csv": lambda: _dataset(120, [("neg", (-0.5,) * 4), ("pos", (0.5,) * 4)], 1),
    "three_class.csv": lambda: _dataset(
        90, [("a", (0.0, 0.0, 0.0)), ("b", (1.5, 0.0, 0.0)), ("c", (0.0, 1.5, 0.0))], 2),
    "features.csv": lambda: _features(30, 4, 3),
    "published_table.csv": _published_table,
}


def commands(inputs: Path, work: Path):
    """(command name, argv, {golden name: output path}) of each command of the
    battery. A command name keys its stdout; a golden name ending in .model
    is stored as the file's SHA-256 in models.json, any other as the file."""
    two_class = ["--data", str(inputs / "two_class.csv")]
    for variant in ("bls", "f-bls", "if-bls"):
        for width, flags in WIDTHS.items():
            out = work / f"cv_{variant}_{width}.csv"
            yield out.name, ["cv", *two_class, "--variant", variant,
                             *flags, *SEEDS, "--out", str(out)], {out.name: out}
    out = work / "cv_bls3_primal.csv"
    yield out.name, ["cv", "--data", str(inputs / "three_class.csv"), "--variant", "bls",
                     *WIDTHS["primal"], *SEEDS, "--out", str(out)], {out.name: out}
    for name, (data, variant, grid) in GRIDS.items():
        grid_path = work / f"grid_{name}.ini"
        grid_path.write_text(grid, encoding="utf-8")
        for jobs in JOBS:
            out = work / f"gridsearch_{name}_jobs{jobs}.csv"
            yield f"gridsearch_{name}.csv", [
                "gridsearch", "--data", str(inputs / data), "--variant", variant,
                "--grid", str(grid_path), *SEEDS, "--jobs", jobs, "--out", str(out)], \
                {f"gridsearch_{name}.csv": out}
    for name, activation, widths in TRAININGS:
        for width, flags in widths.items():
            model = work / f"train_{name}_{width}.model"
            yield model.name, ["train", *two_class, "--variant", name.split("_")[0], *flags,
                               *activation, "--seed", "2", "--out", str(model)], \
                {model.name: model}
            out = work / f"predict_{name}_{width}.csv"
            yield out.name, ["predict", "--model", str(model), "--data",
                             str(inputs / "features.csv"), "--out", str(out)], {out.name: out}
    out = work / "noise.csv"
    yield out.name, ["noise", *two_class, "--level", "20", "--seed", "4",
                     "--out", str(out)], {out.name: out}
    yield "stats", ["stats", "--table", str(inputs / "published_table.csv"),
                    "--out-dir", str(work / "stats")], \
        {f"stats_{report}": work / "stats" / report for report in STATS_REPORTS}


def _stored(name: str, path: Path) -> str:
    """An output as its golden holds it: a model file's SHA-256, any other file's text."""
    if name.endswith(".model"):
        return hashlib.sha256(path.read_bytes()).hexdigest()
    return path.read_text(encoding="utf-8")


def run(inputs: Path, work: Path) -> list[tuple[str, dict, str]]:
    """Run the battery in process; (command name, {golden name: stored output},
    stdout with the work directory left out of paths) per command."""
    from blsbench import cli

    results = []
    for name, argv, outs in commands(inputs, work):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = cli.main(argv)
        if code != 0:
            raise RuntimeError(f"{argv} exited {code}")
        stored = {golden: _stored(golden, path) for golden, path in outs.items()}
        results.append((name, stored, buf.getvalue().replace(str(work) + os.sep, "")))
    return results


def stored_golden(name: str) -> str:
    """The golden of an output, as _stored gives it."""
    if name.endswith(".model"):
        return json.loads((GOLDEN / "models.json").read_text(encoding="utf-8"))[name]
    return (GOLDEN / name).read_text(encoding="utf-8")


def environment() -> dict:
    """What the output bytes depend on besides the code: the numpy and scipy
    versions and the core each bundled OpenBLAS selected."""
    import numpy
    import scipy

    cores = []
    for package in (numpy, scipy):
        for path in sorted(glob.glob(os.path.dirname(package.__file__) + ".libs/*openblas*")):
            lib = ctypes.CDLL(path)
            for suffix in ("64_", ""):
                get = getattr(lib, f"scipy_openblas_get_corename{suffix}", None)
                if get is not None:
                    get.restype = ctypes.c_char_p
                    cores.append(f"{package.__name__}: {get().decode()}")
                    break
    return {"numpy": numpy.__version__, "scipy": scipy.__version__, "openblas_cores": cores}


def main() -> int:
    GOLDEN.mkdir(exist_ok=True)
    for name, make in INPUTS.items():
        (GOLDEN / name).write_text(make(), encoding="utf-8")
    outputs, stdout = {}, {}
    with tempfile.TemporaryDirectory() as work:
        for name, stored, out in run(GOLDEN, Path(work)):
            # Every --jobs value must write the same bytes.
            if stdout.setdefault(name, out) != out or any(
                    outputs.setdefault(golden, text) != text for golden, text in stored.items()):
                raise RuntimeError(f"{name} differs between --jobs values")
    models = {name: digest for name, digest in outputs.items() if name.endswith(".model")}
    for name, text in outputs.items():
        if name not in models:
            (GOLDEN / name).write_text(text, encoding="utf-8")
    (GOLDEN / "models.json").write_text(json.dumps(models, indent=1) + "\n", encoding="utf-8")
    (GOLDEN / "stdout.json").write_text(json.dumps(stdout, indent=1) + "\n", encoding="utf-8")
    (GOLDEN / "environment.json").write_text(json.dumps(environment(), indent=1) + "\n",
                                             encoding="utf-8")
    print(f"wrote {len(outputs)} outputs to {GOLDEN}")
    return 0


if __name__ == "__main__":
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))
    sys.exit(main())
