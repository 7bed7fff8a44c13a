"""Golden outputs of `blsbench cv` and `blsbench gridsearch`, and the script
that writes them.

    PYTHONPATH=src python tests/golden_battery.py

rewrites tests/golden/ from the current code: the input CSVs (drawn with
the standard library's random, so they do not depend on numpy), the output
CSVs, the commands' stdout and the environment the outputs came from.
tests/test_golden.py runs the same battery and compares. A change that
rewrites any golden file lists it in CHANGES.md.

The battery covers bls, f-bls and if-bls, a 3-class bls dataset, one
primal and one dual width (a 96-row training complement against widths 20
and 110), and grid search at --jobs 1 and 2 on an f-bls delta grid and an
if-bls mu and epsilon grid whose mu = 2^-5 gives all-zero weights.
"""

from __future__ import annotations

import contextlib
import ctypes
import glob
import io
import json
import os
import random
import sys
import tempfile
from pathlib import Path

GOLDEN = Path(__file__).resolve().parent / "golden"

WIDTHS = {"primal": ["--m", "2", "--p", "5", "--q", "10"],
          "dual": ["--m", "2", "--p", "50", "--q", "10"]}
SEEDS = ["--k", "5", "--fold-seed", "1", "--seed", "2"]
_BASE_GRID = "[grid]\nc_reg = 0.01, 1, 100\nm = 2\np = 5, 50\nq = 10\n"
GRIDS = {
    "bls": ("two_class.csv", "bls", _BASE_GRID),
    "f-bls": ("two_class.csv", "f-bls", _BASE_GRID + "delta = 0.0001, 0.1\n"),
    "if-bls": ("two_class.csv", "if-bls",
               _BASE_GRID + "mu = 0.03125, 0.5, 2\nepsilon = median_heuristic, 0.8\n"),
    "bls3": ("three_class.csv", "bls", "[grid]\nc_reg = 0.1, 10\nm = 2\np = 5, 30\nq = 20\n"),
}
JOBS = ("1", "2")


def _dataset(n: int, centers, seed: int) -> str:
    """n rows of unit-variance Gaussian features around each class center in turn."""
    rng = random.Random(seed)
    rows = [[f"{rng.gauss(c, 1.0):.6f}" for c in centers[i % len(centers)][1]]
            + [centers[i % len(centers)][0]] for i in range(n)]
    rng.shuffle(rows)
    header = [f"x{j}" for j in range(len(centers[0][1]))] + ["label"]
    return "".join(",".join(r) + "\n" for r in [header, *rows])


INPUTS = {
    "two_class.csv": lambda: _dataset(120, [("neg", (-0.5,) * 4), ("pos", (0.5,) * 4)], 1),
    "three_class.csv": lambda: _dataset(
        90, [("a", (0.0, 0.0, 0.0)), ("b", (1.5, 0.0, 0.0)), ("c", (0.0, 1.5, 0.0))], 2),
}


def commands(inputs: Path, work: Path):
    """(golden file name, argv, output path) of each command of the battery."""
    for variant in ("bls", "f-bls", "if-bls"):
        for width, flags in WIDTHS.items():
            out = work / f"cv_{variant}_{width}.csv"
            yield out.name, ["cv", "--data", str(inputs / "two_class.csv"), "--variant", variant,
                             *flags, *SEEDS, "--out", str(out)], out
    out = work / "cv_bls3_primal.csv"
    yield out.name, ["cv", "--data", str(inputs / "three_class.csv"), "--variant", "bls",
                     *WIDTHS["primal"], *SEEDS, "--out", str(out)], out
    for name, (data, variant, grid) in GRIDS.items():
        grid_path = work / f"grid_{name}.ini"
        grid_path.write_text(grid, encoding="utf-8")
        for jobs in JOBS:
            out = work / f"gridsearch_{name}_jobs{jobs}.csv"
            yield f"gridsearch_{name}.csv", [
                "gridsearch", "--data", str(inputs / data), "--variant", variant,
                "--grid", str(grid_path), *SEEDS, "--jobs", jobs, "--out", str(out)], out


def run(inputs: Path, work: Path) -> list[tuple[str, str, str]]:
    """Run the battery in process; (golden name, output CSV text, stdout) per command."""
    from blsbench import cli

    results = []
    for name, argv, out in commands(inputs, work):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = cli.main(argv)
        if code != 0:
            raise RuntimeError(f"{argv} exited {code}")
        results.append((name, out.read_text(encoding="utf-8"), buf.getvalue()))
    return results


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
        for name, text, out in run(GOLDEN, Path(work)):
            # Every --jobs value must write the same bytes.
            if outputs.setdefault(name, text) != text or stdout.setdefault(name, out) != out:
                raise RuntimeError(f"{name} differs between --jobs values")
    for name, text in outputs.items():
        (GOLDEN / name).write_text(text, encoding="utf-8")
    (GOLDEN / "stdout.json").write_text(json.dumps(stdout, indent=1) + "\n", encoding="utf-8")
    (GOLDEN / "environment.json").write_text(json.dumps(environment(), indent=1) + "\n",
                                             encoding="utf-8")
    print(f"wrote {len(outputs)} outputs to {GOLDEN}")
    return 0


if __name__ == "__main__":
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))
    sys.exit(main())
