"""Byte mutations of every input file the CLI reads, with hostile flag values:
each run exits 0 or 1, an exit 1 prints exactly one error line, and no
exception escapes cli.main. Inputs stay at 40 rows or fewer, so that only
the preflights stand between a huge m or p and an allocation."""

import contextlib
import csv
import io
import math
import tempfile
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

import published_tables as pt
from blsbench import cli
from conftest import make_blobs

# One INI is both a --config file and a one-point grid; each variant
# ignores the keys it does not use.
INI = ("[model]\nc_reg = 0.1, 1\nm = 2\np = 3\nq = 4\ndelta = 0.001\nmu = 0.5\n"
       "[kernel]\nepsilon = median_heuristic\n")
FLAG_VALUES = ["0", "-1", "nan", "1e999", str(2**64), str(10**400), "é", "３",
               "٣", "μ=2"]
FLAGS = {
    "cv": ["--C", "--m", "--p", "--q", "--mu", "--delta", "--epsilon", "--seed", "--k",
           "--fold-seed"],
    "predict": [],
    "gridsearch": ["--k", "--fold-seed", "--seed"],
    "config": ["--C", "--m", "--mu", "--k"],
    "stats": ["--alpha", "--tie-tol"],
}
VARIANTS = ["bls", "f-bls", "if-bls"]


def dataset_text(n=24):
    X, y = make_blobs(n // 2, [(0.0, 0.0), (2.0, 2.0)], 0.7, seed=5)
    return "x1,x2,label\n" + "".join(f"{a:.3f},{b:.3f},{lab}\n" for (a, b), lab in zip(X, y))


def table_text():
    rows = [["dataset"] + pt.MODELS] + [[ds] + [repr(float(v)) for v in row]
                                        for ds, row in zip(pt.DATASETS, pt.ACCURACY)]
    return "".join(",".join(row) + "\n" for row in rows)


@pytest.fixture(scope="module")
def seeds(tmp_path_factory):
    """The unmutated inputs: the bytes of each mutated file, and a clean
    dataset and feature file that the other commands read."""
    root = tmp_path_factory.mktemp("seeds")
    data = root / "data.csv"
    data.write_text(dataset_text())
    features = root / "features.csv"
    features.write_text("".join(",".join(line.split(",")[:2]) + "\n"
                                for line in dataset_text().splitlines()))
    model = root / "model.json"
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(["train", "--data", str(data), "--variant", "if-bls", "--m", "2",
                         "--p", "3", "--q", "4", "--out", str(model)]) == 0
    return {"data": data, "features": features, "cv": data.read_bytes(),
            "predict": model.read_bytes(), "gridsearch": INI.encode(), "config": INI.encode(),
            "stats": table_text().encode()}


def argv(command, path, out, variant, seeds):
    if command == "cv":
        return ["cv", "--data", path, "--variant", variant, "--m", "2", "--p", "3", "--q", "4",
                "--k", "3", "--out", out]
    if command == "predict":
        return ["predict", "--model", path, "--data", str(seeds["features"]), "--out", out]
    if command == "gridsearch":
        return ["gridsearch", "--data", str(seeds["data"]), "--variant", variant, "--grid", path,
                "--k", "3", "--out", out]
    if command == "config":
        return ["cv", "--data", str(seeds["data"]), "--variant", variant, "--config", path,
                "--k", "3", "--out", out]
    return ["stats", "--table", path, "--out-dir", out]


BYTES = st.one_of(st.sampled_from(list(b',\n\r"-.09e[]= \x00')), st.integers(0, 255))
EDITS = st.lists(st.tuples(st.sampled_from(["set", "insert", "delete", "shorten"]),
                           st.integers(0, 1 << 20), BYTES), min_size=1, max_size=4)


def mutate(data: bytes, edits) -> bytes:
    """data with each edit applied in turn: set, insert or delete the byte at
    an offset, or shorten a field by the byte before a comma or line end,
    which keeps most numbers parseable and can empty a one-letter label."""
    data = bytearray(data)
    for kind, at, byte in edits:
        if kind == "shorten":
            ends = [i for i, b in enumerate(data) if b in b",\n" and i > 0]
            if ends:
                del data[ends[at % len(ends)] - 1]
            continue
        at %= len(data) + 1
        if kind == "insert":
            data[at:at] = bytes([byte])
        elif at < len(data):
            if kind == "set":
                data[at] = byte
            else:
                del data[at]
    return bytes(data)


def well_formed_dataset(raw: bytes) -> bool:
    """Whether raw is a dataset CSV as docs/formats.md states it: UTF-8, a
    header, rows as wide as it, finite numbers in every cell but the last,
    a nonempty last (label) cell, at least one feature column and one row."""
    try:
        rows = list(csv.reader(io.StringIO(raw.decode("utf-8"), newline="")))
    except UnicodeDecodeError:
        return False
    if len(rows) < 2 or len(rows[0]) < 2:
        return False
    for row in rows[1:]:
        if len(row) != len(rows[0]) or not row[-1].strip():
            return False
        for cell in row[:-1]:
            try:
                if not math.isfinite(float(cell)):
                    return False
            except ValueError:
                return False
    return True


@pytest.mark.parametrize("command", list(FLAGS))
@settings(max_examples=40, derandomize=True, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_mutated_input_runs_or_fails_with_one_error_line(command, seeds, data):
    raw = mutate(seeds[command], data.draw(EDITS, label="edits"))
    flags = data.draw(st.lists(st.tuples(st.sampled_from(FLAGS[command]),
                                         st.sampled_from(FLAG_VALUES)), max_size=2)
                      if FLAGS[command] else st.just([]), label="flags")
    variant = data.draw(st.sampled_from(VARIANTS), label="variant")
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "input"
        path.write_bytes(raw)
        args = argv(command, str(path), str(Path(tmp) / "out"), variant, seeds)
        args += [word for flag in flags for word in flag]
        out, err = io.StringIO(), io.StringIO()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = cli.main(args)
        except SystemExit as exc:  # argparse's usage error
            assert exc.code == 2 and err.getvalue().startswith("usage:"), err.getvalue()
            return
    assert code in (0, 1)
    lines = [line for line in err.getvalue().splitlines() if not line.startswith("warning: ")]
    if code == 1:
        assert len(lines) == 1 and lines[0].startswith("error: "), err.getvalue()
    else:
        assert lines == [], err.getvalue()
    if command == "cv" and code == 0:
        assert well_formed_dataset(raw), raw
