"""Tests of the benchmark itself, at toy sizes.

    python3 -m pytest -q bench/selftest.py

The file name keeps these tests out of the repository's own test run.
"""

import io
import json
import os
import shutil
import subprocess
import sys
from contextlib import redirect_stdout

import pytest

import run
import tracing
import workloads

sys.path.insert(0, workloads.SRC)

with open(os.path.join(workloads.ROOT, "BENCHMARK.json"), encoding="utf-8") as _fh:
    SPEC = json.load(_fh)


@pytest.fixture
def toy_sizes(monkeypatch):
    monkeypatch.setattr(workloads.GridBls, "n", 500)
    monkeypatch.setattr(workloads.IfBlsNoisyCv, "n", 400)
    monkeypatch.setattr(workloads.CliPipeline, "N_TRAIN", 300)
    monkeypatch.setattr(workloads.CliPipeline, "N_TEST", 100)


def _run(workload, trace):
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = run.main(["--workload", workload, "--seed", "3", "--seconds", "0.01",
                         "--trace", str(trace)])
    assert code == 0
    return json.loads(buf.getvalue().strip().splitlines()[-1])


def test_workloads_in_spec_match_the_code():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)


@pytest.mark.parametrize("workload", list(workloads.WORKLOADS))
@pytest.mark.parametrize("trace,section", [(0, "end_to_end"), (1, "per_layer")])
def test_toy_run_is_correct_and_emits_the_spec_metrics(toy_sizes, workload, trace, section):
    result = _run(workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert list(result["metrics"]) == [m["name"] for m in SPEC[section]]
    units = {m["name"]: m["unit"] for m in SPEC[section]}
    for name, entry in result["metrics"].items():
        assert entry["unit"] == units[name]
        assert isinstance(entry["value"], (int, float))
    if trace == 0:
        assert all(entry["value"] > 0 for entry in result["metrics"].values())


@pytest.mark.parametrize("cls", [workloads.GridBls, workloads.IfBlsNoisyCv])
def test_traced_and_untraced_passes_give_identical_fold_accuracies(toy_sizes, tmp_path, cls):
    workload = cls(5, str(tmp_path))
    workload.setup()
    try:
        plain = workload.run_pass()
        workload.set_tracing(True)
        traced = workload.run_pass()
    finally:
        workload.close()
    assert plain.outcomes == traced.outcomes
    assert all(ok for _, ok in plain.outcomes.values())
    assert plain.chunks == []
    names = {span[0] for chunk in traced.chunks for span in chunk["spans"]}
    assert {"trainer.fit", "linalg.as_matrix", "network.state_matrix"} <= names


def test_tracer_rebinds_every_alias_and_restores_them():
    from blsbench import if_scores, linalg, network

    original = linalg.as_matrix
    tracer = tracing.Tracer().install()
    try:
        assert linalg.as_matrix is not original
        assert network.as_matrix is linalg.as_matrix is if_scores.as_matrix
        assert if_scores.pairwise_sq_dist is linalg.pairwise_sq_dist
        linalg.pairwise_sq_dist([[0.0, 1.0]], [[1.0, 1.0], [0.0, 0.0]])
        chunk = tracer.take()
    finally:
        tracer.uninstall()
    assert linalg.as_matrix is original is network.as_matrix
    names = [span[0] for span in chunk["spans"]]
    assert names == ["linalg.pairwise_sq_dist", "linalg.as_matrix", "linalg.as_matrix"]
    assert [span[3] for span in chunk["spans"]] == [-1, 0, 0]


def test_self_time_subtracts_direct_children_only():
    spans = [("a", 0.0, 10.0, -1), ("b", 1.0, 4.0, 0), ("c", 2.0, 3.0, 1), ("b", 5.0, 6.0, 0)]
    stats, _ = tracing.summarize([{"spans": spans, "counts": {"x": 2.0}}])
    assert stats["a"] == {"calls": 1, "total_s": 10.0, "self_s": 6.0}
    assert stats["b"] == {"calls": 2, "total_s": 4.0, "self_s": 3.0}
    assert stats["c"]["self_s"] == 1.0


def test_tail_has_ten_samples_beyond_it():
    values = list(range(100))
    value, pct = run.tail(values)
    assert sum(v > value for v in values) == 10 and pct == 90.0
    assert run.tail([3.0, 1.0]) == (3.0, 100.0)


def test_fails_without_the_program_sources(tmp_path):
    shutil.copytree(workloads.BENCH_DIR, tmp_path / "bench",
                    ignore=shutil.ignore_patterns(".work", "__pycache__"))
    shutil.copy(os.path.join(workloads.ROOT, "BENCHMARK.json"), tmp_path)
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", "grid-bls", "--seed", "1",
                           "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert proc.returncode != 0
    assert proc.stdout == ""
