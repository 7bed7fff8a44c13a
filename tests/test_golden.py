"""The battery of golden_battery.py against its stored outputs.

The output bytes depend on the BLAS kernels, and noise's on numpy's random
streams, so the byte comparison (model digests included) applies only in
the environment tests/golden/environment.json records, and skips elsewhere
saying so. The discrete outcomes apply everywhere: every fold accuracy,
every grid point's config and the winner, every prediction, the training
accuracies and solve branches, the noise labels and the statistics' ranks,
decisions and win-tie-loss counts exactly, and means and standard
deviations to their printed precision.
"""

import csv
import io
import json

import pytest

import golden_battery as gb


@pytest.fixture(scope="module")
def battery(tmp_path_factory):
    return gb.run(gb.GOLDEN, tmp_path_factory.mktemp("golden"))


def golden(name):
    return (gb.GOLDEN / name).read_text(encoding="utf-8")


def rows(text):
    return list(csv.reader(io.StringIO(text)))


def outputs(battery):
    """(golden name, stored output) of every output of the battery."""
    return [item for _, stored, _ in battery for item in stored.items()]


def test_inputs_regenerate_identically():
    for name, make in gb.INPUTS.items():
        assert make() == golden(name), name


def test_battery_covers_every_golden_output(battery):
    stored = {p.name for p in gb.GOLDEN.glob("*.csv")} - set(gb.INPUTS)
    stored |= set(json.loads(golden("models.json")))
    assert {name for name, _ in outputs(battery)} == stored
    assert {name for name, _, _ in battery} == set(json.loads(golden("stdout.json")))
    trainings = 2 * sum(len(widths) for *_, widths in gb.TRAININGS)  # train and predict
    assert len(battery) == 7 + len(gb.GRIDS) * len(gb.JOBS) + trainings + 2


def test_discrete_outcomes_match(battery):
    stdout = json.loads(golden("stdout.json"))
    for name, text in outputs(battery):
        got, want = rows(text), rows(gb.stored_golden(name))
        assert len(got) == len(want), name
        if name.startswith("cv_"):
            # fold rows exactly; mean and std to their 10 printed decimals
            assert got[:-2] == want[:-2], name
            for g, w in zip(got[-2:], want[-2:]):
                assert g[0] == w[0] and float(g[1]) == pytest.approx(float(w[1]), abs=1e-10)
        elif name.startswith("gridsearch_"):
            assert got[0] == want[0], name
            for g, w in zip(got[1:], want[1:]):
                assert g[:-2] == w[:-2], name  # the grid point
                assert [float(v) for v in g[-2:]] == pytest.approx(
                    [float(v) for v in w[-2:]], abs=1e-10), (name, g)
        elif name.startswith(("predict_", "stats_ranks", "stats_win_tie_loss")):
            assert got == want, name
        elif name == "stats_wilcoxon.csv":
            assert [r[:2] + r[3:] for r in got] == [r[:2] + r[3:] for r in want]
        elif name == "noise.csv":
            assert [r[-1] for r in got] == [r[-1] for r in want]  # noise never moves a label
    for name, _, out in battery:
        if name.startswith("gridsearch_"):
            assert out.split(" with ")[1] == stdout[name].split(" with ")[1], name  # the winner
        elif name.startswith("train_"):
            assert out == stdout[name], name  # training accuracy and solve branch


def test_output_bytes_match(battery):
    recorded, here = json.loads(golden("environment.json")), gb.environment()
    if here != recorded:
        pytest.skip(f"byte check did not apply: the goldens come from {recorded}, this is {here}")
    stdout = json.loads(golden("stdout.json"))
    for name, text in outputs(battery):
        assert text == gb.stored_golden(name), name
    for name, _, out in battery:
        assert out == stdout[name], name
