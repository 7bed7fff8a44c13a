"""The cv and gridsearch battery of golden_battery.py against its stored outputs.

The output bytes depend on the BLAS kernels, so the byte comparison applies
only in the environment tests/golden/environment.json records, and skips
elsewhere saying so. The discrete outcomes apply everywhere: every fold
accuracy, every grid point's config and the winner exactly, and means and
standard deviations to their printed precision.
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


def test_inputs_regenerate_identically():
    for name, make in gb.INPUTS.items():
        assert make() == golden(name), name


def test_battery_covers_every_golden_output(battery):
    stored = {p.name for p in gb.GOLDEN.glob("*.csv")} - set(gb.INPUTS)
    assert {name for name, _, _ in battery} == stored
    assert len(battery) == 7 + len(gb.GRIDS) * len(gb.JOBS)


def test_discrete_outcomes_match(battery):
    stdout = json.loads(golden("stdout.json"))
    for name, text, out in battery:
        got, want = rows(text), rows(golden(name))
        assert len(got) == len(want), name
        if name.startswith("cv_"):
            # fold rows exactly; mean and std to their 10 printed decimals
            assert got[:-2] == want[:-2], name
            for g, w in zip(got[-2:], want[-2:]):
                assert g[0] == w[0] and float(g[1]) == pytest.approx(float(w[1]), abs=1e-10)
        else:
            assert got[0] == want[0], name
            for g, w in zip(got[1:], want[1:]):
                assert g[:-2] == w[:-2], name  # the grid point
                assert [float(v) for v in g[-2:]] == pytest.approx(
                    [float(v) for v in w[-2:]], abs=1e-10), (name, g)
        if name.startswith("gridsearch_"):
            assert out.split(" with ")[1] == stdout[name].split(" with ")[1], name  # the winner


def test_output_bytes_match(battery):
    recorded, here = json.loads(golden("environment.json")), gb.environment()
    if here != recorded:
        pytest.skip(f"byte check did not apply: the goldens come from {recorded}, this is {here}")
    stdout = json.loads(golden("stdout.json"))
    for name, text, out in battery:
        assert text == golden(name), name
        assert out == stdout[name], name
