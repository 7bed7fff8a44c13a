"""Package-wide invariants of the blsbench modules."""

import importlib
import pkgutil

import numpy as np
import pytest

import blsbench
from blsbench import data, if_scores, linalg, network, stats, trainer

MODULES = sorted(info.name for info in pkgutil.iter_modules(blsbench.__path__))


def test_layer_modules_found():
    assert {"data", "fuzzy", "if_scores", "linalg", "network", "stats", "trainer"} <= set(MODULES)


@pytest.mark.parametrize("name", MODULES)
def test_every_all_entry_resolves(name):
    # The benchmark's tracer wraps the functions named in __all__ and skips
    # a missing name silently, so a stale entry would drop its metric unseen.
    module = importlib.import_module(f"blsbench.{name}")
    missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
    assert missing == []


# The benchmark's tracer (bench/tracing.py) times a layer function by
# rebinding its module attribute, so it sees a call only through a shared
# binding. The tests below pin the bindings and calls it relies on.


def test_if_scores_shares_pairwise_sq_dist_with_linalg():
    assert if_scores.pairwise_sq_dist is linalg.pairwise_sq_dist


def test_layer_modules_share_as_matrix_with_linalg():
    assert network.as_matrix is if_scores.as_matrix is linalg.as_matrix


def test_cross_validate_reaches_state_matrix_and_as_matrix(monkeypatch):
    calls = []

    def spy(module, name):
        original = getattr(module, name)

        def wrapper(*args, **kwargs):
            calls.append(f"{module.__name__}.{name}")
            return original(*args, **kwargs)

        monkeypatch.setattr(module, name, wrapper)

    spy(network, "state_matrix")
    spy(linalg, "as_matrix")
    rng = np.random.default_rng(0)
    X = np.vstack([rng.normal(0.0, 0.5, (10, 2)), rng.normal(2.0, 0.5, (10, 2))])
    ds = data.Dataset("toy", X, ("a",) * 10 + ("b",) * 10)
    cfg = trainer.ModelConfig("bls", network.NetworkConfig(m=1, p=2, q=3))
    stats.cross_validate(ds, cfg, data.make_folds(20, 2, seed=0))
    assert {"blsbench.network.state_matrix", "blsbench.linalg.as_matrix"} <= set(calls)
