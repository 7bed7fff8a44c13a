"""Package-wide invariants of the blsbench modules."""

import ast
import importlib
import inspect
import pkgutil

import numpy as np
import pytest

import blsbench
from blsbench import cli, data, if_scores, linalg, network, stats, trainer

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


@pytest.mark.parametrize("name", [
    n for n in MODULES if hasattr(importlib.import_module(f"blsbench.{n}"), "__all__")
])
def test_every_public_function_is_in_all(name):
    # The tracer wraps only the functions a module's __all__ names, so a
    # public function left out of it hides its time in its caller's.
    module = importlib.import_module(f"blsbench.{name}")
    public = [n for n, obj in vars(module).items()
              if not n.startswith("_") and inspect.isfunction(obj)
              and obj.__module__ == module.__name__]
    assert sorted(set(public) - set(module.__all__)) == []


def test_cli_reaches_only_public_names():
    # The CLI is a client of the library: a private name it reaches is a
    # rule that two modules must keep in step.
    tree = ast.parse(inspect.getsource(cli))
    modules = {alias.asname or alias.name for node in ast.walk(tree)
               if isinstance(node, ast.ImportFrom) and node.level == 1 and node.module is None
               for alias in node.names}
    private = sorted(f"{node.value.id}.{node.attr}" for node in ast.walk(tree)
                     if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                     and node.value.id in modules and node.attr.startswith("_"))
    assert private == []


def _trees():
    """Each module's name, its AST and a map from each node to the name of
    the function that holds it."""
    for name in MODULES:
        tree = ast.parse(inspect.getsource(importlib.import_module(f"blsbench.{name}")))
        owner = {}
        for func in ast.walk(tree):  # breadth first, so an inner def names its own nodes
            if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
                owner.update((node, func.name) for node in ast.walk(func))
        yield name, tree, owner


def _calls(*names):
    """The sorted "module.function callee" of each call, in any module, of a
    function or method named in names."""
    return sorted(f"{name}.{owner.get(node, '<module>')} {ast.unparse(node.func)}"
                  for name, tree, owner in _trees() for node in ast.walk(tree)
                  if isinstance(node, ast.Call)
                  and getattr(node.func, "attr", getattr(node.func, "id", None)) in names)


def test_only_the_cli_catches_a_failure():
    # A failure raises where it is found: a fold's or a weight vector's before
    # any cell, and a cell's at the first failing cell. The engine catches only
    # a ClassBalanceError, which skips a fold. The CLI turns a failure, running
    # out of memory and a worker process that died into one error: line. A
    # bare except catches BaseException.
    failures = {"BlsBenchError", "FactorizationFailure", "MemoryError", "BrokenProcessPool",
                "Exception", "BaseException"}
    caught = []
    for name, tree, owner in _trees():
        if name == "cli":
            continue
        for handler in ast.walk(tree):
            if isinstance(handler, ast.ExceptHandler):
                names = {"BaseException"} if handler.type is None else {
                    node.id if isinstance(node, ast.Name) else node.attr
                    for node in ast.walk(handler.type)
                    if isinstance(node, (ast.Name, ast.Attribute))}
                caught += [f"{name}.{owner.get(handler, '<module>')} {n}"
                           for n in sorted(names & failures)]
    assert caught == []


def test_one_training_path():
    # fit and the cross-validation engine train through trainer._states, the
    # one step that draws a layer and forms the dual's G G', into the buffers
    # that one memory check counts, and then through linalg._output_weights,
    # the one ridge step and the only caller of the solve; a second training
    # or solve path would show here as a second caller.
    assert _calls("init_random_layer", "_gram", "_output_weights", "_solve_system") == [
        "linalg._output_weights _solve_system",
        "stats._cells linalg._output_weights",
        "trainer._states linalg._gram",
        "trainer._states network.init_random_layer",
        "trainer.fit linalg._output_weights"]


def test_one_memory_model():
    # A network's memory check is trainer._states' one call of
    # _network_bytes, the state matrix of a fold's test rows included, and
    # _scratch sizes the buffers only for a run that passes that count;
    # IF scoring checks its own N x N buffer. A second estimate or check
    # would show here as a second caller.
    assert _calls("_check_memory", "_network_bytes") == [
        "if_scores._score_vector _check_memory",
        "trainer._scratch _network_bytes",
        "trainer._states _network_bytes",
        "trainer._states linalg._check_memory"]


def test_one_step_forms_the_test_state_matrix():
    # trainer._states forms every array its memory check counts, a fold's
    # test state matrix too, through the checked network.state_matrix that
    # the benchmark traces; no other step of the package calls it.
    assert _calls("state_matrix") == ["trainer._states network.state_matrix"]


def test_one_aggregation_of_fold_accuracies():
    # Every config's mean and standard deviation are taken along its row of
    # _evaluate's accuracy table; a second aggregation path in stats would
    # show here as a second caller.
    assert [call for call in _calls("mean", "std", "var", "average", "nanmean", "nanstd")
            if call.startswith("stats.")] == ["stats._evaluate table.mean",
                                              "stats._evaluate table.std"]


def test_one_product_of_the_grid():
    # A grid builds each network and weighting once (GridSpec._parts) and
    # combines them per C in stats._product alone; flat keys become a config
    # only at the CLI's entry points and in a model file's decoding. A
    # per-point round trip or a second grouping path would show here.
    assert _calls("ModelConfig", "from_flat") == [
        "cli.cmd_cv trainer.ModelConfig.from_flat",
        "cli.cmd_train trainer.ModelConfig.from_flat",
        "stats._parts ModelConfig",
        "stats._product ModelConfig",
        "trainer._model_from_doc ModelConfig.from_flat"]


def _outside_functions(node):
    """The nodes under node that run when it runs: all but function bodies."""
    for child in ast.iter_child_nodes(node):
        if not isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield child
            yield from _outside_functions(child)


def _scipy_imports(nodes):
    """The import statements among nodes that load scipy or a part of it."""
    for node in nodes:
        if isinstance(node, ast.Import):
            modules = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            modules = [node.module]
        else:
            continue
        if any(m == "scipy" or m.startswith("scipy.") for m in modules):
            yield node


def test_scipy_is_imported_only_in_function_bodies():
    # scipy.linalg is most of the CLI's import time and scipy.stats serves one
    # subcommand, so a module-level scipy import would slow every command.
    # The solve takes LAPACK from scipy.linalg.cython_lapack only where scipy
    # bundles no OpenBLAS; a second solve path through scipy.linalg would
    # show here as a new import.
    top_level, in_functions = [], []
    for name in MODULES:
        tree = ast.parse(inspect.getsource(importlib.import_module(f"blsbench.{name}")))
        top_level += [f"{name}.py:{node.lineno} {ast.unparse(node)}"
                      for node in _scipy_imports(_outside_functions(tree))]
        in_functions += [f"{name}.{function.name}: {ast.unparse(node)}"
                         for function in ast.walk(tree) if isinstance(function, ast.FunctionDef)
                         for node in _scipy_imports(ast.walk(function))]
    assert top_level == []
    assert sorted(in_functions) == [
        "linalg._lapack: from scipy.linalg.cython_lapack import __pyx_capi__",
        "stats.rank_models: from scipy import stats as sp_stats",
        "stats.wilcoxon_signed_rank: from scipy import stats as sp_stats",
    ]


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
