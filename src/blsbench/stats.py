"""Cross-validation, grid search, and the benchmark statistics battery.

cross_validate and grid_search run one network-major engine, which
computes each quantity at the level where it varies:

- per run, before any cell: in the parent process, each fold's checked
  parts (fit's checks of the training part and its normalization, the
  class indices and one-hot targets, the test rows with decision_scores'
  checks); then per fold each weighting's sample weight vector (none for
  bls, delta for f-bls, the kernel parameters for if-bls), spread over
  grid_search's worker processes, at one BLAS thread as in fit;
- per network (m, p, q and the rest of NetworkConfig), once per slice of
  cells: the random layer and the layer the ridge step solves on
  (network._solved_layer), and buffers for the arrays below, each sized
  once for the slice's largest network that passes its memory check
  (trainer._scratch);
- per network and fold, in one step (trainer._states): the memory check
  (trainer._network_bytes); the solved layer's training state matrix U
  (of r = min(m*p, d+1) + l*q columns under a linear feature map) and the
  dual's U U', written into their buffers; and the N_test x (m*p + l*q)
  test state matrix of the network's layer, a fresh array;
- per weighting: the ridge step (linalg._output_weights), which builds
  the system's C-free part, then per C solves it from a factor copy and
  maps the solution back to the network's output weights;
- per C: the test scores, their argmax and the accuracy;
- per config, a point of networks x weightings x C values (_product):
  its row of the accuracy table (configs x kept folds), a reshape of the
  cells' results, along which _evaluate takes every mean and deviation.

Every fold accuracy equals that of fit and accuracy on the same fold, bit
for bit: fit runs the same steps (trainer._states and
linalg._output_weights) on the same operands, in buffers of its own. A
cell is one network, fold and weighting with all its C values; _cells
runs cells in that order, one contiguous slice of them per worker process
of grid_search or one slice in this process, merged in enumeration order.
A fold whose training part breaks fit's class rule (a ClassBalanceError:
a single class, or for f-bls and if-bls other than 2 classes or a class
of one row) is skipped. The rule reads only the labels, the fold plan and
the variant, so _evaluate decides it once per run, right after building
the folds: a skipped fold has no cells, every result of the run shares one
tuple of skipped-fold notes, and a run whose every fold is skipped
raises before any weight vector or worker. Any other error raises where
it is found: one in building a fold or a weight vector stops the run
before any cell, in fold and then weighting order, and one in a cell
stops it at the first failing cell in cell order.

The statistics follow the standard multi-classifier comparison protocol:
tie-averaged ranks per dataset, the Friedman chi-square and its F-form,
pairwise Wilcoxon signed-rank tests, and pairwise win-tie-loss counts
against the K/2 + 1.96*sqrt(K)/2 victory threshold. Each function returns
its statistics; the caller picks the significance level and the names.
"""

from __future__ import annotations

import contextlib
import itertools
import math
from collections.abc import Iterable
from dataclasses import dataclass, fields
from typing import Optional, Union

import numpy as np

from . import if_scores, linalg, network, trainer
from .data import Dataset, FoldPlan, _check_integer, _check_positive
from .errors import ClassBalanceError, ConfigError
from .trainer import ModelConfig

__all__ = [
    "CvResult",
    "GridSpec",
    "FriedmanResult",
    "WilcoxonResult",
    "WinTieLoss",
    "cross_validate",
    "grid_search",
    "rank_models",
    "friedman_test",
    "wilcoxon_signed_rank",
    "win_tie_loss",
]

DEFAULT_TIE_TOL = 1e-4


@dataclass(frozen=True)
class CvResult:
    per_fold_accuracy: tuple[Optional[float], ...]
    mean_accuracy: float
    std_dev: float
    best_config: ModelConfig
    skipped: tuple[str, ...]


@dataclass(frozen=True)
class FriedmanResult:
    chi2: float
    f_stat: float
    chi2_dof: int
    f_dof: tuple[int, int]


@dataclass(frozen=True)
class WilcoxonResult:
    statistic: float
    p_value: float
    n_nonzero: int


@dataclass(frozen=True)
class WinTieLoss:
    wins_a: int
    ties: int
    wins_b: int
    threshold: float
    significant: bool


def cross_validate(
    ds: Dataset,
    cfg: ModelConfig,
    plan: FoldPlan,
) -> CvResult:
    """Train on each fold's complement, test on the fold, aggregate.

    The one-config case of the engine that grid_search runs; each fold's
    accuracy is that of fit and accuracy. A fold skipped by fit's class
    rule (see the module docstring) has accuracy None and its reason in
    skipped, and the aggregates cover the remaining folds; if every fold
    is skipped, ClassBalanceError lists their distinct reasons in fold order.
    """
    return _evaluate(ds, [cfg.network], [cfg], (cfg.c_reg,), plan, jobs=1)[0]


def _evaluate(ds: Dataset, nets: list, weightings: list, c_regs: tuple, plan: FoldPlan,
              jobs: int) -> list[CvResult]:
    """Each config's CvResult in _product's order, from jobs processes at most."""
    configs = _product(nets, weightings, c_regs)  # every config check before any fold
    if plan.assignments.shape[0] != ds.n_samples:
        raise ConfigError("fold plan does not match the dataset size")
    # Every fold, in order, before any weight vector or cell; a fold that breaks
    # fit's class rule is skipped for every config, any other error stops the run.
    variant = weightings[0].variant
    folds, skips = {}, {}
    for fold in range(plan.k):
        try:
            folds[fold] = _fold(ds, plan, fold, variant)
        except ClassBalanceError as exc:
            skips[fold] = str(exc)
    if not folds:
        raise ClassBalanceError(f"every fold of {ds.name!r} was degenerate for {variant}: "
                                + "; ".join(dict.fromkeys(skips.values())))
    skipped = tuple(f"fold {fold} of {ds.name!r} skipped: {reason}"
                    for fold, reason in skips.items())
    cells = list(itertools.product(nets, folds, weightings))
    pairs = list(itertools.product(folds, weightings))
    workers = min(jobs, len(configs), len(cells))
    # One contiguous slice of cells per worker; only a network cut at an edge
    # is drawn twice. One worker runs both phases in this process.
    edges = [len(cells) * i // workers for i in range(workers + 1)]
    slices = [cells[a:b] for a, b in zip(edges, edges[1:])]
    with contextlib.ExitStack() as stack:
        run = map
        if workers > 1:
            from concurrent.futures import ProcessPoolExecutor

            run = stack.enter_context(ProcessPoolExecutor(max_workers=workers)).map
        weights = dict(zip(pairs, run(_weights, [folds[fold] for fold, _ in pairs],
                                      [weighting for _, weighting in pairs])))
        results = list(itertools.chain(*run(_cells, [folds] * workers, [weights] * workers,
                                            [c_regs] * workers, slices)))
    # A row per config and a column per kept fold, as every config skips alike.
    table = np.array(results).reshape(len(nets), len(folds), len(weightings), len(c_regs))
    table = table.transpose(3, 0, 2, 1).reshape(len(configs), len(folds))
    stds = table.std(axis=1, ddof=1) if len(folds) > 1 else np.zeros(len(configs))
    per_fold = np.full((len(configs), plan.k), None, dtype=object)
    per_fold[:, list(folds)] = table  # Python floats, None at a skipped fold
    return [CvResult(tuple(row), mean, std, cfg, skipped) for cfg, row, mean, std in
            zip(configs, per_fold.tolist(), table.mean(axis=1).tolist(), stds.tolist())]


@dataclass(frozen=True)
class _Fold:
    """A fold that passed fit's and decision_scores' checks: the normalized
    training rows, their class indices and one-hot targets, and the
    normalized test rows with their class indices (-1 for a class that the
    training part lacks)."""

    Xn: np.ndarray
    indices: np.ndarray
    T: np.ndarray
    Xn_test: np.ndarray
    test_indices: np.ndarray


def _fold(ds: Dataset, plan: FoldPlan, fold: int, variant: str) -> _Fold:
    """The fold's parts, checked by fit's and decision_scores' checks, which
    raise a failed check."""
    train, test = plan.train_indices(fold), plan.test_indices(fold)
    Xn, norm, classes, indices = trainer._prepare(
        ds.X[train], [ds.labels[i] for i in train], variant)
    Xn_test = trainer._test_rows(norm, ds.n_features, ds.X[test])
    index_of = {c: i for i, c in enumerate(classes)}
    test_indices = np.array([index_of.get(str(ds.labels[i]), -1) for i in test])
    return _Fold(Xn, indices, np.eye(len(classes))[indices], Xn_test, test_indices)


@linalg._single_threaded_blas()
def _weights(part: _Fold, weighting: ModelConfig) -> np.ndarray:
    """The weighting's sample weights on the fold's training rows, at one
    BLAS thread as fit computes them."""
    return trainer._sample_weights(part.Xn, part.indices, weighting)


@linalg._single_threaded_blas()
def _cells(folds: dict, weights: dict, c_regs: tuple, cells) -> list:
    """The accuracy at each of c_regs of each (network, fold, weighting) cell
    in order, on built folds and weight vectors (see the module docstring);
    an error in a cell raises there, so a run stops at its first failing cell."""
    runs = dict.fromkeys((*folds[fold].Xn.shape, net, len(folds[fold].Xn_test))
                         for net, fold, _ in cells)
    scratch = trainer._scratch(runs)
    results = []
    for net, net_cells in itertools.groupby(cells, lambda cell: cell[0]):
        layers = None
        for fold, fold_cells in itertools.groupby(net_cells, lambda cell: cell[1]):
            part, G_test = folds[fold], None  # free the last test state matrix first
            layers, U, gram, G_test = trainer._states(net, layers, part.Xn, scratch, part.Xn_test)
            for *_, weighting in fold_cells:
                solutions = linalg._output_weights(U, gram, weights[fold, weighting], part.T,
                                                   c_regs, scratch, layers[2])
                results.append([np.count_nonzero(np.argmax(G_test @ W, axis=1) == part.test_indices)
                                / len(G_test) for W in solutions])
    return results


@dataclass(frozen=True)
class GridSpec:
    """Candidate lists for flat config keys (see ModelConfig.to_flat), each
    a nonempty iterable, not a string, of distinct values, kept as a tuple.

    mu, delta, and epsilon apply only to the variants that use them and
    default to the model defaults; the enumeration order (and tie-break
    order) is c_reg outermost, then m, p, q, mu, delta, epsilon.
    """

    c_reg: tuple[float, ...]
    m: tuple[int, ...]
    p: tuple[int, ...]
    q: tuple[int, ...]
    mu: tuple[float, ...] = (if_scores.KernelParams.mu,)
    delta: tuple[float, ...] = (if_scores.KernelParams.delta,)
    epsilon: tuple[Union[float, str], ...] = (if_scores.KernelParams.epsilon,)

    def __post_init__(self):
        for f in fields(self):
            values = getattr(self, f.name)
            if isinstance(values, (str, bytes)) or not isinstance(values, Iterable):
                raise ConfigError(f"grid list {f.name!r} must be a sequence, got {values!r}")
            values = tuple(values)  # a string would split into its characters
            object.__setattr__(self, f.name, values)
            if len(values) == 0:
                raise ConfigError(f"grid list {f.name!r} must be nonempty")
            for i, value in enumerate(values):
                if value in values[:i]:  # a repeat would run the same grid points again
                    raise ConfigError(f"grid list {f.name!r} repeats {value!r}")

    @classmethod
    def benchmark_default(cls) -> "GridSpec":
        """The standard sweep: 7 regularization values spanning 1e-6..1e6,
        m = 1:2:21, p = 5:5:50, q = 5:10:105, mu = 2^-5..2^5."""
        return cls(
            c_reg=tuple(10.0 ** e for e in range(-6, 7, 2)),
            m=tuple(range(1, 22, 2)),
            p=tuple(range(5, 51, 5)),
            q=tuple(range(5, 106, 10)),
            mu=tuple(2.0 ** e for e in range(-5, 6)),
        )

    def configs(self, variant: str, seed: int) -> list[ModelConfig]:
        """Materialize the Cartesian product for one variant."""
        return _product(*self._parts(variant, seed))

    def _parts(self, variant: str, seed: int) -> tuple[list, list, tuple]:
        """The grid's networks and weightings (configs for _sample_weights),
        each built and checked once, and its C values, in enumeration order."""
        nets = [network.NetworkConfig(m=m, p=p, q=q, seed=seed)
                for m, p, q in itertools.product(self.m, self.p, self.q)]
        kernels, deltas = [None], self.delta if variant == "f-bls" else [None]
        if variant == "if-bls":
            kernels = [if_scores.KernelParams(*point)
                       for point in itertools.product(self.mu, self.delta, self.epsilon)]
        weightings = [ModelConfig(variant, nets[0], delta=delta, kernel=kernel)
                      for delta in deltas for kernel in kernels]
        return nets, weightings, self.c_reg


def _product(nets: list, weightings: list, c_regs: tuple) -> list[ModelConfig]:
    """The config of each C value, network and weighting, in that order."""
    return [ModelConfig(weighting.variant, net, c_reg, weighting.delta, weighting.kernel)
            for c_reg in c_regs for net in nets for weighting in weightings]


def grid_search(
    ds: Dataset,
    variant: str,
    grid: GridSpec,
    plan: FoldPlan,
    seed: int = 0,
    jobs: int = 1,
) -> tuple[CvResult, list[CvResult]]:
    """Exhaustively cross-validate every grid point and keep the best mean.

    The model seed is held fixed across configurations so they compete on
    identical random layers. Ties break toward the earlier enumeration
    position. jobs is the number of worker processes, at most one per
    config and one per cell (see the module docstring); results do not
    depend on it. Returns the winner plus every per-config result in
    enumeration order.
    """
    jobs = _check_integer(jobs, 1, "jobs must be an integer >= 1")
    results = _evaluate(ds, *grid._parts(variant, seed), plan, jobs)
    best_idx = max(range(len(results)), key=lambda i: (results[i].mean_accuracy, -i))
    return results[best_idx], results


def rank_models(accuracy) -> np.ndarray:
    """Tie-averaged ranks of a datasets x models accuracy table, 1 = best
    accuracy in the row."""
    from scipy import stats as sp_stats  # slow to import; only two functions use it

    acc, = _floats("the accuracies", "2-D (datasets x models)", 2, accuracy)
    if acc.shape[0] == 0:
        raise ConfigError("the accuracy table has no dataset rows")
    return sp_stats.rankdata(-acc, method="average", axis=1)


def friedman_test(average_rank, n_datasets: int) -> FriedmanResult:
    """Friedman chi-square over each model's average rank on n_datasets
    datasets, plus the Iman-Davenport F form.

    D models' average ranks lie in [1, D] and sum to D(D+1)/2, within D/100
    so that ranks rounded to 2 decimals pass. When every dataset ranks the
    models alike, chi2 = K(D-1) and f_stat is inf, the limit of the F form.
    """
    if not isinstance(n_datasets, (int, np.integer)):
        raise ConfigError(f"n_datasets must be an integer, got {n_datasets!r}")
    avg, = _floats("the average ranks", "a flat sequence, one per model", 1, average_rank)
    k = int(n_datasets)
    d = avg.shape[0]
    if k < 2 or d < 2:
        raise ConfigError(f"need at least 2 datasets and 2 models, got K={k}, D={d}")
    if avg.min() < 1 or avg.max() > d or abs(avg.sum() - d * (d + 1) / 2) > d / 100:
        raise ConfigError(f"the average ranks of {d} models must lie in [1, {d}] and sum to "
                          f"{d * (d + 1) // 2} within {d / 100:g}, got {avg.tolist()}")
    # Dividing last keeps chi2 exactly K(D-1), so F is inf, on a unanimous table.
    chi2 = 12.0 * k * (float(np.sum(avg**2)) - d * (d + 1) ** 2 / 4.0) / (d * (d + 1))
    denom = k * (d - 1) - chi2
    return FriedmanResult(
        chi2=chi2,
        f_stat=chi2 * (k - 1) / denom if denom else math.inf,
        chi2_dof=d - 1,
        f_dof=(d - 1, (k - 1) * (d - 1)),
    )


def wilcoxon_signed_rank(a, b) -> WilcoxonResult:
    """Two-sided Wilcoxon signed-rank test on paired samples.

    scipy.stats.wilcoxon with zero differences dropped, the statistic
    min(W+, W-), and the p-value of the normal approximation with
    tie-corrected variance and a continuity correction.
    """
    from scipy import stats as sp_stats

    a, b = _floats("a and b", "equal-length flat sequences", 1, a, b)
    if a.shape[0] < 5:
        raise ConfigError("need at least 5 pairs")
    n = int(np.count_nonzero(a - b))
    if n == 0:
        raise ConfigError("no nonzero pairs")
    res = sp_stats.wilcoxon(a, b, zero_method="wilcox", correction=True, method="approx")
    return WilcoxonResult(statistic=float(res.statistic), p_value=float(res.pvalue), n_nonzero=n)


def win_tie_loss(a, b, tie_tol: float = DEFAULT_TIE_TOL) -> WinTieLoss:
    """Per-dataset victory counts and the significance threshold.

    Differences within tie_tol count as ties; half of each side's ties
    contribute toward its victory total when testing the threshold
    K/2 + 1.96*sqrt(K)/2. tie_tol must be finite and non-negative.
    """
    _check_positive(tie_tol, "tie_tol", zero=True, rule="finite and non-negative")
    a, b = _floats("a and b", "equal-length nonempty flat sequences", 1, a, b)
    if a.shape[0] == 0:
        raise ConfigError("a and b must be equal-length nonempty flat sequences")
    d = a - b
    wins_a = int(np.sum(d > tie_tol))
    wins_b = int(np.sum(d < -tie_tol))
    ties = a.shape[0] - wins_a - wins_b
    k = a.shape[0]
    threshold = k / 2.0 + 1.96 * math.sqrt(k) / 2.0
    significant = (wins_a + ties / 2.0 >= threshold) or (wins_b + ties / 2.0 >= threshold)
    return WinTieLoss(wins_a, ties, wins_b, threshold, significant)


def _floats(what: str, rule: str, ndim: int, *values) -> list:
    """values as float64 arrays that hold real numbers (not text, bool or
    objects), are rule (ndim dimensions, one shape) and are finite; otherwise
    a ConfigError whose subject is what."""
    try:
        arrays = [np.asarray(value) for value in values]
    except ValueError:  # a ragged nesting
        raise ConfigError(f"{what} must be {rule}") from None
    if any(array.dtype.kind not in "iuf" for array in arrays):
        raise ConfigError(f"{what} must hold real numbers")
    if any(array.ndim != ndim or array.shape != arrays[0].shape for array in arrays):
        raise ConfigError(f"{what} must be {rule}")
    if not all(np.isfinite(array).all() for array in arrays):
        raise ConfigError(f"{what} contain non-finite entries")
    return [array.astype(np.float64) for array in arrays]
