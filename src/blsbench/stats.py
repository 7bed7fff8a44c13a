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
  cells: the random layer, and buffers for the arrays below, each sized
  once for the slice's largest network;
- per network and fold: the training state matrix, written into its
  buffer, the dual's G G', and the test state matrix;
- per weighting: the C-free part of the ridge system, in its buffer;
- per C: the solve (linalg._solve_system) from a factor copy in a buffer,
  the test scores, their argmax and the accuracy.

Every fold accuracy equals that of fit and accuracy on the same fold, bit
for bit: fit runs the same steps (trainer._output_weights included) on
the same operands, writing fresh arrays. A cell is one network, fold and
weighting with all its C values; _cells runs cells in that order, and
grid_search's worker processes each run one contiguous slice of them,
merged in enumeration order. A fold whose training part lacks a class is
skipped. Any other BlsBenchError in building a fold or a weight vector is
kept and raised by the first cell that needs it, and an error in a cell
raises where it happens, so a run stops at its first failing cell in that
order.

The statistics follow the standard multi-classifier comparison protocol:
tie-averaged ranks per dataset, the Friedman chi-square and its F-form,
pairwise Wilcoxon signed-rank tests, and pairwise win-tie-loss counts
against the K/2 + 1.96*sqrt(K)/2 victory threshold. Each function returns
its statistics; the caller picks the significance level and the names.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, fields
from typing import Optional, Union

import numpy as np

from . import if_scores, linalg, network, trainer
from .data import Dataset, FoldPlan
from .errors import BlsBenchError, ClassBalanceError, ConfigError
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

    The one-config case of the engine that grid_search runs (see the
    module docstring); each fold's accuracy is that of fit and accuracy.
    A fold whose training complement is missing a class is skipped: its
    accuracy is None, the reason goes into skipped, and the aggregates
    cover the remaining folds. If every fold is skipped, ClassBalanceError
    lists their distinct reasons.
    """
    return _evaluate(ds, [cfg], plan, jobs=1)[0]


def _evaluate(ds: Dataset, configs: list[ModelConfig], plan: FoldPlan, jobs: int) -> list[CvResult]:
    """The CvResult of each config, in order, from jobs processes at most."""
    if plan.assignments.shape[0] != ds.n_samples:
        raise ConfigError("fold plan does not match the dataset size")
    # Configs that differ only in C share a cell: a network, a fold and a
    # weighting. A weighting stands for its first config, whose variant, delta
    # and kernel are what _sample_weights reads.
    networks: dict = {}
    weightings: dict = {}
    for i, cfg in enumerate(configs):
        weighting = weightings.setdefault((cfg.delta, cfg.kernel), cfg)
        networks.setdefault(cfg.network, {}).setdefault(weighting, []).append(i)
    cells = [(net, fold, weighting, group) for net, groups in networks.items()
             for fold in range(plan.k) for weighting, group in groups.items()]
    tasks = [(net, fold, weighting, tuple(configs[i].c_reg for i in group))
             for net, fold, weighting, group in cells]
    # Every fold, then every weight vector, before any cell buffer exists.
    folds = [_kept(_fold, ds, plan, fold, configs[0].variant) for fold in range(plan.k)]
    pairs = [(fold, weighting) for fold, part in enumerate(folds) if isinstance(part, _Fold)
             for weighting in weightings.values()]
    parts, kinds = [folds[fold] for fold, _ in pairs], [weighting for _, weighting in pairs]
    workers = min(jobs, len(configs), len(tasks))
    if workers > 1:
        from concurrent.futures import ProcessPoolExecutor

        # One run of weight vectors per worker, then one contiguous slice of
        # cells per worker; only a network cut at an edge is drawn twice.
        edges = [len(tasks) * i // workers for i in range(workers + 1)]
        slices = [tasks[a:b] for a, b in zip(edges, edges[1:])]
        per_worker = max(1, math.ceil(len(pairs) / workers))
        with ProcessPoolExecutor(max_workers=workers) as pool:
            vectors = pool.map(_weights, parts, kinds, chunksize=per_worker)
            weights = dict(zip(pairs, vectors))
            chunks = pool.map(_cells, [folds] * workers, [weights] * workers, slices)
            results = list(itertools.chain(*chunks))
    else:
        weights = dict(zip(pairs, map(_weights, parts, kinds)))
        results = _cells(folds, weights, tasks)
    outcomes = [[None] * plan.k for _ in configs]
    for (_, fold, _, group), result in zip(cells, results):
        for i, outcome in zip(group, result):
            outcomes[i][fold] = outcome
    return [_aggregate(ds.name, cfg, row) for cfg, row in zip(configs, outcomes)]


def _aggregate(name: str, cfg: ModelConfig, outcomes: list) -> CvResult:
    """A config's CvResult from its fold outcomes: an accuracy, or the
    ClassBalanceError that skips the fold."""
    per_fold: list[Optional[float]] = []
    skipped: list[str] = []
    reasons: list[str] = []
    for fold, outcome in enumerate(outcomes):
        if isinstance(outcome, ClassBalanceError):
            skipped.append(f"fold {fold} of {name!r} skipped: {outcome}")
            reasons.append(str(outcome))
            per_fold.append(None)
        else:
            per_fold.append(outcome)
    present = [a for a in per_fold if a is not None]
    if not present:
        raise ClassBalanceError(
            f"every fold of {name!r} was degenerate for {cfg.variant}: "
            + "; ".join(dict.fromkeys(reasons))
        )
    mean = float(np.mean(present))
    std = float(np.std(present, ddof=1)) if len(present) > 1 else 0.0
    return CvResult(
        per_fold_accuracy=tuple(per_fold),
        mean_accuracy=mean,
        std_dev=std,
        best_config=cfg,
        skipped=tuple(skipped),
    )


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


def _kept(step, *args):
    """step(*args), or the BlsBenchError it raised, kept as a value for the
    first cell that needs it: so a run still stops at its first failing
    cell. The error is kept without its traceback, whose frames would hold
    the step's arrays. Any other error, such as a MemoryError, raises here."""
    try:
        return step(*args)
    except BlsBenchError as exc:  # raised again, or a skipped fold, in _cells
        return exc.with_traceback(None)


@linalg._single_threaded_blas()
def _weights(part: _Fold, weighting: ModelConfig):
    """_kept sample weights of the weighting on the fold's training rows, at
    one BLAS thread as fit computes them."""
    return _kept(trainer._sample_weights, part.Xn, part.indices, weighting)


@linalg._single_threaded_blas()
def _cells(folds: list, weights: dict, tasks) -> list:
    """Per C of each (network, fold, weighting, C values) task in order, the
    accuracy or the ClassBalanceError that skips the fold; another error
    kept in folds or weights raises at the first task that needs it.

    Each run of tasks on one network draws its layer once, and each run on
    one fold within it builds the state matrices, and the dual's G G', once,
    after the first weight vector as fit does. They and each weighting's
    system and factor copies are written into buffers sized once for the
    largest network, so no cell allocates them.
    """
    runs = dict.fromkeys((*folds[fold].Xn.shape, net) for net, fold, _, _ in tasks
                         if isinstance(folds[fold], _Fold))
    scratch = trainer._scratch(runs)
    results = []
    for net, net_tasks in itertools.groupby(tasks, lambda t: t[0]):
        layer = None
        for fold, fold_tasks in itertools.groupby(net_tasks, lambda t: t[1]):
            part, G, G_test = folds[fold], None, None  # free the last test state matrix first
            if isinstance(part, ClassBalanceError):
                results += [[part] * len(c_regs) for *_, c_regs in fold_tasks]
                continue
            if isinstance(part, BlsBenchError):
                raise part
            for _, _, weighting, c_regs in fold_tasks:
                s = weights[fold, weighting]
                if isinstance(s, BlsBenchError):
                    raise s
                if G is None:
                    layer, G, gram, G_test = _states(net, layer, part, scratch)
                solutions = trainer._output_weights(G, s, part.T, c_regs, gram, scratch)
                results.append([np.count_nonzero(np.argmax(G_test @ W, axis=1) == part.test_indices)
                                / len(G_test) for W in solutions])
    return results


def _states(net: network.NetworkConfig, layer, part: _Fold, scratch: dict) -> tuple:
    """net's memory check on the fold's training rows, then its layer (drawn
    unless given), the training state matrix and the dual's G G' (None on
    the primal) in scratch, and the test state matrix."""
    (n, d), width = part.Xn.shape, net.width
    trainer._check_network_memory(n, d, net, buffers=True)
    if layer is None:
        layer = network.init_random_layer(net, d)
    G = network._forward(layer, part.Xn, linalg._buffer(scratch, "state", (n, width)))
    gram = None if trainer._solve_branch(width, n) == "primal" else linalg._gram(G, scratch)
    # decision_scores' _forward behind its checks; the benchmark traces this call.
    return layer, G, gram, network.state_matrix(layer, part.Xn_test)


@dataclass(frozen=True)
class GridSpec:
    """Candidate lists for flat config keys (see ModelConfig.from_flat), each
    nonempty and without a repeated value.

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
        for name in ("c_reg", "m", "p", "q", "mu", "delta", "epsilon"):
            values = getattr(self, name)
            if len(values) == 0:
                raise ConfigError(f"grid list {name!r} must be nonempty")
            for i, value in enumerate(values):
                if value in values[:i]:  # a repeat would run the same grid points again
                    raise ConfigError(f"grid list {name!r} repeats {value!r}")

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
        applies = ModelConfig(variant).to_flat()
        keys = [f.name for f in fields(self) if f.name in applies]
        return [
            ModelConfig.from_flat({"variant": variant, "seed": seed, **dict(zip(keys, point))})
            for point in itertools.product(*(getattr(self, k) for k in keys))
        ]


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
    position regardless of evaluation order or job count. jobs is the
    number of worker processes, at most one per config and one per cell
    (a network with one fold and one weighting, see the module docstring);
    results do not depend on it. Returns the winner plus every per-config
    result in enumeration order.
    """
    if jobs < 1:
        raise ConfigError(f"jobs must be at least 1, got {jobs}")
    configs = grid.configs(variant, seed)
    # A config whose every fold is degenerate aborts the grid. fit's
    # ClassBalanceError depends only on the labels, the folds and the
    # variant, never on a grid point, so every other config would fail alike.
    results = _evaluate(ds, configs, plan, jobs)
    best_idx = max(range(len(results)), key=lambda i: (results[i].mean_accuracy, -i))
    return results[best_idx], results


def rank_models(accuracy) -> np.ndarray:
    """Tie-averaged ranks of a datasets x models accuracy table, 1 = best
    accuracy in the row."""
    from scipy import stats as sp_stats  # slow to import; only two functions use it

    acc = np.asarray(accuracy, dtype=np.float64)
    if acc.ndim != 2:
        raise ConfigError("the accuracy table must be 2-D (datasets x models)")
    if not np.isfinite(acc).all():
        raise ConfigError("the accuracy table contains non-finite entries")
    if acc.shape[0] == 0:
        raise ConfigError("the accuracy table has no dataset rows")
    return sp_stats.rankdata(-acc, method="average", axis=1)


def friedman_test(average_rank, n_datasets: int) -> FriedmanResult:
    """Friedman chi-square over each model's average rank on n_datasets
    datasets, plus the Iman-Davenport F form.

    When every dataset ranks the models alike, chi2 = K(D-1) and f_stat is
    inf, the limit of the F form.
    """
    avg = np.asarray(average_rank, dtype=np.float64)
    if not isinstance(n_datasets, (int, np.integer)):
        raise ConfigError(f"n_datasets must be an integer, got {n_datasets!r}")
    k = int(n_datasets)
    d = avg.shape[0]
    if k < 2 or d < 2:
        raise ConfigError(f"need at least 2 datasets and 2 models, got K={k}, D={d}")
    if not np.isfinite(avg).all():
        raise ConfigError("the average ranks contain non-finite entries")
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

    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.shape != b.shape or a.ndim != 1:
        raise ConfigError("a and b must be equal-length flat sequences")
    if not (np.isfinite(a).all() and np.isfinite(b).all()):
        raise ConfigError("a and b contain non-finite entries")
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
    if not (np.isfinite(tie_tol) and tie_tol >= 0.0):
        raise ConfigError(f"tie_tol must be finite and non-negative, got {tie_tol!r}")
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.shape != b.shape or a.ndim != 1 or a.shape[0] < 1:
        raise ConfigError("a and b must be equal-length nonempty flat sequences")
    if not (np.isfinite(a).all() and np.isfinite(b).all()):
        raise ConfigError("a and b contain non-finite entries")
    d = a - b
    wins_a = int(np.sum(d > tie_tol))
    wins_b = int(np.sum(d < -tie_tol))
    ties = a.shape[0] - wins_a - wins_b
    k = a.shape[0]
    threshold = k / 2.0 + 1.96 * math.sqrt(k) / 2.0
    significant = (wins_a + ties / 2.0 >= threshold) or (wins_b + ties / 2.0 >= threshold)
    return WinTieLoss(
        wins_a=wins_a,
        ties=ties,
        wins_b=wins_b,
        threshold=threshold,
        significant=significant,
    )
