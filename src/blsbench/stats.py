"""Cross-validation, grid search, and the benchmark statistics battery.

cross_validate and grid_search run one fold-major engine, which computes
each quantity at the level where it varies:

- per fold: fit's checks of the training part and its normalization, the
  class indices and one-hot targets, and the test rows with
  decision_scores' checks;
- per weighting (none for bls, delta for f-bls, the kernel parameters for
  if-bls): the sample weight vector;
- per network (m, p, q and the rest of NetworkConfig): the random layer,
  the training state matrix, the C-free part of the ridge system and the
  test state matrix;
- per C: the solve (linalg._solve_system), the test scores, their argmax
  and the accuracy.

Every fold accuracy equals that of fit and accuracy on the same fold, bit
for bit: the steps, the solve step trainer._solutions included, are fit's
and decision_scores' own. A cell is one fold, weighting and network with
all its C values; _cells runs cells in order, and grid_search's worker
processes each run one contiguous slice of them, merged in enumeration order.
A fold whose training part lacks a class is skipped; any other error raises
where it happens, so a run stops at its first failing cell in that order.

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
    # Configs that differ only in C share a cell. Within a fold, weightings
    # are the outer loop, so that _cells computes each weight vector once.
    weightings: dict = {}
    for i, cfg in enumerate(configs):
        weightings.setdefault((cfg.delta, cfg.kernel), {}).setdefault(cfg.network, []).append(i)
    cells = [(fold, group) for fold in range(plan.k)
             for networks in weightings.values() for group in networks.values()]
    tasks = [(fold, configs[group[0]], tuple(configs[i].c_reg for i in group))
             for fold, group in cells]
    workers = min(jobs, len(configs), len(tasks))
    if workers > 1:
        from concurrent.futures import ProcessPoolExecutor

        # One contiguous slice per worker; only a run cut at an edge repeats its fold or weights.
        edges = [len(tasks) * i // workers for i in range(workers + 1)]
        slices = [tasks[a:b] for a, b in zip(edges, edges[1:])]
        with ProcessPoolExecutor(max_workers=workers) as pool:
            chunks = pool.map(_cells, [ds] * workers, [plan] * workers, slices)
            results = list(itertools.chain(*chunks))
    else:
        results = _cells(ds, plan, tasks)
    outcomes = [[None] * plan.k for _ in configs]
    for (fold, group), result in zip(cells, results):
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


def _fold(ds: Dataset, plan: FoldPlan, fold: int, variant: str) -> Union[_Fold, ClassBalanceError]:
    """The fold's checked parts, or the ClassBalanceError that skips it. The
    other errors of fit's and decision_scores' checks raise."""
    train, test = plan.train_indices(fold), plan.test_indices(fold)
    try:
        Xn, norm, classes, indices = trainer._prepare(
            ds.X[train], [ds.labels[i] for i in train], variant)
    except ClassBalanceError as exc:
        return exc
    Xn_test = trainer._test_rows(norm, ds.n_features, ds.X[test])
    index_of = {c: i for i, c in enumerate(classes)}
    test_indices = np.array([index_of.get(str(ds.labels[i]), -1) for i in test])
    return _Fold(Xn, indices, np.eye(len(classes))[indices], Xn_test, test_indices)


@linalg._single_threaded_blas()
def _cells(ds: Dataset, plan: FoldPlan, tasks) -> list:
    """Per C of each (fold, config, C values) task in order, the accuracy or the
    ClassBalanceError that skips the fold. Each run of tasks on one fold builds
    the fold once, and each run on one weighting within it the weight vector once."""
    results = []
    for (fold, variant), fold_tasks in itertools.groupby(tasks, lambda t: (t[0], t[1].variant)):
        part = s = None  # free the previous fold and weights before building the next
        part = _fold(ds, plan, fold, variant)
        if isinstance(part, ClassBalanceError):
            results += [[part] * len(c_regs) for _, _, c_regs in fold_tasks]
            continue
        for _, run in itertools.groupby(fold_tasks, lambda t: (t[1].delta, t[1].kernel)):
            run = list(run)
            s = trainer._sample_weights(part.Xn, part.indices, run[0][1])
            results += [_accuracies(part, s, cfg.network, c_regs) for _, cfg, c_regs in run]
    return results


def _accuracies(part: _Fold, s: np.ndarray, net: network.NetworkConfig, c_regs) -> list:
    """Per C, the test accuracy of fit's model of one network on a fold."""
    layer, solutions = trainer._solutions(part.Xn, part.T, s, net, c_regs)
    # decision_scores' _forward behind its checks; the benchmark traces this call.
    G_test = network.state_matrix(layer, part.Xn_test)
    return [np.count_nonzero(np.argmax(G_test @ W, axis=1) == part.test_indices) / len(G_test)
            for W in solutions]


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
    (a fold with one weighting and one network, see the module docstring);
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
