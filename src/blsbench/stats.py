"""Cross-validation, grid search, and the benchmark statistics battery.

The statistics follow the standard multi-classifier comparison protocol:
tie-averaged ranks per dataset, the Friedman chi-square and its F-form,
pairwise Wilcoxon signed-rank tests, and pairwise win-tie-loss counts
against the K/2 + 1.96*sqrt(K)/2 victory threshold.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, fields
from typing import Optional, Sequence, Union

import numpy as np

from . import if_scores, trainer
from .data import Dataset, FoldPlan
from .errors import ClassBalanceError, ConfigError
from .trainer import ModelConfig

__all__ = [
    "CvResult",
    "RankTable",
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
class RankTable:
    datasets: tuple[str, ...]
    models: tuple[str, ...]
    ranks: np.ndarray
    average_rank: np.ndarray


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
    reject: bool
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

    A fold whose training complement is missing a class is skipped: its
    accuracy is None, the reason goes into skipped, and the aggregates
    cover the remaining folds. If every fold is skipped, ClassBalanceError
    lists their distinct reasons.
    """
    if plan.assignments.shape[0] != ds.n_samples:
        raise ConfigError("fold plan does not match the dataset size")
    per_fold: list[Optional[float]] = []
    skipped: list[str] = []
    reasons: list[str] = []
    for fold in range(plan.k):
        tr = plan.train_indices(fold)
        te = plan.test_indices(fold)
        tr_labels = [ds.labels[i] for i in tr]
        try:
            model = trainer.fit(ds.X[tr], tr_labels, cfg)
        except ClassBalanceError as exc:
            skipped.append(f"fold {fold} of {ds.name!r} skipped: {exc}")
            reasons.append(str(exc))
            per_fold.append(None)
            continue
        te_labels = [ds.labels[i] for i in te]
        per_fold.append(trainer.accuracy(model, ds.X[te], te_labels))
    present = [a for a in per_fold if a is not None]
    if not present:
        raise ClassBalanceError(
            f"every fold of {ds.name!r} was degenerate for {cfg.variant}: "
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
class GridSpec:
    """Candidate lists for flat config keys (see ModelConfig.from_flat).

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
            if len(getattr(self, name)) == 0:
                raise ConfigError(f"grid list {name!r} must be nonempty")

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
    number of worker processes, at most one per config; results do not
    depend on it. Returns the winner plus every per-config result in
    enumeration order.
    """
    if jobs < 1:
        raise ConfigError(f"jobs must be at least 1, got {jobs}")
    configs = grid.configs(variant, seed)
    # A config whose every fold is degenerate aborts the grid. fit's
    # ClassBalanceError depends only on the labels, the folds and the
    # variant, never on a grid point, so every other config would fail alike.
    workers = min(jobs, len(configs))
    args = (itertools.repeat(ds), configs, itertools.repeat(plan))
    if workers > 1:
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(cross_validate, *args))
    else:
        results = list(map(cross_validate, *args))
    best_idx = max(range(len(results)), key=lambda i: (results[i].mean_accuracy, -i))
    return results[best_idx], results


def rank_models(
    accuracy,
    datasets: Optional[Sequence[str]] = None,
    models: Optional[Sequence[str]] = None,
) -> RankTable:
    """Tie-averaged per-dataset ranks, 1 = best accuracy in the row."""
    from scipy import stats as sp_stats  # slow to import; only two functions use it

    acc = np.asarray(accuracy, dtype=np.float64)
    if acc.ndim != 2:
        raise ConfigError("the accuracy table must be 2-D (datasets x models)")
    if not np.isfinite(acc).all():
        raise ConfigError("the accuracy table contains non-finite entries")
    k, d = acc.shape
    ranks = np.vstack(
        [sp_stats.rankdata(-row, method="average") for row in acc]
    )
    return RankTable(
        datasets=tuple(datasets) if datasets is not None else tuple(f"d{i}" for i in range(k)),
        models=tuple(models) if models is not None else tuple(f"m{j}" for j in range(d)),
        ranks=ranks,
        average_rank=ranks.mean(axis=0),
    )


def friedman_test(ranks, n_datasets: Optional[int] = None) -> FriedmanResult:
    """Friedman chi-square over average ranks, plus the F-distributed form.

    Accepts either a RankTable or a plain sequence of average ranks with
    an explicit dataset count.
    """
    if isinstance(ranks, RankTable):
        avg = ranks.average_rank
        k = ranks.ranks.shape[0]
    else:
        if n_datasets is None:
            raise ConfigError("n_datasets is required with a plain rank sequence")
        avg = np.asarray(ranks, dtype=np.float64)
        k = int(n_datasets)
    d = avg.shape[0]
    if k < 2 or d < 2:
        raise ConfigError(f"need at least 2 datasets and 2 models, got K={k}, D={d}")
    chi2 = 12.0 * k / (d * (d + 1)) * (float(np.sum(avg**2)) - d * (d + 1) ** 2 / 4.0)
    denom = k * (d - 1) - chi2
    if denom == 0.0:
        raise ConfigError("F statistic undefined: K(D-1) equals chi-square")
    f_stat = chi2 * (k - 1) / denom
    return FriedmanResult(
        chi2=chi2,
        f_stat=f_stat,
        chi2_dof=d - 1,
        f_dof=(d - 1, (k - 1) * (d - 1)),
    )


def _check_alpha(alpha) -> None:
    """Raise ConfigError unless the significance level lies in (0, 1)."""
    if not 0.0 < alpha < 1.0:
        raise ConfigError(f"alpha must lie in (0, 1), got {alpha!r}")


def wilcoxon_signed_rank(a, b, alpha: float = 0.05) -> WilcoxonResult:
    """Two-sided Wilcoxon signed-rank test on paired samples.

    Zero differences are dropped; the remaining absolute differences are
    ranked with tie averaging, the statistic is min(W+, W-), and the
    p-value comes from the normal approximation with tie-corrected
    variance and a continuity correction.
    """
    from scipy import stats as sp_stats

    _check_alpha(alpha)
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.shape != b.shape or a.ndim != 1:
        raise ConfigError("a and b must be equal-length flat sequences")
    if a.shape[0] < 5:
        raise ConfigError("need at least 5 pairs")
    d = a - b
    d = d[d != 0.0]
    n = d.shape[0]
    if n == 0:
        raise ConfigError("no nonzero pairs")
    ranks = sp_stats.rankdata(np.abs(d), method="average")
    w_plus = float(ranks[d > 0].sum())
    w_minus = float(ranks[d < 0].sum())
    w = min(w_plus, w_minus)
    mean = n * (n + 1) / 4.0
    var = n * (n + 1) * (2 * n + 1) / 24.0
    _, tie_counts = np.unique(ranks, return_counts=True)
    var -= float(np.sum(tie_counts**3 - tie_counts)) / 48.0
    if var <= 0.0:
        raise ConfigError("zero variance: all differences are tied")
    z = (w - mean + 0.5) / math.sqrt(var)
    p = min(1.0, 2.0 * sp_stats.norm.cdf(z))
    return WilcoxonResult(statistic=w, p_value=p, reject=p < alpha, n_nonzero=n)


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
