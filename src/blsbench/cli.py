"""Command-line benchmark harness.

Subcommands: train, predict, cv, gridsearch, noise, stats. Every run is
deterministic given its flags; each artifact-producing command writes a
JSON manifest recording the resolved configuration, dataset content
hashes, and seeds next to its outputs.

Exit codes: 0 success, 1 runtime or data error, 2 usage error.
"""

from __future__ import annotations

import argparse
import configparser
import dataclasses
import hashlib
import itertools
import json
import os
import sys
from datetime import datetime, timezone

from . import __version__, data, network, stats, trainer
from .errors import BlsBenchError, ConfigError, DataFormatError

DATA_DIR_ENV = "BLSBENCH_DATA_DIR"


def _resolve_data_path(path: str) -> str:
    base = os.environ.get(DATA_DIR_ENV)
    if base and not os.path.isabs(path) and not os.path.exists(path):
        candidate = os.path.join(base, path)
        if os.path.exists(candidate):
            return candidate
    return path


def _load_dataset(args) -> tuple[str, data.Dataset]:
    """The resolved --data path and the dataset read with --label-column and --no-header."""
    path = _resolve_data_path(args.data)
    label_column = args.label_column.strip()
    try:
        label_column = int(label_column)
    except ValueError:  # a column name
        pass
    return path, data.load_csv(path, label_column=label_column, header=not args.no_header)


def _sha256(path: str) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def _write_manifest(out_path: str, command: str, config: dict, inputs: list, seeds: dict):
    doc = {
        "tool": "blsbench",
        "version": __version__,
        "command": command,
        "timestamp": datetime.now(timezone.utc).isoformat(),
        "config": config,
        "datasets": {p: _sha256(p) for p in inputs},
        "seeds": seeds,
    }
    with open(out_path + ".manifest.json", "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1, sort_keys=True)
        fh.write("\n")


def _load_config_file(path: str, keys) -> dict:
    """Flat key-value config with any sections; values are strings.

    A missing or non-INI file, or a key outside keys, raises DataFormatError.
    """
    parser = configparser.ConfigParser()
    try:
        read = parser.read(path, encoding="utf-8")
        flat = {
            key.replace("-", "_"): value
            for section in parser.sections()
            for key, value in parser.items(section)
        }
    except configparser.Error as exc:  # e.g. no section header, a bad % in a value
        raise DataFormatError(f"{path} is not an INI file: {' '.join(str(exc).split())}") from None
    except UnicodeDecodeError as exc:
        bad = exc.object[exc.start]
        raise DataFormatError(f"{path} is not UTF-8 text: byte {bad:#04x}: {exc.reason}") from None
    if not read:
        raise DataFormatError(f"config file not found: {path}")
    unknown = sorted(set(flat) - set(keys))
    if unknown:
        raise DataFormatError(f"{path}: unknown key {', '.join(map(repr, unknown))}")
    return flat


# Keys a --config file may set: the model keys plus cv's fold settings.
_CONFIG_KEYS = (*trainer.FLAT_CASTS, "k", "fold_seed")


def _merge_config(args) -> dict:
    """Config-file values first, then the flags that were given override them."""
    resolved = _load_config_file(args.config, _CONFIG_KEYS) if args.config else {}
    resolved.update((k, v) for k, v in vars(args).items() if v is not None)
    return resolved


def _warn_skipped(results) -> None:
    """Print each distinct skipped-fold reason once, in enumeration order."""
    for reason in dict.fromkeys(r for result in results for r in result.skipped):
        print(f"warning: {reason}", file=sys.stderr)


def _manifest_config(cfg: trainer.ModelConfig) -> dict:
    # The manifest records the if-bls kernel delta as kernel_delta.
    flat = cfg.to_flat()
    if cfg.kernel is not None:
        flat["kernel_delta"] = flat.pop("delta")
    return flat


# --- subcommands ----------------------------------------------------------


def cmd_train(args) -> int:
    cfg = trainer.ModelConfig.from_flat(_merge_config(args))
    path, ds = _load_dataset(args)
    model = trainer.fit(ds.X, ds.labels, cfg)
    acc = trainer.accuracy(model, ds.X, ds.labels)
    trainer.save_model(model, args.out)
    _write_manifest(
        args.out, "train", _manifest_config(cfg), [path],
        {"model_seed": cfg.network.seed},
    )
    print(f"training accuracy: {acc:.4f}")
    print(f"model written to {args.out} (solve branch: {model.solve_branch_used})")
    return 0


def cmd_predict(args) -> int:
    model = trainer.load_model(args.model)
    path = _resolve_data_path(args.data)
    _, X, _ = data.read_csv(path, header=not args.no_header)
    if X.shape[0] == 0:
        data.write_csv(args.out, [["prediction"]])
        print("empty test file; wrote empty predictions")
        return 0
    if X.shape[1] != model.layer.input_dim:
        raise DataFormatError(
            f"{path} has {X.shape[1]} feature columns, model expects {model.layer.input_dim}"
        )
    preds = trainer.predict(model, X)
    data.write_csv(args.out, [["prediction"], *([p] for p in preds)])
    print(f"wrote {len(preds)} predictions to {args.out}")
    return 0


def cmd_cv(args) -> int:
    resolved = _merge_config(args)
    cfg = trainer.ModelConfig.from_flat(resolved)
    try:
        k, fold_seed = int(resolved.get("k", 5)), int(resolved.get("fold_seed", 0))
    except ValueError as exc:
        raise ConfigError(f"k and fold_seed must be integers: {exc}") from None
    path, ds = _load_dataset(args)
    plan = data.make_folds(ds.n_samples, k, fold_seed)
    result = stats.cross_validate(ds, cfg, plan)
    _warn_skipped([result])
    data.write_csv(args.out, [
        ["fold", "accuracy"],
        *([i, "" if acc is None else f"{acc:.10f}"] for i, acc in enumerate(result.per_fold_accuracy)),
        ["mean", f"{result.mean_accuracy:.10f}"],
        ["std", f"{result.std_dev:.10f}"],
    ])
    _write_manifest(
        args.out, "cv", _manifest_config(cfg), [path],
        {"model_seed": cfg.network.seed, "fold_seed": fold_seed},
    )
    print(f"mean accuracy: {result.mean_accuracy:.4f} (std {result.std_dev:.4f})")
    return 0


def _parse_grid(args) -> stats.GridSpec:
    if args.grid == "paper":
        return stats.GridSpec.benchmark_default()
    keys = [f.name for f in dataclasses.fields(stats.GridSpec)]
    flat = _load_config_file(args.grid, keys)
    lists = {}
    for f in dataclasses.fields(stats.GridSpec):
        if f.name in flat:
            cast = trainer.FLAT_CASTS[f.name]
            try:
                lists[f.name] = tuple(cast(v) for v in flat[f.name].replace(",", " ").split())
            except ValueError as exc:
                raise DataFormatError(f"{args.grid}: bad {f.name!r} list: {exc}") from None
        elif f.default is dataclasses.MISSING:
            raise DataFormatError(f"grid file is missing {f.name!r}")
    return stats.GridSpec(**lists)


def cmd_gridsearch(args) -> int:
    path, ds = _load_dataset(args)
    grid = _parse_grid(args)
    plan = data.make_folds(ds.n_samples, args.k, args.fold_seed)
    best, results = stats.grid_search(
        ds, args.variant, grid, plan, seed=args.seed, jobs=args.jobs
    )
    _warn_skipped(results)
    # One column per grid key; csv writes a key the variant lacks (None) as "".
    keys = [f.name for f in dataclasses.fields(stats.GridSpec)]
    rows = [keys + ["mean_accuracy", "std_dev"]]
    for r in results:
        flat = r.best_config.to_flat()
        rows.append([flat.get(k) for k in keys] + [f"{r.mean_accuracy:.10f}", f"{r.std_dev:.10f}"])
    data.write_csv(args.out, rows)
    _write_manifest(
        args.out, "gridsearch", _manifest_config(best.best_config), [path],
        {"model_seed": args.seed, "fold_seed": args.fold_seed},
    )
    bc = best.best_config
    print(
        f"best mean accuracy {best.mean_accuracy:.4f} with "
        f"C={bc.c_reg:g} m={bc.network.m} p={bc.network.p} q={bc.network.q}"
        + (f" mu={bc.kernel.mu:g}" if bc.kernel else "")
    )
    return 0


def cmd_noise(args) -> int:
    path, ds = _load_dataset(args)
    noisy = data.inject_gaussian_noise(ds, args.level, args.seed)
    data.write_csv(args.out, [
        [f"f{i}" for i in range(noisy.n_features)] + ["label"],
        *([repr(float(v)) for v in row] + [label] for row, label in zip(noisy.X, noisy.labels)),
    ])
    _write_manifest(
        args.out, "noise", {"level": args.level}, [path],
        {"noise_seed": args.seed},
    )
    print(f"wrote corrupted dataset to {args.out}")
    return 0


def cmd_stats(args) -> int:
    names, acc, datasets = data.read_csv(args.table, text_column=0)
    if len(datasets) < 2 or len(names) < 3:
        raise DataFormatError(
            f"{args.table}: expected a header of model names and at least two dataset rows"
        )
    if not 0.0 < args.alpha < 1.0:
        raise ConfigError(f"alpha must lie in (0, 1), got {args.alpha!r}")
    models = names[1:]
    ranks = stats.rank_models(acc)
    average_rank = ranks.mean(axis=0)
    fried = stats.friedman_test(average_rank, len(datasets))
    wilcoxon = [["model_a", "model_b", "p_value", "decision"]]
    win_tie_loss = [["model_a", "model_b", "wins_a", "ties", "wins_b", "threshold", "significant"]]
    for i, j in itertools.combinations(range(len(models)), 2):
        try:
            p_value = stats.wilcoxon_signed_rank(acc[:, i], acc[:, j]).p_value
        except BlsBenchError as exc:  # a degenerate pair, e.g. identical columns
            wilcoxon.append([models[i], models[j], "", str(exc)])
        else:
            wilcoxon.append([models[i], models[j], f"{p_value:.6g}",
                             "rejected" if p_value < args.alpha else "not-rejected"])
        wtl = stats.win_tie_loss(acc[:, i], acc[:, j], args.tie_tol)
        win_tie_loss.append([models[i], models[j], wtl.wins_a, wtl.ties, wtl.wins_b,
                             f"{wtl.threshold:.4f}", "yes" if wtl.significant else "no"])
    reports = {
        "ranks.csv": [
            ["dataset", *models],
            *([name, *(f"{v:g}" for v in row)] for name, row in zip(datasets, ranks)),
            ["average", *(f"{v:.4f}" for v in average_rank)],
        ],
        "friedman.csv": [
            ["chi2", "f_stat", "chi2_dof", "f_dof1", "f_dof2"],
            [f"{fried.chi2:.4f}", f"{fried.f_stat:.4f}", fried.chi2_dof, *fried.f_dof],
        ],
        "wilcoxon.csv": wilcoxon,
        "win_tie_loss.csv": win_tie_loss,
    }
    os.makedirs(args.out_dir, exist_ok=True)
    for name, rows in reports.items():
        data.write_csv(os.path.join(args.out_dir, name), rows)
    _write_manifest(
        os.path.join(args.out_dir, "stats"), "stats",
        {"alpha": args.alpha, "tie_tol": args.tie_tol}, [args.table], {},
    )
    print(
        f"friedman chi2={fried.chi2:.4f} F={fried.f_stat:.4f}; "
        f"reports written to {args.out_dir}"
    )
    return 0


# --- parser ---------------------------------------------------------------


def _add_data_flags(p):
    p.add_argument("--data", required=True, help="dataset CSV path")
    p.add_argument("--label-column", default="-1",
                   help="label column name or index (default: last column)")
    p.add_argument("--no-header", action="store_true",
                   help="the CSV has no header row")


def _add_model_flags(p):
    cast = trainer.FLAT_CASTS
    p.add_argument("--variant", choices=trainer.VARIANTS)
    p.add_argument("--config", help="INI config file; flags override file values")
    p.add_argument("--C", dest="c_reg", type=cast["c_reg"], help="regularization parameter")
    p.add_argument("--m", type=cast["m"], help="number of feature groups")
    p.add_argument("--p", type=cast["p"], help="nodes per feature group")
    p.add_argument("--l", type=cast["l"], help="number of enhancement groups")
    p.add_argument("--q", type=cast["q"], help="nodes per enhancement group")
    p.add_argument("--mu", type=cast["mu"], help="Gaussian kernel width (if-bls)")
    p.add_argument("--delta", type=cast["delta"], help="radius offset (f-bls / if-bls)")
    p.add_argument("--epsilon", type=cast["epsilon"],
                   help="neighborhood size or 'median_heuristic' (if-bls)")
    p.add_argument("--seed", type=cast["seed"], help="random layer seed")
    p.add_argument("--feature-activation", dest="feature_activation",
                   choices=sorted(network.FEATURE_ACTIVATIONS))
    p.add_argument("--enhancement-activation", dest="enhancement_activation",
                   choices=sorted(network.ENHANCEMENT_ACTIVATIONS))


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="blsbench",
        description="Broad learning system classifiers and benchmark statistics",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("train", help="fit one model and save it")
    _add_data_flags(p)
    _add_model_flags(p)
    p.add_argument("--out", required=True, help="model output path")
    p.set_defaults(func=cmd_train, required_flags=("variant",))

    p = sub.add_parser("predict", help="label a feature CSV with a saved model")
    p.add_argument("--model", required=True)
    p.add_argument("--data", required=True, help="feature-only CSV")
    p.add_argument("--no-header", action="store_true")
    p.add_argument("--out", required=True, help="predictions CSV path")
    p.set_defaults(func=cmd_predict, required_flags=())

    p = sub.add_parser("cv", help="k-fold cross-validation of one configuration")
    _add_data_flags(p)
    _add_model_flags(p)
    p.add_argument("--k", type=int, help="fold count (default 5)")
    p.add_argument("--fold-seed", dest="fold_seed", type=int, help="fold shuffle seed")
    p.add_argument("--out", required=True, help="per-fold CSV path")
    p.set_defaults(func=cmd_cv, required_flags=("variant",))

    p = sub.add_parser("gridsearch", help="exhaustive hyperparameter sweep")
    _add_data_flags(p)
    p.add_argument("--variant", choices=trainer.VARIANTS, required=True)
    p.add_argument("--grid", required=True,
                   help="'paper' for the built-in sweep, or an INI grid file")
    p.add_argument("--k", type=int, default=5)
    p.add_argument("--fold-seed", dest="fold_seed", type=int, default=0)
    p.add_argument("--seed", type=int, default=0, help="model seed shared by all configs")
    p.add_argument("--jobs", type=int, default=1,
                   help="worker processes, each fitting on one BLAS thread (default 1)")
    p.add_argument("--out", required=True, help="per-config CSV path")
    p.set_defaults(func=cmd_gridsearch, required_flags=())

    p = sub.add_parser("noise", help="write a Gaussian-corrupted copy of a dataset")
    _add_data_flags(p)
    p.add_argument("--level", type=float, required=True,
                   help="percent of samples to corrupt, 0-100")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_noise, required_flags=())

    p = sub.add_parser("stats", help="rank/Friedman/Wilcoxon/win-tie-loss reports")
    p.add_argument("--table", required=True,
                   help="accuracy CSV: header of model names, first column dataset names")
    p.add_argument("--alpha", type=float, default=0.05)
    p.add_argument("--tie-tol", dest="tie_tol", type=float, default=stats.DEFAULT_TIE_TOL)
    p.add_argument("--out-dir", dest="out_dir", required=True)
    p.set_defaults(func=cmd_stats, required_flags=())

    return parser


def _broken_pool() -> tuple:
    """BrokenProcessPool, once a gridsearch --jobs pool has loaded it: importing
    it up front would slow every command by about 30 ms."""
    process = sys.modules.get("concurrent.futures.process")
    return (process.BrokenProcessPool,) if process else ()


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    for flag in args.required_flags:
        if getattr(args, flag, None) is None and not getattr(args, "config", None):
            parser.error(f"--{flag} is required (directly or via --config)")
    try:
        return args.func(args)
    except (BlsBenchError, OSError) as exc:
        message = str(exc)
    except MemoryError as exc:  # numpy's names the array it could not allocate
        message = f"out of memory: {exc}" if str(exc) else "out of memory"
    except _broken_pool() as exc:
        message = f"a worker process died: {exc}"
    print(f"error: {message}", file=sys.stderr)
    return 1


if __name__ == "__main__":
    sys.exit(main())
