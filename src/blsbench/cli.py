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
import csv
import dataclasses
import hashlib
import json
import os
import sys
from datetime import datetime, timezone

import numpy as np

from . import __version__, data, network, stats, trainer
from .errors import BlsBenchError, ConfigError, DataFormatError

DATA_DIR_ENV = "BLSBENCH_DATA_DIR"


def _label_column(value: str):
    text = str(value).strip()
    if text.lstrip("-").isdigit():
        return int(text)
    return text


def _resolve_data_path(path: str) -> str:
    base = os.environ.get(DATA_DIR_ENV)
    if base and not os.path.isabs(path) and not os.path.exists(path):
        candidate = os.path.join(base, path)
        if os.path.exists(candidate):
            return candidate
    return path


def _sha256(path: str) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def _write_manifest(out_path: str, command: str, config: dict, datasets: dict, seeds: dict):
    doc = {
        "tool": "blsbench",
        "version": __version__,
        "command": command,
        "timestamp": datetime.now(timezone.utc).isoformat(),
        "config": config,
        "datasets": {p: _sha256(p) for p in datasets.values()},
        "seeds": seeds,
    }
    with open(out_path + ".manifest.json", "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1, sort_keys=True)
        fh.write("\n")


def _noise_level(text: str) -> float:
    try:
        v = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a number: {text!r}")
    if not 0.0 <= v <= 100.0:
        raise argparse.ArgumentTypeError(f"noise level must be in [0, 100], got {v}")
    return v


def _load_config_file(path: str, keys, error) -> dict:
    """Flat key-value config with any sections; values are strings.

    A missing or non-INI file raises DataFormatError, a key outside keys
    raises error.
    """
    parser = configparser.ConfigParser()
    try:
        read = parser.read(path)
        flat = {
            key.replace("-", "_"): value
            for section in parser.sections()
            for key, value in parser.items(section)
        }
    except configparser.Error as exc:  # e.g. no section header, a bad % in a value
        raise DataFormatError(f"{path} is not an INI file: {' '.join(str(exc).split())}") from None
    if not read:
        raise DataFormatError(f"config file not found: {path}")
    unknown = sorted(set(flat) - set(keys))
    if unknown:
        raise error(f"{path}: unknown key {', '.join(map(repr, unknown))}")
    return flat


# Keys a --config file may set: the model keys plus cv's fold settings.
_CONFIG_KEYS = (*trainer.FLAT_CASTS, "k", "fold_seed")


def _merge_config(args) -> dict:
    """Config-file values first, then the flags that were given override them."""
    resolved = _load_config_file(args.config, _CONFIG_KEYS, ConfigError) if args.config else {}
    resolved.update((k, v) for k, v in vars(args).items() if v is not None)
    return resolved


def _manifest_config(cfg: trainer.ModelConfig) -> dict:
    # The manifest records the if-bls kernel delta as kernel_delta.
    flat = cfg.to_flat()
    if cfg.kernel is not None:
        flat["kernel_delta"] = flat.pop("delta")
    return flat


# --- subcommands ----------------------------------------------------------


def cmd_train(args) -> int:
    path = _resolve_data_path(args.data)
    cfg = trainer.ModelConfig.from_flat(_merge_config(args))
    ds = data.load_csv(path, label_column=_label_column(args.label_column), header=not args.no_header)
    model = trainer.fit(ds.X, ds.labels, cfg)
    acc = trainer.accuracy(model, ds.X, ds.labels)
    trainer.save_model(model, args.out)
    _write_manifest(
        args.out, "train", _manifest_config(cfg), {"train": path},
        {"model_seed": cfg.network.seed},
    )
    print(f"training accuracy: {acc:.4f}")
    print(f"model written to {args.out} (solve branch: {model.solve_branch_used})")
    return 0


def cmd_predict(args) -> int:
    model = trainer.load_model(args.model)
    path = _resolve_data_path(args.data)
    with open(path, "r", encoding="utf-8", newline="") as fh:
        rows = list(csv.reader(fh))
    if rows and not args.no_header:
        rows = rows[1:]
    if not rows:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write("prediction\n")
        print("empty test file; wrote empty predictions")
        return 0
    try:
        X = np.array([[float(c) for c in row] for row in rows])
    except ValueError as exc:
        raise DataFormatError(f"{path}: non-numeric feature cell ({exc})") from None
    if X.shape[1] != model.layer.input_dim:
        raise DataFormatError(
            f"{path} has {X.shape[1]} feature columns, model expects {model.layer.input_dim}"
        )
    preds = trainer.predict(model, X)
    with open(args.out, "w", encoding="utf-8") as fh:
        fh.write("prediction\n")
        for p in preds:
            fh.write(p + "\n")
    print(f"wrote {len(preds)} predictions to {args.out}")
    return 0


def cmd_cv(args) -> int:
    path = _resolve_data_path(args.data)
    resolved = _merge_config(args)
    cfg = trainer.ModelConfig.from_flat(resolved)
    try:
        k, fold_seed = int(resolved.get("k", 5)), int(resolved.get("fold_seed", 0))
    except ValueError as exc:
        raise ConfigError(f"k and fold_seed must be integers: {exc}") from None
    ds = data.load_csv(path, label_column=_label_column(args.label_column), header=not args.no_header)
    plan = data.make_folds(ds.n_samples, k, fold_seed)
    result = stats.cross_validate(ds, cfg, plan)
    with open(args.out, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["fold", "accuracy"])
        for i, acc in enumerate(result.per_fold_accuracy):
            writer.writerow([i, "" if acc is None else f"{acc:.10f}"])
        writer.writerow(["mean", f"{result.mean_accuracy:.10f}"])
        writer.writerow(["std", f"{result.std_dev:.10f}"])
    _write_manifest(
        args.out, "cv", _manifest_config(cfg), {"data": path},
        {"model_seed": cfg.network.seed, "fold_seed": fold_seed},
    )
    print(f"mean accuracy: {result.mean_accuracy:.4f} (std {result.std_dev:.4f})")
    return 0


def _parse_grid(args) -> stats.GridSpec:
    if args.grid == "paper":
        return stats.GridSpec.benchmark_default()
    keys = [f.name for f in dataclasses.fields(stats.GridSpec)]
    flat = _load_config_file(args.grid, keys, DataFormatError)
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
    path = _resolve_data_path(args.data)
    ds = data.load_csv(path, label_column=_label_column(args.label_column), header=not args.no_header)
    grid = _parse_grid(args)
    plan = data.make_folds(ds.n_samples, args.k, args.fold_seed)
    best, results = stats.grid_search(
        ds, args.variant, grid, plan, seed=args.seed, jobs=args.jobs
    )
    with open(args.out, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        # One column per grid key; csv writes a key the variant lacks as "".
        keys = [f.name for f in dataclasses.fields(stats.GridSpec)]
        writer.writerow(keys + ["mean_accuracy", "std_dev"])
        for r in results:
            flat = r.best_config.to_flat()
            writer.writerow(
                [flat.get(k) for k in keys] + [f"{r.mean_accuracy:.10f}", f"{r.std_dev:.10f}"]
            )
    _write_manifest(
        args.out, "gridsearch", _manifest_config(best.best_config), {"data": path},
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
    path = _resolve_data_path(args.data)
    ds = data.load_csv(path, label_column=_label_column(args.label_column), header=not args.no_header)
    noisy = data.inject_gaussian_noise(ds, args.level, args.seed)
    with open(args.out, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow([f"f{i}" for i in range(noisy.n_features)] + ["label"])
        for row, label in zip(noisy.X, noisy.labels):
            writer.writerow([repr(float(v)) for v in row] + [label])
    _write_manifest(
        args.out, "noise", {"level": args.level}, {"data": path},
        {"noise_seed": args.seed},
    )
    print(f"wrote corrupted dataset to {args.out}")
    return 0


def _read_accuracy_table(path: str):
    with open(path, "r", encoding="utf-8", newline="") as fh:
        rows = list(csv.reader(fh))
    if len(rows) < 2 or len(rows[0]) < 3:
        raise DataFormatError(
            f"{path}: expected a header of model names and at least one dataset row"
        )
    models = [c.strip() for c in rows[0][1:]]
    datasets, acc = [], []
    for r, row in enumerate(rows[1:], start=2):
        if len(row) != len(models) + 1:
            raise DataFormatError(f"{path}: row {r} has {len(row)} cells")
        datasets.append(row[0].strip())
        try:
            acc.append([float(c) for c in row[1:]])
        except ValueError as exc:
            raise DataFormatError(f"{path}: row {r}: {exc}") from None
    return datasets, models, np.array(acc)


def cmd_stats(args) -> int:
    datasets, models, acc = _read_accuracy_table(args.table)
    table = stats.rank_models(acc, datasets, models)
    os.makedirs(args.out_dir, exist_ok=True)

    def _path(name):
        return os.path.join(args.out_dir, name)

    with open(_path("ranks.csv"), "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["dataset"] + list(table.models))
        for name, row in zip(table.datasets, table.ranks):
            writer.writerow([name] + [f"{v:g}" for v in row])
        writer.writerow(["average"] + [f"{v:.4f}" for v in table.average_rank])

    fried = stats.friedman_test(table)
    with open(_path("friedman.csv"), "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["chi2", "f_stat", "chi2_dof", "f_dof1", "f_dof2"])
        writer.writerow([
            f"{fried.chi2:.4f}", f"{fried.f_stat:.4f}", fried.chi2_dof,
            fried.f_dof[0], fried.f_dof[1],
        ])

    with open(_path("wilcoxon.csv"), "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["model_a", "model_b", "p_value", "decision"])
        for i in range(len(models)):
            for j in range(i + 1, len(models)):
                try:
                    res = stats.wilcoxon_signed_rank(acc[:, i], acc[:, j], args.alpha)
                except BlsBenchError as exc:
                    writer.writerow([models[i], models[j], "", str(exc)])
                    continue
                writer.writerow([
                    models[i], models[j], f"{res.p_value:.6g}",
                    "rejected" if res.reject else "not-rejected",
                ])

    with open(_path("win_tie_loss.csv"), "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["model_a", "model_b", "wins_a", "ties", "wins_b", "threshold", "significant"])
        for i in range(len(models)):
            for j in range(i + 1, len(models)):
                wtl = stats.win_tie_loss(acc[:, i], acc[:, j], args.tie_tol)
                writer.writerow([
                    models[i], models[j], wtl.wins_a, wtl.ties, wtl.wins_b,
                    f"{wtl.threshold:.4f}", "yes" if wtl.significant else "no",
                ])

    _write_manifest(
        os.path.join(args.out_dir, "stats"), "stats",
        {"alpha": args.alpha, "tie_tol": args.tie_tol}, {"table": args.table}, {},
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
    p.add_argument("--jobs", type=int, default=1)
    p.add_argument("--out", required=True, help="per-config CSV path")
    p.set_defaults(func=cmd_gridsearch, required_flags=())

    p = sub.add_parser("noise", help="write a Gaussian-corrupted copy of a dataset")
    _add_data_flags(p)
    p.add_argument("--level", type=_noise_level, required=True,
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


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    for flag in args.required_flags:
        if getattr(args, flag, None) is None and not getattr(args, "config", None):
            parser.error(f"--{flag} is required (directly or via --config)")
    try:
        return args.func(args)
    except BlsBenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
