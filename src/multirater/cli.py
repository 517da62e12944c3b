"""Experiment runner: dataset generation, training, evaluation, ablation grids.

Subcommands (each also takes ``[--config PATH] [--seed INT]``)::

    multirater generate --out DIR [--n N] [--difficulty-mix FLOAT] [--class-balance FLOAT]
    multirater train    --data DIR --out DIR [--epochs EPOCHS] [--ablation ARM]
    multirater eval     --checkpoint PATH --data CSV --out DIR [--threshold FLOAT]
    multirater ablation --out DIR [--seeds INT] [--n N] [--epochs EPOCHS]

Settings resolve in three layers: built-in defaults, then a flat key=value
config file (``--config``), then command-line flags. A bad setting is a usage
error, reported before any file is written. Every output artifact
embeds the resolved settings and seed and no timestamps, so a rerun with
the same seed is byte-identical. Only a failed ablation seed's
``errors[].traceback`` holds paths: those of the source files.

Exit codes: 0 success, 1 runtime failure, 2 usage error (a bad setting or
argument, or a dataset file without samples).
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import asdict, dataclass, fields, replace
from pathlib import Path
from typing import get_type_hints

import numpy as np

from .errors import DataError, EmptyDatasetError, ParameterError
from .labels import attach_soft_labels, compute_rater_weights
from .metrics import METRIC_NAMES, EvalReport, evaluate
from .model import ModelConfig, ModelParams, load_checkpoint, save_checkpoint
from .simulate import (
    CATEGORY_NAMES,
    DEFAULT_CLASS_BALANCE,
    DEFAULT_DIFFICULTY_MIX,
    DEFAULT_ERROR_GAIN,
    DEFAULT_FEATURE_DIM,
    DEFAULT_N_SAMPLES,
    DEFAULT_SPLIT,
    GradedDataset,
    GradingPanel,
    RaterProfile,
    category_counts,
    check_generation,
    default_panel,
    generate_dataset,
    grade_dataset,
    read_dataset_csv,
    split_dataset,
    split_sizes,
    write_dataset_csv,
)
from .train import ARM_FLAGS, TrainConfig, fit, fit_problems

_DEFAULT_PANEL = default_panel()
_DEFAULT_MODEL = ModelConfig(DEFAULT_FEATURE_DIM)
_DEFAULT_TRAIN = TrainConfig()


@dataclass(frozen=True)
class ExperimentConfig:
    """Union of simulator, model, trainer and evaluation settings, checked on construction."""

    n_samples: int = DEFAULT_N_SAMPLES
    feature_dim: int = DEFAULT_FEATURE_DIM
    class_balance: float = DEFAULT_CLASS_BALANCE
    difficulty_mix: float = DEFAULT_DIFFICULTY_MIX
    error_gain: float = DEFAULT_ERROR_GAIN
    rater1_sensitivity: float = _DEFAULT_PANEL.stage1[0].sensitivity
    rater1_specificity: float = _DEFAULT_PANEL.stage1[0].specificity
    rater2_sensitivity: float = _DEFAULT_PANEL.stage1[1].sensitivity
    rater2_specificity: float = _DEFAULT_PANEL.stage1[1].specificity
    adjudicator_sensitivity: float = _DEFAULT_PANEL.adjudicator.sensitivity
    adjudicator_specificity: float = _DEFAULT_PANEL.adjudicator.specificity
    train_ratio: float = DEFAULT_SPLIT[0]
    val_ratio: float = DEFAULT_SPLIT[1]
    test_ratio: float = DEFAULT_SPLIT[2]
    trunk_dims: tuple[int, ...] = _DEFAULT_MODEL.trunk_dims
    branch_dim: int = _DEFAULT_MODEL.branch_dim
    batch_size: int = _DEFAULT_TRAIN.batch_size
    max_epochs: int = _DEFAULT_TRAIN.max_epochs
    lr: float = _DEFAULT_TRAIN.lr
    lr_halving_period: int = _DEFAULT_TRAIN.lr_halving_period
    alpha: float = _DEFAULT_TRAIN.alpha
    margin: float = _DEFAULT_TRAIN.margin
    threshold: float = 0.5
    ablation: str = _DEFAULT_TRAIN.ablation
    seed: int = _DEFAULT_TRAIN.seed

    def __post_init__(self):
        # The rules no component owns: finite floats, no empty split (an empty test split nulls every
        # grid cell) and a threshold in [0, 1]. Each component then checks its own settings.
        for f in fields(self):
            value = getattr(self, f.name)
            if _FIELD_TYPES[f.name] is float and not math.isfinite(value):
                raise ParameterError(f"{f.name} must be a finite number, got {value!r}")
        ratios = (self.train_ratio, self.val_ratio, self.test_ratio)
        if min(ratios) <= 0 or abs(sum(ratios) - 1.0) > 1e-9:
            raise ParameterError(f"split ratios must each be > 0 and sum to 1, got {ratios}")
        if not (0.0 <= self.threshold <= 1.0):
            raise ParameterError(f"threshold must lie in [0, 1], got {self.threshold}")
        check_generation(self.n_samples, self.feature_dim, self.class_balance, self.difficulty_mix)
        sizes = split_sizes(self.n_samples, ratios)
        if 0 in sizes:
            raise ParameterError(f"n_samples = {self.n_samples} leaves a split empty at ratios {ratios}: "
                                 f"train/val/test sizes {sizes}")
        self.panel()
        self.train_config()
        self.model_config()

    def panel(self) -> GradingPanel:
        return GradingPanel(
            stage1=(
                RaterProfile(1, self.rater1_sensitivity, self.rater1_specificity),
                RaterProfile(2, self.rater2_sensitivity, self.rater2_specificity),
            ),
            adjudicator=RaterProfile(3, self.adjudicator_sensitivity, self.adjudicator_specificity),
        )

    def model_config(self, input_dim: int | None = None) -> ModelConfig:
        """The network's fields read by name; ``input_dim`` defaults to ``feature_dim``."""
        shared = {f.name: getattr(self, f.name) for f in fields(ModelConfig) if f.name != "input_dim"}
        return ModelConfig(input_dim=self.feature_dim if input_dim is None else input_dim, **shared)

    def train_config(self) -> TrainConfig:
        """The trainer's fields, each read from the field of the same name."""
        return TrainConfig(**{f.name: getattr(self, f.name) for f in fields(TrainConfig)})

    def to_dict(self) -> dict:
        return {key: list(value) if isinstance(value, tuple) else value for key, value in asdict(self).items()}


_FIELD_TYPES = get_type_hints(ExperimentConfig)


def _coerce(key: str, raw: str):
    kind = _FIELD_TYPES.get(key)
    if kind is None:
        raise ParameterError(f"unknown config key {key!r}")
    try:
        return tuple(int(x) for x in raw.split(",")) if kind == tuple[int, ...] else kind(raw)
    except ValueError as exc:
        raise ParameterError(f"config key {key}: cannot parse {raw!r}") from exc


def parse_config_file(path) -> list[tuple[int, str, str]]:
    """(line number, key, raw value) of each setting in a flat ``key = value`` file, in file order.

    The file is UTF-8, with or without a BOM. Blank lines and # comments are
    skipped. A line that is not ``key = value`` or repeats a key is an error
    naming the file and line; the values are left to ``resolve_config``.
    """
    settings = []
    try:
        text = Path(path).read_text(encoding="utf-8-sig")
    except UnicodeDecodeError as exc:
        raise ParameterError(f"{path}: not UTF-8 text: {exc}") from exc
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if "=" not in stripped:
            raise ParameterError(f"{path}:{lineno}: expected 'key = value', got {line!r}")
        key, raw = (part.strip() for part in stripped.split("=", 1))
        if any(key == seen for _, seen, _ in settings):
            raise ParameterError(f"{path}:{lineno}: duplicate key {key}")
        settings.append((lineno, key, raw))
    return settings


def resolve_config(config_path, overrides: dict) -> ExperimentConfig:
    """defaults <- config file <- CLI overrides (None entries skipped).

    Every config-file value is parsed, even one a flag overrides. A rejected
    value names the first config-file line it depends on: the first line
    whose removal changes or clears the error.
    """
    lines = parse_config_file(config_path) if config_path is not None else []
    overrides = {k: v for k, v in overrides.items() if v is not None}

    def build(skip=None):
        values = {key: _coerce(key, raw) for lineno, key, raw in lines if lineno != skip}
        try:
            return ExperimentConfig(**{**values, **overrides})
        except TypeError as exc:
            raise ParameterError(str(exc)) from exc

    try:
        return build()
    except ParameterError as exc:
        for lineno, _, _ in lines:
            try:
                build(skip=lineno)
            except ParameterError as other:
                if str(other) == str(exc):
                    continue
            raise ParameterError(f"{config_path}:{lineno}: {exc}") from exc
        raise


# ---------------------------------------------------------------------------
# Pipeline pieces
# ---------------------------------------------------------------------------


def build_datasets(cfg: ExperimentConfig) -> tuple[GradedDataset, GradedDataset, GradedDataset]:
    """Generate, grade, split and soft-label a full dataset in memory."""
    samples = generate_dataset(
        cfg.n_samples, cfg.feature_dim, cfg.class_balance, cfg.difficulty_mix, cfg.seed
    )
    graded = grade_dataset(samples, cfg.panel(), cfg.seed, error_gain=cfg.error_gain)
    train_ds, val_ds, test_ds = split_dataset(
        graded, (cfg.train_ratio, cfg.val_ratio, cfg.test_ratio), cfg.seed
    )
    weights = compute_rater_weights(train_ds)
    for part in (train_ds, val_ds, test_ds):
        attach_soft_labels(part, weights)
    return train_ds, val_ds, test_ds


def run_experiment(cfg: ExperimentConfig) -> tuple[ModelParams, list[dict], EvalReport]:
    """Full in-memory pipeline for one arm/seed; returns (params, log, test report)."""
    train_ds, val_ds, test_ds = build_datasets(cfg)
    params, log = fit(train_ds, val_ds, cfg.model_config(), cfg.train_config())
    report = evaluate(params, test_ds, cfg.threshold)
    return params, log, report


def cmd_generate(cfg: ExperimentConfig, out_dir: Path) -> int:
    out_dir.mkdir(parents=True, exist_ok=True)
    train_ds, val_ds, test_ds = build_datasets(cfg)
    parts = {"train": train_ds, "val": val_ds, "test": test_ds}
    for name, part in parts.items():
        write_dataset_csv(part, out_dir / f"{name}.csv")
    part_counts = {name: category_counts(part) for name, part in parts.items()}
    counts = {key: sum(c[key] for c in part_counts.values()) for key in CATEGORY_NAMES}
    total = sum(counts.values())
    manifest = {
        "seed": cfg.seed,
        "config": cfg.to_dict(),
        "sizes": {name: len(part) for name, part in parts.items()},
        "counts": {"overall": counts, **part_counts},
        "proportions": {key: count / total for key, count in counts.items()},
    }
    (out_dir / "manifest.json").write_text(json.dumps(manifest, indent=2, allow_nan=False) + "\n")
    print(f"wrote {', '.join(sorted(['manifest.json', *(f'{name}.csv' for name in parts)]))} to {out_dir}")
    return 0


def cmd_train(cfg: ExperimentConfig, data_dir: Path, out_dir: Path) -> int:
    for name in ("train.csv", "val.csv"):
        if not (data_dir / name).is_file():
            raise FileNotFoundError(f"missing dataset file {data_dir / name}")
    train_ds = read_dataset_csv(data_dir / "train.csv")
    val_ds = read_dataset_csv(data_dir / "val.csv")
    if val_ds.features.shape[1] != train_ds.features.shape[1]:
        raise DataError(f"{data_dir / 'val.csv'}: dataset has {val_ds.features.shape[1]} features, "
                        f"train.csv has {train_ds.features.shape[1]}")
    out_dir.mkdir(parents=True, exist_ok=True)

    snapshot = {"seed": cfg.seed, "ablation": cfg.ablation, "config": cfg.to_dict()}
    (out_dir / "config_resolved.json").write_text(json.dumps(snapshot, indent=2, allow_nan=False) + "\n")

    model_config = cfg.model_config(input_dim=train_ds.features.shape[1])
    log_path = out_dir / "train_log.jsonl"
    with open(log_path, "w") as log_file:
        def write_record(record):
            log_file.write(json.dumps(record, allow_nan=False) + "\n")
            log_file.flush()

        params, log = fit(train_ds, val_ds, model_config, cfg.train_config(), on_epoch=write_record)
    save_checkpoint(params, out_dir / "checkpoint.json", metadata=snapshot)
    epochs = [record for record in log if "diverged" not in record]
    for problem in fit_problems(log):
        print(f"warning: {problem}", file=sys.stderr)
    print(f"trained {len(epochs)} epochs; wrote checkpoint.json, train_log.jsonl to {out_dir}")
    return 0


def cmd_eval(cfg: ExperimentConfig, checkpoint: Path, data_csv: Path, out_dir: Path) -> int:
    if not data_csv.is_file():
        raise FileNotFoundError(f"missing dataset file {data_csv}")
    dataset = read_dataset_csv(data_csv)
    params, checkpoint_meta = load_checkpoint(checkpoint)
    if dataset.features.shape[1] != params.config.input_dim:
        raise DataError(f"{data_csv}: checkpoint expects {params.config.input_dim} features, "
                        f"dataset has {dataset.features.shape[1]}")
    report = evaluate(params, dataset, cfg.threshold)
    out_dir.mkdir(parents=True, exist_ok=True)
    doc = {
        "seed": cfg.seed,
        "config": cfg.to_dict(),
        "checkpoint_metadata": checkpoint_meta,
        "report": report.to_dict(),
    }
    (out_dir / "report.json").write_text(json.dumps(doc, indent=2, allow_nan=False) + "\n")
    table = report.format_table()
    (out_dir / "report.txt").write_text(table)
    print(table, end="")
    return 0


def _arm_summary(per_seed: dict[str, list[float | None]]) -> dict:
    """Mean, sd and median over seeds; None for a metric undefined at any seed."""
    summary = {"mean": {}, "sd": {}, "median": {}}
    for metric, values in per_seed.items():
        if None in values:
            for stat in summary.values():
                stat[metric] = None
            continue
        arr = np.asarray(values, dtype=float)
        summary["mean"][metric] = float(arr.mean())
        summary["sd"][metric] = float(arr.std(ddof=1)) if arr.size > 1 else 0.0
        summary["median"][metric] = float(np.median(arr))
    return summary


def _format_grid_table(grid: dict) -> str:
    header = f"{'Arm':<10}" + "".join(f"{m.upper():>16}" for m in METRIC_NAMES)
    lines = [header, "-" * len(header)]
    for arm in grid["row_order"]:
        row = grid["arms"][arm]
        if row["failed"]:
            messages = (f"seed {e['seed']}: {e['message']}" for e in row["errors"])
            lines.append(f"{arm:<10}  FAILED: {'; '.join(messages)}")
            continue
        cells = "".join(
            f"{'-':>8}{'':8}" if row["mean"][m] is None
            else f"{100 * row['mean'][m]:>8.2f} ±{100 * row['sd'][m]:>5.2f} "
            for m in METRIC_NAMES
        )
        lines.append(f"{arm:<10}{cells}")
    return "\n".join(lines) + "\n"


def cmd_ablation(cfg: ExperimentConfig, out_dir: Path, n_seeds: int) -> int:
    """Run every ablation arm over n_seeds seeds and emit the comparison grid."""
    if n_seeds < 1:
        raise ParameterError(f"--seeds must be >= 1, got {n_seeds}")
    out_dir.mkdir(parents=True, exist_ok=True)
    seeds = [cfg.seed + k for k in range(n_seeds)]
    arms = {}
    for arm in ARM_FLAGS:
        per_seed = {metric: [] for metric in METRIC_NAMES}
        errors = []
        for seed in seeds:
            try:
                _, log, report = run_experiment(replace(cfg, seed=seed, ablation=arm))
                if problems := fit_problems(log):
                    raise problems[0]
                fusion_all = report.metrics["fusion"]["all"]
            except Exception as exc:  # arm keeps going; grid marks the failure and nulls its metrics
                import traceback  # only on this failure path, so start-up stays lean

                errors.append({"seed": seed, "message": str(exc), "traceback": traceback.format_exc()})
                fusion_all = dict.fromkeys(METRIC_NAMES)
            for metric in METRIC_NAMES:
                per_seed[metric].append(fusion_all[metric])
        arms[arm] = {"seeds": seeds, "per_seed": per_seed, "errors": errors, "failed": bool(errors)}
        if not errors:
            arms[arm].update(_arm_summary(per_seed))
    grid = {
        "seed": cfg.seed,
        "n_seeds": n_seeds,
        "config": cfg.to_dict(),
        "row_order": list(ARM_FLAGS),
        "arms": arms,
    }
    (out_dir / "ablation_grid.json").write_text(json.dumps(grid, indent=2, allow_nan=False) + "\n")
    table = _format_grid_table(grid)
    (out_dir / "ablation_grid.txt").write_text(table)
    print(table, end="")
    return 1 if any(row["failed"] for row in arms.values()) else 0


# ---------------------------------------------------------------------------
# Argument parsing
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="multirater",
        description="Synthetic multi-rater consensus experiments: generate, train, eval, ablation.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, run):
        """The flags every command takes, and ``run(cfg, args)``, which ``main`` calls."""
        p.set_defaults(run=run)
        p.add_argument("--config", type=Path, default=None, help="flat key=value settings file")
        p.add_argument("--seed", type=int, default=None, help="run seed")
        p.add_argument("--out", type=Path, required=True, help="output directory")

    gen = sub.add_parser("generate", help="write train/val/test CSVs plus a manifest")
    add_common(gen, lambda cfg, args: cmd_generate(cfg, args.out))
    gen.add_argument("--n", dest="n_samples", metavar="N", type=int, default=None, help="number of samples")
    gen.add_argument("--difficulty-mix", type=float, default=None)
    gen.add_argument("--class-balance", type=float, default=None)

    tr = sub.add_parser("train", help="train on generated CSVs")
    add_common(tr, lambda cfg, args: cmd_train(cfg, args.data, args.out))
    tr.add_argument("--data", type=Path, required=True, help="directory with train/val CSVs")
    tr.add_argument("--epochs", dest="max_epochs", metavar="EPOCHS", type=int, default=None,
                    help="max training epochs")
    tr.add_argument("--ablation", choices=sorted(ARM_FLAGS), default=None)

    ev = sub.add_parser("eval", help="evaluate a checkpoint on a dataset CSV")
    add_common(ev, lambda cfg, args: cmd_eval(cfg, args.checkpoint, args.data, args.out))
    ev.add_argument("--checkpoint", type=Path, required=True)
    ev.add_argument("--data", type=Path, required=True, help="dataset CSV")
    ev.add_argument("--threshold", type=float, default=None)

    ab = sub.add_parser("ablation", help="run all ablation arms over several seeds")
    add_common(ab, lambda cfg, args: cmd_ablation(cfg, args.out, args.seeds))
    ab.add_argument("--seeds", type=int, default=5, help="number of seeds per arm")
    ab.add_argument("--n", dest="n_samples", metavar="N", type=int, default=None, help="number of samples")
    ab.add_argument("--epochs", dest="max_epochs", metavar="EPOCHS", type=int, default=None,
                    help="max training epochs")

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        # each field's flag value; None where the command lacks the flag or it is unset
        cfg = resolve_config(args.config, {f.name: getattr(args, f.name, None) for f in fields(ExperimentConfig)})
    except (ParameterError, OSError) as exc:
        parser.error(str(exc))
    try:
        return args.run(cfg, args)
    except (EmptyDatasetError, ParameterError) as exc:
        parser.error(str(exc))
    except Exception as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
