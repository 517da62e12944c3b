"""The benchmark's three workloads, their correctness gates and their layer metrics.

Each workload is one closed-loop pass: one client, one process, each step
started after the previous one ended. A pass returns its wall time, the
seconds spent inside ``fit`` with the samples it consumed, the failures its
correctness gates found, and a digest of its artifacts (log, parameters,
report) for the determinism check.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import statistics
import sys
import time
import traceback
from collections import defaultdict
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from tracer import Absent, Patches, Tracer, percentile, tail_percentile

ALL = ("default_run", "data_pipeline", "ablation_grid")
ARMS = ("baseline", "multibr", "conloss", "uncerty", "full")

# Workload sizes. "tiny" keeps every code path at a size the self-tests can afford.
SIZES = {
    "full": {
        "default_run": {"n_samples": 6318, "max_epochs": 50, "auc_floor": 0.90},
        "data_pipeline": {"n_samples": 40000, "max_epochs": 1},
        "ablation_grid": {"n_samples": 2000, "max_epochs": 10, "seeds": 2},
    },
    "tiny": {
        "default_run": {"n_samples": 240, "max_epochs": 2, "auc_floor": None},
        "data_pipeline": {"n_samples": 300, "max_epochs": 1},
        "ablation_grid": {"n_samples": 200, "max_epochs": 2, "seeds": 2},
    },
}

# Spans of these functions are only aggregated: each runs ~10^5 times per pass.
HOT = {"simulate.grade_sample", "labels.sample_branch_label", "labels.soft_label", "rng.seeded_rng"}
# Kept spans of these functions are labelled by their first argument.
TAGS = {"cli.run_experiment": lambda cfg: cfg.ablation}
# (module, attribute, span name): every binding the traced pass wraps.
BINDINGS = [
    ("multirater.cli", "build_datasets", "cli.build_datasets"),
    ("multirater.cli", "cmd_generate", "cli.cmd_generate"),
    ("multirater.cli", "cmd_train", "cli.cmd_train"),
    ("multirater.cli", "cmd_eval", "cli.cmd_eval"),
    ("multirater.cli", "cmd_ablation", "cli.cmd_ablation"),
    ("multirater.cli", "run_experiment", "cli.run_experiment"),
    ("multirater.cli", "generate_dataset", "simulate.generate_dataset"),
    ("multirater.cli", "grade_dataset", "simulate.grade_dataset"),
    ("multirater.simulate", "grade_sample", "simulate.grade_sample"),
    ("multirater.cli", "split_dataset", "simulate.split_dataset"),
    ("multirater.cli", "write_dataset_csv", "simulate.write_dataset_csv"),
    ("multirater.cli", "read_dataset_csv", "simulate.read_dataset_csv"),
    ("multirater.cli", "compute_rater_weights", "labels.compute_rater_weights"),
    ("multirater.train", "compute_rater_weights", "labels.compute_rater_weights"),
    ("multirater.cli", "attach_soft_labels", "labels.attach_soft_labels"),
    ("multirater.train", "sample_branch_label", "labels.sample_branch_label"),
    ("multirater.train", "soft_label", "labels.soft_label"),
    ("multirater.labels", "seeded_rng", "rng.seeded_rng"),
    ("multirater.simulate", "seeded_rng", "rng.seeded_rng"),
    ("multirater.train", "seeded_rng", "rng.seeded_rng"),
    ("multirater.model", "seeded_rng", "rng.seeded_rng"),
    ("multirater.train", "fusion_loss", "losses.fusion_loss"),
    ("multirater.train", "forward_batch", "model.forward_batch"),
    ("multirater.metrics", "forward_batch", "model.forward_batch"),
    ("multirater.train", "backward", "model.backward"),
    ("multirater.cli", "save_checkpoint", "model.save_checkpoint"),
    ("multirater.cli", "load_checkpoint", "model.load_checkpoint"),
    ("multirater.train", "train_step", "train.train_step"),
    ("multirater.train", "fit", "train.fit"),
    ("multirater.cli", "fit", "train.fit"),
    ("multirater.cli", "evaluate", "metrics.evaluate"),
    ("multirater.metrics", "evaluate", "metrics.evaluate"),
    ("multirater.train", "roc_auc", "metrics.roc_auc"),
    ("multirater.metrics", "roc_auc", "metrics.roc_auc"),
]


# ---------------------------------------------------------------------------
# Layer metrics from a traced pass
# ---------------------------------------------------------------------------


def _steps(tr: Tracer) -> int:
    steps = tr.calls("train.train_step")
    if not steps:
        raise Absent("train.train_step")
    return steps


def _per_step_us(tr: Tracer, name: str) -> float:
    return 1e6 * tr.total(name, parent="train.train_step") / _steps(tr)


def _step_ms(tr: Tracer) -> list[float]:
    return [1e3 * (end - start) for _, _, _, _, start, end, _ in tr.kept("train.train_step")]


def _step_tail(tr: Tracer) -> float:
    times = _step_ms(tr)
    tail = tail_percentile(len(times))
    if tail is None:
        raise Absent("train.train_step")
    return percentile(times, tail)


def _epoch_s(tr: Tracer) -> list[float]:
    """Epoch lengths: from the fit's start, or the previous validation AUC, to the next one."""
    ends = defaultdict(list)
    for span in tr.kept("metrics.roc_auc", parent="train.fit"):
        ends[span[3]].append(span[5])
    out = []
    for fit_id, _, _, _, start, _, _ in tr.kept("train.fit"):
        for end in sorted(ends[fit_id]):
            out.append(end - start)
            start = end
    if not out:
        raise Absent("metrics.roc_auc")
    return out


def _val_forward_ms(tr: Tracer) -> float:
    epochs = tr.calls("metrics.roc_auc", parent="train.fit")
    if not epochs:
        raise Absent("metrics.roc_auc")
    return 1e3 * tr.total("model.forward_batch", parent="train.fit") / epochs


def _arm_s(arm: str):
    def arm_seconds(tr: Tracer, info: dict) -> float:
        return sum(s[5] - s[4] for s in tr.kept("cli.run_experiment") if s[2] == arm)

    return arm_seconds


@dataclass(frozen=True)
class LayerMetric:
    name: str
    unit: str
    moves: str  # the end-to-end metric it should move
    workloads: tuple[str, ...]  # where it is measured; elsewhere the layer is not exercised
    value: object  # (tracer, pass info) -> float


DP, AG = ("data_pipeline",), ("ablation_grid",)
STEP = "train_samples_per_s, run_s"
# The layer -> end-to-end mapping: each layer metric, the end-to-end metric a
# gain in that layer should move, and the workloads that exercise the layer.
LAYER_METRICS = [
    LayerMetric("labels.draw_us_per_step", "us", STEP, ALL,
                lambda tr, i: _per_step_us(tr, "labels.sample_branch_label")),
    LayerMetric("labels.draw_calls", "count", STEP, ALL,
                lambda tr, i: tr.calls("labels.sample_branch_label")),
    LayerMetric("rng.generators_created", "count", STEP, ALL,
                lambda tr, i: tr.calls("rng.seeded_rng")),
    LayerMetric("labels.soft_us_per_step", "us", STEP, ALL,
                lambda tr, i: _per_step_us(tr, "labels.soft_label")),
    LayerMetric("losses.fusion_us_per_step", "us", STEP, ALL,
                lambda tr, i: _per_step_us(tr, "losses.fusion_loss")),
    LayerMetric("train.step_self_us", "us", STEP, ALL,
                lambda tr, i: 1e6 * tr.self_time("train.train_step") / _steps(tr)),
    LayerMetric("train.step_ms.p50", "ms", STEP, ALL,
                lambda tr, i: statistics.median(_step_ms(tr))),
    LayerMetric("train.step_ms.tail", "ms", STEP, ALL, lambda tr, i: _step_tail(tr)),
    LayerMetric("train.steps", "count", STEP, ALL, lambda tr, i: _steps(tr)),
    LayerMetric("train.epoch_s.p50", "s", STEP, ALL, lambda tr, i: statistics.median(_epoch_s(tr))),
    LayerMetric("train.fit_self_share", "ratio", "none: fit time outside steps and validation", ALL,
                lambda tr, i: tr.self_time("train.fit") / tr.total("train.fit")),
    LayerMetric("model.forward_us_per_step", "us", STEP, ALL,
                lambda tr, i: _per_step_us(tr, "model.forward_batch")),
    LayerMetric("model.backward_us_per_step", "us", STEP, ALL,
                lambda tr, i: _per_step_us(tr, "model.backward")),
    LayerMetric("model.val_forward_ms_per_epoch", "ms", STEP, ALL, lambda tr, i: _val_forward_ms(tr)),
    LayerMetric("simulate.generate_s", "s", "run_s", ALL,
                lambda tr, i: tr.total("simulate.generate_dataset")),
    LayerMetric("simulate.grade_s", "s", "run_s", ALL,
                lambda tr, i: tr.total("simulate.grade_dataset")),
    LayerMetric("simulate.grade_us_per_sample", "us", "run_s", ALL,
                lambda tr, i: 1e6 * tr.total("simulate.grade_dataset") / tr.calls("simulate.grade_sample")),
    LayerMetric("simulate.split_s", "s", "run_s", ALL,
                lambda tr, i: tr.total("simulate.split_dataset")),
    LayerMetric("labels.rater_weights_s", "s", "run_s", ALL,
                lambda tr, i: tr.total("labels.compute_rater_weights")),
    LayerMetric("labels.attach_soft_s", "s", "run_s", ALL,
                lambda tr, i: tr.total("labels.attach_soft_labels")),
    LayerMetric("metrics.evaluate_s", "s", "run_s", ALL, lambda tr, i: tr.total("metrics.evaluate")),
    LayerMetric("metrics.roc_auc_s", "s", "run_s", ALL, lambda tr, i: tr.total("metrics.roc_auc")),
    LayerMetric("trace.overhead_s", "s", "none", ALL, lambda tr, i: i["trace_overhead_s"]),
    LayerMetric("simulate.csv_write_s", "s", "run_s, peak_rss_mb", DP,
                lambda tr, i: tr.total("simulate.write_dataset_csv")),
    LayerMetric("simulate.csv_read_s", "s", "run_s, peak_rss_mb", DP,
                lambda tr, i: tr.total("simulate.read_dataset_csv")),
    LayerMetric("simulate.csv_bytes", "bytes", "run_s, peak_rss_mb", DP, lambda tr, i: i["csv_bytes"]),
    LayerMetric("model.ckpt_save_s", "s", "run_s", DP, lambda tr, i: tr.total("model.save_checkpoint")),
    LayerMetric("model.ckpt_load_s", "s", "run_s", DP, lambda tr, i: tr.total("model.load_checkpoint")),
    LayerMetric("model.ckpt_bytes", "bytes", "run_s", DP, lambda tr, i: i["ckpt_bytes"]),
    LayerMetric("cli.generate_s", "s", "run_s", DP, lambda tr, i: tr.total("cli.cmd_generate")),
    LayerMetric("cli.train_s", "s", "run_s", DP, lambda tr, i: tr.total("cli.cmd_train")),
    LayerMetric("cli.eval_s", "s", "run_s", DP, lambda tr, i: tr.total("cli.cmd_eval")),
    *(LayerMetric(f"cli.arm_s.{arm}", "s", "run_s", AG, _arm_s(arm)) for arm in ARMS),
]


def layer_metrics(tr: Tracer, workload: str, info: dict) -> tuple[dict, list[str]]:
    """Every layer metric measured on ``workload``, and the names of those found absent."""
    values, absent = {}, []
    for metric in LAYER_METRICS:
        if workload not in metric.workloads:
            continue
        try:
            values[metric.name] = float(metric.value(tr, info))
        except (Absent, ZeroDivisionError):
            absent.append(metric.name)
    return values, absent


# ---------------------------------------------------------------------------
# Correctness gates
# ---------------------------------------------------------------------------


def has_non_finite(obj) -> bool:
    if isinstance(obj, float):
        return not math.isfinite(obj)
    if isinstance(obj, dict):
        return any(has_non_finite(v) for v in obj.values())
    if isinstance(obj, (list, tuple)):
        return any(has_non_finite(v) for v in obj)
    return False


def _reject_constant(token):
    raise ValueError(f"non-standard JSON constant {token}")


def check_json(text: str, what: str, failures: list[str]):
    """Parse ``text`` as strict JSON (no NaN or Infinity) with only finite numbers."""
    try:
        doc = json.loads(text, parse_constant=_reject_constant)
    except ValueError as exc:
        failures.append(f"{what} is not strict JSON: {exc}")
        return None
    if has_non_finite(doc):
        failures.append(f"{what} holds a non-finite number")
    return doc


def _same_dataset(a, b) -> bool:
    return (
        np.array_equal(a.features, b.features)
        and np.array_equal(a.true_labels, b.true_labels)
        and a.records == b.records
    )


def _same_params(a, b) -> bool:
    return (
        a.config == b.config
        and a.multi_branch == b.multi_branch
        and list(a.tensors) == list(b.tensors)
        and all(np.array_equal(a.tensors[k], b.tensors[k]) for k in a.tensors)
    )


class Probe:
    """Always-on instrumentation: fit timing and epoch checks, and artifact round trips.

    Only a handful of calls per pass pass through it, so untraced timings
    stay untraced in effect.
    """

    def __init__(self):
        self.fit_s = 0.0
        self.samples = 0
        self.failures: list[str] = []
        self.written: dict[Path, object] = {}
        self.read: dict[Path, object] = {}
        self.saved: dict[Path, tuple] = {}
        self.loaded: dict[Path, tuple] = {}

    def install(self, patches: Patches) -> None:
        from multirater import cli, train

        for module in (cli, train):
            if not patches.wrap(module, "fit", self._wrap_fit):
                self.failures.append(f"{module.__name__}.fit not found")
        patches.wrap(cli, "write_dataset_csv", self._keep_csv)
        patches.wrap(cli, "read_dataset_csv", self._keep_read(self.read))
        patches.wrap(cli, "save_checkpoint", self._keep_checkpoint)
        patches.wrap(cli, "load_checkpoint", self._keep_read(self.loaded))

    def _wrap_fit(self, fit):
        def probed(*args, **kwargs):
            start = time.perf_counter()
            params, log = fit(*args, **kwargs)
            self.fit_s += time.perf_counter() - start
            train_ds, train_config = args[0], args[3]
            self.samples += len(train_ds) * len(log)
            if len(log) < train_config.max_epochs:
                self.failures.append(f"fit logged {len(log)} of {train_config.max_epochs} epochs")
            if has_non_finite(log):
                self.failures.append("non-finite loss or metric in the training log")
            return params, log

        return probed

    def _keep_csv(self, write):
        """Remember each dataset written, by path."""

        def kept(dataset, path):
            write(dataset, path)
            self.written[Path(path).resolve()] = dataset

        return kept

    def _keep_checkpoint(self, save):
        """Remember each checkpoint saved, by path, with its metadata."""

        def kept(params, path, metadata=None):
            save(params, path, metadata=metadata)
            self.saved[Path(path).resolve()] = (params, metadata or {})

        return kept

    @staticmethod
    def _keep_read(store: dict):
        """Remember what a read call returned, by path."""

        def make(fn):
            def kept(path, *args, **kwargs):
                out = store[Path(path).resolve()] = fn(path, *args, **kwargs)
                return out

            return kept

        return make

    def check_round_trips(self) -> None:
        for path, dataset in self.read.items():
            if path not in self.written:
                self.failures.append(f"{path.name} was read but not written in this pass")
            elif not _same_dataset(self.written[path], dataset):
                self.failures.append(f"{path.name} read back differs from what was written")
        for path, (params, meta) in self.loaded.items():
            if path not in self.saved:
                self.failures.append(f"{path.name} was loaded but not saved in this pass")
                continue
            saved_params, saved_meta = self.saved[path]
            if not _same_params(saved_params, params) or saved_meta != meta:
                self.failures.append(f"{path.name} loaded back differs from what was saved")


# ---------------------------------------------------------------------------
# Workloads
# ---------------------------------------------------------------------------


@dataclass
class PassResult:
    run_s: float  # wall seconds of the workload itself
    cpu_s: float  # process CPU seconds of the pass and its checks, to tell contention from work
    failures: list[str]
    digest: str
    fit_s: float = 0.0
    samples: int = 0
    info: dict = field(default_factory=dict)


def _cli(argv: list) -> int:
    """Run one CLI command in this process; its chatter is discarded."""
    from multirater import cli

    with contextlib.redirect_stdout(io.StringIO()):
        try:
            return cli.main([str(a) for a in argv])
        except SystemExit as exc:  # argparse usage errors
            return exc.code if isinstance(exc.code, int) else 2


def _digest(*chunks: bytes) -> str:
    h = hashlib.sha256()
    for chunk in chunks:
        h.update(len(chunk).to_bytes(8, "little"))
        h.update(chunk)
    return h.hexdigest()


def _file_digest(root: Path) -> str:
    files = sorted(p for p in root.rglob("*") if p.is_file())
    return _digest(*(c for p in files for c in (str(p.relative_to(root)).encode(), p.read_bytes())))


def default_run(seed: int, size: dict, work: Path, failures: list[str]) -> tuple[float, str, dict]:
    from multirater import cli, metrics, train

    start = time.perf_counter()
    cfg = cli.resolve_config(None, {"seed": seed, "n_samples": size["n_samples"],
                                    "max_epochs": size["max_epochs"]})
    train_ds, val_ds, test_ds = cli.build_datasets(cfg)
    params, log = train.fit(train_ds, val_ds, cfg.model_config(), cfg.train_config())
    report = metrics.evaluate(params, test_ds, cfg.threshold)
    run_s = time.perf_counter() - start

    report_text = json.dumps(report.to_dict(), indent=2)
    check_json(report_text, "report", failures)
    auc = report.metrics["fusion"]["all"]["auc"]
    floor = size["auc_floor"]
    if floor is not None and (auc is None or not auc >= floor):
        failures.append(f"test_auc {auc} is below the floor {floor}")
    tensors = [c for k, v in params.tensors.items() for c in (k.encode(), v.tobytes())]
    digest = _digest(json.dumps(log).encode(), *tensors, report_text.encode())
    return run_s, digest, {"test_auc": auc, "train_samples": len(train_ds),
                           "val_samples": len(val_ds), "test_samples": len(test_ds)}


def data_pipeline(seed: int, size: dict, work: Path, failures: list[str]) -> tuple[float, str, dict]:
    data, run, out = work / "data", work / "run", work / "eval"
    start = time.perf_counter()
    codes = [
        _cli(["generate", "--out", data, "--n", size["n_samples"], "--seed", seed]),
        _cli(["train", "--data", data, "--out", run, "--epochs", size["max_epochs"], "--seed", seed]),
        _cli(["eval", "--checkpoint", run / "checkpoint.json", "--data", data / "test.csv",
              "--out", out, "--seed", seed]),
    ]
    run_s = time.perf_counter() - start

    if codes != [0, 0, 0]:
        failures.append(f"CLI exit codes generate/train/eval {codes}")
        return run_s, "", {}
    check_json((data / "manifest.json").read_text(), "manifest.json", failures)
    lines = (run / "train_log.jsonl").read_text().splitlines()
    for lineno, line in enumerate(lines, start=1):
        check_json(line, f"train_log.jsonl:{lineno}", failures)
    if len(lines) < size["max_epochs"]:
        failures.append(f"train_log.jsonl has {len(lines)} of {size['max_epochs']} epochs")
    report = check_json((out / "report.json").read_text(), "report.json", failures)
    auc = report["report"]["metrics"]["fusion"]["all"]["auc"] if report else None
    return run_s, _file_digest(work), {
        "test_auc": auc,
        "csv_bytes": sum(p.stat().st_size for p in data.glob("*.csv")),
        "ckpt_bytes": (run / "checkpoint.json").stat().st_size,
    }


def ablation_grid(seed: int, size: dict, work: Path, failures: list[str]) -> tuple[float, str, dict]:
    start = time.perf_counter()
    code = _cli(["ablation", "--out", work, "--seeds", size["seeds"], "--n", size["n_samples"],
                 "--epochs", size["max_epochs"], "--seed", seed])
    run_s = time.perf_counter() - start

    if code != 0:
        failures.append(f"ablation exit code {code}")
    grid = check_json((work / "ablation_grid.json").read_text(), "ablation_grid.json", failures)
    if grid is not None:
        if grid.get("row_order") != list(ARMS):
            failures.append(f"ablation rows {grid.get('row_order')} are not {list(ARMS)}")
        failed = [arm for arm, row in grid["arms"].items() if row["failed"]]
        if failed:
            failures.append(f"ablation arms failed: {failed}")
    return run_s, _file_digest(work), {}


WORKLOADS = {"default_run": default_run, "data_pipeline": data_pipeline, "ablation_grid": ablation_grid}


def run_pass(workload: str, seed: int, size: dict, work: Path, tracer: Tracer | None = None) -> PassResult:
    """One pass of ``workload`` with its gates; traced when a tracer is given."""
    work.mkdir(parents=True)
    probe = Probe()
    failures: list[str] = []
    start, cpu = time.perf_counter(), time.process_time()
    with Patches() as patches:
        probe.install(patches)
        if tracer is not None:
            tracer.install(patches, BINDINGS, HOT, TAGS)
        try:
            run_s, digest, info = WORKLOADS[workload](seed, size, work, failures)
        except Exception as exc:  # the pass fails; the run goes on and reports it
            traceback.print_exc(file=sys.stderr)
            failures.append(f"{type(exc).__name__}: {exc}")
            run_s, digest, info = time.perf_counter() - start, "", {}
    cpu_s = time.process_time() - cpu
    probe.check_round_trips()
    return PassResult(run_s, cpu_s, probe.failures + failures, digest, probe.fit_s, probe.samples, info)
