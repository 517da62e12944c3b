"""Evaluation: confusion metrics, rank-based AUC, stratified per-branch reports."""

from __future__ import annotations

from dataclasses import asdict, dataclass

import numpy as np

from .errors import DataError, ParameterError, UndefinedMetricError
from .losses import uncertainties
from .model import ModelParams, forward_batch
from .simulate import GradedDataset

STRATA = ("consensus", "non_consensus", "all")
REPORT_BRANCHES = ("sen", "spec", "fusion")
METRIC_NAMES = ("acc", "sen", "spec", "f1", "auc")


def confusion_metrics(predictions, labels) -> tuple[dict[str, float], frozenset[str]]:
    """``({acc, sen, spec, f1}, zero)`` from binary predictions; ``zero`` names those whose denominator is 0.

    Those read 0.0. The inputs must hold 0/1 values or bools as given; nothing is cast first.
    """
    preds = np.asarray(predictions)
    labs = np.asarray(labels)
    if preds.shape != labs.shape or preds.ndim != 1 or preds.size < 1:
        raise ParameterError(f"predictions/labels must be equal-length 1-d, got {preds.shape} vs {labs.shape}")
    if np.any((preds != 0) & (preds != 1)) or np.any((labs != 0) & (labs != 1)):
        raise ParameterError("predictions and labels must be binary")

    tp = int(np.sum((preds == 1) & (labs == 1)))
    tn = int(np.sum((preds == 0) & (labs == 0)))
    fp = int(np.sum((preds == 1) & (labs == 0)))
    fn = int(np.sum((preds == 0) & (labs == 1)))
    fractions = {"acc": (tp + tn, preds.size), "sen": (tp, tp + fn), "spec": (tn, tn + fp),
                 "f1": (2 * tp, 2 * tp + fp + fn)}
    metrics = {name: num / den if den else 0.0 for name, (num, den) in fractions.items()}
    return metrics, frozenset(name for name, (_, den) in fractions.items() if not den)


def _average_ranks(x: np.ndarray) -> np.ndarray:
    """1-based ranks with ties assigned their group average (midranks); x non-empty.

    A run of equal values at sorted positions i..j gets rank (i + j) / 2 + 1,
    computed for all runs at once from the run boundaries.
    """
    order = np.argsort(x, kind="stable")
    sorted_x = x[order]
    run_start = np.concatenate(([True], sorted_x[1:] != sorted_x[:-1]))
    starts = np.flatnonzero(run_start)
    ends = np.append(starts[1:], x.size) - 1
    ranks = np.empty(x.size, dtype=float)
    ranks[order] = (0.5 * (starts + ends) + 1.0)[np.cumsum(run_start) - 1]
    return ranks


def roc_auc(scores, labels) -> float:
    """ROC AUC via the rank-sum (Mann-Whitney) statistic; ties count half.

    Undefined (UndefinedMetricError) for a non-finite score or a single class.
    """
    s = np.asarray(scores, dtype=float)
    y = np.asarray(labels)
    if s.shape != y.shape or s.ndim != 1 or s.size < 1:
        raise ParameterError(f"scores/labels must be equal-length 1-d, got {s.shape} vs {y.shape}")
    if np.any((y != 0) & (y != 1)):
        raise ParameterError("labels must be binary")
    if not np.isfinite(s).all():
        raise UndefinedMetricError("AUC requires finite scores")
    n_pos = int(np.sum(y == 1))
    n_neg = int(np.sum(y == 0))
    if n_pos == 0 or n_neg == 0:
        raise UndefinedMetricError("AUC requires both classes present")
    ranks = _average_ranks(s)
    rank_sum = float(ranks[y == 1].sum())
    return (rank_sum - n_pos * (n_pos + 1) / 2.0) / (n_pos * n_neg)


@dataclass
class EvalReport:
    """Branch x stratum metric grid plus stratum counts and mean uncertainty.

    ``metrics[branch][stratum][name]`` is a float in [0, 1], or None when the
    stratum is empty / the metric is undefined there. ``undefined`` lists
    zero-denominator threshold metrics reported as 0.0.
    """

    threshold: float
    counts: dict[str, int]
    mean_uncertainty: dict[str, float | None]
    metrics: dict[str, dict[str, dict[str, float | None]]]
    undefined: dict[str, dict[str, list[str]]]

    def to_dict(self) -> dict:
        """The fields as plain containers, in ``report.json`` order."""
        return asdict(self)

    def format_table(self) -> str:
        """Aligned text table: branches x (stratum-grouped Sen / Spec / AUC)."""
        stratum_titles = {"consensus": "Consensus", "non_consensus": "Non-Consensus", "all": "All Data"}
        branch_titles = {"fusion": "FusionBr", "sen": "SenBr", "spec": "SpecBr"}

        def fmt(value):
            return "   -  " if value is None else f"{100.0 * value:6.2f}"

        lines = []
        group = " | ".join(f"{stratum_titles[s]:^22}" for s in STRATA)
        lines.append(f"{'Branch':<10}| {group}")
        sub = " | ".join(f"{'Sen':>6} {'Spec':>6} {'AUC':>6}" for _ in STRATA)
        lines.append(f"{'':<10}| {sub}")
        lines.append("-" * len(lines[0]))
        for branch in ("fusion", "sen", "spec"):
            cells = []
            for stratum in STRATA:
                m = self.metrics[branch][stratum]
                cells.append(f"{fmt(m['sen'])} {fmt(m['spec'])} {fmt(m['auc'])}")
            lines.append(f"{branch_titles[branch]:<10}| " + " | ".join(cells))
        counts = ", ".join(f"{stratum_titles[s]}: n={self.counts[s]}" for s in STRATA)
        lines.append(counts)
        return "\n".join(lines) + "\n"


def evaluate(params: ModelParams, dataset: GradedDataset, threshold: float = 0.5) -> EvalReport:
    """Forward the whole dataset and fill the branch x stratum metric grid.

    Positive predictions are scores >= threshold on the positive-class
    probability. Labels are the adjudicated final labels; strata follow the
    per-record consensus flags. A single-head baseline reports its fusion
    output in the sen and spec rows too, with uncertainty 0. Raises DataError
    naming the first sample whose features or branch outputs are not finite.
    """
    if not (0.0 <= threshold <= 1.0):
        raise ParameterError(f"threshold must lie in [0, 1], got {threshold}")
    branch_probs, _ = forward_batch(params, dataset.features)
    if params.multi_branch:
        u = uncertainties(branch_probs["sen"], branch_probs["spec"])
    else:  # the baseline's one output fills every report row
        branch_probs = dict.fromkeys(REPORT_BRANCHES, branch_probs["fusion"])
        u = np.zeros(len(dataset))
    finite = np.isfinite(np.column_stack((dataset.features, *branch_probs.values(), u))).all(axis=1)
    if not finite.all():
        raise DataError(f"sample {int(dataset.sample_ids[finite.argmin()])}: non-finite features or outputs")
    finals = dataset.final_labels
    cons = dataset.consensus_flags
    masks = {
        "consensus": cons == 1,
        "non_consensus": cons == 0,
        "all": np.ones(len(dataset), dtype=bool),
    }

    counts = {s: int(m.sum()) for s, m in masks.items()}
    mean_u = {s: (float(u[m].mean()) if m.any() else None) for s, m in masks.items()}
    metrics: dict[str, dict[str, dict[str, float | None]]] = {}
    undefined: dict[str, dict[str, list[str]]] = {}
    for branch in REPORT_BRANCHES:
        scores = branch_probs[branch][:, 1]
        preds = scores >= threshold
        metrics[branch] = {}
        undefined[branch] = {}
        for stratum, mask in masks.items():
            if not mask.any():
                metrics[branch][stratum] = dict.fromkeys(METRIC_NAMES)
                undefined[branch][stratum] = []
                continue
            threshold_metrics, zero = confusion_metrics(preds[mask], finals[mask])
            try:
                auc = roc_auc(scores[mask], finals[mask])
            except UndefinedMetricError:
                auc = None
            metrics[branch][stratum] = {**threshold_metrics, "auc": auc}
            undefined[branch][stratum] = sorted(zero)
    return EvalReport(
        counts=counts,
        mean_uncertainty=mean_u,
        metrics=metrics,
        undefined=undefined,
        threshold=threshold,
    )
