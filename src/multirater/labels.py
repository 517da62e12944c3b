"""Per-branch training labels.

Three label views are derived from the raw gradings of each sample:

* a sensitivity-branch label drawn from a pool where positive ratings are
  duplicated,
* a specificity-branch label drawn from a pool where negative ratings are
  duplicated,
* a clipped soft label for the fusion branch: the rater-accuracy-weighted
  mean of all raw ratings.

Branch labels are redrawn every epoch. A uniform draw from a pool with the
favoured class duplicated has a closed form: with p positive and q negative
ratings, P(sen = 1) = 2p / (2p + q) and P(spec = 1) = p / (p + 2q). Each draw
compares that probability with ``rng.keyed_uniform`` keyed by
(seed, epoch, branch, sample_id), so it is a pure function of those four
integers and builds no numpy Generator.
"""

from __future__ import annotations

import enum
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import DataError, ParameterError
from .rng import STREAM_BRANCH_LABEL, keyed_uniform
from .simulate import SOFT_LABEL_MAX, SOFT_LABEL_MIN, GradingRecord

WEIGHT_FLOOR = 1e-6


class Branch(enum.Enum):
    SEN = "sen"
    SPEC = "spec"


_BRANCH_CODE = {Branch.SEN: 0, Branch.SPEC: 1}


@dataclass(frozen=True)
class RaterWeights:
    """Per-rater fusion weights: empirical accuracy against the final label."""

    weights: dict[int, float]


@dataclass
class BranchLabels:
    """One sample's training targets for all three branches."""

    sen_label: int
    spec_label: int
    fusion_soft: np.ndarray  # (negative, positive), sums to 1
    consensus: int


def compute_rater_weights(
    records: list[GradingRecord],
    expected_rater_ids=None,
) -> RaterWeights:
    """Accuracy of each rater against the adjudicated final label.

    Tallied over every (rater_id, label) pair in the records, adjudicator
    entries included. Weights are floored at WEIGHT_FLOOR so downstream
    weighted means stay well defined. Raters expected but absent from the
    records are excluded with a warning.
    """
    counts: dict[int, int] = {}
    matches: dict[int, int] = {}
    for rec in records:
        for rid, lab in rec.raw_labels:
            counts[rid] = counts.get(rid, 0) + 1
            matches[rid] = matches.get(rid, 0) + int(lab == rec.final_label)
    if expected_rater_ids is not None:
        for rid in expected_rater_ids:
            if rid not in counts:
                warnings.warn(f"rater {rid} has no gradings; excluded from weights", stacklevel=2)
    weights = {rid: max(matches[rid] / counts[rid], WEIGHT_FLOOR) for rid in sorted(counts)}
    return RaterWeights(weights=weights)


def soft_label(record: GradingRecord, weights: RaterWeights) -> np.ndarray:
    """Weighted mean of raw ratings, clipped away from hard 0/1.

    Returns the two-class distribution (1 - y, y) with
    y = clip(sum(w_i * r_i) / sum(w_i), 0.01, 0.99).
    """
    num = 0.0
    den = 0.0
    for rid, lab in record.raw_labels:
        try:
            w = weights.weights[rid]
        except KeyError:
            raise DataError(f"record {record.sample_id}: no weight for rater {rid}") from None
        num += w * lab
        den += w
    y = float(np.clip(num / den, SOFT_LABEL_MIN, SOFT_LABEL_MAX))
    return np.array([1.0 - y, y])


def label_pool(record: GradingRecord, branch: Branch) -> list[int]:
    """Raw labels with the branch's favored class duplicated in place."""
    favored = 1 if branch is Branch.SEN else 0
    pool = []
    for _, lab in record.raw_labels:
        pool.append(lab)
        if lab == favored:
            pool.append(lab)
    return pool


def positive_probability(record: GradingRecord, branch: Branch) -> float:
    """P(label = 1) of a uniform draw from the branch's label pool, in closed form.

    With p positive and q negative ratings the SEN pool holds 2p ones among
    2p + q labels and the SPEC pool p ones among p + 2q.
    """
    raw = record.raw_labels
    if not raw:
        raise ParameterError(f"record {record.sample_id} has no raw labels")
    p = sum(lab for _, lab in raw)
    q = len(raw) - p
    return 2 * p / (2 * p + q) if branch is Branch.SEN else p / (p + 2 * q)


def sample_branch_label(record: GradingRecord, branch: Branch, seed: int, epoch: int = 0) -> int:
    """Uniform draw from the branch's label pool; deterministic per (seed, epoch, sample).

    The draw is 1 when a uniform keyed by (seed, epoch, branch, sample_id)
    falls below ``positive_probability``; the pool itself is never built.
    """
    u = keyed_uniform(seed, STREAM_BRANCH_LABEL, epoch, _BRANCH_CODE[branch], record.sample_id)
    return int(u < positive_probability(record, branch))


def branch_labels(
    record: GradingRecord,
    weights: RaterWeights,
    seed: int,
    epoch: int = 0,
) -> BranchLabels:
    """Assemble all three branches' targets for one sample."""
    return BranchLabels(
        sen_label=sample_branch_label(record, Branch.SEN, seed, epoch),
        spec_label=sample_branch_label(record, Branch.SPEC, seed, epoch),
        fusion_soft=soft_label(record, weights),
        consensus=record.consensus,
    )


def attach_soft_labels(records: list[GradingRecord], weights: RaterWeights) -> None:
    """Replace each record's placeholder soft label with the weighted one."""
    for rec in records:
        rec.soft_label = float(soft_label(rec, weights)[1])
