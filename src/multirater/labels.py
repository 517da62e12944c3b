"""Per-branch training labels.

Three label views are derived from the raw gradings of each sample:

* a sensitivity-branch label, drawn as if uniformly from the raw ratings with
  every positive rating counted twice,
* a specificity-branch label, drawn the same way with every negative rating
  counted twice,
* a clipped soft label for the fusion branch: the rater-accuracy-weighted
  mean of all raw ratings, with the weights a plain {rater_id: accuracy} dict.

Branch labels are redrawn every epoch. A uniform draw from the ratings with
the favoured class counted twice has a closed form: with p positive and q
negative ratings, P(sen = 1) = 2p / (2p + q) and P(spec = 1) = p / (p + 2q).
Each draw compares that probability with ``rng.keyed_uniform`` keyed by
(seed, epoch, branch, sample_id), so it is a pure function of those four
integers and builds no numpy Generator.
"""

from __future__ import annotations

import enum

import numpy as np

from .errors import DataError, ParameterError
from .rng import STREAM_BRANCH_LABEL, keyed_uniform
from .simulate import SOFT_LABEL_MAX, SOFT_LABEL_MIN, GradingRecord

WEIGHT_FLOOR = 1e-6


class Branch(enum.Enum):
    """A label-drawing branch; its value is the branch's part of the draw key."""

    SEN = 0
    SPEC = 1


def compute_rater_weights(records: list[GradingRecord]) -> dict[int, float]:
    """Accuracy of each rater against the adjudicated final label, by rater id.

    Tallied over every (rater_id, label) pair in the records, adjudicator
    entries included. Weights are floored at WEIGHT_FLOOR so downstream
    weighted means stay well defined.
    """
    counts: dict[int, int] = {}
    matches: dict[int, int] = {}
    for rec in records:
        for rid, lab in rec.raw_labels:
            counts[rid] = counts.get(rid, 0) + 1
            matches[rid] = matches.get(rid, 0) + int(lab == rec.final_label)
    return {rid: max(matches[rid] / counts[rid], WEIGHT_FLOOR) for rid in sorted(counts)}


def soft_label(record: GradingRecord, weights: dict[int, float]) -> np.ndarray:
    """Weighted mean of raw ratings, clipped away from hard 0/1.

    Returns the two-class distribution (1 - y, y) with
    y = clip(sum(w_i * r_i) / sum(w_i), 0.01, 0.99).
    """
    num = 0.0
    den = 0.0
    for rid, lab in record.raw_labels:
        try:
            w = weights[rid]
        except KeyError:
            raise DataError(f"record {record.sample_id}: no weight for rater {rid}") from None
        num += w * lab
        den += w
    y = float(np.clip(num / den, SOFT_LABEL_MIN, SOFT_LABEL_MAX))
    return np.array([1.0 - y, y])


def positive_probability(record: GradingRecord, branch: Branch) -> float:
    """P(label = 1) of the branch's draw, in closed form.

    With p positive and q negative ratings, counting the favoured class twice
    gives SEN 2p ones among 2p + q ratings and SPEC p ones among p + 2q.
    """
    raw = record.raw_labels
    if not raw:
        raise ParameterError(f"record {record.sample_id} has no raw labels")
    p = sum(lab for _, lab in raw)
    q = len(raw) - p
    return 2 * p / (2 * p + q) if branch is Branch.SEN else p / (p + 2 * q)


def sample_branch_label(record: GradingRecord, branch: Branch, seed: int, epoch: int = 0) -> int:
    """The branch's label for one sample; deterministic per (seed, epoch, sample).

    The draw is 1 when a uniform keyed by (seed, epoch, branch, sample_id)
    falls below ``positive_probability``.
    """
    u = keyed_uniform(seed, STREAM_BRANCH_LABEL, epoch, branch.value, record.sample_id)
    return int(u < positive_probability(record, branch))


def attach_soft_labels(records: list[GradingRecord], weights: dict[int, float]) -> None:
    """Replace each record's placeholder soft label with the weighted one."""
    for rec in records:
        rec.soft_label = float(soft_label(rec, weights)[1])
