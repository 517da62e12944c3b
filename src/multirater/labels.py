"""Per-branch training labels.

Three label views are derived from the ratings matrix of a ``GradedDataset``
(one row per sample, -1 where no adjudicator rated):

* a sensitivity-branch label, drawn as if uniformly from the raw ratings with
  every positive rating counted twice,
* a specificity-branch label, drawn the same way with every negative rating
  counted twice,
* a clipped soft label for the fusion branch: the rater-accuracy-weighted
  mean of all raw ratings, with the weights a plain {rater_id: accuracy} dict.

Rater weights, soft labels and branch probabilities are computed a whole
column at a time, once per fit. A uniform draw from the ratings with the
favoured class counted twice has a closed form: with p positive and q
negative ratings, P(sen = 1) = 2p / (2p + q) and P(spec = 1) = p / (p + 2q);
``positive_probabilities`` gives both for every row. Branch labels are redrawn
every epoch, one sample per ``sample_branch_label`` call, which compares the
sample's probability with ``rng.keyed_uniform`` keyed by (seed, epoch,
branch, sample_id). A label is therefore a pure function of those four
integers and the ratings, and no numpy Generator is built.
"""

from __future__ import annotations

import enum

import numpy as np

from .errors import DataError
from .rng import STREAM_BRANCH_LABEL, keyed_uniform
from .simulate import SOFT_LABEL_MAX, SOFT_LABEL_MIN, GradedDataset

WEIGHT_FLOOR = 1e-6


class Branch(enum.IntEnum):
    """A label-drawing branch; as an int it is the branch's part of the draw key."""

    SEN = 0
    SPEC = 1


def compute_rater_weights(dataset: GradedDataset) -> dict[int, float]:
    """Accuracy of each rater against the adjudicated final label, by rater id.

    Tallied over every rating in the dataset, adjudicator ratings included.
    The adjudicator's weight is exactly 1.0 by construction: its rating is
    the final label wherever it rates. Weights are floored at WEIGHT_FLOOR
    so downstream weighted means stay well defined.
    """
    rated = dataset.ratings >= 0
    ids, slot = np.unique(dataset.rater_ids[rated], return_inverse=True)
    matches = (dataset.ratings == dataset.final_labels[:, None])[rated]
    counts = np.bincount(slot, minlength=ids.size)
    hits = np.bincount(slot, weights=matches, minlength=ids.size)
    return {rid: max(float(h / c), WEIGHT_FLOOR) for rid, h, c in zip(ids.tolist(), hits, counts)}


def soft_label(dataset: GradedDataset, weights: dict[int, float]) -> np.ndarray:
    """Per sample, the weighted mean of the raw ratings, clipped away from hard 0/1.

    y = clip(sum(w_i * r_i) / sum(w_i), 0.01, 0.99) over the rated slots of
    each row, summed in slot order.
    """
    rated = dataset.ratings >= 0
    ids, slot = np.unique(dataset.rater_ids[rated], return_inverse=True)
    w = np.zeros(rated.shape)
    w[rated] = np.array([weights.get(rid, np.nan) for rid in ids.tolist()])[slot]
    if np.isnan(w).any():
        row, col = np.argwhere(np.isnan(w))[0]
        raise DataError(
            f"sample {dataset.sample_ids[row]}: no weight for rater {dataset.rater_ids[row, col]}"
        )
    num = w * np.where(rated, dataset.ratings, 0)
    return np.clip((num[:, 0] + num[:, 1] + num[:, 2]) / (w[:, 0] + w[:, 1] + w[:, 2]),
                   SOFT_LABEL_MIN, SOFT_LABEL_MAX)


def positive_probabilities(ratings: np.ndarray) -> np.ndarray:
    """(2, n) P(label = 1) of each branch's draw, row ``Branch.SEN`` then ``Branch.SPEC``.

    For each row of an (n, 3) ratings matrix with p positive and q negative
    ratings (-1 entries count as neither), counting the favoured class twice
    gives SEN 2p ones among 2p + q ratings and SPEC p ones among p + 2q.
    """
    p = (ratings == 1).sum(axis=1)
    q = (ratings == 0).sum(axis=1)
    return np.stack([2 * p / (2 * p + q), p / (p + 2 * q)])


def sample_branch_label(prob: float, sample_id: int, branch: Branch, seed: int, epoch: int = 0) -> int:
    """The branch's label for one sample; deterministic per (seed, epoch, branch, sample).

    ``prob`` is the sample's entry in the ``branch`` row of ``positive_probabilities``.
    The draw is 1 when a uniform keyed by (seed, epoch, branch, sample_id)
    falls below it.
    """
    return 1 if keyed_uniform(seed, STREAM_BRANCH_LABEL, epoch, branch, sample_id) < prob else 0


def attach_soft_labels(dataset: GradedDataset, weights: dict[int, float]) -> None:
    """Replace the dataset's placeholder soft labels with the weighted ones."""
    dataset.soft_labels = soft_label(dataset, weights)
