"""Synthetic multi-rater grading: feature generation, rater noise, two-stage adjudication.

Each class is an isotropic Gaussian cluster; class 1 sits at +g * u and
class 0 at -g * u along the diagonal u = ones / sqrt(d), so the class boundary
is the hyperplane x.u = 0 and the separation g shrinks as ``difficulty_mix``
grows. Each sample carries a scalar difficulty in [0, 1] that falls with its
margin |x.u| to the boundary; rater error rates scale up with that difficulty,
so disagreement concentrates on ambiguous samples. ``generate_dataset``
returns the samples as arrays (``Samples``), one row per sample.

Grading follows a two-stage protocol: two independent first-stage raters, and
an adjudicator who settles disagreements. The adjudicated label becomes the
ground truth used downstream.
"""

from __future__ import annotations

import csv
import math
import warnings
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations, product
from pathlib import Path
from typing import NamedTuple

import numpy as np

from .errors import DataError, EmptyDatasetError, ParameterError
from .rng import STREAM_GENERATE, STREAM_GRADE, STREAM_SPLIT, seeded_rng

# Cluster separation interpolates between these extremes as difficulty_mix goes 0 -> 1.
SEPARATION_EASY = 12.0
SEPARATION_HARD = 1.0
# difficulty = exp(-margin^2 / DIFFICULTY_SCALE), margin = x.u, the distance to the class boundary.
DIFFICULTY_SCALE = 4.0
# Rater error on a sample = base_error * (1 + ERROR_GAIN * difficulty), clipped to [0, 0.5].
DEFAULT_ERROR_GAIN = 2.0
# Soft labels are clipped away from hard 0/1.
SOFT_LABEL_MIN = 0.01
SOFT_LABEL_MAX = 0.99

# Defaults calibrated so that a default-sized run (6318 samples) lands near the
# reference consensus profile 34.4 / 36.6 / 12.4 / 16.6 percent for the
# categories (consensus positive, consensus negative, non-consensus positive,
# non-consensus negative). Measured over seeds 0, 1 and 42 the mean profile is
# 34.5 / 36.3 / 12.7 / 16.5 percent, with 28.4-29.8% of samples graded without
# consensus.
DEFAULT_N_SAMPLES = 6318
DEFAULT_FEATURE_DIM = 16
DEFAULT_CLASS_BALANCE = 0.455
DEFAULT_DIFFICULTY_MIX = 0.88
DEFAULT_SPLIT = (0.6, 0.15, 0.25)

CATEGORY_NAMES = (
    "consensus_positive",
    "consensus_negative",
    "non_consensus_positive",
    "non_consensus_negative",
)


@dataclass(frozen=True)
class RaterProfile:
    """A simulated grader: per-class correctness rates on easy samples."""

    rater_id: int
    sensitivity: float
    specificity: float

    def __post_init__(self):
        if not (0.0 <= self.sensitivity <= 1.0 and 0.0 <= self.specificity <= 1.0):
            raise ParameterError(
                f"rater {self.rater_id}: sensitivity/specificity must lie in [0, 1]"
            )


@dataclass(frozen=True)
class GradingPanel:
    """Two first-stage raters plus one adjudicator, with unique rater ids."""

    stage1: tuple[RaterProfile, RaterProfile]
    adjudicator: RaterProfile

    def __post_init__(self):
        if len(self.stage1) != 2:
            raise ParameterError("panel needs exactly two first-stage raters")
        ids = [r.rater_id for r in self.stage1] + [self.adjudicator.rater_id]
        if len(set(ids)) != 3:
            raise ParameterError(f"rater ids must be unique, got {ids}")


def default_panel() -> GradingPanel:
    """Calibrated default: two good-but-noisy raters and a stronger adjudicator."""
    return GradingPanel(
        stage1=(
            RaterProfile(rater_id=1, sensitivity=0.905, specificity=0.895),
            RaterProfile(rater_id=2, sensitivity=0.900, specificity=0.865),
        ),
        adjudicator=RaterProfile(rater_id=3, sensitivity=0.95, specificity=0.95),
    )


class Samples(NamedTuple):
    """Generated samples as parallel arrays, row i being sample i."""

    features: np.ndarray  # (n, d)
    true_labels: np.ndarray  # (n,) int
    difficulties: np.ndarray  # (n,) in [0, 1]


@dataclass
class GradingRecord:
    """Outcome of grading one sample through the two-stage protocol.

    ``soft_label`` starts as the equal-weight mean of the raw labels and is
    replaced with an accuracy-weighted value once rater weights are known
    (see :mod:`multirater.labels`).
    """

    sample_id: int
    stage1_labels: tuple[tuple[int, int], tuple[int, int]]
    adjudicator_label: tuple[int, int] | None
    consensus: int
    final_label: int
    soft_label: float

    @property
    def raw_labels(self) -> list[tuple[int, int]]:
        """All (rater_id, label) pairs, adjudicator entry last when present."""
        raw = list(self.stage1_labels)
        if self.adjudicator_label is not None:
            raw.append(self.adjudicator_label)
        return raw


@dataclass
class GradedDataset:
    """Feature matrix plus per-sample grading records (parallel order)."""

    features: np.ndarray
    true_labels: np.ndarray
    records: list[GradingRecord]
    difficulties: np.ndarray | None = None

    def __len__(self) -> int:
        return len(self.records)

    @property
    def final_labels(self) -> np.ndarray:
        return np.array([r.final_label for r in self.records], dtype=int)

    @property
    def consensus_flags(self) -> np.ndarray:
        return np.array([r.consensus for r in self.records], dtype=int)

    def subset(self, indices) -> "GradedDataset":
        idx = np.asarray(indices, dtype=int)
        return GradedDataset(
            features=self.features[idx],
            true_labels=self.true_labels[idx],
            records=[self.records[i] for i in idx],
            difficulties=None if self.difficulties is None else self.difficulties[idx],
        )


def boundary_margins(features: np.ndarray) -> np.ndarray:
    """Signed distance x.u to the class boundary x.u = 0; positive on the class-1 side.

    u = ones / sqrt(d) is the diagonal signal direction of ``generate_dataset``.
    """
    features = np.atleast_2d(np.asarray(features, dtype=float))
    return features @ (np.ones(features.shape[1]) / np.sqrt(features.shape[1]))


def generate_dataset(
    n_samples: int,
    feature_dim: int = DEFAULT_FEATURE_DIM,
    class_balance: float = DEFAULT_CLASS_BALANCE,
    difficulty_mix: float = DEFAULT_DIFFICULTY_MIX,
    seed: int = 0,
) -> Samples:
    """Draw two isotropic Gaussian classes on either side of a linear boundary.

    Class 1 samples center on +g * u and class 0 samples on -g * u, with
    u = ones / sqrt(feature_dim) and an amplitude g that shrinks from
    SEPARATION_EASY to SEPARATION_HARD as ``difficulty_mix`` goes 0 -> 1.
    Difficulty is exp(-m^2 / DIFFICULTY_SCALE) of the ``boundary_margins`` m,
    so it falls as |x.u| grows. ``difficulty_mix`` = 0 yields well-separated
    classes with difficulty ~ 0 everywhere.
    """
    if n_samples < 1:
        raise ParameterError(f"n_samples must be >= 1, got {n_samples}")
    if feature_dim < 2:
        raise ParameterError(f"feature_dim must be >= 2, got {feature_dim}")
    if not (0.0 < class_balance < 1.0):
        raise ParameterError(f"class_balance must lie strictly in (0, 1), got {class_balance}")
    if not (0.0 <= difficulty_mix <= 1.0):
        raise ParameterError(f"difficulty_mix must lie in [0, 1], got {difficulty_mix}")

    rng = seeded_rng(seed, STREAM_GENERATE)
    labels = (rng.random(n_samples) < class_balance).astype(int)
    amplitude = SEPARATION_EASY * (1.0 - difficulty_mix) + SEPARATION_HARD * difficulty_mix
    u = np.ones(feature_dim) / np.sqrt(feature_dim)
    signs = 2.0 * labels - 1.0
    features = rng.standard_normal((n_samples, feature_dim)) + amplitude * signs[:, None] * u
    margins = boundary_margins(features)
    difficulties = np.exp(-(margins**2) / DIFFICULTY_SCALE)
    return Samples(features, labels, difficulties)


def _error_prob(rater: RaterProfile, true_label: int, difficulty: float, error_gain: float) -> float:
    base = (1.0 - rater.sensitivity) if true_label == 1 else (1.0 - rater.specificity)
    return float(np.clip(base * (1.0 + error_gain * difficulty), 0.0, 0.5))


def grade_sample(
    true_label: int,
    difficulty: float,
    panel: GradingPanel,
    seed: int,
    sample_id: int = 0,
    error_gain: float = DEFAULT_ERROR_GAIN,
) -> GradingRecord:
    """Grade one sample of the given true label and difficulty: two independent
    ratings, adjudication on disagreement.

    Each rater reports the true label with probability 1 - error, where the
    error rate is the rater's base rate for that class inflated by sample
    difficulty. Deterministic given (seed, sample_id).
    """
    if not isinstance(panel, GradingPanel):
        raise ParameterError("panel must be a GradingPanel")
    rng = seeded_rng(seed, STREAM_GRADE, sample_id)
    stage1 = []
    for rater in panel.stage1:
        err = _error_prob(rater, true_label, difficulty, error_gain)
        label = true_label if rng.random() >= err else 1 - true_label
        stage1.append((rater.rater_id, int(label)))
    consensus = int(stage1[0][1] == stage1[1][1])
    if consensus:
        adjudicator_label = None
        final = stage1[0][1]
    else:
        err = _error_prob(panel.adjudicator, true_label, difficulty, error_gain)
        label = true_label if rng.random() >= err else 1 - true_label
        adjudicator_label = (panel.adjudicator.rater_id, int(label))
        final = int(label)
    raw = [lab for _, lab in stage1] + ([adjudicator_label[1]] if adjudicator_label else [])
    soft = float(np.clip(np.mean(raw), SOFT_LABEL_MIN, SOFT_LABEL_MAX))
    return GradingRecord(
        sample_id=sample_id,
        stage1_labels=(stage1[0], stage1[1]),
        adjudicator_label=adjudicator_label,
        consensus=consensus,
        final_label=final,
        soft_label=soft,
    )


def grade_dataset(
    samples: Samples,
    panel: GradingPanel,
    seed: int,
    error_gain: float = DEFAULT_ERROR_GAIN,
) -> GradedDataset:
    """Grade every sample; sample ids are assigned by position."""
    records = [
        grade_sample(true_label, difficulty, panel, seed, sample_id=i, error_gain=error_gain)
        for i, (true_label, difficulty) in enumerate(
            zip(samples.true_labels.tolist(), samples.difficulties.tolist())
        )
    ]
    return GradedDataset(samples.features, samples.true_labels, records, samples.difficulties)


def category_counts(records: list[GradingRecord]) -> dict[str, int]:
    """Counts per (consensus, final label) category; keys in CATEGORY_NAMES order."""
    counts = dict.fromkeys(CATEGORY_NAMES, 0)
    for r in records:
        if r.consensus and r.final_label == 1:
            counts["consensus_positive"] += 1
        elif r.consensus:
            counts["consensus_negative"] += 1
        elif r.final_label == 1:
            counts["non_consensus_positive"] += 1
        else:
            counts["non_consensus_negative"] += 1
    return counts


def _largest_remainder(shares: list[Fraction]) -> list[int]:
    """Round ``shares``, whose sum is an integer, keeping that sum.

    Every share gets its floor; the units left over go to the largest
    remainders, ties resolved toward the earlier entry.
    """
    counts = [math.floor(s) for s in shares]
    leftover = int(sum(shares)) - sum(counts)
    for j in sorted(range(len(shares)), key=lambda j: counts[j] - shares[j])[:leftover]:
        counts[j] += 1
    return counts


def _controlled_rounding(sizes: list[int], ratios: list[Fraction]) -> list[list[int]]:
    """Round the shares ratio_j * size_k of a strata x splits table (controlled rounding).

    Each cell becomes the floor or the ceiling of its share, each stratum row
    sums to its size and each split column sums to the largest-remainder
    rounding of ratio_j * n. Among such roundings the one with the least total
    |count - share| is returned, the first in enumeration order on ties.
    ``ratios`` are exact and sum to 1.

    One always exists for three splits. Once every cell has its floor,
    stratum k still hands out a_k = sum_j frac_kj units and split j still
    takes b_j, which is floor(beta_j) or ceil(beta_j) with
    beta_j = sum_k frac_kj; a cell takes at most one unit, and only if its
    share is fractional. By max-flow/min-cut such a 0/1 assignment exists iff
    sum_{j in J} b_j <= sum_k min(a_k, n_k(J)) for every set J of splits,
    n_k(J) counting the fractional cells of stratum k in J. J = {j}: the
    right side is the number c_j of strata fractional at j (each has
    a_k >= 1); beta_j < c_j, or beta_j = 0 when c_j = 0, so
    b_j <= ceil(beta_j) <= c_j. J = the two splits other than j:
    frac_kj >= max(0, a_k - n_k(J)), so b_j >= floor(beta_j) >=
    sum_k max(0, a_k - n_k(J)), which is the condition rearranged. J empty
    or all three splits: equality.
    """
    shares = [[q * size for q in ratios] for size in sizes]
    floors = [[math.floor(e) for e in row] for row in shares]
    splits = range(len(ratios))
    totals = _largest_remainder([q * sum(sizes) for q in ratios])
    need = [totals[j] - sum(row[j] for row in floors) for j in splits]
    options = [
        combinations([j for j in splits if row[j] != low[j]], size - sum(low))
        for row, low, size in zip(shares, floors, sizes)
    ]
    best = max(
        (choice for choice in product(*options)
         if [sum(j in ups for ups in choice) for j in splits] == need),
        key=lambda choice: sum(shares[k][j] - floors[k][j] for k, ups in enumerate(choice) for j in ups),
    )
    return [[low[j] + (j in ups) for j in splits] for low, ups in zip(floors, best)]


def split_dataset(
    dataset: GradedDataset,
    ratios: tuple[float, float, float],
    seed: int,
) -> tuple[GradedDataset, GradedDataset, GradedDataset]:
    """Stratified train/val/test split.

    The split sizes are the largest-remainder rounding of ratio * n (ties
    resolved toward the earlier split), so they sum to n exactly. Strata are
    the four (final_label, consensus) cells; each stratum's count in each
    split is the floor or the ceiling of ratio * stratum size, so within one
    sample of its share (see ``_controlled_rounding``). Each stratum is
    shuffled by a permutation seeded with ``seed`` before it is cut.
    """
    ratios = tuple(float(r) for r in ratios)
    if len(ratios) != 3 or any(r < 0 for r in ratios):
        raise ParameterError(f"ratios must be three non-negative numbers, got {ratios}")
    if abs(sum(ratios) - 1.0) > 1e-9:
        raise ParameterError(f"ratios must sum to 1, got sum={sum(ratios)!r}")

    finals = dataset.final_labels
    flags = dataset.consensus_flags
    rng = seeded_rng(seed, STREAM_SPLIT)
    strata = []
    for lab in (0, 1):
        for cons in (0, 1):
            idx = np.flatnonzero((finals == lab) & (flags == cons))
            if idx.size == 0:
                warnings.warn(f"empty stratum (final_label={lab}, consensus={cons})", stacklevel=2)
            strata.append(rng.permutation(idx))
    # exact arithmetic keeps every row and column identity of the rounding exact
    exact = [Fraction(r) for r in ratios]
    cells = _controlled_rounding([idx.size for idx in strata], [r / sum(exact) for r in exact])
    parts = zip(*(np.split(idx, np.cumsum(counts)[:-1]) for idx, counts in zip(strata, cells)))
    return tuple(dataset.subset(np.sort(np.concatenate(p))) for p in parts)


# ---------------------------------------------------------------------------
# CSV round trip
#
# Column layout (fixed contract):
#   sample_id,f_0..f_{d-1},true_label,rater_labels,adjudicator_label,consensus,final_label,soft_label
# rater_labels holds the first-stage gradings as semicolon-joined rater_id:label
# pairs; adjudicator_label is a single rater_id:label pair, empty on consensus.
# Floats are written with repr() so values round-trip exactly.
# ---------------------------------------------------------------------------


def _csv_header(feature_dim: int) -> list[str]:
    return (
        ["sample_id"]
        + [f"f_{j}" for j in range(feature_dim)]
        + ["true_label", "rater_labels", "adjudicator_label", "consensus", "final_label", "soft_label"]
    )


def write_dataset_csv(dataset: GradedDataset, path) -> None:
    n, d = dataset.features.shape
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(_csv_header(d))
        for i in range(n):
            rec = dataset.records[i]
            rater_labels = ";".join(f"{rid}:{lab}" for rid, lab in rec.stage1_labels)
            adj = "" if rec.adjudicator_label is None else "{}:{}".format(*rec.adjudicator_label)
            writer.writerow(
                [rec.sample_id]
                + [repr(float(x)) for x in dataset.features[i]]
                + [int(dataset.true_labels[i]), rater_labels, adj, rec.consensus, rec.final_label, repr(rec.soft_label)]
            )


def _protocol_violation(rec: GradingRecord, true_label: int) -> str | None:
    """Why a parsed CSV row breaks the grading protocol, or None when it does not."""
    (_, l1), (_, l2) = rec.stage1_labels
    adjudicated = rec.adjudicator_label is not None
    if not {true_label, l1, l2, rec.consensus, rec.final_label} <= {0, 1} or (
        adjudicated and rec.adjudicator_label[1] not in (0, 1)
    ):
        return "label outside {0, 1}"
    if rec.consensus != (l1 == l2):
        return "consensus flag disagrees with the stage-1 ratings"
    if rec.consensus and (adjudicated or rec.final_label != l1):
        return "consensus sample must have no adjudicator and the agreed final label"
    if not rec.consensus and (not adjudicated or rec.final_label != rec.adjudicator_label[1]):
        return "disagreement sample must have the adjudicator's final label"
    if not SOFT_LABEL_MIN <= rec.soft_label <= SOFT_LABEL_MAX:
        return f"soft_label {rec.soft_label!r} outside [{SOFT_LABEL_MIN}, {SOFT_LABEL_MAX}]"
    return None


def read_dataset_csv(path) -> GradedDataset:
    """Read a dataset written by write_dataset_csv, validating every row.

    Raises EmptyDatasetError for a file without samples and DataError naming
    ``path:line`` for a malformed row.
    """
    path = Path(path)
    features, trues, records = [], [], []
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None:
            raise EmptyDatasetError(f"{path}: empty dataset file")
        d = len(header) - 7
        if d < 1 or header != _csv_header(d):
            raise DataError(f"{path}: unexpected CSV header")
        for row in reader:
            if len(row) != len(header):
                raise DataError(f"{path}:{reader.line_num}: expected {len(header)} columns, got {len(row)}")
            try:
                feats = np.array([float(x) for x in row[1 : 1 + d]])
                true_label = int(row[1 + d])
                (r1, l1), (r2, l2) = (pair.split(":") for pair in row[2 + d].split(";"))
                adjudicator = None
                if row[3 + d]:
                    rid, lab = row[3 + d].split(":")
                    adjudicator = (int(rid), int(lab))
                record = GradingRecord(
                    sample_id=int(row[0]),
                    stage1_labels=((int(r1), int(l1)), (int(r2), int(l2))),
                    adjudicator_label=adjudicator,
                    consensus=int(row[4 + d]),
                    final_label=int(row[5 + d]),
                    soft_label=float(row[6 + d]),
                )
            except ValueError as exc:
                raise DataError(f"{path}:{reader.line_num}: {exc}") from exc
            problem = _protocol_violation(record, true_label)
            if problem is not None:
                raise DataError(f"{path}:{reader.line_num}: {problem}")
            records.append(record)
            features.append(feats)
            trues.append(true_label)
    if not records:
        raise EmptyDatasetError(f"{path}: dataset has a header but no rows")
    matrix = np.stack(features)
    finite = np.isfinite(matrix).all(axis=1)
    if not finite.all():
        # Rows never span lines, so row i sits on line i + 2.
        raise DataError(f"{path}:{int(finite.argmin()) + 2}: non-finite feature")
    return GradedDataset(features=matrix, true_labels=np.array(trues, dtype=int), records=records)
