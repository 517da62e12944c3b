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
ground truth used downstream. Each rating is one ``rng.keyed_uniform`` draw
keyed by (seed, STREAM_GRADE, rater slot, sample_id), so a sample's grading
depends on its key alone. ``grade_dataset`` returns the gradings as arrays
(``GradedDataset``), with ``GradingRecord`` as their per-sample row view.
"""

from __future__ import annotations

import csv
import math
import warnings
from dataclasses import dataclass, replace
from fractions import Fraction
from itertools import combinations, product
from pathlib import Path
from typing import NamedTuple

import numpy as np

from .errors import DataError, EmptyDatasetError, ParameterError
from .rng import STREAM_GENERATE, STREAM_GRADE, STREAM_SPLIT, keyed_uniform, seeded_rng

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
# 34.46 / 36.21 / 12.68 / 16.66 percent, with 29.0-29.6% of samples graded
# without consensus.
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


class GradingRecord(NamedTuple):
    """One sample's grading: a row view of a ``GradedDataset``, as the CSV writes it."""

    sample_id: int
    stage1_labels: tuple[tuple[int, int], tuple[int, int]]
    adjudicator_label: tuple[int, int] | None
    consensus: int
    final_label: int
    soft_label: float


@dataclass
class GradedDataset:
    """Samples and their gradings as parallel arrays, row i being sample i.

    ``ratings`` holds each sample's two first-stage ratings and then the
    adjudicator's, -1 where no adjudicator rated; ``rater_ids`` names the
    rater of each slot, -1 likewise. Consensus flags and final labels are
    derived from the ratings. ``soft_labels`` starts as the equal-weight mean
    of the ratings; ``labels.attach_soft_labels`` replaces it.
    """

    features: np.ndarray  # (n, d)
    true_labels: np.ndarray  # (n,) int
    sample_ids: np.ndarray  # (n,) int64
    rater_ids: np.ndarray  # (n, 3) int64
    ratings: np.ndarray  # (n, 3) int8
    soft_labels: np.ndarray  # (n,) in [SOFT_LABEL_MIN, SOFT_LABEL_MAX]
    difficulties: np.ndarray | None = None

    def __len__(self) -> int:
        return len(self.sample_ids)

    @property
    def consensus_flags(self) -> np.ndarray:
        return (self.ratings[:, 0] == self.ratings[:, 1]).astype(int)

    @property
    def final_labels(self) -> np.ndarray:
        """The agreed first-stage label, or the adjudicator's where one rated."""
        return np.where(self.ratings[:, 2] >= 0, self.ratings[:, 2], self.ratings[:, 0]).astype(int)

    @property
    def records(self) -> list[GradingRecord]:
        """The gradings as one ``GradingRecord`` per sample, built on each access."""
        return [
            GradingRecord(sid, ((r1, l1), (r2, l2)), None if l3 < 0 else (r3, l3), agreed, final, soft)
            for sid, (r1, r2, r3), (l1, l2, l3), agreed, final, soft in zip(
                self.sample_ids.tolist(), self.rater_ids.tolist(), self.ratings.tolist(),
                self.consensus_flags.tolist(), self.final_labels.tolist(), self.soft_labels.tolist())
        ]

    def subset(self, indices) -> "GradedDataset":
        idx = np.asarray(indices, dtype=int)
        return replace(self, **{name: a[idx] for name, a in vars(self).items() if a is not None})


def check_generation(n_samples: int, feature_dim: int, class_balance: float, difficulty_mix: float) -> None:
    """ParameterError naming the first of ``generate_dataset``'s settings that is out of range."""
    if n_samples < 1:
        raise ParameterError(f"n_samples must be >= 1, got {n_samples}")
    if feature_dim < 2:
        raise ParameterError(f"feature_dim must be >= 2, got {feature_dim}")
    if not (0.0 < class_balance < 1.0):
        raise ParameterError(f"class_balance must lie strictly in (0, 1), got {class_balance}")
    if not (0.0 <= difficulty_mix <= 1.0):
        raise ParameterError(f"difficulty_mix must lie in [0, 1], got {difficulty_mix}")


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
    Difficulty is exp(-m^2 / DIFFICULTY_SCALE) of the signed margin m = x.u
    to the boundary, so it falls as |x.u| grows. ``difficulty_mix`` = 0 yields
    well-separated classes with difficulty ~ 0 everywhere.
    """
    check_generation(n_samples, feature_dim, class_balance, difficulty_mix)
    rng = seeded_rng(seed, STREAM_GENERATE)
    labels = (rng.random(n_samples) < class_balance).astype(int)
    amplitude = SEPARATION_EASY * (1.0 - difficulty_mix) + SEPARATION_HARD * difficulty_mix
    u = np.ones(feature_dim) / np.sqrt(feature_dim)
    signs = 2.0 * labels - 1.0
    features = rng.standard_normal((n_samples, feature_dim)) + amplitude * signs[:, None] * u
    difficulties = np.exp(-((features @ u) ** 2) / DIFFICULTY_SCALE)
    return Samples(features, labels, difficulties)


def _error_prob(rater: RaterProfile, true_label: int, difficulty: float, error_gain: float) -> float:
    base = (1.0 - rater.sensitivity) if true_label == 1 else (1.0 - rater.specificity)
    return min(max(base * (1.0 + error_gain * difficulty), 0.0), 0.5)


def grade_sample(
    true_label: int,
    difficulty: float,
    panel: GradingPanel,
    seed: int,
    sample_id: int = 0,
    error_gain: float = DEFAULT_ERROR_GAIN,
) -> tuple[int, int, int]:
    """Grade one sample of the given true label and difficulty: two independent
    ratings, adjudication on disagreement.

    Returns the ratings row (stage-1 rater 1, stage-1 rater 2, adjudicator),
    the adjudicator's entry -1 when the first two agree. Each rater reports
    the true label with probability 1 - error, where the error rate is the
    rater's base rate for that class inflated by sample difficulty.

    Rater slot k (0 and 1 for the first stage, 2 for the adjudicator) reports
    the true label iff ``keyed_uniform(seed, STREAM_GRADE, k, sample_id)`` is
    at least its error rate, so the row is a pure function of its arguments:
    no generator state, and no dependence on which samples were graded before.
    """
    if not isinstance(panel, GradingPanel):
        raise ParameterError("panel must be a GradingPanel")

    def rate(slot: int, rater: RaterProfile) -> int:
        err = _error_prob(rater, true_label, difficulty, error_gain)
        correct = keyed_uniform(seed, STREAM_GRADE, slot, sample_id) >= err
        return int(true_label if correct else 1 - true_label)

    l1, l2 = rate(0, panel.stage1[0]), rate(1, panel.stage1[1])
    return l1, l2, -1 if l1 == l2 else rate(2, panel.adjudicator)


def grade_dataset(
    samples: Samples,
    panel: GradingPanel,
    seed: int,
    error_gain: float = DEFAULT_ERROR_GAIN,
) -> GradedDataset:
    """Grade every sample; sample ids are assigned by position."""
    if not math.isfinite(error_gain):
        raise ParameterError(f"error_gain must be a finite number, got {error_gain!r}")
    ratings = np.array(
        [
            grade_sample(true_label, difficulty, panel, seed, sample_id=i, error_gain=error_gain)
            for i, (true_label, difficulty) in enumerate(
                zip(samples.true_labels.tolist(), samples.difficulties.tolist())
            )
        ],
        dtype=np.int8,
    )
    rated = ratings >= 0
    panel_ids = [rater.rater_id for rater in (*panel.stage1, panel.adjudicator)]
    return GradedDataset(
        features=samples.features,
        true_labels=samples.true_labels,
        sample_ids=np.arange(len(ratings), dtype=np.int64),
        rater_ids=np.where(rated, np.array(panel_ids, dtype=np.int64), -1),
        ratings=ratings,
        soft_labels=np.clip((ratings == 1).sum(axis=1) / rated.sum(axis=1), SOFT_LABEL_MIN, SOFT_LABEL_MAX),
        difficulties=samples.difficulties,
    )


def category_counts(dataset: GradedDataset) -> dict[str, int]:
    """Counts per (consensus, final label) category; keys in CATEGORY_NAMES order."""
    codes = 2 * (1 - dataset.consensus_flags) + (1 - dataset.final_labels)
    return dict(zip(CATEGORY_NAMES, np.bincount(codes, minlength=len(CATEGORY_NAMES)).tolist()))


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
    if len(ratios) != 3 or not all(r >= 0 for r in ratios):
        raise ParameterError(f"ratios must be three non-negative numbers, got {ratios}")
    if not abs(sum(ratios) - 1.0) <= 1e-9:
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
# One row per GradingRecord. rater_labels holds the first-stage gradings as
# semicolon-joined rater_id:label pairs; adjudicator_label is a single
# rater_id:label pair, empty on consensus. Sample and rater ids must fit
# int64. Floats are written with repr() so values round-trip exactly.
# ---------------------------------------------------------------------------


def _csv_header(feature_dim: int) -> list[str]:
    return (
        ["sample_id"]
        + [f"f_{j}" for j in range(feature_dim)]
        + ["true_label", "rater_labels", "adjudicator_label", "consensus", "final_label", "soft_label"]
    )


def write_dataset_csv(dataset: GradedDataset, path) -> None:
    """Write one row per sample, built column by column from the dataset's arrays.

    ``csv`` writes a Python float as its ``repr``, so values round-trip exactly.
    """
    r1, r2, r3 = dataset.rater_ids.T.tolist()
    l1, l2, l3 = dataset.ratings.T.tolist()
    columns = [
        dataset.sample_ids.tolist(),
        *dataset.features.T.tolist(),
        dataset.true_labels.tolist(),
        [f"{a}:{x};{b}:{y}" for a, x, b, y in zip(r1, l1, r2, l2)],
        ["" if lab < 0 else f"{rid}:{lab}" for rid, lab in zip(r3, l3)],
        dataset.consensus_flags.tolist(),
        dataset.final_labels.tolist(),
        dataset.soft_labels.tolist(),
    ]
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(_csv_header(dataset.features.shape[1]))
        writer.writerows(zip(*columns))


def _protocol_violation(labels: list[int], raters: list[int], adjudicated: bool, soft_label: float) -> str | None:
    """Why a parsed CSV row breaks the grading protocol, or None when it does not.

    ``labels`` is (true_label, l1, l2, adjudicator label, consensus, final_label)
    and ``raters`` the ids (r1, r2, adjudicator).
    """
    true_label, l1, l2, l3, consensus, final_label = labels
    r1, r2, r3 = raters
    if r1 == r2 or (adjudicated and r3 in (r1, r2)):
        return "a rater id repeats: the stage-1 raters and the adjudicator must all differ"
    if not {true_label, l1, l2, consensus, final_label} <= {0, 1} or (adjudicated and l3 not in (0, 1)):
        return "label outside {0, 1}"
    if consensus != (l1 == l2):
        return "consensus flag disagrees with the stage-1 ratings"
    if consensus and (adjudicated or final_label != l1):
        return "consensus sample must have no adjudicator and the agreed final label"
    if not consensus and (not adjudicated or final_label != l3):
        return "disagreement sample must have the adjudicator's final label"
    if not SOFT_LABEL_MIN <= soft_label <= SOFT_LABEL_MAX:
        return f"soft_label {soft_label!r} outside [{SOFT_LABEL_MIN}, {SOFT_LABEL_MAX}]"
    return None


def _id(text) -> int:
    """A sample or rater id; ValueError unless it fits int64."""
    value = int(text)
    if not -(2**63) <= value < 2**63:
        raise ValueError(f"id {text} does not fit in int64")
    return value


def read_dataset_csv(path) -> GradedDataset:
    """Read a dataset written by write_dataset_csv, validating every row.

    Raises EmptyDatasetError for a file without samples and DataError naming
    ``path:line`` for a malformed row or a repeated sample_id.
    """
    path = Path(path)
    features, rows, seen = [], [], set()
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
                (r1, l1), (r2, l2) = (pair.split(":") for pair in row[2 + d].split(";"))
                r3, l3 = row[3 + d].split(":") if row[3 + d] else (-1, -1)
                ids = [_id(x) for x in (row[0], r1, r2, r3)]
                labels = [int(x) for x in (row[1 + d], l1, l2, l3, row[4 + d], row[5 + d])]
                soft = float(row[6 + d])
            except ValueError as exc:
                raise DataError(f"{path}:{reader.line_num}: {exc}") from exc
            problem = _protocol_violation(labels, ids[1:], bool(row[3 + d]), soft)
            if problem is not None:
                raise DataError(f"{path}:{reader.line_num}: {problem}")
            if ids[0] in seen:  # branch-label draws are keyed by sample_id
                raise DataError(f"{path}:{reader.line_num}: duplicate sample_id {ids[0]}")
            seen.add(ids[0])
            features.append(feats)
            rows.append((ids, labels, soft, reader.line_num))
    if not rows:
        raise EmptyDatasetError(f"{path}: dataset has a header but no rows")
    matrix = np.stack(features)
    ids, labels, softs, line_nums = (np.array(column) for column in zip(*rows))
    finite = np.isfinite(matrix).all(axis=1)
    if not finite.all():  # a quoted field may span lines, so each row keeps its own line number
        raise DataError(f"{path}:{line_nums[finite.argmin()]}: non-finite feature")
    return GradedDataset(
        features=matrix,
        true_labels=labels[:, 0],
        sample_ids=ids[:, 0],
        rater_ids=ids[:, 1:],
        ratings=labels[:, 1:4].astype(np.int8),
        soft_labels=softs,
    )
