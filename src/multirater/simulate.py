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


def split_sizes(n: int, ratios) -> list[int]:
    """Each split's size: the largest-remainder rounding of ratio * n, the ratios taken exactly."""
    exact = [Fraction(r) for r in ratios]
    return _largest_remainder([r / sum(exact) * n for r in exact])


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
    totals = split_sizes(sum(sizes), ratios)
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

    The split sizes are ``split_sizes(n, ratios)``, the largest-remainder
    rounding of ratio * n (ties resolved toward the earlier split), so they
    sum to n exactly. Strata are the four (final_label, consensus) cells;
    each stratum's count in each split is the floor or the ceiling of
    ratio * stratum size, so within one sample of its share (see
    ``_controlled_rounding``). Each stratum is shuffled by a permutation
    seeded with ``seed`` before it is cut.
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
# rater_id:label pair, empty on consensus. Sample and rater ids are int64.
# The writer ends each line with \r\n and writes floats with repr(), so values
# round-trip exactly; no field it writes needs quoting.
#
# _read_records states what the reader takes. Records are csv.reader's: \r\n,
# \n or \r line ends, and fields quoted with ", which may then span lines.
# There are no comments (# is an ordinary character) and no blank lines, and
# every byte is printable ASCII, a tab or a line end. Numbers parse with int()
# and float(), and no field holds the _ separators they skip, the rater fields
# included. The rater fields hold id:label pairs of int64 ids, at most 45 and
# 22 characters. _read_plain reads the files the writer writes faster, and it
# may only accept: it returns what _read_records would, or nothing.
# ---------------------------------------------------------------------------

# Rows formatted and written per write call.
CSV_CHUNK_ROWS = 2048
# The longest valid rater fields, two and one "-9223372036854775808:0" pairs.
_STAGE1_WIDTH = 45
_ADJUDICATOR_WIDTH = 22
# The bytes a dataset file may hold; a plain file (see _plain) holds no quote
# and no empty line either.
_CSV_BYTES = bytes(range(0x20, 0x7F)) + b"\t\n\v\f\r"
_PLAIN_BYTES = _CSV_BYTES.replace(b'"', b"")


def _csv_header(feature_dim: int) -> list[str]:
    return (
        ["sample_id"]
        + [f"f_{j}" for j in range(feature_dim)]
        + ["true_label", "rater_labels", "adjudicator_label", "consensus", "final_label", "soft_label"]
    )


def write_dataset_csv(dataset: GradedDataset, path) -> None:
    """Write the header and one row per sample, ``CSV_CHUNK_ROWS`` rows per write.

    Each chunk is formatted column by column from ``.tolist()`` values: ints
    with ``str``, floats with ``repr`` so they round-trip exactly, and the
    rater fields as ``id:label`` pairs. Fields are joined with "," and lines
    end with "\\r\\n", the bytes Python's ``csv.writer`` writes for these fields.
    """
    consensus, final = dataset.consensus_flags, dataset.final_labels
    with open(path, "w", newline="") as fh:
        fh.write(",".join(_csv_header(dataset.features.shape[1])) + "\r\n")
        for start in range(0, len(dataset), CSV_CHUNK_ROWS):
            rows = slice(start, start + CSV_CHUNK_ROWS)
            r1, r2, r3 = dataset.rater_ids[rows].T.tolist()
            l1, l2, l3 = dataset.ratings[rows].T.tolist()
            columns = [
                map(str, dataset.sample_ids[rows].tolist()),
                *(map(repr, column) for column in dataset.features[rows].T.tolist()),
                map(str, dataset.true_labels[rows].tolist()),
                (f"{a}:{x};{b}:{y}" for a, x, b, y in zip(r1, l1, r2, l2)),
                ("" if lab < 0 else f"{rid}:{lab}" for rid, lab in zip(r3, l3)),
                map(str, consensus[rows].tolist()),
                map(str, final[rows].tolist()),
                map(repr, dataset.soft_labels[rows].tolist()),
            ]
            fh.write("\r\n".join(map(",".join, zip(*columns))) + "\r\n")


def _id(text) -> int:
    """A sample or rater id; ValueError unless it fits int64."""
    value = int(text)
    if not -(2**63) <= value < 2**63:
        raise ValueError(f"id {text} does not fit in int64")
    return value


def _label(text) -> int:
    """A rating; 2 stands for any integer outside {0, 1}, which the protocol check rejects."""
    value = int(text)
    return value if value in (0, 1) else 2


def _unseparated(text: str) -> str:
    """``text``; ValueError if it holds a _, the separator int() and float() skip and the contract rules out."""
    if "_" in text:
        raise ValueError(f"could not convert {text!r}: numbers hold no _ separators")
    return text


def _stage1_pairs(text: str) -> tuple[int, int, int, int]:
    """(r1, r2, l1, l2) of a rater_labels field."""
    if len(text) > _STAGE1_WIDTH:
        raise ValueError(f"rater_labels longer than {_STAGE1_WIDTH} characters")
    (r1, l1), (r2, l2) = (pair.split(":") for pair in _unseparated(text).split(";"))
    return _id(r1), _id(r2), _label(l1), _label(l2)


def _adjudicator_pair(text: str) -> tuple[int, int]:
    """(r3, l3) of an adjudicator_label field; (-1, -1) when it is empty."""
    if len(text) > _ADJUDICATOR_WIDTH:
        raise ValueError(f"adjudicator_label longer than {_ADJUDICATOR_WIDTH} characters")
    if not text:
        return -1, -1
    r3, l3 = _unseparated(text).split(":")
    return _id(r3), _label(l3)


def _protocol_violation(stage1, adjudicator, flags) -> str | None:
    """Why a row's gradings break the protocol, or None when they do not.

    ``stage1`` is (r1, r2, l1, l2) and ``adjudicator`` is (r3, l3), as
    ``_stage1_pairs`` and ``_adjudicator_pair`` parse them; ``flags`` is
    (true_label, consensus, final_label), with 2 for any value outside {0, 1}.
    """
    (r1, r2, l1, l2), (r3, l3), (true_label, consensus, final_label) = stage1, adjudicator, flags
    adjudicated = l3 != -1
    if r1 == r2 or (adjudicated and r3 in (r1, r2)):
        return "a rater id repeats: the stage-1 raters and the adjudicator must all differ"
    if 2 in (l1, l2, l3, true_label, consensus, final_label):
        return "label outside {0, 1}"
    if consensus != (l1 == l2):
        return "consensus flag disagrees with the stage-1 ratings"
    if consensus and (adjudicated or final_label != l1):
        return "consensus sample must have no adjudicator and the agreed final label"
    if not consensus and (not adjudicated or final_label != l3):
        return "disagreement sample must have the adjudicator's final label"
    return None


def _soft_label_violation(soft_label: float) -> str | None:
    """Why a soft label is out of range (NaN is), or None when it is not."""
    if not SOFT_LABEL_MIN <= soft_label <= SOFT_LABEL_MAX:
        return f"soft_label {soft_label!r} outside [{SOFT_LABEL_MIN}, {SOFT_LABEL_MAX}]"
    return None


def _parse_record(record: list[str], d: int) -> tuple:
    """One record's (features, true_label, sample_id, rater ids, ratings, soft_label), GradedDataset's order.

    Raises ValueError naming the first rule of the contract or the protocol
    that the record breaks.
    """
    if len(record) != d + 7:
        raise ValueError(f"expected {d + 7} columns, got {len(record)}")
    odd = ",".join(record).encode("latin-1").translate(None, _CSV_BYTES)
    if odd:
        raise ValueError(f"byte {odd[0]:#04x} is not printable ASCII")
    sample_id, *features, true_label, stage1, adjudicator, consensus, final_label, soft_label = record
    for field in record:
        _unseparated(field)
    sample_id, features, soft_label = _id(sample_id), [float(x) for x in features], float(soft_label)
    stage1, adjudicator = _stage1_pairs(stage1), _adjudicator_pair(adjudicator)
    flags = (_label(true_label), _label(consensus), _label(final_label))
    problem = _protocol_violation(stage1, adjudicator, flags) or _soft_label_violation(soft_label)
    if problem is not None:
        raise ValueError(problem)
    (r1, r2, l1, l2), (r3, l3) = stage1, adjudicator
    return features, flags[0], sample_id, (r1, r2, r3), (l1, l2, l3), soft_label


def _graded(*columns) -> GradedDataset:
    """The dataset of its columns in field order, each made a C-contiguous array of the field's dtype."""
    dtypes = (np.float64, np.int64, np.int64, np.int64, np.int8, np.float64)
    return GradedDataset(*(np.ascontiguousarray(column, dtype=dtype) for column, dtype in zip(columns, dtypes)))


def _read_records(path: Path, d: int) -> GradedDataset:
    """The contract reader: the records after the header, read one by one with ``csv.reader``.

    Raises DataError at ``path:line`` of the first record in file order that
    ``_parse_record`` rejects or that repeats a sample_id; then, once every
    record passed, at the first row with a non-finite feature. Raises
    EmptyDatasetError when there is no record.
    """
    rows, lines, seen = [], [], set()
    with open(path, newline="", encoding="latin-1") as fh:
        reader = csv.reader(fh)
        next(reader)
        try:
            for record in reader:
                row = _parse_record(record, d)
                if row[2] in seen:  # branch-label draws are keyed by sample_id
                    raise ValueError(f"duplicate sample_id {row[2]}")
                seen.add(row[2])
                rows.append(row)
                lines.append(reader.line_num)
        except (ValueError, csv.Error) as exc:
            raise DataError(f"{path}:{reader.line_num}: {exc}") from None
    if not rows:
        raise EmptyDatasetError(f"{path}: dataset has a header but no rows")
    dataset = _graded(*zip(*rows))
    finite = np.isfinite(dataset.features).all(axis=1)
    if not finite.all():
        raise DataError(f"{path}:{lines[finite.argmin()]}: non-finite feature")
    return dataset


def _plain(path: Path) -> bool:
    """Whether the file holds only ``_PLAIN_BYTES``, no empty line and a line after the header.

    Then each line after the header is one record, which ``np.loadtxt``
    splits as ``csv.reader`` does. The file is read one binary line at a
    time, each ending just after a ``\\n``, so an empty line is a line that
    starts with ``\\n`` or ``\\r`` or one that holds ``\\r\\r``.
    """
    lines = 0
    with open(path, "rb") as fh:
        for line in fh:
            if line.translate(None, _PLAIN_BYTES) or line.startswith((b"\n", b"\r")) or b"\r\r" in line:
                return False
            lines += 1
    return lines > 1


def _parse_distinct(column: np.ndarray, parse) -> tuple[list, np.ndarray]:
    """``parse`` of each distinct field of a rater column, and the index of each row's field among them."""
    fields, inverse = np.unique(column, return_inverse=True)
    return [parse(field.decode()) for field in fields.tolist()], inverse


def _plain_raters(rows: np.ndarray) -> tuple[np.ndarray, np.ndarray] | None:
    """The rater ids and ratings of ``_read_plain``'s rows; None if a distinct pattern breaks the protocol.

    Raises ValueError for a rater field that does not parse.
    """
    stage1, stage1_of = _parse_distinct(rows["rater_labels"], _stage1_pairs)
    adjudicator, adjudicator_of = _parse_distinct(rows["adjudicator_label"], _adjudicator_pair)
    flag_columns = [rows["true_label"], rows["consensus"], rows["final_label"]]
    # one code per (stage-1 field, adjudicator field, flags) pattern, each flag 0, 1 or 2 as _label reads it
    patterns = stage1_of * len(adjudicator) + adjudicator_of
    for flag in flag_columns:
        patterns = patterns * 3 + np.where((flag == 0) | (flag == 1), flag, 2)
    for i in np.unique(patterns, return_index=True)[1].tolist():
        flags = [_label(flag[i]) for flag in flag_columns]
        if _protocol_violation(stage1[stage1_of[i]], adjudicator[adjudicator_of[i]], flags):
            return None
    stage1, adjudicator = np.array(stage1), np.array(adjudicator)
    return (np.column_stack([stage1[stage1_of, :2], adjudicator[adjudicator_of, 0]]),
            np.column_stack([stage1[stage1_of, 2:], adjudicator[adjudicator_of, 1]]).astype(np.int8))


def _read_plain(path: Path, d: int) -> GradedDataset | None:
    """What ``_read_records`` returns for a plain file (see ``_plain``), or None.

    One ``np.loadtxt`` call parses the file, and ``_plain_raters`` checks the
    protocol once per distinct pattern. It may only accept: it returns None
    for a file that is not plain, that ``np.loadtxt`` does not parse or that
    fails a check, without working out where or why.
    """
    if not _plain(path):
        return None
    dtype = np.dtype([  # a rater field one byte wider than the longest valid one reads as too long
        ("sample_id", np.int64), ("features", np.float64, (d,)), ("true_label", np.int64),
        ("rater_labels", f"S{_STAGE1_WIDTH + 1}"), ("adjudicator_label", f"S{_ADJUDICATOR_WIDTH + 1}"),
        ("consensus", np.int64), ("final_label", np.int64), ("soft_label", np.float64),
    ])
    try:
        rows = np.loadtxt(path, dtype=dtype, delimiter=",", comments=None, skiprows=1, ndmin=1,
                          encoding="latin-1")
        raters = _plain_raters(rows)
    except ValueError:
        return None
    soft_labels = rows["soft_label"]
    if raters is None or _soft_label_violation(soft_labels.min()) or _soft_label_violation(soft_labels.max()):
        return None
    if not np.diff(np.sort(rows["sample_id"])).all() or not np.isfinite(rows["features"]).all():
        return None  # a repeated sample_id or a non-finite feature
    return _graded(rows["features"], rows["true_label"], rows["sample_id"], *raters, soft_labels)


def read_dataset_csv(path) -> GradedDataset:
    """Read a dataset written by write_dataset_csv, validating every row.

    ``_read_records`` states the contract: it raises EmptyDatasetError for a
    file without rows and DataError at ``path:line`` of the first bad record
    in file order, a non-finite feature reported only after every record
    passed. ``_read_plain`` reads the files the writer writes faster but may
    only accept, so every file it does not return goes to ``_read_records``.
    """
    path = Path(path)
    with open(path, newline="", encoding="latin-1") as fh:
        header = next(csv.reader(fh), None)
    if header is None:
        raise EmptyDatasetError(f"{path}: empty dataset file")
    d = len(header) - 7
    if d < 1 or header != _csv_header(d):
        raise DataError(f"{path}: unexpected CSV header")
    dataset = _read_plain(path, d)
    return _read_records(path, d) if dataset is None else dataset
