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
from itertools import combinations, product, takewhile
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
# rater_id:label pair, empty on consensus. Sample and rater ids are int64.
# The writer ends each line with \r\n and writes floats with repr(), so values
# round-trip exactly; no field it writes needs quoting.
#
# The reader takes \r\n, \n or \r line ends and fields quoted with ", which
# may then span lines. Numbers follow numpy's grammar: ASCII digits only and
# no _ separators. There are no comments (# is an ordinary character) and no
# blank lines, and every byte is printable ASCII, a tab or a line end. The
# rater fields hold id:label pairs of int64 ids, at most 45 and 22 characters.
# ---------------------------------------------------------------------------

# Rows formatted and written per write call.
CSV_CHUNK_ROWS = 2048
# One byte wider than the longest valid rater fields, two and one
# "-9223372036854775808:0" pairs, so a longer field reads as full width.
_STAGE1_WIDTH = 46
_ADJUDICATOR_WIDTH = 23
# The bytes a dataset file may hold; a plain file (see _plain) holds no quote
# and no empty line either.
_CSV_BYTES = bytes(range(0x20, 0x7F)) + b"\t\n\v\f\r"
_PLAIN_BYTES = _CSV_BYTES.replace(b'"', b"")
_EMPTY_LINE = (b"\n\n", b"\r\r", b"\n\r")
# Bytes read per step of the scan for a plain file.
_SCAN_BYTES = 1 << 20


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


def _stage1_pairs(text: str) -> tuple[int, int, int, int]:
    (r1, l1), (r2, l2) = (pair.split(":") for pair in text.split(";"))
    return _id(r1), _id(r2), _label(l1), _label(l2)


def _adjudicator_pair(text: str) -> tuple[int, int]:
    if not text:
        return -1, -1
    r3, l3 = text.split(":")
    return _id(r3), _label(l3)


def _parse_distinct(column: np.ndarray, parse, size: int, name: str) -> tuple[np.ndarray, np.ndarray]:
    """Apply ``parse`` once to each distinct field of a rater column.

    Returns per row the ``size`` parsed values, -1 where the field does not
    parse, and why it does not, None where it does. A field as wide as the
    column may have been cut short, so it does not parse.
    """
    patterns, inverse = np.unique(column, return_inverse=True)
    values = np.full((len(patterns), size), -1, dtype=np.int64)
    problems = []
    for j, raw in enumerate(patterns.tolist()):
        problem = None
        try:
            if len(raw) == column.dtype.itemsize:
                raise ValueError(f"{name} longer than {column.dtype.itemsize - 1} characters")
            values[j] = parse(raw.decode("latin-1"))
        except ValueError as exc:
            problem = str(exc)
        problems.append(problem)
    return values[inverse], np.array(problems, dtype=object)[inverse]


class _Raters(NamedTuple):
    """The rater fields of each row parsed; slot 2 holds -1 where no adjudicator rated."""

    ids: np.ndarray  # (n, 3) int64
    ratings: np.ndarray  # (n, 3) int64, 2 standing for any label outside {0, 1}
    problems: np.ndarray  # (n,) why the row's rater fields do not parse, None where they do


def _parse_raters(rows: np.ndarray) -> _Raters:
    stage1, problem1 = _parse_distinct(rows["rater_labels"], _stage1_pairs, 4, "rater_labels")
    adjudicator, problem3 = _parse_distinct(rows["adjudicator_label"], _adjudicator_pair, 2, "adjudicator_label")
    return _Raters(
        ids=np.column_stack([stage1[:, :2], adjudicator[:, 0]]),
        ratings=np.column_stack([stage1[:, 2:], adjudicator[:, 1]]),
        problems=np.where(np.equal(problem1, None), problem3, problem1),
    )


def _first_violation(rows: np.ndarray, raters: _Raters, complete: bool) -> tuple[int, str] | None:
    """The first row that breaks the grading protocol, and why, checked column by column.

    Each row is held to these rules in order: its rater fields parse, its
    rater ids differ, its labels lie in {0, 1}, its consensus flag and final
    label follow its ratings, its soft_label lies in [SOFT_LABEL_MIN,
    SOFT_LABEL_MAX] and its sample_id is not that of an earlier row. When no
    row breaks one and ``rows`` is the complete file, the first row with a
    non-finite feature.
    """
    ids, soft = rows["sample_id"], rows["soft_label"]
    true, consensus, final = rows["true_label"], rows["consensus"], rows["final_label"]
    (r1, r2, r3), (l1, l2, l3) = raters.ids.T, raters.ratings.T
    adjudicated = rows["adjudicator_label"] != b""
    first_seen = np.zeros(len(rows), dtype=bool)
    first_seen[np.unique(ids, return_index=True)[1]] = True
    rules = [
        (np.not_equal(raters.problems, None), lambda i: raters.problems[i]),
        ((r1 == r2) | adjudicated & ((r3 == r1) | (r3 == r2)),
         lambda i: "a rater id repeats: the stage-1 raters and the adjudicator must all differ"),
        (np.logical_or.reduce([(c < 0) | (c > 1) for c in (true, consensus, final)]) | (raters.ratings == 2).any(1),
         lambda i: "label outside {0, 1}"),
        (consensus != (l1 == l2), lambda i: "consensus flag disagrees with the stage-1 ratings"),
        ((consensus == 1) & (adjudicated | (final != l1)),
         lambda i: "consensus sample must have no adjudicator and the agreed final label"),
        ((consensus == 0) & (~adjudicated | (final != l3)),
         lambda i: "disagreement sample must have the adjudicator's final label"),
        (~((soft >= SOFT_LABEL_MIN) & (soft <= SOFT_LABEL_MAX)),
         lambda i: f"soft_label {soft[i].item()!r} outside [{SOFT_LABEL_MIN}, {SOFT_LABEL_MAX}]"),
        # branch-label draws are keyed by sample_id
        (~first_seen, lambda i: f"duplicate sample_id {ids[i]}"),
    ]
    groups = [rules]
    if complete:  # like a parse error, a broken rule anywhere outranks a non-finite feature
        groups.append([(~np.isfinite(rows["features"]).all(axis=1), lambda i: "non-finite feature")])
    for group in groups:
        broken = np.logical_or.reduce([mask for mask, _ in group])
        if broken.any():
            row = int(broken.argmax())
            return row, next(message(row) for mask, message in group if mask[row])
    return None


def _load_rows(path: Path, feature_dim: int, max_rows: int | None = None) -> np.ndarray:
    """The rows after the header as one structured array; ValueError if one does not parse.

    Latin-1 decodes every byte, so reading ahead of ``max_rows`` cannot fail.
    """
    dtype = np.dtype([
        ("sample_id", np.int64), ("features", np.float64, (feature_dim,)), ("true_label", np.int64),
        ("rater_labels", f"S{_STAGE1_WIDTH}"), ("adjudicator_label", f"S{_ADJUDICATOR_WIDTH}"),
        ("consensus", np.int64), ("final_label", np.int64), ("soft_label", np.float64),
    ])
    with warnings.catch_warnings():
        # loadtxt warns of an empty read and of blank lines it skips; the reader finds both itself
        warnings.simplefilter("ignore", UserWarning)
        return np.loadtxt(path, dtype=dtype, delimiter=",", quotechar='"', comments=None,
                          skiprows=1, max_rows=max_rows, ndmin=1, encoding="latin-1")


def _plain(path: Path) -> bool:
    """Whether the file holds only ``_PLAIN_BYTES`` and no empty line.

    Then each line after the header is one row, which ``np.loadtxt`` splits
    as ``csv.reader`` does and parses as Python's ``int`` and ``float`` do,
    but for their ``_`` separators. Row i is on line i + 2.
    """
    last = b""
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(_SCAN_BYTES), b""):
            if chunk.translate(None, _PLAIN_BYTES) or any(pair in chunk for pair in _EMPTY_LINE):
                return False
            if last + chunk[:1] in _EMPTY_LINE:  # a line end on either side of the chunk boundary
                return False
            last = chunk[-1:]
    return True


def _parse_prefix(path: Path, feature_dim: int, n: int | None) -> tuple[np.ndarray, str | None]:
    """The first ``n`` rows (all when None), cut before the first ``np.loadtxt`` cannot parse, and why.

    That row is found by bisecting ``max_rows`` (no file has more rows than
    bytes), trying first the rows next to the one loadtxt's message names,
    which it counts from 0 or from 1 depending on the fault.
    """
    try:
        return _load_rows(path, feature_dim, n), None
    except ValueError as exc:
        failure = str(exc)
    named = "".join(takewhile(str.isdigit, failure.rpartition(" at row ")[2]))
    guesses = [int(named) + k for k in (0, 1, -1)] if named else []
    rows, parsed, failing = _load_rows(path, feature_dim, 0), 0, path.stat().st_size if n is None else n
    while failing - parsed > 1:
        middle = guesses.pop(0) if guesses else (parsed + failing) // 2
        if not parsed < middle < failing:
            continue
        try:
            rows, parsed = _load_rows(path, feature_dim, middle), middle
        except ValueError as exc:
            failing, failure = middle, str(exc)
    return rows, failure.split(" at row ")[0]


def _walk(path: Path, feature_dim: int) -> tuple[list[int], tuple[int, str] | None]:
    """The line of each row, walking the records after the header with ``csv.reader``.

    The walk stops at the first record of the wrong width (a blank line has
    none) or with a byte outside ``_CSV_BYTES``, and returns that record's
    line and fault too.
    """
    width = feature_dim + 7
    lines = []
    with open(path, newline="", encoding="latin-1") as fh:
        reader = csv.reader(fh)
        next(reader)
        try:
            for record in reader:
                if len(record) != width:
                    return lines, (reader.line_num, f"expected {width} columns, got {len(record)}")
                odd = ",".join(record).encode("latin-1").translate(None, _CSV_BYTES)
                if odd:
                    return lines, (reader.line_num, f"byte {odd[0]:#04x} is not printable ASCII")
                lines.append(reader.line_num)
        except csv.Error as exc:
            return lines, (reader.line_num, str(exc))
    return lines, None


def read_dataset_csv(path) -> GradedDataset:
    """Read a dataset written by write_dataset_csv, validating every row.

    Raises EmptyDatasetError for a file without samples and DataError naming
    ``path:line`` of the first malformed row, or of the first repeated
    sample_id, in file order; a non-finite feature is reported only when no
    row is malformed.

    One ``np.loadtxt`` call parses a plain file (see ``_plain``), where row i
    is on line i + 2, and whole-column checks validate it. Any other file is
    walked with ``csv.reader`` first, for the line of each row and the first
    record ``np.loadtxt`` would split otherwise or parse more leniently than
    ``int`` and ``float``; only the rows before it are parsed.
    """
    path = Path(path)
    with open(path, newline="", encoding="latin-1") as fh:
        header = next(csv.reader(fh), None)
    if header is None:
        raise EmptyDatasetError(f"{path}: empty dataset file")
    d = len(header) - 7
    if d < 1 or header != _csv_header(d):
        raise DataError(f"{path}: unexpected CSV header")
    lines, cut = (None, None) if _plain(path) else _walk(path, d)
    rows, failure = _parse_prefix(path, d, None if lines is None else len(lines))
    raters = _parse_raters(rows)
    found = _first_violation(rows, raters, complete=failure is None and cut is None)
    if found is None and failure is not None:
        found = len(rows), failure
    if found is not None:
        row, reason = found
        raise DataError(f"{path}:{row + 2 if lines is None else lines[row]}: {reason}")
    if cut is not None:
        raise DataError(f"{path}:{cut[0]}: {cut[1]}")
    if len(rows) == 0:
        raise EmptyDatasetError(f"{path}: dataset has a header but no rows")
    return GradedDataset(
        features=np.ascontiguousarray(rows["features"]),
        true_labels=rows["true_label"].copy(),
        sample_ids=rows["sample_id"].copy(),
        rater_ids=raters.ids,
        ratings=raters.ratings.astype(np.int8),
        soft_labels=rows["soft_label"].copy(),
    )
