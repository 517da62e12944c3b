"""Simulator: generation, grading protocol, stratified splitting, CSV round trip."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from csv_edits import BROKEN_ROWS, flip_field, overrule_adjudicator, set_field
from multirater import simulate
from multirater.errors import DataError, EmptyDatasetError, ParameterError
from multirater.labels import attach_soft_labels, compute_rater_weights
from multirater.simulate import (
    CATEGORY_NAMES,
    CSV_CHUNK_ROWS,
    DEFAULT_N_SAMPLES,
    GradedDataset,
    GradingPanel,
    GradingRecord,
    RaterProfile,
    category_counts,
    default_panel,
    generate_dataset,
    grade_dataset,
    grade_sample,
    read_dataset_csv,
    split_dataset,
    write_dataset_csv,
)


def check_record_invariants(rec: GradingRecord):
    """The grading-protocol invariants every record must satisfy."""
    assert rec.consensus in (0, 1)
    l1, l2 = rec.stage1_labels[0][1], rec.stage1_labels[1][1]
    assert rec.consensus == int(l1 == l2)
    if rec.consensus:
        assert rec.adjudicator_label is None
        assert rec.final_label == l1
    else:
        assert rec.adjudicator_label is not None
        assert rec.final_label == rec.adjudicator_label[1]
    assert 0.01 <= rec.soft_label <= 0.99


class TestGenerateDataset:
    def test_deterministic_given_seed(self):
        a = generate_dataset(1000, seed=5)
        b = generate_dataset(1000, seed=5)
        np.testing.assert_array_equal(a.features, b.features)
        np.testing.assert_array_equal(a.true_labels, b.true_labels)
        np.testing.assert_array_equal(a.difficulties, b.difficulties)

    def test_zero_mix_is_separable_with_negligible_difficulty(self):
        samples = generate_dataset(10, feature_dim=2, difficulty_mix=0.0, seed=7)
        assert np.all(samples.difficulties < 0.01)
        proj = samples.features.sum(axis=1)  # signal along the diagonal
        labels = samples.true_labels
        assert proj[labels == 1].min() > proj[labels == 0].max()

    def test_difficulty_decreases_with_boundary_distance(self):
        samples = generate_dataset(500, feature_dim=4, difficulty_mix=0.5, seed=3)
        margins = np.abs(samples.features.sum(axis=1) / 2.0)
        difficulty = samples.difficulties
        order = np.argsort(margins)
        assert np.all(np.diff(difficulty[order]) <= 1e-12)

    def test_feature_dim_constant(self):
        samples = generate_dataset(50, feature_dim=9, seed=1)
        assert samples.features.shape == (50, 9)
        assert samples.true_labels.shape == samples.difficulties.shape == (50,)

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(n_samples=0),
            dict(n_samples=10, class_balance=0.0),
            dict(n_samples=10, class_balance=1.0),
            dict(n_samples=10, difficulty_mix=1.5),
            dict(n_samples=10, feature_dim=0),
        ],
    )
    def test_invalid_arguments_rejected(self, kwargs):
        with pytest.raises(ParameterError):
            generate_dataset(**{"feature_dim": 4, "seed": 0, **kwargs})

    def test_defaults_reproduce_the_reference_category_profile(self):
        """Default-sized runs land on the 34.4 / 36.6 / 12.4 / 16.6 % calibration target."""
        target = np.array([34.4, 36.6, 12.4, 16.6])
        shares = []
        for seed in (0, 1, 42):
            ds = grade_dataset(generate_dataset(DEFAULT_N_SAMPLES, seed=seed), default_panel(), seed=seed)
            counts = category_counts(ds)
            shares.append([100.0 * counts[name] / len(ds) for name in CATEGORY_NAMES])
        shares = np.array(shares)
        assert np.all(np.abs(shares.mean(axis=0) - target) <= 1.0), shares.mean(axis=0)
        non_consensus = shares[:, 2:].sum(axis=1)
        assert np.all((non_consensus >= 27.0) & (non_consensus <= 31.0)), non_consensus


class TestGradeSample:
    def test_perfect_raters_always_reach_consensus(self):
        panel = GradingPanel(
            stage1=(RaterProfile(1, 1.0, 1.0), RaterProfile(2, 1.0, 1.0)),
            adjudicator=RaterProfile(3, 1.0, 1.0),
        )
        samples = generate_dataset(100, difficulty_mix=1.0, seed=2)
        for true_label, difficulty in zip(samples.true_labels.tolist(), samples.difficulties.tolist()):
            # difficulty can only inflate a zero base error to zero
            assert grade_sample(true_label, difficulty, panel, seed=4) == (true_label, true_label, -1)

    def test_disagreement_brings_in_the_adjudicator(self):
        samples = generate_dataset(300, difficulty_mix=0.9, seed=8)
        ds = grade_dataset(samples, default_panel(), seed=8)
        assert (ds.consensus_flags == 0).any(), "expected some stage-1 disagreement on a hard dataset"
        np.testing.assert_array_equal(ds.ratings[:, 2] >= 0, ds.consensus_flags == 0)
        for rec in ds.records:
            check_record_invariants(rec)

    def test_stage1_positive_rate_matches_sensitivity(self):
        """Monte-Carlo check of the closed-form rater model on easy positives."""
        panel = GradingPanel(
            stage1=(RaterProfile(1, 0.7, 0.9), RaterProfile(2, 0.7, 0.9)),
            adjudicator=RaterProfile(3, 0.95, 0.95),
        )
        positives = 0
        n = 10_000
        for i in range(n):
            positives += grade_sample(1, 0.0, panel, seed=77, sample_id=i)[0]
        assert abs(positives / n - 0.7) < 0.02

    def test_rater_empirical_rates_match_profiles_on_easy_data(self):
        samples = generate_dataset(10_000, difficulty_mix=0.0, seed=11)
        ds = grade_dataset(samples, default_panel(), seed=11)
        truths = ds.true_labels
        for slot, profile in enumerate(default_panel().stage1):
            labels = ds.ratings[:, slot]
            assert set(ds.rater_ids[:, slot].tolist()) == {profile.rater_id}
            sens = labels[truths == 1].mean()
            spec = 1.0 - labels[truths == 0].mean()
            assert abs(sens - profile.sensitivity) < 0.02
            assert abs(spec - profile.specificity) < 0.02

    def test_non_consensus_rate_monotone_in_difficulty_mix(self):
        seeds = (21, 22, 23)
        rates = []
        for mix in (0.0, 0.25, 0.5, 0.75, 1.0):
            rate = 0.0
            for seed in seeds:
                samples = generate_dataset(4000, difficulty_mix=mix, seed=seed)
                ds = grade_dataset(samples, default_panel(), seed=seed)
                rate += 1.0 - ds.consensus_flags.mean()
            rates.append(rate / len(seeds))
        assert all(b >= a - 0.005 for a, b in zip(rates, rates[1:])), rates

    def test_malformed_panel_rejected(self):
        with pytest.raises(ParameterError):
            GradingPanel(
                stage1=(RaterProfile(1, 0.9, 0.9),),
                adjudicator=RaterProfile(3, 0.95, 0.95),
            )
        with pytest.raises(ParameterError):
            GradingPanel(
                stage1=(RaterProfile(1, 0.9, 0.9), RaterProfile(1, 0.8, 0.8)),
                adjudicator=RaterProfile(3, 0.95, 0.95),
            )
        with pytest.raises(ParameterError):
            grade_sample(1, 0.0, panel=None, seed=0)

    def test_invalid_rater_rates_rejected(self):
        with pytest.raises(ParameterError):
            RaterProfile(1, 1.2, 0.5)

    def test_non_finite_error_gain_rejected(self):
        samples = generate_dataset(10, seed=0)
        for gain in (math.nan, math.inf):
            with pytest.raises(ParameterError, match="error_gain"):
                grade_dataset(samples, default_panel(), seed=0, error_gain=gain)


NOISY_PANEL = GradingPanel(
    stage1=(RaterProfile(1, 0.6, 0.7), RaterProfile(2, 0.75, 0.55)),
    adjudicator=RaterProfile(3, 0.8, 0.9),
)


def _rates(panel):
    return [(r.sensitivity, r.specificity) for r in (*panel.stage1, panel.adjudicator)]


class TestKeyedGrading:
    @pytest.mark.parametrize("panel", [default_panel(), NOISY_PANEL])
    def test_matches_the_keyed_oracle(self, panel):
        difficulties = (0.0, 0.125, 0.5, 0.9, 1.0)
        for seed in (0, 1, 42, -7, 2**64 + 3):
            for sample_id in range(60):
                for true_label in (0, 1):
                    for difficulty in difficulties:
                        for gain in (0.0, 2.0, 5.0):
                            expected = oracles.grade_sample(
                                true_label, difficulty, _rates(panel), seed, sample_id, gain
                            )
                            got = grade_sample(true_label, difficulty, panel, seed, sample_id, gain)
                            assert got == expected, (seed, sample_id, true_label, difficulty, gain)

    def test_rows_do_not_depend_on_grading_order(self):
        samples = generate_dataset(400, difficulty_mix=0.9, seed=12)
        ds = grade_dataset(samples, NOISY_PANEL, seed=12)
        rows = [
            grade_sample(int(samples.true_labels[i]), float(samples.difficulties[i]), NOISY_PANEL, 12, i)
            for i in reversed(range(len(ds)))
        ]
        np.testing.assert_array_equal(np.array(rows[::-1], dtype=np.int8), ds.ratings)

    def test_grade_dataset_builds_no_generator(self, monkeypatch):
        samples = generate_dataset(300, seed=3)
        calls = []
        real = simulate.seeded_rng
        monkeypatch.setattr(simulate, "seeded_rng", lambda *parts: calls.append(parts) or real(*parts))
        grade_dataset(samples, default_panel(), seed=3)
        assert calls == []


def _toy_dataset(n=1000, seed=13, difficulty_mix=0.65):
    samples = generate_dataset(n, difficulty_mix=difficulty_mix, seed=seed)
    return grade_dataset(samples, default_panel(), seed=seed)


# One row less than a writer chunk, one chunk, and one row more.
CHUNK_SIZES = (CSV_CHUNK_ROWS - 1, CSV_CHUNK_ROWS, CSV_CHUNK_ROWS + 1)


def _with_extremes(ds):
    """``ds`` with the extreme int64 ids in its first and last rows and edge-case floats in its first."""
    ds.sample_ids[0] = -(2**63)
    ds.sample_ids[-1] = 2**63 - 1
    adjudicator = ds.rater_ids[0, 2]
    ds.rater_ids[0] = [2**63 - 1, -(2**63), adjudicator if adjudicator < 0 else 7]
    ds.features[0, :4] = [-0.0, 5e-324, 1e16, 1.2345678901234568e17]
    return ds


class TestSplitDataset:
    def test_split_sizes(self):
        ds = _toy_dataset(1000)
        train, val, test = split_dataset(ds, (0.6, 0.15, 0.25), seed=9)
        assert (len(train), len(val), len(test)) == (600, 150, 250)

    @pytest.mark.parametrize("n", [3, 4, 12, 977])
    @pytest.mark.parametrize("ratios", [(0.6, 0.15, 0.25), (0.65, 0.1, 0.25), (1 / 3, 1 / 3, 1 / 3)])
    def test_split_sizes_are_the_sizes_split_dataset_cuts(self, n, ratios):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # small n leaves strata empty
            parts = split_dataset(_toy_dataset(n), ratios, seed=3)
        assert simulate.split_sizes(n, ratios) == [len(part) for part in parts]

    def test_degenerate_split_puts_everything_in_train(self):
        ds = _toy_dataset(200)
        train, val, test = split_dataset(ds, (1.0, 0.0, 0.0), seed=9)
        assert (len(train), len(val), len(test)) == (200, 0, 0)

    def test_deterministic(self):
        ds = _toy_dataset(500)
        first = split_dataset(ds, (0.6, 0.15, 0.25), seed=4)
        second = split_dataset(ds, (0.6, 0.15, 0.25), seed=4)
        for a, b in zip(first, second):
            np.testing.assert_array_equal(a.sample_ids, b.sample_ids)

    def test_disjoint_exhaustive_and_stratified(self):
        ds = _toy_dataset(977)  # awkward size to exercise remainder handling
        ratios = (0.6, 0.15, 0.25)
        parts = split_dataset(ds, ratios, seed=2)
        ids = np.concatenate([part.sample_ids for part in parts])
        np.testing.assert_array_equal(np.sort(ids), ds.sample_ids)
        # stratum proportions within one sample of the requested ratios
        for lab in (0, 1):
            for cons in (0, 1):
                total = np.sum((ds.final_labels == lab) & (ds.consensus_flags == cons))
                for part, ratio in zip(parts, ratios):
                    got = np.sum((part.final_labels == lab) & (part.consensus_flags == cons))
                    assert abs(got - ratio * total) < 1.0 + 1e-9

    def test_ratio_sum_violation_rejected(self):
        ds = _toy_dataset(100)
        for ratios in [(0.5, 0.2, 0.2), (math.nan, 0.5, 0.5), (-0.1, 0.6, 0.5)]:
            with pytest.raises(ParameterError):
                split_dataset(ds, ratios, seed=0)

    def test_empty_stratum_warns_but_proceeds(self):
        panel = GradingPanel(
            stage1=(RaterProfile(1, 1.0, 1.0), RaterProfile(2, 1.0, 1.0)),
            adjudicator=RaterProfile(3, 1.0, 1.0),
        )
        samples = generate_dataset(100, difficulty_mix=0.0, seed=6)
        ds = grade_dataset(samples, panel, seed=6)  # all consensus
        with pytest.warns(UserWarning, match="empty stratum"):
            parts = split_dataset(ds, (0.6, 0.15, 0.25), seed=6)
        assert sum(len(p) for p in parts) == 100


STRATA = ((0, 0), (0, 1), (1, 0), (1, 1))  # (final_label, consensus)


def _strata_dataset(sizes):
    """A protocol-valid dataset with the given number of samples per stratum."""
    rows = [
        (lab, lab if cons else 1 - lab, -1 if cons else lab)
        for (lab, cons), size in zip(STRATA, sizes)
        for _ in range(size)
    ]
    ratings = np.array(rows, dtype=np.int8).reshape(-1, 3)
    n = len(rows)
    return GradedDataset(
        features=np.zeros((n, 2)),
        true_labels=ratings[:, 0].astype(int),
        sample_ids=np.arange(n, dtype=np.int64),
        rater_ids=np.where(ratings >= 0, np.array([1, 2, 3]), -1),
        ratings=ratings,
        soft_labels=np.full(n, 0.5),
    )


@st.composite
def dyadic_ratios(draw, denominator=1024):
    """Three ratios k / 1024 summing to 1; exact in binary, so ratio * n is exact too."""
    low, high = sorted(draw(st.lists(st.integers(0, denominator), min_size=2, max_size=2)))
    return (low / denominator, (high - low) / denominator, (denominator - high) / denominator)


def _largest_remainder_totals(ratios, n):
    exact = [r * n for r in ratios]
    totals = [math.floor(e) for e in exact]
    by_remainder = sorted(range(3), key=lambda j: totals[j] - exact[j])  # stable: earlier split first
    for j in by_remainder[: n - sum(totals)]:
        totals[j] += 1
    return totals


class TestSplitProperties:
    @given(
        sizes=st.lists(st.integers(0, 40), min_size=4, max_size=4),
        ratios=dyadic_ratios(),
        seed=st.integers(0, 2**16),
    )
    @settings(max_examples=300, deadline=None)
    def test_exact_totals_and_per_stratum_shares(self, sizes, ratios, seed):
        ds = _strata_dataset(sizes)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # empty strata
            parts = split_dataset(ds, ratios, seed=seed)
            again = split_dataset(ds, ratios, seed=seed)

        assert [len(p) for p in parts] == _largest_remainder_totals(ratios, len(ds))
        for part, ratio in zip(parts, ratios):
            for (lab, cons), size in zip(STRATA, sizes):
                got = np.sum((part.final_labels == lab) & (part.consensus_flags == cons))
                assert abs(got - ratio * size) < 1.0
        ids = np.concatenate([p.sample_ids for p in parts])
        assert sorted(ids.tolist()) == list(range(len(ds)))
        assert [p.sample_ids.tolist() for p in again] == [p.sample_ids.tolist() for p in parts]


class TestCsvRoundTrip:
    def test_round_trip_preserves_everything(self, tmp_path):
        ds = _toy_dataset(250)
        path = tmp_path / "data.csv"
        write_dataset_csv(ds, path)
        back = read_dataset_csv(path)
        np.testing.assert_array_equal(back.features, ds.features)
        np.testing.assert_array_equal(back.true_labels, ds.true_labels)
        for column in ("sample_ids", "rater_ids", "ratings", "soft_labels"):
            np.testing.assert_array_equal(getattr(back, column), getattr(ds, column))
        assert back.records == ds.records

    def test_header_contract(self, tmp_path):
        ds = _toy_dataset(5)
        path = tmp_path / "data.csv"
        write_dataset_csv(ds, path)
        header = path.read_text().splitlines()[0]
        d = ds.features.shape[1]
        expected = (
            "sample_id,"
            + ",".join(f"f_{j}" for j in range(d))
            + ",true_label,rater_labels,adjudicator_label,consensus,final_label,soft_label"
        )
        assert header == expected

    def test_adjudicator_field_empty_iff_consensus(self, tmp_path):
        ds = _toy_dataset(300)
        path = tmp_path / "data.csv"
        write_dataset_csv(ds, path)
        lines = path.read_text().splitlines()[1:]
        for line, rec in zip(lines, ds.records):
            adj_field = line.split(",")[ds.features.shape[1] + 3]
            assert (adj_field == "") == bool(rec.consensus)

    def test_matches_the_record_by_record_writer(self, tmp_path):
        """Also at one row and at one chunk of rows less, exactly and more."""
        train, val, _ = split_dataset(_toy_dataset(300), (0.6, 0.15, 0.25), seed=1)
        attach_soft_labels(val, compute_rater_weights(train))
        val.sample_ids[0] = -(2**63)
        val.rater_ids[0] = [2**63 - 1, -5, -1]
        val.features[1, 0] = -0.0
        sized = [_with_extremes(_toy_dataset(n)) for n in (1, *CHUNK_SIZES)]
        for ds in (train, val, *sized):
            ours, reference = tmp_path / "ours.csv", tmp_path / "reference.csv"
            write_dataset_csv(ds, ours)
            oracles.write_dataset_csv(ds.records, ds.features.tolist(), ds.true_labels.tolist(), reference)
            assert ours.read_bytes() == reference.read_bytes()

    def test_rewrite_is_byte_identical(self, tmp_path):
        ds = _toy_dataset(100)
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        write_dataset_csv(ds, p1)
        write_dataset_csv(ds, p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_repeated_sample_id_rejected_at_its_line(self, tmp_path):
        ds = _toy_dataset(5)
        ds.sample_ids[3] = ds.sample_ids[1]
        path = tmp_path / "data.csv"
        write_dataset_csv(ds, path)
        with pytest.raises(DataError, match=rf"data\.csv:5: duplicate sample_id {ds.sample_ids[1]}$"):
            read_dataset_csv(path)

    @pytest.mark.parametrize("slot", [1, 2])
    def test_repeated_rater_id_rejected_at_its_line(self, tmp_path, slot):
        """Rater 1 also rates in slot 1 (stage 1) or slot 2 (adjudicator) of a disagreement row."""
        ds = _toy_dataset(40)
        row = int(np.argmin(ds.consensus_flags))
        assert ds.consensus_flags[row] == 0
        ds.rater_ids[row, slot] = ds.rater_ids[row, 0]
        path = tmp_path / "data.csv"
        write_dataset_csv(ds, path)
        with pytest.raises(DataError, match=rf"data\.csv:{row + 2}: a rater id repeats"):
            read_dataset_csv(path)

    def test_non_finite_feature_named_at_its_line_after_a_row_spanning_two_lines(self, tmp_path):
        path = tmp_path / "data.csv"
        write_dataset_csv(_toy_dataset(5), path)
        lines = [line.split(",") for line in path.read_text().splitlines()]
        lines[1][1] = '"1.0\n"'  # a quoted float with a trailing newline: row 0 spans lines 2 and 3
        lines[4][1] = "nan"  # row 3, now on line 6
        path.write_text("".join(",".join(fields) + "\n" for fields in lines))
        with pytest.raises(DataError, match=r"data\.csv:6: non-finite feature$"):
            read_dataset_csv(path)

    def test_bad_files_rejected(self, tmp_path):
        empty = tmp_path / "empty.csv"
        empty.write_text("")
        with pytest.raises(DataError):
            read_dataset_csv(empty)
        header_only = tmp_path / "header.csv"
        write_dataset_csv(_toy_dataset(3), header_only)
        header_only.write_text(header_only.read_text().splitlines()[0] + "\n")
        with pytest.raises(DataError, match="no rows"):
            read_dataset_csv(header_only)
        bad_header = tmp_path / "bad.csv"
        bad_header.write_text("a,b,c\n1,2,3\n")
        with pytest.raises(DataError, match="header"):
            read_dataset_csv(bad_header)


def _oracle_verdict(path):
    """The oracle's columns for ``path``, or its CsvRejected."""
    try:
        return oracles.read_dataset_csv(path)
    except oracles.CsvRejected as rejection:
        return rejection


def _assert_reads_as_the_oracle(path):
    """Equal arrays and dtypes where the oracle accepts ``path``; where it rejects, the same error class and place."""
    expected = _oracle_verdict(path)
    if isinstance(expected, oracles.CsvRejected):
        with pytest.raises(DataError) as raised:
            read_dataset_csv(path)
        assert isinstance(raised.value, EmptyDatasetError) == expected.empty
        assert str(raised.value).startswith(f"{expected.where}: "), (str(raised.value), str(expected))
        return
    got = read_dataset_csv(path)
    for name, dtype in (("features", np.float64), ("true_labels", np.int64), ("sample_ids", np.int64),
                        ("rater_ids", np.int64), ("ratings", np.int8), ("soft_labels", np.float64)):
        array, reference = getattr(got, name), np.array(expected[name], dtype=dtype)
        assert array.dtype == dtype and array.shape == reference.shape, name
        assert array.flags.c_contiguous, name  # as freshly built arrays are, for the same matmul bits
        assert array.tobytes() == reference.tobytes(), name  # bit for bit, so -0.0 stays -0.0


def _edit_row(row, edit):
    """A file edit applying a ``csv_edits`` row edit to data row ``row`` of a CRLF file."""
    def apply(text):
        lines = text.split("\r\n")
        fields = lines[row + 1].split(",")
        edit(fields, lines[0].split(","))
        lines[row + 1] = ",".join(fields)
        return "\r\n".join(lines)
    return apply


def _edit_line(line, edit):
    def apply(text):
        lines = text.split("\r\n")
        lines[line - 1] = edit(lines[line - 1])
        return "\r\n".join(lines)
    return apply


def _both(*edits):
    """The edits in turn; one that splits a line comes last, as the others count lines."""
    def apply(text):
        for edit in edits:
            text = edit(text)
        return text
    return apply


def _spanning_two_lines(row):
    """Quote f_0 of data row ``row`` with a line end inside, which float() strips."""
    return _edit_row(row, lambda fields, header: fields.__setitem__(1, f'"{fields[1]}\r\n"'))


# Files the oracle accepts, written by the writer and then edited.
VALID_VARIANTS = {
    "crlf": lambda text: text,
    "lf": lambda text: text.replace("\r\n", "\n"),
    "cr": lambda text: text.replace("\r\n", "\r"),
    "no_final_newline": lambda text: text[:-2],
    "lf_without_final_newline": lambda text: text.replace("\r\n", "\n")[:-1],
    "field_spanning_two_lines": _spanning_two_lines(3),
    "field_spanning_two_lines_last": lambda text: _spanning_two_lines(11)(text)[:-2],
    "quoted_fields": _edit_row(4, lambda fields, header: fields.__setitem__(
        slice(None), [f'"{field}"' for field in fields])),
    "padded_numbers": _edit_row(4, lambda fields, header: fields.__setitem__(
        slice(0, 3), [f" {field}\t" for field in fields[:3]])),
    "signed_numbers": _edit_row(4, lambda fields, header: fields.__setitem__(0, "+" + fields[0])),
}

CORRUPT_FILES = {
    **{f"{name}_in_row_1": _edit_row(1, edit) for name, edit in BROKEN_ROWS.items()},
    **{f"{name}_in_the_last_row": _edit_row(11, edit) for name, edit in BROKEN_ROWS.items()},
    "blank_line_in_the_middle": _edit_line(5, lambda line: line + "\r\n"),
    "blank_line_at_the_end": lambda text: text + "\r\n",
    "lf_blank_line": lambda text: text.replace("\r\n", "\n").replace("\n", "\n\n", 3),
    "whitespace_line": _edit_line(4, lambda line: line + "\r\n  "),
    "hash_inside_a_field": _edit_row(2, set_field("f_1", "1.5#2")),
    "hash_opening_a_line": _edit_row(2, set_field("sample_id", "#2")),
    "rater_field_of_47_bytes": _edit_row(2, set_field("rater_labels", "1:0;2:" + "0" * 40 + "x")),
    "adjudicator_field_of_24_bytes": _edit_row(2, set_field("adjudicator_label", "3:" + "1" * 22)),
    "empty_numeric_field": _edit_row(2, set_field("f_3", "")),
    "empty_label_field": _edit_row(2, set_field("final_label", "")),
    "nan_feature": _edit_row(3, set_field("f_2", "nan")),
    "inf_feature": _edit_row(3, set_field("f_2", "inf")),
    "minus_infinity_feature": _edit_row(3, set_field("f_2", "-Infinity")),
    "nan_soft_label": _edit_row(3, set_field("soft_label", "nan")),
    "non_finite_feature_before_a_protocol_error": _both(_edit_row(1, set_field("f_0", "nan")),
                                                        _edit_row(8, flip_field("consensus"))),
    "protocol_error_before_an_unparsable_row": _both(_edit_row(2, flip_field("consensus")),
                                                     _edit_row(6, set_field("final_label", "yes"))),
    "non_finite_feature_before_an_unparsable_row": _both(_edit_row(1, set_field("f_0", "nan")),
                                                         _edit_row(6, set_field("f_0", "x"))),
    "unparsable_row_before_a_protocol_error": _both(_edit_row(2, set_field("f_4", "1.0.0")),
                                                    _edit_row(6, flip_field("consensus"))),
    "protocol_error_before_a_blank_line": _both(_edit_line(9, lambda line: line + "\r\n"),
                                                _edit_row(3, flip_field("final_label"))),
    "repeated_id_after_a_multi_line_row": _both(_edit_row(5, set_field("sample_id", "2")), _spanning_two_lines(1)),
    "unparsable_row_after_a_multi_line_row": _both(_edit_row(5, set_field("f_0", "x")), _spanning_two_lines(1)),
    "non_ascii_junk_in_an_int_column": _edit_row(2, set_field("sample_id", "1Ǿ0")),
    "control_character_in_a_float": _edit_row(2, set_field("f_0", "1.0\x1c")),
    "control_character_in_an_int": _edit_row(2, set_field("consensus", "\x1f1")),
    "delete_character": _edit_row(2, set_field("f_0", "1.0\x7f")),
    "lone_carriage_return_inside_a_row": _edit_row(2, set_field("f_0", "1.0\r5")),
    "quote_left_open": _edit_row(4, set_field("f_0", '"1.0')),
    "text_after_a_closing_quote": _edit_row(4, set_field("f_0", '"1.0"x')),
    "label_beyond_int64": _edit_row(4, set_field("true_label", str(2**64))),
    "true_label_minus_one": _edit_row(4, set_field("true_label", "-1")),
    "final_label_not_the_adjudicators_in_row_4": _edit_row(4, overrule_adjudicator),
    "adjudicator_label_minus_one": _both(_edit_row(4, overrule_adjudicator),
                                         _edit_row(4, set_field("adjudicator_label", "3:-1"))),
}

# Inputs the oracle accepts and the reader rejects: the contract has no _
# separators in any field, the rater ids and labels included, though int()
# skips them; numpy's number grammar has only ASCII digits; and a rater field
# may not exceed the longest valid one however its numbers are padded.
ONLY_THE_ORACLE_ACCEPTS = {
    "underscore_in_a_sample_id": _edit_row(2, lambda fields, header: fields.__setitem__(0, "1_0" + fields[0])),
    "underscore_in_a_feature": _edit_row(2, set_field("f_0", "1_0.5")),
    "underscore_in_a_rater_id": _edit_row(2, lambda fields, header: fields.__setitem__(
        header.index("rater_labels"), "0_" + fields[header.index("rater_labels")])),
    "underscore_in_a_rater_label": _edit_row(2, lambda fields, header: fields.__setitem__(
        header.index("rater_labels"), fields[header.index("rater_labels")].replace(":", ":0_", 1))),
    "arabic_indic_digit": _edit_row(2, set_field("true_label", "١")),
    "zero_padded_rater_field": _edit_row(2, lambda fields, header: fields.__setitem__(
        header.index("rater_labels"), "0" * 40 + fields[header.index("rater_labels")])),
}


# Characters of numbers, rater pairs and CSV structure; no _ and no non-ASCII digit.
FUZZ_ALPHABET = '0123456789-+.e:;,"# \t\r\ninfaNIF\x1c\x0bǾ'


class TestReaderAgainstOracle:
    """``read_dataset_csv`` against the row-by-row reader it replaced (``oracles.read_dataset_csv``)."""

    @pytest.fixture()
    def written(self, tmp_path):
        """A 12-row file as the writer writes it, with CRLF line ends."""
        path = tmp_path / "data.csv"
        write_dataset_csv(_toy_dataset(12), path)
        return path

    @pytest.mark.parametrize("n", [1, *CHUNK_SIZES])
    def test_written_files(self, tmp_path, n):
        path = tmp_path / "data.csv"
        write_dataset_csv(_with_extremes(_toy_dataset(n)), path)
        assert not isinstance(_oracle_verdict(path), oracles.CsvRejected)
        _assert_reads_as_the_oracle(path)

    @pytest.mark.parametrize("variant", sorted(VALID_VARIANTS))
    def test_valid_variants(self, written, variant):
        written.write_bytes(VALID_VARIANTS[variant](written.read_bytes().decode()).encode())
        assert not isinstance(_oracle_verdict(written), oracles.CsvRejected)
        _assert_reads_as_the_oracle(written)

    @pytest.mark.parametrize("corruption", sorted(CORRUPT_FILES))
    def test_corrupt_files(self, written, corruption):
        written.write_bytes(CORRUPT_FILES[corruption](written.read_bytes().decode()).encode())
        assert isinstance(_oracle_verdict(written), oracles.CsvRejected)
        _assert_reads_as_the_oracle(written)

    def test_record_reader_alone_matches_the_oracle(self, written, monkeypatch):
        """With the loadtxt path taking no file, ``_read_records`` decides every file by itself."""
        monkeypatch.setattr(simulate, "_read_plain", lambda path, d: None)
        text = written.read_bytes().decode()
        for edit in [*VALID_VARIANTS.values(), *CORRUPT_FILES.values()]:
            written.write_bytes(edit(text).encode())
            _assert_reads_as_the_oracle(written)
        for edit in ONLY_THE_ORACLE_ACCEPTS.values():
            written.write_bytes(edit(text).encode())
            with pytest.raises(DataError, match=r"data\.csv:4: "):
                read_dataset_csv(written)

    def test_written_files_take_the_loadtxt_path(self, tmp_path, monkeypatch):
        def unexpected(path, d):
            raise AssertionError(f"{path} went to the record reader")

        monkeypatch.setattr(simulate, "_read_records", unexpected)
        path = tmp_path / "data.csv"
        ds = _with_extremes(_toy_dataset(CSV_CHUNK_ROWS + 1))
        write_dataset_csv(ds, path)
        assert read_dataset_csv(path).sample_ids.tolist() == ds.sample_ids.tolist()

    def test_adjudicator_label_minus_one_is_outside_the_label_domain(self, written):
        written.write_bytes(CORRUPT_FILES["adjudicator_label_minus_one"](written.read_bytes().decode()).encode())
        with pytest.raises(DataError, match=r"data\.csv:6: label outside \{0, 1\}$"):
            read_dataset_csv(written)

    def test_a_negative_flag_is_not_coded_as_a_valid_one(self, tmp_path):
        """Row 2's flags and adjudicator field would code like row 1's valid pattern were -3 not read as 2."""
        path = tmp_path / "data.csv"
        header = b"sample_id,f_0,true_label,rater_labels,adjudicator_label,consensus,final_label,soft_label"
        path.write_bytes(header + b"\r\n1,0.5,0,1:0;2:0,,1,0,0.5\r\n2,0.5,-3,1:0;2:0,3:1,1,0,0.5\r\n")
        assert _oracle_verdict(path).where == f"{path}:3"
        _assert_reads_as_the_oracle(path)

    @pytest.mark.parametrize("text", ["", "sample_id,f_0\r\n", "\r\nsample_id\r\n"])
    def test_files_without_rows_or_header(self, tmp_path, text):
        path = tmp_path / "data.csv"
        path.write_bytes(text.encode())
        _assert_reads_as_the_oracle(path)

    def test_header_only(self, written):
        written.write_bytes(written.read_bytes().split(b"\r\n")[0] + b"\r\n")
        _assert_reads_as_the_oracle(written)
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # no warning escapes on the way to the error
            with pytest.raises(EmptyDatasetError, match="no rows"):
                read_dataset_csv(written)
        written.write_bytes(written.read_bytes() + b"\r\n")  # and a blank line
        _assert_reads_as_the_oracle(written)

    @pytest.mark.parametrize("case", sorted(ONLY_THE_ORACLE_ACCEPTS))
    def test_inputs_only_the_oracle_accepts(self, written, case):
        written.write_bytes(ONLY_THE_ORACLE_ACCEPTS[case](written.read_bytes().decode()).encode())
        assert not isinstance(_oracle_verdict(written), oracles.CsvRejected)
        with pytest.raises(DataError, match=r"data\.csv:4: "):
            read_dataset_csv(written)

    @pytest.mark.parametrize("blank", ["\r\n", "\n", "\r"])
    def test_blank_line_found_across_every_scan_boundary(self, written, blank):
        """The plain scan reads every line, so a blank line in any style falls back to the contract reader."""
        lines = written.read_bytes().split(b"\r\n")
        lines[6] += blank.encode()
        written.write_bytes(b"\r\n".join(lines))
        with pytest.raises(DataError, match=r"data\.csv:8: expected 23 columns, got 0$"):
            read_dataset_csv(written)

    def test_invalid_utf8_is_a_data_error(self, written):
        """The oracle stops with UnicodeDecodeError; the reader names the row."""
        lines = written.read_bytes().split(b"\r\n")
        lines[5] = lines[5].replace(b",", b",\xff", 1)
        written.write_bytes(b"\r\n".join(lines))
        with pytest.raises(DataError, match=r"data\.csv:6: byte 0xff is not printable ASCII$"):
            read_dataset_csv(written)

    @given(row=st.integers(0, 11), column=st.integers(0, 22),
           value=st.text(alphabet=FUZZ_ALPHABET, max_size=8))
    @settings(max_examples=300, deadline=None)
    def test_one_field_replaced(self, tmp_path_factory, row, column, value):
        path = tmp_path_factory.mktemp("fuzz") / "data.csv"
        write_dataset_csv(_toy_dataset(12), path)
        path.write_bytes(_edit_row(row, lambda fields, header: fields.__setitem__(column, value))(
            path.read_bytes().decode()).encode())
        _assert_reads_as_the_oracle(path)

    @given(at=st.integers(0, 4000), value=st.text(alphabet=FUZZ_ALPHABET, min_size=1, max_size=4))
    @settings(max_examples=300, deadline=None)
    def test_text_inserted(self, tmp_path_factory, at, value):
        path = tmp_path_factory.mktemp("fuzz") / "data.csv"
        write_dataset_csv(_toy_dataset(12), path)
        text = path.read_bytes().decode()
        at = at % (len(text) + 1)
        path.write_bytes((text[:at] + value + text[at:]).encode())
        _assert_reads_as_the_oracle(path)


class TestCategoryCounts:
    def test_counts_partition_the_dataset(self):
        ds = _toy_dataset(800)
        counts = category_counts(ds)
        assert list(counts) == list(CATEGORY_NAMES)
        assert sum(counts.values()) == 800
        assert counts["consensus_positive"] + counts["non_consensus_positive"] == ds.final_labels.sum()
        tally = dict.fromkeys(CATEGORY_NAMES, 0)
        for rec in ds.records:
            agreed = "consensus" if rec.consensus else "non_consensus"
            tally[f"{agreed}_{'positive' if rec.final_label else 'negative'}"] += 1
        assert counts == tally
