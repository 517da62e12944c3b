"""Label engine: rater weights, soft labels, closed-form branch label draws."""

from itertools import product

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from multirater.errors import DataError
from multirater.labels import (
    Branch,
    attach_soft_labels,
    compute_rater_weights,
    positive_probability,
    sample_branch_label,
    soft_label,
)
from multirater.rng import STREAM_BRANCH_LABEL
from multirater.simulate import GradedDataset, default_panel, generate_dataset, grade_dataset
from multirater.train import soft_targets

import oracles


def make_dataset(rows, sample_ids=None):
    """Gradings by raters 1, 2 and 3: each row is (l1, l2, adjudicator label or None)."""
    ratings = np.array([(l1, l2, -1 if adj is None else adj) for l1, l2, adj in rows], dtype=np.int8)
    n = len(rows)
    return GradedDataset(
        features=np.zeros((n, 2)),
        true_labels=np.zeros(n, dtype=int),
        sample_ids=np.arange(n, dtype=np.int64) if sample_ids is None else np.asarray(sample_ids, dtype=np.int64),
        rater_ids=np.where(ratings >= 0, np.array([1, 2, 3]), -1),
        ratings=ratings.reshape(n, 3),
        soft_labels=np.full(n, 0.5),
    )


def draw(ds, branch, seed, epoch=0):
    """Every row's branch label, one call per sample as ``train_step`` makes them."""
    rows = zip(ds.ratings.tolist(), ds.sample_ids.tolist())
    return np.array([sample_branch_label(r, i, branch, seed, epoch) for r, i in rows])


class TestRaterWeights:
    def test_weight_is_the_agreement_fraction(self):
        # rater 1 right on 80 of 100 samples, rater 2 on all
        ds = make_dataset([(1, 1, None)] * 80 + [(0, 1, 1)] * 20)
        w = compute_rater_weights(ds)
        assert w == {1: 0.8, 2: 1.0, 3: 1.0}  # adjudicator defines the final label

    def test_matches_tally_oracle_on_toy_table(self):
        # ten rows tuned so rater accuracies land on 0.8 and 0.6: four consensus
        # rows credit both; of six disagreements the adjudicator sides with
        # rater 1 four times and rater 2 twice.
        rows = [(1, 1, None), (1, 1, None), (0, 0, None), (0, 0, None),
                (1, 0, 1), (1, 0, 1), (0, 1, 0), (0, 1, 0), (1, 0, 0), (0, 1, 1)]
        ds = make_dataset(rows)
        w = compute_rater_weights(ds)
        assert w == oracles.rater_accuracy_tally(ds.records)
        assert (w[1], w[2]) == (0.8, 0.6)

    def test_matches_tally_oracle_on_simulated_data(self):
        ds = grade_dataset(generate_dataset(100, seed=5), default_panel(), seed=5)
        w = compute_rater_weights(ds)
        assert w == oracles.rater_accuracy_tally(ds.records)
        assert list(w) == sorted(w)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_adjudicator_weight_is_exactly_one(self, seed):
        panel = default_panel()
        w = compute_rater_weights(grade_dataset(generate_dataset(1000, seed=seed), panel, seed=seed))
        assert w[panel.adjudicator.rater_id] == 1.0
        assert all(w[rater.rater_id] < 1.0 for rater in panel.stage1)


class TestSoftLabel:
    def test_weighted_mean_example(self):
        # formula check with two raters only: y = 0.8 / (0.8 + 0.6)
        y = soft_label(make_dataset([(1, 0, None)]), {1: 0.8, 2: 0.6})
        assert y.tolist() == [0.8 / 1.4]

    def test_unanimous_votes_are_clipped(self):
        ds = make_dataset([(1, 1, None), (0, 0, None)])
        assert soft_label(ds, {1: 0.9, 2: 0.7}).tolist() == [0.99, 0.01]

    def test_adjudicator_enters_the_weighted_sum(self):
        ds = make_dataset([(1, 0, 1)])
        assert soft_label(ds, {1: 0.5, 2: 0.5, 3: 1.0}).tolist() == [1.5 / 2.0]

    def test_missing_weight_is_a_data_error(self):
        ds = make_dataset([(0, 0, None), (1, 1, None)])
        with pytest.raises(DataError, match="no weight for rater 2"):
            soft_label(ds, {1: 0.8})
        # the first failing row is named by its sample id, not its position in a split part
        ds = make_dataset([(0, 0, None), (1, 0, 0), (1, 0, 1)], sample_ids=[40, 41, 42])
        with pytest.raises(DataError, match="^sample 42: no weight for rater 3$"):
            soft_label(ds.subset([0, 2, 1]), {1: 0.8, 2: 0.6})

    @given(
        st.integers(0, 1),
        st.integers(0, 1),
        st.floats(1e-6, 1.0, allow_nan=False),
        st.floats(1e-6, 1.0, allow_nan=False),
        st.floats(1e-6, 1.0, allow_nan=False),
    )
    @settings(max_examples=200, deadline=None)
    def test_output_is_a_clipped_distribution(self, l1, l2, w1, w2, w3):
        adj = None if l1 == l2 else l2
        ds = make_dataset([(l1, l2, adj)])
        weights = {1: w1, 2: w2, 3: w3}
        dist = soft_targets(ds, weights)[0]
        assert dist.sum() == pytest.approx(1.0, abs=1e-9)
        assert 0.01 <= dist[1] <= 0.99
        assert dist[1] == oracles.soft_label_scalar(ds.records[0], weights)

    def test_matches_the_scalar_oracle_bit_for_bit(self):
        ds = grade_dataset(generate_dataset(500, seed=8), default_panel(), seed=8)
        rng = np.random.default_rng(8)
        for weights in (compute_rater_weights(ds), {rid: float(rng.uniform(1e-6, 1.0)) for rid in (1, 2, 3)}):
            want = [oracles.soft_label_scalar(rec, weights) for rec in ds.records]
            assert soft_label(ds, weights).tolist() == want

    def test_attach_soft_labels_updates_records(self):
        ds = grade_dataset(generate_dataset(50, seed=3), default_panel(), seed=3)
        w = compute_rater_weights(ds)
        attach_soft_labels(ds, w)
        np.testing.assert_array_equal(ds.soft_labels, soft_label(ds, w))
        assert [rec.soft_label for rec in ds.records] == [oracles.soft_label_scalar(rec, w) for rec in ds.records]


class TestLabelPools:
    def test_sen_pool_duplicates_positives(self):
        # raw labels {1, 0, 0}: SEN pool {1, 1, 0, 0}, SPEC pool {1, 0, 0, 0, 0}
        assert positive_probability([1, 0, 0], Branch.SEN) == 2 / 4
        assert positive_probability([1, 0, 0], Branch.SPEC) == 1 / 5

    def test_two_rater_sen_pool(self):
        # raw labels {1, 0, 1}: SEN pool has four 1s and one 0
        assert positive_probability([1, 0, 1], Branch.SEN) == 4 / 5

    def test_consensus_record_samples_are_constant(self):
        ds = make_dataset([(1, 1, None)] * 20)
        for branch, seed, epoch in product(Branch, range(5), range(5)):
            assert draw(ds, branch, seed, epoch).tolist() == [1] * 20

    def test_draws_are_deterministic_per_seed_epoch(self):
        ds = make_dataset([(1, 0, 0)] * 30)
        first = [draw(ds, Branch.SEN, seed=11, epoch=e) for e in range(3)]
        second = [draw(ds, Branch.SEN, seed=11, epoch=e) for e in range(3)]
        np.testing.assert_array_equal(first, second)
        other_seed = [draw(ds, Branch.SEN, seed=12, epoch=e) for e in range(3)]
        assert not np.array_equal(first, other_seed)  # 2^-90 chance of collision

    def test_empirical_frequencies_match_exact_pool_probabilities(self):
        ds = make_dataset([(1, 0, 0)] * 10_000)  # raw {1, 0, 0}
        sen_freq = draw(ds, Branch.SEN, seed=99).mean()
        spec_freq = draw(ds, Branch.SPEC, seed=99).mean()
        # exact pool enumerations: SEN {1,1,0,0} -> 1/2; SPEC {1,0,0,0,0} -> 1/5
        assert abs(sen_freq - 2.0 / 4.0) < 0.02
        assert abs(spec_freq - 1.0 / 5.0) < 0.02
        assert sen_freq > spec_freq

    def test_sen_favors_positives_on_stage1_disagreement(self):
        ds = make_dataset([(1, 0, 1)] * 10_000)
        sen = draw(ds, Branch.SEN, seed=5).mean()
        spec = draw(ds, Branch.SPEC, seed=5).mean()
        assert abs(sen - 4.0 / 5.0) < 0.02  # pool {1,1,0,1,1}
        assert abs(spec - 2.0 / 4.0) < 0.02  # pool {1,0,0,1}
        assert sen > spec


ALL_PATTERNS = [r for k in (2, 3) for r in product((0, 1), repeat=k)]


def pattern_dataset(patterns, sample_ids=None):
    """One row per rating pattern: two ratings leave the adjudicator slot empty."""
    return make_dataset([(p[0], p[1], p[2] if len(p) == 3 else None) for p in patterns], sample_ids)


def pool_probability(record, branch):
    pool = oracles.label_pool(record, favored=1 if branch is Branch.SEN else 0)
    return pool.count(1) / len(pool)


class TestClosedFormDraw:
    @pytest.mark.parametrize("ratings", ALL_PATTERNS)
    def test_probability_equals_the_pool_enumeration(self, ratings):
        ds = pattern_dataset([ratings])
        for branch in Branch:
            assert positive_probability(ds.ratings[0].tolist(), branch) == pool_probability(ds.records[0], branch)

    def test_draw_is_the_keyed_uniform_below_the_probability(self):
        rng = np.random.default_rng(4)
        patterns = [ALL_PATTERNS[k] for k in rng.integers(len(ALL_PATTERNS), size=300)]
        ids = rng.integers(-(2**63), 2**63, size=300, dtype=np.int64)
        ds = pattern_dataset(patterns, ids)
        for seed, branch, epoch in product((4, -3, 2**64 + 1), Branch, range(3)):
            want = [
                int(oracles.keyed_uniform(seed, STREAM_BRANCH_LABEL, epoch, branch.value, rec.sample_id)
                    < pool_probability(rec, branch))
                for rec in ds.records
            ]
            assert draw(ds, branch, seed=seed, epoch=epoch).tolist() == want

    def test_draw_does_not_depend_on_call_order_or_other_calls(self):
        ds = make_dataset([(0, 1, 1)] * 40)
        first = {(b, e): draw(ds, b, seed=8, epoch=e) for b in Branch for e in range(4)}
        for j in np.random.default_rng(1).permutation(len(first)):
            branch, epoch = list(first)[j]
            draw(ds, branch, seed=9, epoch=epoch + 1)
            order = np.random.default_rng(int(j)).permutation(40)[:25]
            part = ds.subset(order)
            np.testing.assert_array_equal(draw(part, branch, seed=8, epoch=epoch), first[branch, epoch][order])
