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
from multirater.rng import STREAM_BRANCH_LABEL, keyed_uniform
from multirater.simulate import GradingRecord, default_panel, generate_dataset, grade_dataset

import oracles


def make_record(sample_id, l1, l2, adj=None):
    """Record with stage-1 labels l1/l2 and an optional adjudicator label."""
    consensus = int(l1 == l2)
    assert (adj is None) == bool(consensus)
    final = l1 if consensus else adj
    return GradingRecord(
        sample_id=sample_id,
        stage1_labels=((1, l1), (2, l2)),
        adjudicator_label=None if adj is None else (3, adj),
        consensus=consensus,
        final_label=final,
        soft_label=0.5,
    )


class TestRaterWeights:
    def test_weight_is_the_agreement_fraction(self):
        # rater 1 right on 80 of 100 consensus records, rater 2 on all
        records = [make_record(i, 1, 1) for i in range(80)]
        records += [
            GradingRecord(
                sample_id=80 + i,
                stage1_labels=((1, 0), (2, 1)),
                adjudicator_label=(3, 1),
                consensus=0,
                final_label=1,
                soft_label=0.5,
            )
            for i in range(20)
        ]
        w = compute_rater_weights(records)
        assert w[1] == pytest.approx(0.8)
        assert w[2] == pytest.approx(1.0)
        assert w[3] == pytest.approx(1.0)  # adjudicator defines the final label

    def test_matches_tally_oracle_on_toy_table(self):
        # ten rows tuned so rater accuracies land on 0.8 and 0.6: four consensus
        # rows credit both; of six disagreements the adjudicator sides with
        # rater 1 four times and rater 2 twice.
        rows = [(1, 1, None), (1, 1, None), (0, 0, None), (0, 0, None),
                (1, 0, 1), (1, 0, 1), (0, 1, 0), (0, 1, 0), (1, 0, 0), (0, 1, 1)]
        records = [make_record(i, l1, l2, adj=adj) for i, (l1, l2, adj) in enumerate(rows)]
        w = compute_rater_weights(records)
        oracle = oracles.rater_accuracy_tally(records)
        assert w[1] == pytest.approx(oracle[1]) == pytest.approx(0.8)
        assert w[2] == pytest.approx(oracle[2]) == pytest.approx(0.6)

    def test_matches_tally_oracle_on_simulated_data(self):
        ds = grade_dataset(generate_dataset(100, seed=5), default_panel(), seed=5)
        w = compute_rater_weights(ds.records)
        oracle = oracles.rater_accuracy_tally(ds.records)
        assert set(w) == set(oracle)
        for rid in oracle:
            assert w[rid] == pytest.approx(oracle[rid], abs=1e-12)


class TestSoftLabel:
    def test_weighted_mean_example(self):
        # formula check with two raters only: y = 0.8 / (0.8 + 0.6)
        rec = GradingRecord(
            sample_id=0,
            stage1_labels=((1, 1), (2, 0)),
            adjudicator_label=None,
            consensus=0,
            final_label=1,
            soft_label=0.5,
        )
        w = {1: 0.8, 2: 0.6}
        dist = soft_label(rec, w)
        assert dist[1] == pytest.approx(0.8 / 1.4, abs=1e-12)
        assert dist[0] == pytest.approx(1.0 - 0.8 / 1.4, abs=1e-12)

    def test_unanimous_votes_are_clipped(self):
        w = {1: 0.9, 2: 0.7}
        all_pos = make_record(0, 1, 1)
        all_neg = make_record(1, 0, 0)
        assert soft_label(all_pos, w)[1] == pytest.approx(0.99)
        assert soft_label(all_neg, w)[1] == pytest.approx(0.01)

    def test_adjudicator_enters_the_weighted_sum(self):
        rec = make_record(0, 1, 0, adj=1)
        w = {1: 0.5, 2: 0.5, 3: 1.0}
        assert soft_label(rec, w)[1] == pytest.approx(1.5 / 2.0, abs=1e-12)

    def test_missing_weight_is_a_data_error(self):
        rec = make_record(0, 1, 1)
        with pytest.raises(DataError, match="no weight for rater 2"):
            soft_label(rec, {1: 0.8})

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
        rec = make_record(0, l1, l2, adj=adj)
        weights = {1: w1, 2: w2, 3: w3}
        dist = soft_label(rec, weights)
        assert dist.sum() == pytest.approx(1.0, abs=1e-9)
        assert 0.01 <= dist[1] <= 0.99

    def test_attach_soft_labels_updates_records(self):
        ds = grade_dataset(generate_dataset(50, seed=3), default_panel(), seed=3)
        w = compute_rater_weights(ds.records)
        attach_soft_labels(ds.records, w)
        for rec in ds.records:
            assert rec.soft_label == pytest.approx(float(soft_label(rec, w)[1]))


class TestLabelPools:
    def test_sen_pool_duplicates_positives(self):
        rec = make_record(0, 1, 0, adj=0)
        # raw labels {1, 0, 0}: SEN pool {1, 1, 0, 0}, SPEC pool {1, 0, 0, 0, 0}
        assert positive_probability(rec, Branch.SEN) == 2 / 4
        assert positive_probability(rec, Branch.SPEC) == 1 / 5

    def test_two_rater_sen_pool(self):
        rec = GradingRecord(
            sample_id=0, stage1_labels=((1, 1), (2, 0)), adjudicator_label=(3, 1),
            consensus=0, final_label=1, soft_label=0.5,
        )
        # raw labels {1, 0, 1}: SEN pool has four 1s and one 0
        assert positive_probability(rec, Branch.SEN) == 4 / 5

    def test_consensus_record_samples_are_constant(self):
        rec = make_record(7, 1, 1)
        draws = {sample_branch_label(rec, b, seed=s, epoch=e)
                 for b in Branch for s in range(5) for e in range(5)}
        assert draws == {1}

    def test_draws_are_deterministic_per_seed_epoch(self):
        rec = make_record(3, 1, 0, adj=0)
        first = [sample_branch_label(rec, Branch.SEN, seed=11, epoch=e) for e in range(30)]
        second = [sample_branch_label(rec, Branch.SEN, seed=11, epoch=e) for e in range(30)]
        assert first == second
        other_seed = [sample_branch_label(rec, Branch.SEN, seed=12, epoch=e) for e in range(30)]
        assert first != other_seed  # 2^-30 chance of collision

    def test_empirical_frequencies_match_exact_pool_probabilities(self):
        rec = make_record(0, 1, 0, adj=0)  # raw {1, 0, 0}
        n = 10_000
        sen_hits = sum(
            sample_branch_label(rec, Branch.SEN, seed=99, epoch=e) for e in range(n)
        )
        spec_hits = sum(
            sample_branch_label(rec, Branch.SPEC, seed=99, epoch=e) for e in range(n)
        )
        sen_freq, spec_freq = sen_hits / n, spec_hits / n
        # exact pool enumerations: SEN {1,1,0,0} -> 1/2; SPEC {1,0,0,0,0} -> 1/5
        assert abs(sen_freq - 2.0 / 4.0) < 0.02
        assert abs(spec_freq - 1.0 / 5.0) < 0.02
        assert sen_freq > spec_freq

    def test_sen_favors_positives_on_stage1_disagreement(self):
        rec = GradingRecord(
            sample_id=0, stage1_labels=((1, 1), (2, 0)), adjudicator_label=(3, 1),
            consensus=0, final_label=1, soft_label=0.5,
        )
        n = 10_000
        sen = np.mean([sample_branch_label(rec, Branch.SEN, seed=5, epoch=e) for e in range(n)])
        spec = np.mean([sample_branch_label(rec, Branch.SPEC, seed=5, epoch=e) for e in range(n)])
        assert abs(sen - 4.0 / 5.0) < 0.02  # pool {1,1,0,1,1}
        assert abs(spec - 2.0 / 4.0) < 0.02  # pool {1,0,0,1}
        assert sen > spec


class TestClosedFormDraw:
    @pytest.mark.parametrize("ratings", [r for k in (2, 3) for r in product((0, 1), repeat=k)])
    def test_probability_equals_the_pool_enumeration(self, ratings):
        rec = GradingRecord(
            sample_id=0, stage1_labels=((1, ratings[0]), (2, ratings[1])),
            adjudicator_label=(3, ratings[2]) if len(ratings) == 3 else None,
            consensus=int(ratings[0] == ratings[1]), final_label=ratings[-1], soft_label=0.5,
        )
        for branch in Branch:
            pool = oracles.label_pool(rec, favored=1 if branch is Branch.SEN else 0)
            assert positive_probability(rec, branch) == pool.count(1) / len(pool)

    def test_draw_is_the_keyed_uniform_below_the_probability(self):
        records = [make_record(i, 1, 0, adj=i % 2) for i in range(50)]
        for rec, branch, epoch in product(records, Branch, range(3)):
            code = 0 if branch is Branch.SEN else 1
            u = keyed_uniform(4, STREAM_BRANCH_LABEL, epoch, code, rec.sample_id)
            want = int(u < positive_probability(rec, branch))
            assert sample_branch_label(rec, branch, seed=4, epoch=epoch) == want

    def test_draw_does_not_depend_on_call_order_or_other_calls(self):
        records = [make_record(i, 0, 1, adj=1) for i in range(40)]
        calls = list(product(range(40), Branch, range(4)))
        first = {c: sample_branch_label(records[c[0]], c[1], seed=8, epoch=c[2]) for c in calls}
        for j in np.random.default_rng(1).permutation(len(calls)):
            i, branch, epoch = calls[j]
            sample_branch_label(records[(i + 1) % 40], branch, seed=9, epoch=epoch + 1)
            assert sample_branch_label(records[i], branch, seed=8, epoch=epoch) == first[calls[j]]
