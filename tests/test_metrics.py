"""Metrics: confusion counts, rank-based AUC, stratified evaluation reports."""

import json

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from multirater.errors import DataError, ParameterError, UndefinedMetricError
from multirater.metrics import _average_ranks, confusion_metrics, evaluate, roc_auc
from multirater.model import ModelConfig, forward_batch, init_params
from multirater.simulate import (
    GradingPanel,
    RaterProfile,
    default_panel,
    generate_dataset,
    grade_dataset,
    split_dataset,
)
from multirater.train import TrainConfig, fit

import oracles

RNG = np.random.default_rng(101)


class TestConfusionMetrics:
    def test_perfect_classifier(self):
        labels = [0, 1, 1, 0, 1]
        m = confusion_metrics(labels, labels)
        assert (m.acc, m.sen, m.spec, m.f1) == (1.0, 1.0, 1.0, 1.0)
        assert not m.undefined

    def test_always_positive_on_balanced_data(self):
        labels = [0, 1] * 10
        m = confusion_metrics([1] * 20, labels)
        assert m.sen == 1.0
        assert m.spec == 0.0
        assert m.acc == 0.5

    def test_hand_tally(self):
        # TP=3, FP=1, FN=1, TN=5
        preds = [1, 1, 1, 1, 0, 0, 0, 0, 0, 0]
        labels = [1, 1, 1, 0, 1, 0, 0, 0, 0, 0]
        m = confusion_metrics(preds, labels)
        assert m.sen == pytest.approx(0.75)
        assert m.spec == pytest.approx(5.0 / 6.0)
        assert m.f1 == pytest.approx(0.75)
        assert m.acc == pytest.approx(0.8)

    def test_zero_denominators_flagged(self):
        m = confusion_metrics([0, 0], [0, 0])
        assert m.sen == 0.0 and m.f1 == 0.0
        assert m.undefined == {"sen", "f1"}
        assert m.spec == 1.0

    def test_matches_tally_oracle_on_random_instances(self):
        for _ in range(1000):
            n = int(RNG.integers(1, 51))
            preds = RNG.integers(0, 2, size=n).tolist()
            labels = RNG.integers(0, 2, size=n).tolist()
            m = confusion_metrics(preds, labels)
            acc, sen, spec, f1, undefined = oracles.confusion_tally(preds, labels)
            assert (m.acc, m.sen, m.spec, m.f1) == (acc, sen, spec, f1)
            assert m.undefined == frozenset(undefined)

    def test_length_mismatch_rejected(self):
        with pytest.raises(ParameterError):
            confusion_metrics([0, 1], [0, 1, 1])
        with pytest.raises(ParameterError):
            confusion_metrics([0, 2], [0, 1])


class TestRocAuc:
    def test_perfectly_ordered_scores(self):
        assert roc_auc([0.1, 0.2, 0.8, 0.9], [0, 0, 1, 1]) == 1.0

    def test_all_ties_give_half(self):
        assert roc_auc([0.4] * 6, [0, 1, 0, 1, 0, 1]) == 0.5

    def test_worked_example(self):
        assert roc_auc([0.1, 0.4, 0.35, 0.8], [0, 0, 1, 1]) == pytest.approx(0.75)

    def test_matches_pair_counting_oracle(self):
        for _ in range(1000):
            n = int(RNG.integers(2, 51))
            labels = RNG.integers(0, 2, size=n)
            if labels.min() == labels.max():
                labels[0] = 1 - labels[0]
            # coarse grid forces plenty of ties
            scores = RNG.integers(0, 8, size=n) / 8.0
            got = roc_auc(scores, labels)
            want = oracles.auc_pair_count(scores.tolist(), labels.tolist())
            assert got == pytest.approx(want, abs=1e-12)

    @given(st.lists(st.tuples(st.sampled_from([-1.0, 0.0, 0.25, 0.5, 3.0]), st.integers(0, 1)),
                    min_size=2, max_size=80))
    @settings(max_examples=300, deadline=None)
    def test_heavy_ties_match_brute_force_mann_whitney(self, pairs):
        scores = [s for s, _ in pairs]
        labels = [y for _, y in pairs]
        np.testing.assert_array_equal(_average_ranks(np.array(scores)), oracles.midranks(scores))
        assume(0 < sum(labels) < len(labels))
        # midranks are multiples of 1/2, so both routes are exact and agree bit for bit
        assert roc_auc(scores, labels) == oracles.auc_pair_count(scores, labels)

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=50, deadline=None)
    def test_invariant_under_monotone_transforms(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(4, 40))
        labels = rng.integers(0, 2, size=n)
        if labels.min() == labels.max():
            labels[0] = 1 - labels[0]
        scores = rng.standard_normal(n)
        base = roc_auc(scores, labels)
        for transform in (lambda s: 3.0 * s + 2.0, np.tanh, lambda s: s**3, np.exp):
            assert roc_auc(transform(scores), labels) == pytest.approx(base, abs=1e-12)

    def test_length_mismatch_rejected(self):
        with pytest.raises(ParameterError, match="equal-length"):
            roc_auc([0.1, 0.9, 0.5], [0, 1])

    def test_single_class_rejected(self):
        with pytest.raises(UndefinedMetricError):
            roc_auc([0.2, 0.4], [1, 1])

    @pytest.mark.parametrize("labels", [[0, 1, 2], [0, 1, -1], [0.0, 1.0, 0.5]])
    def test_labels_outside_zero_one_rejected(self, labels):
        with pytest.raises(ParameterError):
            roc_auc([0.1, 0.5, 0.9], labels)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_score_is_undefined(self, bad):
        with pytest.raises(UndefinedMetricError, match="finite"):
            roc_auc([0.1, bad, 0.9], [0, 1, 1])


@pytest.fixture(scope="module")
def separable_run():
    """A model fitted on a cleanly separable task, plus its test split."""
    import warnings

    panel = GradingPanel(
        stage1=(RaterProfile(1, 1.0, 1.0), RaterProfile(2, 1.0, 1.0)),
        adjudicator=RaterProfile(3, 1.0, 1.0),
    )
    samples = generate_dataset(400, feature_dim=4, difficulty_mix=0.0, seed=31)
    ds = grade_dataset(samples, panel, seed=31)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # empty non-consensus strata
        train, val, test = split_dataset(ds, (0.6, 0.15, 0.25), seed=31)
    params, _ = fit(
        train,
        val,
        ModelConfig(input_dim=4, trunk_dims=(16, 16, 16), branch_dim=8, seed=31),
        TrainConfig(max_epochs=20, seed=31),
    )
    return params, test


class TestEvaluate:
    def test_converged_model_on_separable_data_has_unit_auc(self, separable_run):
        params, test = separable_run
        report = evaluate(params, test)
        assert report.metrics["fusion"]["all"]["auc"] == pytest.approx(1.0, abs=1e-9)

    def test_reports_are_deterministic(self, separable_run):
        params, test = separable_run
        a, b = (json.dumps(evaluate(params, test).to_dict(), allow_nan=False) for _ in range(2))
        assert a == b

    def test_counts_partition_and_metrics_bounded(self, separable_run):
        params, test = separable_run
        report = evaluate(params, test)
        assert report.counts["consensus"] + report.counts["non_consensus"] == report.counts["all"]
        for branch_grid in report.metrics.values():
            for stratum_metrics in branch_grid.values():
                for value in stratum_metrics.values():
                    if value is not None:
                        assert 0.0 <= value <= 1.0

    def test_all_stratum_equals_recomputation_on_concatenation(self):
        samples = generate_dataset(600, feature_dim=4, difficulty_mix=0.8, seed=17)
        ds = grade_dataset(samples, default_panel(), seed=17)
        params = init_params(ModelConfig(4, (8, 8, 8), 4, seed=1))
        report = evaluate(params, ds)
        probs, _ = forward_batch(params, ds.features)
        preds = (probs["fusion"][:, 1] >= 0.5).astype(int)
        m = confusion_metrics(preds, ds.final_labels)
        assert report.metrics["fusion"]["all"]["acc"] == m.acc
        assert report.metrics["fusion"]["all"]["sen"] == m.sen
        assert report.metrics["fusion"]["all"]["auc"] == pytest.approx(
            roc_auc(probs["fusion"][:, 1], ds.final_labels), abs=1e-12
        )

    def test_mean_uncertainty_is_the_sen_spec_disagreement(self):
        ds = grade_dataset(generate_dataset(300, feature_dim=4, seed=5), default_panel(), seed=5)
        params = init_params(ModelConfig(4, (8, 8, 8), 4, seed=2))
        probs, _ = forward_batch(params, ds.features)
        pairs = zip(probs["sen"].tolist(), probs["spec"].tolist())
        u = np.array([oracles.uncertainty_scalar(p, q) for p, q in pairs])
        report = evaluate(params, ds)
        for stratum, mask in (("consensus", ds.consensus_flags == 1), ("all", slice(None))):
            assert report.mean_uncertainty[stratum] == pytest.approx(u[mask].mean(), abs=1e-12)
        assert report.mean_uncertainty["all"] > 0

    def test_baseline_reports_its_fusion_output_in_every_branch_row(self):
        ds = grade_dataset(generate_dataset(300, feature_dim=4, seed=5), default_panel(), seed=5)
        report = evaluate(init_params(ModelConfig(4, (8, 8, 8), 4, seed=2), multi_branch=False), ds)
        assert report.metrics["sen"] == report.metrics["spec"] == report.metrics["fusion"]
        assert report.undefined["sen"] == report.undefined["spec"] == report.undefined["fusion"]
        assert report.metrics["fusion"]["all"]["auc"] is not None
        assert report.mean_uncertainty == {"consensus": 0.0, "non_consensus": 0.0, "all": 0.0}

    def test_empty_stratum_reports_absent_metrics(self):
        panel = GradingPanel(
            stage1=(RaterProfile(1, 1.0, 1.0), RaterProfile(2, 1.0, 1.0)),
            adjudicator=RaterProfile(3, 1.0, 1.0),
        )
        samples = generate_dataset(60, feature_dim=4, difficulty_mix=0.0, seed=23)
        ds = grade_dataset(samples, panel, seed=23)  # every record is consensus
        report = evaluate(init_params(ModelConfig(4, (8, 8, 8), 4, seed=0)), ds)
        assert report.counts["non_consensus"] == 0
        assert all(v is None for v in report.metrics["fusion"]["non_consensus"].values())
        assert report.mean_uncertainty["non_consensus"] is None

    @pytest.mark.parametrize("threshold", [-0.1, 1.5])
    def test_threshold_outside_unit_interval_rejected(self, threshold):
        ds = grade_dataset(generate_dataset(20, feature_dim=4, seed=5), default_panel(), seed=5)
        with pytest.raises(ParameterError, match="threshold must lie in"):
            evaluate(init_params(ModelConfig(4, (8, 8, 8), 4, seed=2)), ds, threshold)

    def test_one_class_stratum_reports_no_auc(self):
        ds = grade_dataset(generate_dataset(300, feature_dim=4, seed=5), default_panel(), seed=5)
        positives = ds.subset(np.flatnonzero(ds.final_labels == 1))
        report = evaluate(init_params(ModelConfig(4, (8, 8, 8), 4, seed=2)), positives)
        for stratum in ("consensus", "non_consensus", "all"):
            assert report.metrics["fusion"][stratum]["auc"] is None
            assert report.metrics["fusion"][stratum]["acc"] is not None

    def test_non_finite_row_is_rejected_naming_its_sample(self, separable_run):
        params, test = separable_run
        test = test.subset(np.arange(3, len(test)))  # a copy: the fixture is shared
        test.features[[4, 7]] = np.nan
        with pytest.raises(DataError, match=rf"sample {test.sample_ids[4]}: non-finite"):
            evaluate(params, test)

    def test_non_finite_outputs_are_rejected(self, separable_run):
        params, test = separable_run
        params = params.copy()
        params.tensors["fusion.head.b"][0] = np.nan
        with pytest.raises(DataError, match=rf"sample {test.sample_ids[0]}: non-finite"):
            evaluate(params, test)

    def test_report_json_and_table_render(self, separable_run):
        params, test = separable_run
        report = evaluate(params, test)
        doc = json.loads(json.dumps(report.to_dict(), allow_nan=False))
        assert set(doc) == {"threshold", "counts", "mean_uncertainty", "metrics", "undefined"}
        table = report.format_table()
        for token in ("FusionBr", "SenBr", "SpecBr", "Consensus", "All Data"):
            assert token in table
