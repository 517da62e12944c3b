"""Trainer: schedule arithmetic, determinism, loss descent, ablation equivalences."""

import hashlib
import json
import warnings
from dataclasses import replace

import numpy as np
import pytest

from multirater.cli import ExperimentConfig, build_datasets
from multirater.errors import ParameterError, TrainingDivergedError
from multirater.labels import Branch, sample_branch_label
from multirater.model import ModelConfig, ModelParams, forward_batch, init_params
from multirater.rng import STREAM_SHUFFLE, seeded_rng
from multirater.simulate import (
    GradingPanel,
    RaterProfile,
    default_panel,
    generate_dataset,
    grade_dataset,
    split_dataset,
)
from multirater.train import (
    ADAM_BETA1,
    ADAM_BETA2,
    ADAM_EPS,
    ARM_FLAGS,
    TrainConfig,
    _adam_update,
    _losses_and_grads,
    fit,
    fit_targets,
    init_state,
    learning_rate,
    train_step,
)

import oracles

TOY_MODEL = ModelConfig(input_dim=6, trunk_dims=(10, 10, 10), branch_dim=5, seed=5)


def toy_data(n=240, seed=19, difficulty_mix=0.7, feature_dim=6):
    samples = generate_dataset(n, feature_dim=feature_dim, difficulty_mix=difficulty_mix, seed=seed)
    ds = grade_dataset(samples, default_panel(), seed=seed)
    return split_dataset(ds, (0.6, 0.2, 0.2), seed=seed)


def separable_data():
    """Well-separated classes graded by noiseless raters, split 0.6 / 0.2 / 0.2."""
    panel = GradingPanel(
        stage1=(RaterProfile(1, 1.0, 1.0), RaterProfile(2, 1.0, 1.0)),
        adjudicator=RaterProfile(3, 1.0, 1.0),
    )
    ds = grade_dataset(generate_dataset(1200, feature_dim=6, difficulty_mix=0.0, seed=9), panel, seed=9)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # empty non-consensus strata
        return split_dataset(ds, (0.6, 0.2, 0.2), seed=9)


class TestSchedule:
    def test_halving_arithmetic(self):
        cfg = TrainConfig()
        assert learning_rate(cfg, 0) == 2e-4
        assert learning_rate(cfg, 14) == 2e-4
        assert learning_rate(cfg, 15) == 1e-4
        assert learning_rate(cfg, 30) == 5e-5
        assert learning_rate(cfg, 31) == 5e-5  # 2e-4 / 4
        assert learning_rate(cfg, 45) == 2.5e-5


class TestTrainStep:
    def test_fixed_batch_is_deterministic(self):
        train, _, _ = toy_data()
        cfg = TrainConfig(seed=3)
        targets = fit_targets(train, cfg)
        results = []
        for _ in range(2):
            state = init_state(TOY_MODEL, cfg)
            scalars = train_step(state, train, np.arange(32), targets, cfg)
            results.append((scalars, state.params))
        assert results[0][0] == results[1][0]
        for name in results[0][1].tensors:
            np.testing.assert_array_equal(
                results[0][1].tensors[name], results[1][1].tensors[name]
            )

    def test_empty_batch_rejected(self):
        train, _, _ = toy_data()
        cfg = TrainConfig(seed=3)
        with pytest.raises(ParameterError, match="batch must be non-empty"):
            train_step(init_state(TOY_MODEL, cfg), train, np.arange(0), fit_targets(train, cfg), cfg)

    @pytest.mark.parametrize("arm", list(ARM_FLAGS))
    def test_batch_losses_match_per_sample_loss_functions(self, arm):
        """The vectorized trainer math must equal the per-sample scalar oracles."""
        train, _, _ = toy_data()
        cfg = TrainConfig(seed=7, ablation=arm)
        flags = ARM_FLAGS[arm]
        batch = train.subset(np.arange(16))
        state = init_state(TOY_MODEL, cfg)
        probs, cache = forward_batch(state.params, batch.features)
        n = len(batch)
        eye = np.eye(2).tolist()
        a = np.array([r.consensus for r in batch.records])

        if not flags["multi_branch"]:  # the fusion KL to one-hot final labels is their cross entropy
            finals = [r.final_label for r in batch.records]
            scalars, grads = _losses_and_grads(cache.probs, None, np.eye(2)[finals], a, cfg)
            preds = probs["fusion"].tolist()
            want = [oracles.cross_entropy_scalar(preds[i], eye[finals[i]]) for i in range(n)]
            want_grad = [oracles.cross_entropy_grad_scalar(preds[i], eye[finals[i]]) for i in range(n)]
            assert scalars["loss_fusion"] == pytest.approx(np.mean(want), abs=1e-12)
            assert scalars["total"] == scalars["loss_fusion"]
            assert set(grads) == {"fusion"}
            np.testing.assert_allclose(grads["fusion"], np.array(want_grad) / n, atol=1e-12)
            return

        rows = list(zip(batch.ratings.tolist(), batch.sample_ids.tolist()))
        sen_idx, spec_idx = (
            np.array([sample_branch_label(oracles.positive_probability(r, b), i, b, cfg.seed, 0)
                      for r, i in rows])
            for b in Branch
        )
        softs = fit_targets(train, cfg).softs[:n]  # batch holds train's first n rows
        scalars, grads = _losses_and_grads(cache.probs, np.array([sen_idx, spec_idx]), softs, a, cfg)

        y_sen, y_spec = probs["sen"].tolist(), probs["spec"].tolist()
        alpha = cfg.alpha if flags["consensus_loss"] else 0.0
        want_sen = np.zeros((n, 2))
        want_spec = np.zeros((n, 2))
        sen_losses, spec_losses = [], []
        for i in range(n):
            terms = (a[i], alpha, cfg.margin)
            sen_losses.append(oracles.branch_loss_scalar(y_sen[i], eye[sen_idx[i]], y_spec[i], *terms))
            g_own, g_partner = oracles.branch_loss_grads_scalar(y_sen[i], eye[sen_idx[i]], y_spec[i], *terms)
            want_sen[i] += np.array(g_own) / n
            want_spec[i] += np.array(g_partner) / n
            spec_losses.append(oracles.branch_loss_scalar(y_spec[i], eye[spec_idx[i]], y_sen[i], *terms))
            g_own, g_partner = oracles.branch_loss_grads_scalar(y_spec[i], eye[spec_idx[i]], y_sen[i], *terms)
            want_spec[i] += np.array(g_own) / n
            want_sen[i] += np.array(g_partner) / n
        u = [oracles.uncertainty_scalar(y_sen[i], y_spec[i]) if flags["uncertainty_weighting"] else 0.0
             for i in range(n)]
        fusion_args = (probs["fusion"].tolist(), softs.tolist(), u)

        assert scalars["loss_sen"] == pytest.approx(np.mean(sen_losses), abs=1e-12)
        assert scalars["loss_spec"] == pytest.approx(np.mean(spec_losses), abs=1e-12)
        assert scalars["loss_fusion"] == pytest.approx(oracles.fusion_loss_scalar(*fusion_args), abs=1e-12)
        assert set(grads) == {"sen", "spec", "fusion"}
        np.testing.assert_allclose(grads["sen"], want_sen, atol=1e-12)
        np.testing.assert_allclose(grads["spec"], want_spec, atol=1e-12)
        np.testing.assert_allclose(grads["fusion"], oracles.fusion_grad_scalar(*fusion_args), atol=1e-12)

    def test_loss_decreases_on_a_fixed_batch(self):
        """Ten repeated steps on one batch lower the total loss (>= 4 of 5 seeds)."""
        train, _, _ = toy_data()
        wins = 0
        for seed in range(5):
            cfg = TrainConfig(seed=seed, lr=1e-3)
            targets = fit_targets(train, cfg)
            state = init_state(
                ModelConfig(input_dim=6, trunk_dims=(10, 10, 10), branch_dim=5, seed=seed), cfg
            )
            first = last = None
            for _ in range(10):
                scalars = train_step(state, train, np.arange(32), targets, cfg)
                first = scalars["total"] if first is None else first
                last = scalars["total"]
            wins += last < first
        assert wins >= 4

    def test_non_finite_loss_aborts_with_diagnostics(self):
        train, _, _ = toy_data()
        cfg = TrainConfig(seed=1)
        state = init_state(TOY_MODEL, cfg)
        state.params.tensors["trunk.0.W"][:] = np.nan
        state.params.version += 1
        with pytest.raises(TrainingDivergedError, match="epoch 0"):
            train_step(state, train, np.arange(8), fit_targets(train, cfg), cfg)


class TestAdam:
    def test_flat_update_equals_the_per_tensor_reference_bit_for_bit(self):
        """Two consecutive steps, the second on the work buffers the first left filled, equal the formula."""
        rng = np.random.default_rng(17)
        state = init_state(TOY_MODEL, TrainConfig())
        state.m[...] = 0.01 * rng.standard_normal(state.m.shape)
        state.v[...] = 0.01 * np.abs(rng.standard_normal(state.v.shape))
        state.t = 3
        params = {k: p.copy() for k, p in state.params.tensors.items()}

        def per_tensor(flat):
            return {k: p.copy() for k, p in ModelParams(TOY_MODEL, True, flat).tensors.items()}

        m, v = per_tensor(state.m), per_tensor(state.v)
        for t, lr in ((4, 3e-4), (5, 1e-4)):
            grad = rng.standard_normal(state.m.shape)
            grads = per_tensor(grad)

            _adam_update(state, grad, lr)

            bc1, bc2 = 1.0 - ADAM_BETA1**t, 1.0 - ADAM_BETA2**t
            for name, g in grads.items():
                m[name] = ADAM_BETA1 * m[name] + (1.0 - ADAM_BETA1) * g
                v[name] = ADAM_BETA2 * v[name] + (1.0 - ADAM_BETA2) * g * g
                params[name] -= lr * (m[name] / bc1) / (np.sqrt(v[name] / bc2) + ADAM_EPS)
                np.testing.assert_array_equal(state.params.tensors[name], params[name])
            assert state.t == t

    def test_skipped_bias_correction_division_is_exact(self):
        """From t = 356 on, 1 - b1**t is 1.0 and the update skips m / bc1; steps 351..362 match the formula."""
        assert 1.0 - ADAM_BETA1**355 != 1.0 == 1.0 - ADAM_BETA1**356
        rng = np.random.default_rng(23)
        state = init_state(TOY_MODEL, TrainConfig())
        state.m[...] = 0.01 * rng.standard_normal(state.m.shape)
        state.v[...] = 0.01 * np.abs(rng.standard_normal(state.v.shape))
        state.t = 350
        flat, m, v = state.params.flat.copy(), state.m.copy(), state.v.copy()
        for t in range(351, 363):
            g, lr = rng.standard_normal(flat.shape), 2e-4
            _adam_update(state, g, lr)
            bc1, bc2 = 1.0 - ADAM_BETA1**t, 1.0 - ADAM_BETA2**t
            m = ADAM_BETA1 * m + (1.0 - ADAM_BETA1) * g
            v = ADAM_BETA2 * v + (1.0 - ADAM_BETA2) * g * g
            flat = flat - lr * (m / bc1) / (np.sqrt(v / bc2) + ADAM_EPS)
            np.testing.assert_array_equal(state.params.flat, flat, err_msg=f"t = {t}")
            assert state.t == t


class TestLongFit:
    # sha256 of ``params.flat.tobytes()`` and of the log as ``train_log.jsonl`` writes it, recorded at
    # commit 70acbc7. Each fit takes 380 Adam steps, past t = 356, where the update starts skipping its
    # division by 1 - b1**t; the 31 reference artifacts take at most 60 steps.
    DIGESTS = {
        "baseline": ("7e4aae0ba80224f1f4182e7e5a93e07088a9f96e218ba54f11487bb4806604d8",
                     "ac5970c7d1d127f6a6d28afa59899c310048242b1a899bd81f161c65cd8661ce"),
        "multibr": ("5659656bc1eddaf92562209ac5ac29b37405031cb3b8e1a0dfd4c1b47e5279b9",
                    "57e88447c7fb7901be90f616de7d78486950315bf01efefcee1933a2617ccb8f"),
        "conloss": ("2ee540226addd7e17b39b2f27289e6deabfe2a1efebe9564d87876d45644e2a7",
                    "c4604a43fc882e44a2ae099d87d548f3dfe314a239b29eb2e4204b12ec286d7e"),
        "uncerty": ("ec01c59fde1abcb6b91f9cd9102875b3596206802f5d4f4d5e4b5982b9e8d9b4",
                    "e66998eef57dd07f7334e6020ffbfdd759f850f6cf2b5f8f8cb1b5ce2f9bb519"),
        "full": ("0cf7e46f36fb926fd1f5f05369bfa4e704fdc97bb1961c84ee9cb1d6d9c98c67",
                 "17496392db88a045c6341cb155230213f26bc2ac31870efc7730f975845d9716"),
    }

    @pytest.mark.parametrize("arm", list(ARM_FLAGS))
    def test_ten_epoch_fit_at_2000_samples_is_byte_identical(self, arm):
        cfg = ExperimentConfig(n_samples=2000, max_epochs=10, ablation=arm)
        train, val, _ = build_datasets(cfg)
        params, log = fit(train, val, cfg.model_config(), cfg.train_config())
        text = "".join(json.dumps(record, allow_nan=False) + "\n" for record in log)
        got = (hashlib.sha256(params.flat.tobytes()).hexdigest(), hashlib.sha256(text.encode()).hexdigest())
        assert got == self.DIGESTS[arm]


class TestFit:
    def test_zero_epochs_returns_initial_params(self):
        train, val, _ = toy_data()
        cfg = TrainConfig(max_epochs=0, seed=2)
        params, log = fit(train, val, TOY_MODEL, cfg)
        assert log == []
        fresh = init_params(TOY_MODEL, multi_branch=True)
        for name in fresh.tensors:
            np.testing.assert_array_equal(params.tensors[name], fresh.tensors[name])

    @pytest.mark.parametrize("empty", ["training", "validation"])
    def test_empty_split_is_rejected_naming_it(self, empty):
        train, val, _ = toy_data()
        parts = {"training": train, "validation": val}
        parts[empty] = parts[empty].subset(np.arange(0))
        with pytest.raises(ParameterError, match=f"the {empty} split is empty"):
            fit(parts["training"], parts["validation"], TOY_MODEL, TrainConfig(max_epochs=1))

    def test_bit_exact_determinism(self):
        train, val, _ = toy_data()
        cfg = TrainConfig(max_epochs=3, seed=11)
        p1, log1 = fit(train, val, TOY_MODEL, cfg)
        p2, log2 = fit(train, val, TOY_MODEL, cfg)
        assert log1 == log2
        for name in p1.tensors:
            np.testing.assert_array_equal(p1.tensors[name], p2.tensors[name])

    def test_log_schema_and_lr_column(self):
        train, val, _ = toy_data()
        cfg = TrainConfig(max_epochs=2, seed=4, lr_halving_period=1)
        seen = []
        _, log = fit(train, val, TOY_MODEL, cfg, on_epoch=seen.append)
        assert seen == log
        assert [rec["epoch"] for rec in log] == [0, 1]
        assert [rec["lr"] for rec in log] == [cfg.lr, cfg.lr / 2]
        for rec in log:
            assert set(rec) == {
                "epoch", "lr", "loss_sen", "loss_spec", "loss_fusion", "loss_consensus", "val_auc",
            }

    def test_divergence_aborts_and_returns_log(self):
        """A divergence after a completed epoch returns the best parameters so far."""
        train, val, _ = toy_data()
        cfg = TrainConfig(max_epochs=5, seed=6)
        once, once_log = fit(train, val, TOY_MODEL, replace(cfg, max_epochs=1))

        def poison(record):
            if record["epoch"] == 0:
                train.features[3] = np.nan  # a batch of epoch 1 then has a non-finite loss

        params, log = fit(train, val, TOY_MODEL, cfg, on_epoch=poison)
        assert log[:1] == once_log and once_log[0]["val_auc"] is not None
        assert len(log) == 2 and set(log[1]) == {"epoch", "step", "diverged"}
        assert log[1]["epoch"] == 1
        assert log[1]["diverged"].startswith(f"non-finite loss at epoch 1, step {log[1]['step']}")
        assert params.flat.tobytes() == once.flat.tobytes()

    def test_divergence_appends_one_strict_json_record(self):
        train, val, _ = toy_data()
        train.features[3] = np.nan  # the batch holding this row has a non-finite loss
        seen = []
        params, log = fit(train, val, TOY_MODEL, TrainConfig(max_epochs=3, seed=6), on_epoch=seen.append)
        assert seen == log
        assert len(log) == 1 and set(log[0]) == {"epoch", "step", "diverged"}
        record = json.loads(json.dumps(log[0], allow_nan=False))
        assert record["epoch"] == 0
        assert 0 <= record["step"] < -(-len(train) // 32)
        assert record["diverged"].startswith(f"non-finite loss at epoch 0, step {record['step']}")
        np.testing.assert_array_equal(params.flat, init_params(TOY_MODEL, multi_branch=True).flat)

    def test_non_finite_validation_scores_log_a_null_auc(self):
        train, val, _ = toy_data()
        val.features[0] = np.nan  # this validation row's scores are NaN
        params, log = fit(train, val, TOY_MODEL, TrainConfig(max_epochs=2, seed=6))
        assert [rec["val_auc"] for rec in log] == [None, None]
        assert all("finite" in rec["val_auc_undefined"] for rec in log)
        np.testing.assert_array_equal(params.flat, init_params(TOY_MODEL, multi_branch=True).flat)

    def test_linearly_separable_task_is_learned(self):
        # noiseless raters keep the final labels faithful to the separable truth
        from multirater.simulate import GradingPanel, RaterProfile

        panel = GradingPanel(
            stage1=(RaterProfile(1, 1.0, 1.0), RaterProfile(2, 1.0, 1.0)),
            adjudicator=RaterProfile(3, 1.0, 1.0),
        )
        samples = generate_dataset(1200, feature_dim=6, difficulty_mix=0.0, seed=9)
        ds = grade_dataset(samples, panel, seed=9)
        import warnings

        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # empty non-consensus strata
            train, val, _ = split_dataset(ds, (0.6, 0.2, 0.2), seed=9)
        cfg = TrainConfig(max_epochs=50, seed=9)
        params, _ = fit(train, val, TOY_MODEL, cfg)
        probs, _ = forward_batch(params, train.features)
        preds = (probs["fusion"][:, 1] >= 0.5).astype(int)
        acc = (preds == train.final_labels).mean()
        assert acc >= 0.99

    def test_model_selection_breaks_ties_toward_the_later_epoch(self):
        train, val, _ = separable_data()
        params, log = fit(train, val, TOY_MODEL, TrainConfig(max_epochs=10, seed=9))
        aucs = [rec["val_auc"] for rec in log]
        best_epochs = [rec["epoch"] for rec in log if rec["val_auc"] == max(aucs)]
        assert len(best_epochs) >= 2, aucs

        # the parameters the last tied epoch ended with, whatever the selection rule
        want = _fit_final(train, TOY_MODEL, TrainConfig(max_epochs=best_epochs[-1] + 1, seed=9))
        for name in want.tensors:
            np.testing.assert_array_equal(params.tensors[name], want.tensors[name])

    def test_model_selection_keeps_best_val_auc(self):
        train, val, _ = toy_data()
        cfg = TrainConfig(max_epochs=4, seed=13)
        params, log = fit(train, val, TOY_MODEL, cfg)
        from multirater.metrics import roc_auc

        probs, _ = forward_batch(params, val.features)
        best_logged = max(rec["val_auc"] for rec in log)
        assert roc_auc(probs["fusion"][:, 1], val.final_labels) == pytest.approx(best_logged, abs=1e-12)


class SingleHeadNet:
    """Independent single-head MLP with softmax cross entropy and Adam.

    Written separately from the package on purpose: trains trunk + one
    feature layer + one classifier with the fused softmax-CE gradient.
    """

    def __init__(self, tensors):
        self.t = {k: v.copy() for k, v in tensors.items()}
        self.m = {k: np.zeros_like(v) for k, v in self.t.items()}
        self.v = {k: np.zeros_like(v) for k, v in self.t.items()}
        self.steps = 0

    def forward(self, x):
        acts = [x]
        h = x
        for i in range(3):
            h = np.tanh(h @ self.t[f"trunk.{i}.W"] + self.t[f"trunk.{i}.b"])
            acts.append(h)
        f = np.tanh(h @ self.t["fusion.feat.W"] + self.t["fusion.feat.b"])
        acts.append(f)
        z = f @ self.t["fusion.head.W"] + self.t["fusion.head.b"]
        z = z - z.max(axis=1, keepdims=True)
        e = np.exp(z)
        y = e / e.sum(axis=1, keepdims=True)
        return y, acts

    def step(self, x, labels, lr):
        n = x.shape[0]
        y, acts = self.forward(x)
        onehot = np.eye(2)[labels]
        dz = (y - onehot) / n  # fused softmax + cross-entropy gradient
        grads = {}
        grads["fusion.head.W"] = acts[4].T @ dz
        grads["fusion.head.b"] = dz.sum(axis=0)
        df = dz @ self.t["fusion.head.W"].T
        dzf = df * (1.0 - acts[4] ** 2)
        grads["fusion.feat.W"] = acts[3].T @ dzf
        grads["fusion.feat.b"] = dzf.sum(axis=0)
        dh = dzf @ self.t["fusion.feat.W"].T
        for i in (2, 1, 0):
            dz_i = dh * (1.0 - acts[i + 1] ** 2)
            grads[f"trunk.{i}.W"] = acts[i].T @ dz_i
            grads[f"trunk.{i}.b"] = dz_i.sum(axis=0)
            if i > 0:
                dh = dz_i @ self.t[f"trunk.{i}.W"].T
        self.steps += 1
        bc1 = 1.0 - 0.9**self.steps
        bc2 = 1.0 - 0.999**self.steps
        for name, g in grads.items():
            self.m[name] = 0.9 * self.m[name] + 0.1 * g
            self.v[name] = 0.999 * self.v[name] + 0.001 * g * g
            self.t[name] -= lr * (self.m[name] / bc1) / (np.sqrt(self.v[name] / bc2) + 1e-8)


class TestBaselineEquivalence:
    CONFIG = TrainConfig(max_epochs=5, seed=29, ablation="baseline")

    @staticmethod
    def standalone(train, cfg):
        """The SingleHeadNet tensors after cfg.max_epochs epochs in the trainer's batch order."""
        toy = SingleHeadNet(init_params(TOY_MODEL, multi_branch=False).tensors)
        shuffle_rng = seeded_rng(cfg.seed, STREAM_SHUFFLE)
        finals = train.final_labels
        for epoch in range(cfg.max_epochs):
            order = shuffle_rng.permutation(len(train))
            lr = cfg.lr * 0.5 ** (epoch // cfg.lr_halving_period)
            for start in range(0, len(train), cfg.batch_size):
                idx = order[start : start + cfg.batch_size]
                toy.step(train.features[idx], finals[idx], lr)
        return toy.t

    def test_ablated_trainer_matches_standalone_single_head(self):
        """The baseline arm walks a plain single-head trajectory."""
        train, _, _ = toy_data(n=180, seed=29)
        want = self.standalone(train, self.CONFIG)
        # compare against the final-epoch parameters (fit() would return the
        # best-val-AUC snapshot, which may be an earlier epoch)
        final_params = _fit_final(train, TOY_MODEL, self.CONFIG)
        for name in want:
            np.testing.assert_allclose(final_params.tensors[name], want[name], rtol=1e-9, atol=1e-11)

    def test_fit_trains_the_baseline_on_one_hot_final_labels(self):
        """One epoch with a defined validation AUC, so fit returns the epoch's final parameters."""
        train, val, _ = toy_data(n=180, seed=29)
        cfg = replace(self.CONFIG, max_epochs=1)
        params, log = fit(train, val, TOY_MODEL, cfg)
        assert log[0]["val_auc"] is not None
        want = self.standalone(train, cfg)
        for name in want:
            np.testing.assert_allclose(params.tensors[name], want[name], rtol=1e-9, atol=1e-11)


def _fit_final(train, model_config, cfg):
    """Run the package training loop and return the FINAL (not best) params."""
    state = init_state(model_config, cfg)
    targets = fit_targets(train, cfg)
    shuffle_rng = seeded_rng(cfg.seed, STREAM_SHUFFLE)
    for epoch in range(cfg.max_epochs):
        state.epoch = epoch
        order = shuffle_rng.permutation(len(train))
        for start in range(0, len(train), cfg.batch_size):
            idx = order[start : start + cfg.batch_size]
            train_step(state, train, idx, targets, cfg)
    return state.params
