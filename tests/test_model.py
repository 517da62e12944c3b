"""Model: forward/backward correctness, topology routing, checkpoints."""

import json
import re

import numpy as np
import pytest

from multirater.errors import ContractError, DataError, ParameterError
from multirater.losses import uncertainties
from multirater.model import (
    ModelConfig,
    ModelParams,
    backward,
    forward_batch,
    init_params,
    load_checkpoint,
    save_checkpoint,
)
from multirater.rng import STREAM_INIT, seeded_rng

import oracles

RNG = np.random.default_rng(7)

TOY = ModelConfig(input_dim=5, trunk_dims=(6, 5, 4), branch_dim=3, seed=123)


def toy_params(seed=123, multi_branch=True, jitter=None):
    params = init_params(ModelConfig(5, (6, 5, 4), 3, seed), multi_branch=multi_branch)
    if jitter is not None:
        rng = np.random.default_rng(jitter)
        for name in params.tensors:
            params.tensors[name][...] = params.tensors[name] + 0.3 * rng.standard_normal(
                params.tensors[name].shape
            )
    return params


def nan_buffer(params):
    """A gradient buffer laid out like ``params``, NaN wherever backward leaves an entry unwritten."""
    return ModelParams(params.config, params.multi_branch, np.full(params.flat.size, np.nan))


def total_loss(params, x, sen_labels, spec_labels, softs, a, u_weights):
    """Full objective from the scalar oracles (all terms active).

    A single-head model has only the fusion term.
    """
    probs, _ = forward_batch(params, x)
    total = 0.0
    n = x.shape[0]
    if params.multi_branch:
        y_sen, y_spec = probs["sen"].tolist(), probs["spec"].tolist()
        for i in range(n):
            ls = oracles.branch_loss_scalar(y_sen[i], sen_labels[i], y_spec[i], a[i])
            lp = oracles.branch_loss_scalar(y_spec[i], spec_labels[i], y_sen[i], a[i])
            total += (ls + lp) / n
    return total + oracles.fusion_loss_scalar(probs["fusion"].tolist(), softs.tolist(), u_weights.tolist())


def assemble_prob_grads(probs, sen_labels, spec_labels, softs, a, u_weights):
    """The probability-space gradient block matching total_loss: one row per branch of ``probs``, in order."""
    dy_fus = oracles.fusion_grad_scalar(probs["fusion"].tolist(), softs.tolist(), u_weights.tolist())
    if "sen" not in probs:
        return np.array(dy_fus)[None]
    n = probs["sen"].shape[0]
    dy_sen = np.zeros_like(probs["sen"])
    dy_spec = np.zeros_like(probs["spec"])
    y_sen, y_spec = probs["sen"].tolist(), probs["spec"].tolist()
    for i in range(n):
        g_own, g_partner = oracles.branch_loss_grads_scalar(y_sen[i], sen_labels[i], y_spec[i], a[i])
        dy_sen[i] += np.array(g_own) / n
        dy_spec[i] += np.array(g_partner) / n
        g_own, g_partner = oracles.branch_loss_grads_scalar(y_spec[i], spec_labels[i], y_sen[i], a[i])
        dy_spec[i] += np.array(g_own) / n
        dy_sen[i] += np.array(g_partner) / n
    return np.stack([dy_sen, dy_spec, np.array(dy_fus)])


def random_batch(n, rng):
    x = rng.standard_normal((n, 5))
    labels = rng.integers(0, 2, size=n)
    sen = np.eye(2)[rng.integers(0, 2, size=n)]
    spec = np.eye(2)[rng.integers(0, 2, size=n)]
    soft = rng.uniform(0.01, 0.99, size=n)
    softs = np.stack([1 - soft, soft], axis=1)
    a = rng.integers(0, 2, size=n)
    del labels
    return x, sen, spec, softs, a


class TestForward:
    def test_outputs_are_distributions(self):
        params = toy_params()
        probs, _ = forward_batch(params, RNG.standard_normal((40, 5)))
        assert list(probs) == ["sen", "spec", "fusion"]
        for p in probs.values():
            assert p.shape == (40, 2) and np.all(p >= 0)
            np.testing.assert_allclose(p.sum(axis=1), 1.0, atol=1e-6)

    def test_zeroed_heads_give_uniform_outputs_and_zero_uncertainty(self):
        params = toy_params()
        for name in ("sen.head", "spec.head", "fusion.head"):
            params.tensors[f"{name}.W"][...] = np.zeros_like(params.tensors[f"{name}.W"])
            params.tensors[f"{name}.b"][...] = np.zeros_like(params.tensors[f"{name}.b"])
        probs, _ = forward_batch(params, RNG.standard_normal((1, 5)))
        np.testing.assert_allclose(probs["sen"], [[0.5, 0.5]], atol=1e-12)
        np.testing.assert_allclose(probs["fusion"], [[0.5, 0.5]], atol=1e-12)
        assert uncertainties(probs["sen"], probs["spec"])[0] == pytest.approx(0.0, abs=1e-12)

    def test_deterministic(self):
        x = RNG.standard_normal((1, 5))
        probs1, _ = forward_batch(toy_params(), x)
        probs2, _ = forward_batch(toy_params(), x)
        for name in probs1:
            np.testing.assert_array_equal(probs1[name], probs2[name])

    def test_uncertainty_matches_definition(self):
        params = toy_params(jitter=5)
        probs, _ = forward_batch(params, RNG.standard_normal((20, 5)))
        u = uncertainties(probs["sen"], probs["spec"])
        for i in range(20):
            assert u[i] == pytest.approx(
                oracles.uncertainty_scalar(probs["sen"][i].tolist(), probs["spec"][i].tolist()), abs=1e-9
            )

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(ParameterError):
            forward_batch(toy_params(), np.zeros(5))
        with pytest.raises(ParameterError):
            forward_batch(toy_params(), np.zeros((3, 7)))

    def test_single_branch_outputs_fusion_only(self):
        """The baseline's sen/spec report rows are filled by ``evaluate``, not by the network."""
        params = toy_params(multi_branch=False)
        probs, _ = forward_batch(params, RNG.standard_normal((6, 5)))
        assert list(probs) == ["fusion"]
        np.testing.assert_allclose(probs["fusion"].sum(axis=1), 1.0, atol=1e-12)

    def test_permuting_trunk_units_preserves_outputs(self):
        params = toy_params(jitter=11)
        x = RNG.standard_normal((8, 5))
        base, _ = forward_batch(params, x)
        perm = np.random.default_rng(0).permutation(params.config.trunk_dims[1])
        permuted = params.copy()
        permuted.tensors["trunk.1.W"][...] = params.tensors["trunk.1.W"][:, perm]
        permuted.tensors["trunk.1.b"][...] = params.tensors["trunk.1.b"][perm]
        permuted.tensors["trunk.2.W"][...] = params.tensors["trunk.2.W"][perm, :]
        probs, _ = forward_batch(permuted, x)
        for name in ("fusion", "sen", "spec"):
            np.testing.assert_allclose(probs[name], base[name], atol=1e-9)


class TestBackward:
    @pytest.mark.parametrize("multi_branch", [True, False])
    def test_full_model_gradients_match_finite_differences(self, multi_branch):
        """All losses active (fusion only for one head), random params, 20 samples: max rel err < 1e-4."""
        params = toy_params(multi_branch=multi_branch, jitter=3)
        rng = np.random.default_rng(42)
        x, sen, spec, softs, a = random_batch(20, rng)
        probs, cache = forward_batch(params, x)
        # the uncertainty weights are detached constants
        u_weights = uncertainties(probs["sen"], probs["spec"]) if multi_branch else np.zeros(20)
        prob_grads = assemble_prob_grads(probs, sen, spec, softs, a, u_weights)
        grads = backward(cache, prob_grads, out=nan_buffer(params))
        assert list(grads.tensors) == list(params.tensors)

        h = 1e-5
        worst = 0.0
        for name, tensor in params.tensors.items():
            for k in np.ndindex(tensor.shape):  # a view may not be contiguous, so not through ravel()
                orig = tensor[k]
                tensor[k] = orig + h
                up = total_loss(params, x, sen, spec, softs, a, u_weights)
                tensor[k] = orig - h
                down = total_loss(params, x, sen, spec, softs, a, u_weights)
                tensor[k] = orig
                fd = (up - down) / (2 * h)
                got = grads.tensors[name][k]
                rel = abs(got - fd) / max(abs(fd), 1e-6)
                worst = max(worst, rel)
        assert worst < 1e-4, f"worst relative gradient error {worst}"

    @pytest.mark.parametrize("multi_branch", [True, False])
    def test_reused_buffer_equals_a_fresh_one_bit_for_bit(self, multi_branch):
        """Every entry of ``out`` is overwritten: NaN left anywhere would show."""
        params = toy_params(multi_branch=multi_branch, jitter=6)
        rng = np.random.default_rng(6)
        _, cache = forward_batch(params, rng.standard_normal((7, 5)))
        prob_grads = rng.standard_normal(cache.probs.shape)
        fresh = backward(cache, prob_grads, out=ModelParams(params.config, params.multi_branch))
        out = ModelParams(params.config, params.multi_branch, np.full(params.flat.size, np.nan))
        assert backward(cache, prob_grads, out=out) is out
        assert out.flat.tobytes() == fresh.flat.tobytes()

    def test_buffer_of_another_network_is_rejected(self):
        params = toy_params()
        _, cache = forward_batch(params, RNG.standard_normal((2, 5)))
        with pytest.raises(ContractError, match="another network"):
            backward(cache, np.zeros_like(cache.probs), out=toy_params(multi_branch=False))

    def test_zero_upstream_gradients_give_zero_parameter_gradients(self):
        params = toy_params()
        _, cache = forward_batch(params, RNG.standard_normal((4, 5)))
        grads = backward(cache, np.zeros_like(cache.probs), out=nan_buffer(params))
        np.testing.assert_array_equal(grads.flat, 0.0)

    def test_fusion_gradient_reaches_sen_features_but_not_sen_head(self):
        params = toy_params(jitter=9)
        _, cache = forward_batch(params, RNG.standard_normal((4, 5)))
        # asymmetric probe: a constant vector would vanish in the softmax jacobian
        dy = np.zeros_like(cache.probs)
        dy[-1] = np.tile([1.0, -1.0], (4, 1))
        grads = backward(cache, dy, out=nan_buffer(params))
        np.testing.assert_array_equal(grads.tensors["sen.head.W"], 0.0)
        np.testing.assert_array_equal(grads.tensors["sen.head.b"], 0.0)
        assert np.abs(grads.tensors["sen.feat.W"]).max() > 1e-6  # concat features carry gradient

    def test_sen_gradient_does_not_touch_fusion_head(self):
        params = toy_params(jitter=9)
        _, cache = forward_batch(params, RNG.standard_normal((4, 5)))
        dy = np.zeros_like(cache.probs)
        dy[0] = np.tile([1.0, -1.0], (4, 1))
        grads = backward(cache, dy, out=nan_buffer(params))
        np.testing.assert_array_equal(grads.tensors["fusion.head.W"], 0.0)
        assert np.abs(grads.tensors["trunk.0.W"]).max() > 1e-6

    def test_stale_cache_rejected(self):
        params = toy_params()
        _, cache = forward_batch(params, RNG.standard_normal((2, 5)))
        params.version += 1  # simulate an optimizer update
        with pytest.raises(ContractError, match="stale"):
            backward(cache, np.ones_like(cache.probs), out=nan_buffer(params))

    @pytest.mark.parametrize(
        "multi_branch, shape",
        [
            (True, (2, 4, 2)),  # a branch missing
            (False, (3, 4, 2)),  # sen and spec rows for the single-head baseline
            (True, (3, 3, 2)),  # rows of another batch
            (True, (3, 4, 1)),  # one column per row
            (True, (4, 2)),  # one branch's gradient, which would broadcast over the block
        ],
    )
    def test_mis_shaped_gradient_is_rejected(self, multi_branch, shape):
        params = toy_params(multi_branch=multi_branch)
        _, cache = forward_batch(params, RNG.standard_normal((4, 5)))
        expected = re.escape(f"gradient block has shape {shape}, expected {(len(params.branches), 4, 2)}")
        with pytest.raises(ContractError, match=expected):
            backward(cache, np.ones(shape), out=nan_buffer(params))


class TestStackedAgainstPerBranchOracle:
    @pytest.mark.parametrize("multi_branch", [True, False])
    @pytest.mark.parametrize("n", [1, 7, 32, 948])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_outputs_and_gradients_equal_the_oracle_bit_for_bit(self, multi_branch, n, seed):
        """Default widths; n = 948 is the default validation split. Tensors are compared through ``tensors``."""
        rng = np.random.default_rng(seed)
        params = init_params(ModelConfig(16, seed=seed), multi_branch)
        params.flat += 0.1 * rng.standard_normal(params.flat.size)  # nonzero biases too
        x = rng.standard_normal((n, 16))
        probs, cache = forward_batch(params, x)
        want_probs, want_cache = oracles.per_branch_forward(params, x)
        assert list(probs) == list(want_probs)
        for name in probs:
            np.testing.assert_array_equal(probs[name], want_probs[name], err_msg=name)
        every = rng.standard_normal(cache.probs.shape)
        fusion_only = np.zeros_like(every)
        fusion_only[-1] = every[-1]
        for dy in (every, fusion_only):
            got = backward(cache, dy, out=nan_buffer(params))
            want = ModelParams(params.config, multi_branch)
            oracles.per_branch_backward(params, want_cache, dict(zip(params.branches, dy)), want)
            for name in params.tensors:
                np.testing.assert_array_equal(got.tensors[name], want.tensors[name], err_msg=name)


def _edited(change):
    def apply(text):
        doc = json.loads(text)
        change(doc)
        return json.dumps(doc)
    return apply


MALFORMED_CHECKPOINTS = {
    "mis_shaped_tensor": _edited(lambda doc: doc["tensors"][0].update(shape=[3])),
    "scalar_trunk_dims": _edited(lambda doc: doc["model"].update(trunk_dims=5)),
    "string_in_data": _edited(lambda doc: doc["tensors"][0]["data"].__setitem__(0, "x")),
    "numeric_string_in_data": _edited(lambda doc: doc["tensors"][0]["data"].__setitem__(0, "0.25")),
    "bool_in_data": _edited(lambda doc: doc["tensors"][0]["data"].__setitem__(0, True)),
    "nested_list_in_data": _edited(lambda doc: doc["tensors"][0].update(data=[doc["tensors"][0]["data"]])),
    "truncated": lambda text: text[:95],
    "not_an_object": lambda text: "[]",
    "float_input_dim": _edited(lambda doc: doc["model"].update(input_dim=5.0)),
    "bool_branch_dim": _edited(lambda doc: doc["model"].update(branch_dim=True)),
    "fractional_trunk_width": _edited(lambda doc: doc["model"].update(trunk_dims=[6.5, 5, 4])),
    "unsupported_format_version": _edited(lambda doc: doc.update(format_version=2)),
    "string_multi_branch": _edited(lambda doc: doc["model"].update(multi_branch="false")),
    "int_multi_branch": _edited(lambda doc: doc["model"].update(multi_branch=1)),
    "float_seed": _edited(lambda doc: doc["model"].update(seed=1.5)),
    "bool_seed": _edited(lambda doc: doc["model"].update(seed=True)),
    "nan_in_metadata": _edited(lambda doc: doc["metadata"].update(note=float("nan"))),
    "list_metadata": _edited(lambda doc: doc.update(metadata=[1])),
    "bool_format_version": _edited(lambda doc: doc.update(format_version=True)),
    "repeated_tensor": _edited(lambda doc: doc["tensors"].append(doc["tensors"][0])),
}


class TestCheckpoint:
    def test_round_trip_is_exact(self, tmp_path):
        params = toy_params(jitter=2)
        path = tmp_path / "ckpt.json"
        save_checkpoint(params, path, metadata={"note": "test"})
        loaded, meta = load_checkpoint(path)
        assert meta == {"note": "test"}
        assert loaded.multi_branch == params.multi_branch
        assert loaded.config == params.config
        assert set(loaded.tensors) == set(params.tensors)
        for name in params.tensors:
            np.testing.assert_array_equal(loaded.tensors[name], params.tensors[name])

    def test_round_trip_single_branch(self, tmp_path):
        params = toy_params(multi_branch=False)
        path = tmp_path / "ckpt.json"
        save_checkpoint(params, path)
        loaded, _ = load_checkpoint(path)
        assert not loaded.multi_branch
        assert "sen.head.W" not in loaded.tensors

    def test_corrupt_checkpoint_rejected(self, tmp_path):
        params = toy_params()
        path = tmp_path / "ckpt.json"
        save_checkpoint(params, path)
        import json

        doc = json.loads(path.read_text())
        doc["tensors"] = doc["tensors"][:-1]
        path.write_text(json.dumps(doc))
        with pytest.raises(DataError):
            load_checkpoint(path)


    def _tampered(self, tmp_path, edit):
        path = tmp_path / "ckpt.json"
        save_checkpoint(toy_params(), path)
        doc = json.loads(path.read_text())
        edit(doc)
        path.write_text(json.dumps(doc))
        return path

    @pytest.mark.parametrize("key", ["model", "tensors"])
    def test_missing_key_rejected(self, tmp_path, key):
        path = self._tampered(tmp_path, lambda doc: doc.pop(key))
        with pytest.raises(DataError, match=f"ckpt.json: checkpoint has no key '{key}'"):
            load_checkpoint(path)

    def test_bad_topology_rejected(self, tmp_path):
        path = self._tampered(tmp_path, lambda doc: doc["model"].update(trunk_dims=[6, 5]))
        with pytest.raises(DataError, match="ckpt.json: trunk_dims must hold three widths"):
            load_checkpoint(path)

    def test_unknown_tensor_rejected(self, tmp_path):
        extra = {"name": "extra.W", "shape": [1, 1], "data": [0.0]}
        path = self._tampered(tmp_path, lambda doc: doc["tensors"].append(extra))
        with pytest.raises(DataError, match="ckpt.json: unknown tensor extra.W"):
            load_checkpoint(path)

    @pytest.mark.parametrize("breakage", sorted(MALFORMED_CHECKPOINTS))
    def test_malformed_checkpoint_is_a_data_error_naming_the_file(self, tmp_path, breakage):
        path = tmp_path / "ckpt.json"
        save_checkpoint(toy_params(), path)
        path.write_text(MALFORMED_CHECKPOINTS[breakage](path.read_text()))
        with pytest.raises(DataError, match=f"^{re.escape(str(path))}: "):
            load_checkpoint(path)

    def test_string_flag_on_a_baseline_checkpoint_names_the_flag(self, tmp_path):
        path = tmp_path / "ckpt.json"
        save_checkpoint(toy_params(multi_branch=False), path)
        path.write_text(_edited(lambda doc: doc["model"].update(multi_branch="false"))(path.read_text()))
        with pytest.raises(DataError, match="ckpt.json: multi_branch must be a JSON boolean, got 'false'"):
            load_checkpoint(path)

    def test_non_finite_tensor_rejected(self, tmp_path):
        def poison(doc):
            doc["tensors"][0]["data"][0] = float("nan")

        path = self._tampered(tmp_path, poison)
        with pytest.raises(DataError, match="ckpt.json: tensor trunk.0.W holds non-finite values"):
            load_checkpoint(path)


class TestFlatBuffer:
    def _assert_views_of_flat(self, params):
        """Every view shares memory with ``flat``, and together the views cover each element exactly once."""
        saved = params.flat.copy()
        params.flat[...] = np.arange(params.flat.size)
        for name, view in params.tensors.items():
            assert np.shares_memory(view, params.flat), name
        covered = np.concatenate([view.ravel() for view in params.tensors.values()])
        np.testing.assert_array_equal(np.sort(covered), params.flat)
        params.flat[...] = saved

    @pytest.mark.parametrize("multi_branch", [True, False])
    def test_every_view_shares_memory_with_flat(self, tmp_path, multi_branch):
        params = toy_params(multi_branch=multi_branch, jitter=4)
        dup = params.copy()
        save_checkpoint(params, tmp_path / "ckpt.json")
        loaded, _ = load_checkpoint(tmp_path / "ckpt.json")
        for p in (params, dup, loaded):
            self._assert_views_of_flat(p)
            np.testing.assert_array_equal(p.flat, params.flat)
        assert not np.shares_memory(dup.flat, params.flat)

    def test_views_follow_layer_order(self):
        params = toy_params()
        assert list(params.tensors) == [
            f"{layer}.{kind}"
            for layer in ("trunk.0", "trunk.1", "trunk.2", "sen.feat", "sen.head",
                          "spec.feat", "spec.head", "fusion.feat", "fusion.head")
            for kind in ("W", "b")
        ]

    def test_rebinding_a_tensor_raises(self):
        params = toy_params()
        with pytest.raises(TypeError):
            params.tensors["trunk.0.W"] = np.zeros_like(params.tensors["trunk.0.W"])
        params.tensors["trunk.0.W"][...] = 1.0  # writing through the view is the way
        assert params.flat[0] == 1.0

    def test_mis_sized_buffer_rejected(self):
        with pytest.raises(ParameterError, match="flat buffer"):
            ModelParams(TOY, True, np.zeros(3))


class TestConfig:
    def test_bad_widths_rejected(self):
        with pytest.raises(ParameterError):
            ModelConfig(input_dim=0)
        with pytest.raises(ParameterError):
            ModelConfig(input_dim=3, trunk_dims=(4, 0, 4))
        with pytest.raises(ParameterError, match="integers"):
            ModelConfig(input_dim=3.0)

    @pytest.mark.parametrize("trunk_dims", [(8, 8), (8, 8, 8, 8), ()])
    def test_trunk_of_other_depth_rejected(self, trunk_dims):
        with pytest.raises(ParameterError, match="three widths"):
            ModelConfig(input_dim=3, trunk_dims=trunk_dims)


def per_layer_uniform_init(config, multi_branch):
    """Reference initialization: one ``rng.uniform(-b, b)`` call per weight, b = 1 / sqrt(fan_in)."""
    rng = seeded_rng(config.seed, STREAM_INIT)
    params = ModelParams(config, multi_branch)
    for name, tensor in params.tensors.items():
        if name.endswith(".W"):
            bound = 1.0 / np.sqrt(tensor.shape[0])
            tensor[...] = rng.uniform(-bound, bound, size=tensor.shape)
    return params


class TestInit:
    @pytest.mark.parametrize("multi_branch", [True, False])
    @pytest.mark.parametrize("seed", [0, 1, 123, 2**64 - 1])
    def test_equals_per_layer_uniform_draws_bit_for_bit(self, seed, multi_branch):
        for config in (ModelConfig(16, seed=seed), ModelConfig(5, (6, 5, 4), 3, seed)):
            want = per_layer_uniform_init(config, multi_branch)
            assert init_params(config, multi_branch).flat.tobytes() == want.flat.tobytes()

    @pytest.mark.parametrize("seed", [0, 7, 42])
    def test_generated_labels_are_not_a_function_of_the_initial_weights(self, seed):
        """Weights and features come from different streams of one run seed.

        Both draw uniforms first: a label is ``u < class_balance`` and a first
        trunk weight is ``bound * (2u - 1)``, so one shared stream would make
        the labels a threshold of the weights.
        """
        from multirater.simulate import DEFAULT_CLASS_BALANCE, generate_dataset

        labels = generate_dataset(2000, seed=seed).true_labels
        weights = init_params(ModelConfig(16, seed=seed)).tensors["trunk.0.W"].ravel()
        bound = 1.0 / np.sqrt(16)
        thresholded = ((weights + bound) / (2 * bound) < DEFAULT_CLASS_BALANCE).astype(int)
        assert np.mean(labels[: weights.size] == thresholded) < 0.6
