"""Loss functions: frozen worked examples, brute-force equivalence, gradient checks.

The per-sample checks call the batched functions at n = 1.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from multirater.errors import ContractError, ParameterError
from multirater.labels import positive_probabilities
from multirater.losses import consensus_terms, cross_entropy, fusion_loss, uncertainties
from multirater.train import TrainConfig

import oracles

RNG = np.random.default_rng(20240817)


def random_prob(rng):
    p = rng.uniform(0.001, 0.999)
    return np.array([p, 1.0 - p])


def consensus_one(y_sen, y_spec, a, margin=1.0):
    """(loss, grad wrt y_sen) of one sample; the y_spec gradient is the negation."""
    loss, grad = consensus_terms(np.array([y_sen], dtype=float), np.array([y_spec], dtype=float),
                                 np.array([a]), margin)
    return loss[0], grad[0]


def uncertainty_one(y_sen, y_spec):
    return uncertainties(np.array([y_sen], dtype=float), np.array([y_spec], dtype=float))[0]


def branch_one(pred, label, partner, a, alpha=0.5, margin=1.0):
    """Cross entropy against class ``label`` plus alpha times the consensus term, at n = 1.

    Returns (loss, grad wrt pred, grad wrt partner).
    """
    ce, d_ce = cross_entropy(np.array([pred], dtype=float), np.array([label]))
    con, grad = consensus_one(pred, partner, a, margin)
    return ce[0] + alpha * con, d_ce[0] + alpha * grad, -alpha * grad


simplex_points = st.floats(min_value=0.0, max_value=1.0, allow_nan=False).map(
    lambda p: np.array([p, 1.0 - p])
)


class TestConsensusLoss:
    def test_agreement_identical_outputs(self):
        loss, g_sen = consensus_one((0.3, 0.7), (0.3, 0.7), a=1)
        assert loss == 0.0
        np.testing.assert_array_equal(g_sen, 0.0)

    def test_disagreement_identical_outputs_pays_half_margin_squared(self):
        # oracle: 0.5 * (1 - 0)^2 = 0.5 at the default margin
        loss, g_sen = consensus_one((0.3, 0.7), (0.3, 0.7), a=0, margin=1.0)
        assert loss == pytest.approx(0.5, abs=1e-12)
        np.testing.assert_array_equal(g_sen, 0.0)  # subgradient choice at zero distance

    def test_disagreement_beyond_margin_is_free(self):
        # distance sqrt(2) > margin 1
        loss, g_sen = consensus_one((1.0, 0.0), (0.0, 1.0), a=0, margin=1.0)
        assert loss == 0.0
        np.testing.assert_array_equal(g_sen, 0.0)

    def test_matches_scalar_oracle_on_random_inputs(self):
        for _ in range(1000):
            y1, y2 = random_prob(RNG), random_prob(RNG)
            a = int(RNG.integers(2))
            m = float(RNG.uniform(0.2, 1.5))
            loss, grad = consensus_one(y1, y2, a, m)
            assert loss == pytest.approx(
                oracles.consensus_loss_scalar(y1.tolist(), y2.tolist(), a, m), abs=1e-9
            )
            np.testing.assert_allclose(
                grad, oracles.consensus_grad_scalar(y1.tolist(), y2.tolist(), a, m), rtol=0, atol=1e-12
            )

    def test_gradients_match_central_differences(self):
        checked = 0
        while checked < 100:
            y1, y2 = random_prob(RNG), random_prob(RNG)
            a = int(RNG.integers(2))
            m = float(RNG.uniform(0.2, 1.5))
            dist = float(np.linalg.norm(y1 - y2))
            if a == 0 and (abs(dist - m) < 1e-3 or dist < 1e-3):
                continue  # skip the hinge kink and the zero-distance spike
            _, g_sen = consensus_one(y1, y2, a, m)
            fd_sen = oracles.central_difference(
                lambda v: oracles.consensus_loss_scalar(v, y2.tolist(), a, m), y1.tolist()
            )
            fd_spec = oracles.central_difference(
                lambda v: oracles.consensus_loss_scalar(y1.tolist(), v, a, m), y2.tolist()
            )
            np.testing.assert_allclose(g_sen, fd_sen, rtol=1e-4, atol=1e-7)
            np.testing.assert_allclose(-g_sen, fd_spec, rtol=1e-4, atol=1e-7)
            checked += 1

    @given(simplex_points, simplex_points, st.integers(0, 1))
    @settings(max_examples=200, deadline=None)
    def test_nonnegative_and_zero_iff(self, y1, y2, a):
        loss, _ = consensus_one(y1, y2, a, margin=1.0)
        assert loss >= 0.0
        dist = float(np.linalg.norm(y1 - y2))
        expect_zero = (a == 1 and dist == 0.0) or (a == 0 and dist >= 1.0)
        assert (loss == 0.0) == expect_zero


class TestUncertainty:
    def test_identical_vectors(self):
        assert uncertainty_one((0.3, 0.7), (0.3, 0.7)) == pytest.approx(0.0, abs=1e-12)

    def test_orthogonal_one_hots(self):
        assert uncertainty_one((1.0, 0.0), (0.0, 1.0)) == pytest.approx(0.5, abs=1e-12)

    def test_worked_example(self):
        # cos((0.5, 0.5), (1, 0)) = 1/sqrt(2); u = 0.5 * (1 - 1/sqrt(2))
        expected = 0.5 * (1.0 - 1.0 / math.sqrt(2.0))
        assert uncertainty_one((0.5, 0.5), (1.0, 0.0)) == pytest.approx(expected, abs=1e-12)
        assert expected == pytest.approx(0.14644660940672627, abs=1e-15)

    def test_matches_scalar_oracle_on_random_inputs(self):
        for _ in range(1000):
            y1, y2 = random_prob(RNG), random_prob(RNG)
            assert uncertainty_one(y1, y2) == pytest.approx(
                oracles.uncertainty_scalar(y1.tolist(), y2.tolist()), abs=1e-9
            )

    def test_branch_targets_cap_the_fusion_weights(self):
        """The analytic ceiling of the uncertainty weighting, at the branches' closed-form targets.

        The four disagreement patterns give (sen, spec) positive probabilities
        (0.8, 0.5) or (0.5, 0.2): u = 0.5 * (1 - 0.5 / sqrt(0.34)) and a branch
        separation ||d|| = 0.3 * sqrt(2), below the default margin. The two
        consensus patterns give u = 0 and ||d|| = 0. So branches that fit their
        targets weight the fusion KL by 1 + u within [1, 1.0712535], which is
        why the ``uncerty`` arm equals ``multibr`` in the reference grid.
        """
        ratings = np.array([(1, 0, 1), (1, 0, 0), (0, 1, 1), (0, 1, 0), (1, 1, -1), (0, 0, -1)])
        sen, spec = (np.column_stack([1 - p, p]) for p in positive_probabilities(ratings))
        u = uncertainties(sen, spec)
        dist = np.linalg.norm(sen - spec, axis=1)
        ceiling = 0.5 * (1.0 - 0.5 / math.sqrt(0.34))
        np.testing.assert_allclose(u, [ceiling] * 4 + [0.0] * 2, rtol=1e-12, atol=1e-15)
        np.testing.assert_allclose(dist, [0.3 * math.sqrt(2.0)] * 4 + [0.0] * 2, rtol=1e-12, atol=1e-15)
        assert ceiling == pytest.approx(0.0712535, abs=5e-8)
        assert 0.3 * math.sqrt(2.0) == pytest.approx(0.424264, abs=5e-7)
        assert dist.max() < TrainConfig().margin
        assert 1.0 <= (1.0 + u).min() and (1.0 + u).max() <= 1.0712535 + 5e-8

    @given(simplex_points, simplex_points)
    @settings(max_examples=300, deadline=None)
    def test_bounded_on_simplex(self, y1, y2):
        u = uncertainty_one(y1, y2)
        assert 0.0 <= u <= 0.5


def norm_consensus_terms(p_sen, p_spec, a, margin):
    """``consensus_terms`` with the distance taken by ``np.linalg.norm``."""
    d = p_sen - p_spec
    dist = np.linalg.norm(d, axis=1)
    gap = margin - dist
    agree = a == 1
    loss = np.where(agree, 0.5 * dist**2, 0.5 * np.maximum(gap, 0.0) ** 2)
    safe_dist = np.maximum(dist, 1e-300)
    scale = np.where(agree, 1.0, np.where((gap > 0) & (dist > 0), -gap / safe_dist, 0.0))
    return loss, scale[:, None] * d


def norm_uncertainties(p_sen, p_spec):
    """``uncertainties`` with the norms taken by ``np.linalg.norm``."""
    dots = (p_sen * p_spec).sum(axis=1)
    norms = np.linalg.norm(p_sen, axis=1) * np.linalg.norm(p_spec, axis=1)
    return np.clip(0.5 * (1.0 - dots / norms), 0.0, 0.5)


def _rows(kind, rng, n=200):
    """(p_sen, p_spec) pairs of probability rows: random, one-hot, or equal (d = 0)."""
    if kind == "one_hot":
        return np.eye(2)[rng.integers(0, 2, n)], np.eye(2)[rng.integers(0, 2, n)]
    p_sen = np.stack([random_prob(rng) for _ in range(n)])
    return (p_sen, p_sen.copy()) if kind == "equal" else (p_sen, np.stack([random_prob(rng) for _ in range(n)]))


class TestNormForms:
    """The losses' norms equal ``np.linalg.norm``'s bit for bit, so no loss or gradient moves."""

    @pytest.mark.parametrize("kind", ["random", "one_hot", "equal"])
    @pytest.mark.parametrize("margin", [1.0, 0.3])
    def test_consensus_terms_equal_the_norm_form(self, kind, margin):
        rng = np.random.default_rng(31)
        p_sen, p_spec = _rows(kind, rng)
        a = rng.integers(0, 2, p_sen.shape[0])
        got, want = consensus_terms(p_sen, p_spec, a, margin), norm_consensus_terms(p_sen, p_spec, a, margin)
        for got_part, want_part in zip(got, want):  # the losses, then the gradients
            assert got_part.tobytes() == want_part.tobytes()

    @pytest.mark.parametrize("kind", ["random", "one_hot", "equal"])
    def test_uncertainties_equal_the_norm_form(self, kind):
        p_sen, p_spec = _rows(kind, np.random.default_rng(32))
        assert uncertainties(p_sen, p_spec).tobytes() == norm_uncertainties(p_sen, p_spec).tobytes()


class TestBranchLoss:
    def test_perfect_prediction_vanishes(self):
        pred = np.array([1e-12, 1.0 - 1e-12])
        loss, _, _ = branch_one(pred, 1, pred, a=1)
        assert loss == pytest.approx(0.0, abs=1e-9)

    def test_alpha_zero_reduces_to_cross_entropy(self):
        pred = np.array([0.2, 0.8])
        loss, g_pred, g_partner = branch_one(pred, 1, np.array([0.9, 0.1]), a=0, alpha=0.0)
        assert loss == pytest.approx(-math.log(0.8), abs=1e-12)
        np.testing.assert_array_equal(g_partner, 0.0)

    def test_worked_example(self):
        # -log(0.8) + 0.5 * consensus(identical, a=0) = 0.22314... + 0.25
        loss, _, _ = branch_one((0.2, 0.8), 1, (0.2, 0.8), a=0, margin=1.0, alpha=0.5)
        assert loss == pytest.approx(-math.log(0.8) + 0.25, abs=1e-12)
        assert loss == pytest.approx(0.4731435513142097, abs=1e-12)

    def test_gradients_match_central_differences(self):
        margin, alpha = 1.0, 0.5
        checked = 0
        while checked < 100:
            pred, partner = random_prob(RNG), random_prob(RNG)
            label = int(RNG.integers(2))
            onehot = [float(label == 0), float(label == 1)]
            a = int(RNG.integers(2))
            dist = float(np.linalg.norm(pred - partner))
            if a == 0 and (abs(dist - margin) < 1e-3 or dist < 1e-3):
                continue
            loss, g_pred, g_partner = branch_one(pred, label, partner, a, alpha=alpha, margin=margin)
            assert loss == pytest.approx(
                oracles.branch_loss_scalar(pred.tolist(), onehot, partner.tolist(), a), abs=1e-12
            )
            fd_pred = oracles.central_difference(
                lambda v: oracles.branch_loss_scalar(v, onehot, partner.tolist(), a),
                pred.tolist(),
            )
            fd_partner = oracles.central_difference(
                lambda v: oracles.branch_loss_scalar(pred.tolist(), onehot, v, a),
                partner.tolist(),
            )
            np.testing.assert_allclose(g_pred, fd_pred, rtol=1e-4, atol=1e-6)
            np.testing.assert_allclose(g_partner, fd_partner, rtol=1e-4, atol=1e-6)
            want_pred, want_partner = oracles.branch_loss_grads_scalar(
                pred.tolist(), onehot, partner.tolist(), a, alpha, margin
            )
            np.testing.assert_allclose(g_pred, want_pred, rtol=0, atol=1e-12)
            np.testing.assert_allclose(g_partner, want_partner, rtol=0, atol=1e-12)
            checked += 1


class TestFusionLoss:
    def test_zero_uncertainty_equals_mean_kl(self):
        preds = np.array([[0.7, 0.3], [0.4, 0.6], [0.9, 0.1]])
        softs = np.array([[0.8, 0.2], [0.5, 0.5], [0.6, 0.4]])
        loss, _ = fusion_loss(preds, softs, np.zeros(3))
        mean_kl = np.mean(
            [oracles.fusion_loss_scalar([p], [s], [0.0]) for p, s in zip(preds, softs)]
        )
        assert loss == pytest.approx(mean_kl, abs=1e-12)

    def test_identical_distributions_give_zero(self):
        preds = np.array([[0.7, 0.3], [0.25, 0.75]])
        loss, _ = fusion_loss(preds, preds.copy(), np.array([0.1, 0.4]))
        assert loss == pytest.approx(0.0, abs=1e-12)

    def test_worked_example(self):
        preds = np.array([[0.9, 0.1], [0.5, 0.5]])
        softs = np.array([[0.99, 0.01], [0.5, 0.5]])
        u = np.array([0.5, 0.0])
        kl1 = 0.99 * math.log(0.99 / 0.9) + 0.01 * math.log(0.01 / 0.1)
        expected = 1.5 * kl1 / 2.5
        loss, _ = fusion_loss(preds, softs, u)
        assert loss == pytest.approx(expected, abs=1e-12)
        assert loss == pytest.approx(0.04279873624580469, abs=1e-12)

    def test_matches_scalar_oracle_on_random_batches(self):
        for _ in range(1000):
            n = int(RNG.integers(1, 6))
            preds = np.stack([random_prob(RNG) for _ in range(n)])
            softs = np.stack([random_prob(RNG) for _ in range(n)])
            u = RNG.uniform(0.0, 0.5, size=n)
            loss, _ = fusion_loss(preds, softs, u)
            assert loss == pytest.approx(
                oracles.fusion_loss_scalar(preds.tolist(), softs.tolist(), u.tolist()), abs=1e-9
            )

    def test_gradients_match_central_differences(self):
        for _ in range(100):
            n = int(RNG.integers(1, 5))
            preds = np.stack([random_prob(RNG) for _ in range(n)])
            softs = np.stack([random_prob(RNG) for _ in range(n)])
            u = RNG.uniform(0.0, 0.5, size=n)
            _, grad = fusion_loss(preds, softs, u)
            flat = preds.ravel().tolist()

            def f(vec):
                mat = [vec[2 * i : 2 * i + 2] for i in range(n)]
                return oracles.fusion_loss_scalar(mat, softs.tolist(), u.tolist())

            fd = oracles.central_difference(f, flat)
            np.testing.assert_allclose(grad.ravel(), fd, rtol=1e-4, atol=1e-7)
            want = oracles.fusion_grad_scalar(preds.tolist(), softs.tolist(), u.tolist())
            np.testing.assert_allclose(grad, want, rtol=0, atol=1e-12)

    def test_nonnegative(self):
        for _ in range(200):
            n = int(RNG.integers(1, 5))
            preds = np.stack([random_prob(RNG) for _ in range(n)])
            softs = np.stack([random_prob(RNG) for _ in range(n)])
            u = RNG.uniform(0.0, 0.5, size=n)
            loss, _ = fusion_loss(preds, softs, u)
            assert loss >= -1e-15

    def test_upweighting_a_mispredicted_sample_raises_its_gradient_share(self):
        preds = np.array([[0.9, 0.1], [0.6, 0.4], [0.3, 0.7]])
        softs = np.array([[0.2, 0.8], [0.6, 0.4], [0.3, 0.7]])  # sample 0 badly wrong
        shares = []
        for u0 in (0.0, 0.1, 0.25, 0.4, 0.5):
            _, grad = fusion_loss(preds, softs, np.array([u0, 0.0, 0.0]))
            norms = np.linalg.norm(grad, axis=1)
            shares.append(norms[0] / norms.sum())
        assert all(b > a for a, b in zip(shares, shares[1:]))

    @pytest.mark.parametrize("arg", ["batch_preds", "batch_soft"])
    def test_rejects_unnormalized_row_after_the_first(self, arg):
        good = np.array([[0.7, 0.3], [0.4, 0.6], [0.5, 0.5]])
        bad = good.copy()
        bad[1:] = (0.9, 0.9)
        args = {"batch_preds": good, "batch_soft": good}
        args[arg] = bad
        with pytest.raises(ContractError, match=rf"{arg}\[1\]"):
            fusion_loss(args["batch_preds"], args["batch_soft"], np.zeros(3))

    @pytest.mark.parametrize("arg", ["batch_preds", "batch_soft"])
    def test_nan_rows_pass_and_do_not_hide_a_bad_row(self, arg):
        """A diverged row yields a NaN loss, not an error; a bad row beside it is still named."""
        good = np.array([[0.7, 0.3], [0.4, 0.6], [0.5, 0.5]])
        nan_row = good.copy()
        nan_row[0] = np.nan
        args = {"batch_preds": good, "batch_soft": good, arg: nan_row}
        loss, _ = fusion_loss(args["batch_preds"], args["batch_soft"], np.array([np.nan, 0.0, 0.0]))
        assert np.isnan(loss)
        for bad_row in ((-0.5, 1.5), (0.9, 0.9)):
            bad = nan_row.copy()
            bad[2] = bad_row
            args[arg] = bad
            with pytest.raises(ContractError, match=rf"{arg}\[2\]"):
                fusion_loss(args["batch_preds"], args["batch_soft"], np.zeros(3))
        with pytest.raises(ParameterError, match="uncertainty weights"):
            fusion_loss(good, good, np.array([np.nan, 0.0, 0.7]))

    def test_length_mismatch_rejected(self):
        with pytest.raises(ParameterError):
            fusion_loss(np.array([[0.5, 0.5]]), np.array([[0.5, 0.5], [0.4, 0.6]]), np.zeros(1))
        with pytest.raises(ParameterError):
            fusion_loss(np.array([[0.5, 0.5]]), np.array([[0.5, 0.5]]), np.array([0.9]))

    def test_wrong_shape_and_empty_batch_rejected(self):
        with pytest.raises(ParameterError, match=r"batch_preds must be \(n, 2\)"):
            fusion_loss(np.full((1, 3), 1 / 3), np.full((1, 3), 1 / 3), np.zeros(1))
        with pytest.raises(ParameterError, match="at least one sample"):
            fusion_loss(np.zeros((0, 2)), np.zeros((0, 2)), np.zeros(0))


class TestTrainConfigLossSettings:
    def test_rejects_bad_values(self):
        with pytest.raises(ParameterError):
            TrainConfig(margin=0.0)
        with pytest.raises(ParameterError):
            TrainConfig(alpha=-0.1)
        with pytest.raises(ParameterError, match=r"\['baseline', 'conloss', 'full', 'multibr', 'uncerty'\]"):
            TrainConfig(ablation="bogus")
        for key, value in [("lr", math.nan), ("lr", math.inf), ("margin", math.nan), ("margin", math.inf),
                           ("alpha", math.nan), ("alpha", math.inf), ("lr", 0.0), ("batch_size", 0),
                           ("max_epochs", -1), ("lr_halving_period", 0)]:
            with pytest.raises(ParameterError, match=f"{key} must be"):
                TrainConfig(**{key: value})
