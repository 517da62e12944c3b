"""Training losses with analytic gradients.

All functions take (n, 2) batches of post-softmax two-class probability
vectors and return gradients with respect to those vectors; the model's
backward pass maps them through the softmax onto parameters. Each quantity is
computed here once, and only ``fusion_loss`` checks its inputs; the trainer
calls it on every step. A row's sum is written as its two columns added,
which rounds as ``sum(axis=1)`` does at a fraction of a reduction's cost on
batches of a few dozen rows.

* ``cross_entropy`` -- -log p[label], with p clamped at LOG_CLAMP.
* ``consensus_terms`` -- contrastive penalty between the sensitivity and
  specificity branch outputs: pull together on consensus samples, push apart
  (up to a margin) on disagreement samples.
* ``uncertainties`` -- 0.5 * (1 - cosine similarity) of the two branch
  outputs, a per-sample difficulty score in [0, 0.5]. Used as a constant
  weight; no gradient flows through it.
* ``fusion_loss`` -- KL divergence from soft labels to the fusion output,
  with per-sample weights (1 + u_i), normalized by their sum.

``train._losses_and_grads`` adds a branch's cross entropy to alpha times the
consensus term.
"""

from __future__ import annotations

import numpy as np

from .errors import ContractError, ParameterError

LOG_CLAMP = 1e-12
# Probability inputs are validated loosely so finite-difference probes
# (single-coordinate perturbations of ~1e-5) stay inside the contract.
PROB_TOL = 1e-3


def _check_prob(arr: np.ndarray, name: str) -> None:
    """Reject a row of the (n, 2) batch ``arr`` that is not a probability vector.

    NaN entries are let through, so a diverged batch surfaces as a non-finite
    loss. The passing path takes NaN-ignoring whole-array extremes; the bad
    row is looked for only once one is known to exist.
    """
    off = np.abs(arr[:, 0] + arr[:, 1] - 1.0)
    if np.fmin.reduce(arr, axis=None) < -PROB_TOL or np.fmax.reduce(off) > PROB_TOL:
        i = int((np.any(arr < -PROB_TOL, axis=1) | (off > PROB_TOL)).argmax())
        raise ContractError(f"{name}[{i}] is not a normalized probability vector: {arr[i]}")


def cross_entropy(probs: np.ndarray, idx: np.ndarray):
    """Per-sample -log(max(p, LOG_CLAMP)), p = probs[..., i, idx[..., i]], and its gradient.

    ``probs`` is a (..., n, 2) block of probability rows and ``idx`` its
    (..., n) labels: one branch's (n, 2) batch, or a stack of branches.
    Returns the losses shaped like ``idx`` and the gradient shaped like
    ``probs``, zero in the clamped region.
    """
    rows, labels = np.arange(idx.size), idx.reshape(-1)
    p = probs.reshape(-1, 2)[rows, labels]
    clamped = np.maximum(p, LOG_CLAMP)
    dprob = np.zeros(probs.shape)
    dprob.reshape(-1, 2)[rows, labels] = np.where(p > LOG_CLAMP, -1.0 / clamped, 0.0)
    return -np.log(clamped).reshape(idx.shape), dprob


def consensus_terms(p_sen: np.ndarray, p_spec: np.ndarray, a: np.ndarray, margin: float):
    """Per-sample consensus loss and its gradient wrt p_sen (negate for p_spec).

    loss = 0.5 * a * ||d||^2 + 0.5 * (1 - a) * max(0, margin - ||d||)^2,
    d = p_sen - p_spec. In the disagreement term the gradient is 0 throughout
    the inactive region ||d|| >= margin (including the kink at
    ||d|| = margin) and, by subgradient choice, at d = 0.
    """
    d = p_sen - p_spec
    squares = d * d
    dist = np.sqrt(squares[:, 0] + squares[:, 1])
    gap = margin - dist
    agree = a == 1
    loss = np.where(agree, 0.5 * dist**2, 0.5 * np.maximum(gap, 0.0) ** 2)
    safe_dist = np.maximum(dist, 1e-300)
    scale = np.where(agree, 1.0, np.where((gap > 0) & (dist > 0), -gap / safe_dist, 0.0))
    return loss, scale[:, None] * d


def uncertainties(p_sen: np.ndarray, p_spec: np.ndarray) -> np.ndarray:
    """Per-sample 0.5 * (1 - cosine similarity), clipped to [0, 0.5]."""
    dots, sen_sq, spec_sq = p_sen * p_spec, p_sen * p_sen, p_spec * p_spec
    norms = np.sqrt(sen_sq[:, 0] + sen_sq[:, 1]) * np.sqrt(spec_sq[:, 0] + spec_sq[:, 1])
    return np.minimum(np.maximum(0.5 * (1.0 - (dots[:, 0] + dots[:, 1]) / norms), 0.0), 0.5)


def fusion_loss(batch_preds, batch_soft, batch_u):
    """Uncertainty-weighted KL divergence from soft labels to predictions.

    loss = sum_i (1 + u_i) * KL(soft_i || pred_i) / sum_i (1 + u_i).
    The weights are treated as constants; gradients flow only through the
    predictions. Returns (loss, grad_preds) with grad_preds shaped (n, 2).
    """
    preds = np.asarray(batch_preds, dtype=float)
    soft = np.asarray(batch_soft, dtype=float)
    u = np.asarray(batch_u, dtype=float)
    if preds.ndim != 2 or preds.shape[1] != 2:
        raise ParameterError(f"batch_preds must be (n, 2), got {preds.shape}")
    if soft.shape != preds.shape or u.shape != (preds.shape[0],):
        raise ParameterError(
            f"length mismatch: preds {preds.shape}, soft {soft.shape}, u {u.shape}"
        )
    if preds.shape[0] < 1:
        raise ParameterError("batch must contain at least one sample")
    _check_prob(preds, "batch_preds")
    _check_prob(soft, "batch_soft")
    if np.fmin.reduce(u) < -PROB_TOL or np.fmax.reduce(u) > 0.5 + PROB_TOL:
        raise ParameterError("uncertainty weights must lie in [0, 0.5]")

    w = 1.0 + u
    total_w = float(np.add.reduce(w))
    w_col, clamped = w[:, None], np.maximum(preds, LOG_CLAMP)
    # 0 * log 0 = 0 by convention.
    elem = np.where(soft > 0.0, soft * (np.log(np.maximum(soft, LOG_CLAMP)) - np.log(clamped)), 0.0)
    loss = float(np.add.reduce(w_col * elem, axis=None) / total_w)
    grad = np.where(preds > LOG_CLAMP, -(w_col * soft) / clamped / total_w, 0.0)
    return loss, grad
