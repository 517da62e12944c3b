"""Training losses with analytic gradients.

All functions take (n, 2) batches of post-softmax two-class probability
vectors and return gradients with respect to those vectors; the model's
backward pass maps them through the softmax onto parameters. Each quantity is
computed here once, and only ``fusion_loss`` checks its inputs; the trainer
calls it on every step.

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
    off = np.abs(arr.sum(axis=1) - 1.0)
    if np.fmin.reduce(arr, axis=None) < -PROB_TOL or np.fmax.reduce(off) > PROB_TOL:
        i = int((np.any(arr < -PROB_TOL, axis=1) | (off > PROB_TOL)).argmax())
        raise ContractError(f"{name}[{i}] is not a normalized probability vector: {arr[i]}")


def _log_clamped(p: np.ndarray) -> np.ndarray:
    return np.log(np.maximum(p, LOG_CLAMP))


def cross_entropy(probs: np.ndarray, idx: np.ndarray):
    """Per-sample -log(max(probs[i, idx[i]], LOG_CLAMP)) and its (n, 2) gradient.

    The gradient is zero in the clamped region.
    """
    rows = np.arange(idx.size)
    p = probs[rows, idx]
    ce = -_log_clamped(p)
    dprob = np.zeros_like(probs)
    dprob[rows, idx] = np.where(p > LOG_CLAMP, -1.0 / np.maximum(p, LOG_CLAMP), 0.0)
    return ce, dprob


def consensus_terms(p_sen: np.ndarray, p_spec: np.ndarray, a: np.ndarray, margin: float):
    """Per-sample consensus loss and its gradient wrt p_sen (negate for p_spec).

    loss = 0.5 * a * ||d||^2 + 0.5 * (1 - a) * max(0, margin - ||d||)^2,
    d = p_sen - p_spec. In the disagreement term the gradient is 0 throughout
    the inactive region ||d|| >= margin (including the kink at
    ||d|| = margin) and, by subgradient choice, at d = 0.
    """
    d = p_sen - p_spec
    dist = np.sqrt((d * d).sum(axis=1))  # np.linalg.norm(d, axis=1), without its dispatch
    gap = margin - dist
    agree = a == 1
    loss = np.where(agree, 0.5 * dist**2, 0.5 * np.maximum(gap, 0.0) ** 2)
    safe_dist = np.maximum(dist, 1e-300)
    scale = np.where(agree, 1.0, np.where((gap > 0) & (dist > 0), -gap / safe_dist, 0.0))
    return loss, scale[:, None] * d


def uncertainties(p_sen: np.ndarray, p_spec: np.ndarray) -> np.ndarray:
    """Per-sample 0.5 * (1 - cosine similarity), clipped to [0, 0.5]."""
    dots = (p_sen * p_spec).sum(axis=1)
    norms = np.sqrt((p_sen * p_sen).sum(axis=1)) * np.sqrt((p_spec * p_spec).sum(axis=1))
    return np.clip(0.5 * (1.0 - dots / norms), 0.0, 0.5)


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
    total_w = float(w.sum())
    # 0 * log 0 = 0 by convention.
    elem = np.where(soft > 0.0, soft * (_log_clamped(soft) - _log_clamped(preds)), 0.0)
    loss = float((w[:, None] * elem).sum() / total_w)
    grad = np.where(
        preds > LOG_CLAMP,
        -(w[:, None] * soft) / np.maximum(preds, LOG_CLAMP) / total_w,
        0.0,
    )
    return loss, grad
