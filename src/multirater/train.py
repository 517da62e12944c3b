"""Multi-branch training loop: per-epoch label sampling, Adam, LR halving, model selection.

Each batch optimizes one combined objective,

    mean_i[CE_sen_i + alpha * L_con_i] + mean_i[CE_spec_i + alpha * L_con_i]
        + fusion KL (uncertainty-weighted, self-normalized),

with a single Adam update over all parameters. The consensus term appears in
both branch losses, so its effective weight on the shared term is 2 * alpha.

Soft fusion targets are computed once per fit, from rater-accuracy weights of
the training split, and ``train_step`` receives the training arrays and the
batch's row indices. Branch labels are redrawn every step through
``labels.sample_branch_label``, one call per sample and branch, a keyed
closed-form draw: a sample's labels depend on (seed, epoch, sample) alone, not
on the batch it lands in. Adam runs as three vector operations over the
parameters' flat buffer.

Ablation flags:

* ``multi_branch=False``: single head trained with cross entropy on the final
  labels (the baseline); the other flags are ignored.
* ``consensus_loss=False``: drop the consensus term from both branch losses.
* ``uncertainty_weighting=False``: fusion KL weights all samples equally.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ParameterError, TrainingDivergedError, UndefinedMetricError
from .labels import Branch, compute_rater_weights, sample_branch_label, soft_label
from .losses import consensus_terms, cross_entropy, fusion_loss
from .metrics import roc_auc
from .model import BatchOutputs, ModelConfig, ModelParams, backward, forward_batch, init_params
from .rng import STREAM_SHUFFLE, seeded_rng
from .simulate import GradedDataset

ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8

@dataclass(frozen=True)
class TrainConfig:
    batch_size: int = 32
    max_epochs: int = 50
    lr: float = 2e-4
    lr_halving_period: int = 15
    alpha: float = 0.5
    margin: float = 1.0
    seed: int = 0
    multi_branch: bool = True
    consensus_loss: bool = True
    uncertainty_weighting: bool = True

    def __post_init__(self):
        if self.batch_size < 1:
            raise ParameterError(f"batch_size must be >= 1, got {self.batch_size}")
        if self.lr <= 0:
            raise ParameterError(f"lr must be > 0, got {self.lr}")
        if self.max_epochs < 0:
            raise ParameterError(f"max_epochs must be >= 0, got {self.max_epochs}")
        if self.lr_halving_period < 1:
            raise ParameterError(f"lr_halving_period must be >= 1, got {self.lr_halving_period}")
        if self.margin <= 0:
            raise ParameterError(f"margin must be > 0, got {self.margin}")
        if self.alpha < 0:
            raise ParameterError(f"alpha must be >= 0, got {self.alpha}")


def learning_rate(config: TrainConfig, epoch: int) -> float:
    """Step schedule: halved every lr_halving_period epochs (epochs count from 0)."""
    return config.lr * 0.5 ** (epoch // config.lr_halving_period)


@dataclass
class TrainState:
    params: ModelParams
    m: np.ndarray  # Adam moments, aligned with params.flat
    v: np.ndarray
    t: int = 0
    epoch: int = 0
    best_params: ModelParams | None = None
    best_val_auc: float = float("-inf")
    log: list[dict] = field(default_factory=list)


def init_state(model_config: ModelConfig, train_config: TrainConfig) -> TrainState:
    params = init_params(model_config, multi_branch=train_config.multi_branch)
    return TrainState(params=params, m=np.zeros_like(params.flat), v=np.zeros_like(params.flat))


def _losses_and_grads(
    out: BatchOutputs,
    sen_idx: np.ndarray,
    spec_idx: np.ndarray,
    softs: np.ndarray,
    final_idx: np.ndarray,
    a: np.ndarray,
    config: TrainConfig,
):
    """Batch objective scalars and probability-space gradients."""
    n = final_idx.size
    scalars: dict[str, float] = {}
    grads: dict[str, np.ndarray] = {}

    if not config.multi_branch:
        ce, dfus = cross_entropy(out.y_fusion, final_idx)
        scalars.update(
            loss_sen=0.0, loss_spec=0.0, loss_consensus=0.0, loss_fusion=float(ce.mean())
        )
        grads["y_fusion"] = dfus / n
        scalars["total"] = scalars["loss_fusion"]
        return scalars, grads

    ce_sen, d_sen = cross_entropy(out.y_sen, sen_idx)
    ce_spec, d_spec = cross_entropy(out.y_spec, spec_idx)
    con, g_con_sen = consensus_terms(out.y_sen, out.y_spec, a, config.margin)
    alpha = config.alpha if config.consensus_loss else 0.0

    u = out.uncertainty if config.uncertainty_weighting else np.zeros(n)
    fus, d_fus = fusion_loss(out.y_fusion, softs, u)

    scalars["loss_sen"] = float((ce_sen + alpha * con).mean())
    scalars["loss_spec"] = float((ce_spec + alpha * con).mean())
    scalars["loss_consensus"] = float(con.mean())
    scalars["loss_fusion"] = fus
    scalars["total"] = scalars["loss_sen"] + scalars["loss_spec"] + fus

    grads["y_sen"] = (d_sen + 2.0 * alpha * g_con_sen) / n
    grads["y_spec"] = (d_spec - 2.0 * alpha * g_con_sen) / n
    grads["y_fusion"] = d_fus
    return scalars, grads


def _adam_update(state: TrainState, grads: dict[str, np.ndarray], lr: float) -> None:
    state.t += 1
    bc1 = 1.0 - ADAM_BETA1**state.t
    bc2 = 1.0 - ADAM_BETA2**state.t
    g = np.concatenate([grads[name].ravel() for name in state.params.tensors])
    state.m = ADAM_BETA1 * state.m + (1.0 - ADAM_BETA1) * g
    state.v = ADAM_BETA2 * state.v + (1.0 - ADAM_BETA2) * g * g
    state.params.flat -= lr * (state.m / bc1) / (np.sqrt(state.v / bc2) + ADAM_EPS)
    state.params.version += 1


def soft_targets(dataset: GradedDataset, weights: dict[int, float]) -> np.ndarray:
    """(n, 2) fusion targets: the two-class distribution (1 - y, y) of each ``soft_label`` y."""
    y = soft_label(dataset, weights)
    return np.stack([1.0 - y, y], axis=1)


def train_step(
    state: TrainState,
    data: GradedDataset,
    idx: np.ndarray,
    softs: np.ndarray,
    config: TrainConfig,
) -> dict[str, float]:
    """One combined Adam step on the rows ``idx`` of ``data``; returns the loss scalars.

    ``softs`` holds the (n, 2) fusion targets of every row of ``data``, as
    ``soft_targets`` returns them; the single-head baseline trains on the
    final labels and ignores them.
    """
    if len(idx) < 1:
        raise ParameterError("batch must be non-empty")
    batch, softs = data.subset(idx), softs[idx]
    final_idx = batch.final_labels
    a = batch.consensus_flags
    if config.multi_branch:
        rows = list(zip(batch.ratings.tolist(), batch.sample_ids.tolist()))
        sen_idx, spec_idx = (
            np.array([sample_branch_label(r, i, branch, config.seed, state.epoch) for r, i in rows])
            for branch in Branch
        )
    else:
        sen_idx = spec_idx = final_idx

    out, cache = forward_batch(state.params, batch.features)
    scalars, prob_grads = _losses_and_grads(out, sen_idx, spec_idx, softs, final_idx, a, config)
    if not math.isfinite(scalars["total"]):
        raise TrainingDivergedError(
            f"non-finite loss at epoch {state.epoch}, step {state.t}: {scalars}"
        )
    param_grads = backward(state.params, cache, prob_grads)
    _adam_update(state, param_grads, learning_rate(config, state.epoch))
    return scalars


def _validation_auc(params: ModelParams, features: np.ndarray, labels: np.ndarray):
    """(AUC, None), or (None, reason) when the AUC is undefined."""
    out, _ = forward_batch(params, features)
    try:
        return roc_auc(out.y_fusion[:, 1], labels), None
    except UndefinedMetricError as exc:
        return None, str(exc)


def fit(
    train: GradedDataset,
    val: GradedDataset,
    model_config: ModelConfig,
    train_config: TrainConfig,
    on_epoch=None,
) -> tuple[ModelParams, list[dict]]:
    """Train for up to max_epochs and return the best-validation-AUC parameters.

    Ties go to the later epoch: an epoch whose validation AUC equals the best
    so far replaces it. An epoch with an undefined AUC is never selected.

    The training log holds one record per completed epoch:
    {epoch, lr, loss_sen, loss_spec, loss_fusion, loss_consensus, val_auc}.
    An undefined validation AUC (a one-class validation split) is logged as
    None, and the record gains ``val_auc_undefined`` with the reason. When no
    epoch has a defined validation AUC, the returned parameters are the
    initial ones.
    On divergence (a non-finite loss) the loop stops after appending one
    record {epoch, step, diverged}, with the error message under ``diverged``
    and ``step`` the number of Adam steps taken, and returns the best
    parameters so far.
    ``on_epoch``, when given, is called with each record as it is appended.
    """
    state = init_state(model_config, train_config)
    if train_config.multi_branch:
        softs = soft_targets(train, compute_rater_weights(train))
    else:  # the baseline's target is the one-hot final label
        softs = np.eye(2)[train.final_labels]
    val_labels = val.final_labels
    shuffle_rng = seeded_rng(train_config.seed, STREAM_SHUFFLE)
    state.best_params = state.params.copy()
    n = len(train)

    for epoch in range(train_config.max_epochs):
        state.epoch = epoch
        order = shuffle_rng.permutation(n)
        sums = dict.fromkeys(("loss_sen", "loss_spec", "loss_fusion", "loss_consensus"), 0.0)
        try:
            for start in range(0, n, train_config.batch_size):
                idx = order[start : start + train_config.batch_size]
                scalars = train_step(state, train, idx, softs, train_config)
                for key in sums:
                    sums[key] += scalars[key] * idx.size
        except TrainingDivergedError as exc:
            state.log.append({"epoch": epoch, "step": state.t, "diverged": str(exc)})
            if on_epoch is not None:
                on_epoch(state.log[-1])
            break
        val_auc, undefined = _validation_auc(state.params, val.features, val_labels)
        if val_auc is not None and val_auc >= state.best_val_auc:
            state.best_val_auc = val_auc
            state.best_params = state.params.copy()
        record = {
            "epoch": epoch,
            "lr": learning_rate(train_config, epoch),
            **{key: sums[key] / n for key in sums},
            "val_auc": val_auc,
        }
        if undefined is not None:
            record["val_auc_undefined"] = undefined
        state.log.append(record)
        if on_epoch is not None:
            on_epoch(record)
    return state.best_params, state.log
