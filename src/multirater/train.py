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
on the batch it lands in. ``backward`` returns the gradient laid out like the
parameters, and Adam steps on the two flat buffers.

Ablation arms (``TrainConfig.ablation``), each a row of switches in ``ARM_FLAGS``:

* ``baseline``: a single fusion head trained on the fusion KL to the one-hot
  final labels, i.e. their cross entropy; no branch labels are drawn.
* ``multibr``: the three branches, no consensus term, equal fusion weights.
* ``conloss``: adds the consensus term to both branch losses.
* ``uncerty``: weights the fusion KL by the uncertainty u of the sen/spec outputs.
* ``full``: both, as in the paper.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ParameterError, TrainingDivergedError, UndefinedMetricError
from .labels import Branch, compute_rater_weights, sample_branch_label, soft_label
from .losses import consensus_terms, cross_entropy, fusion_loss, uncertainties
from .metrics import roc_auc
from .model import ModelConfig, ModelParams, backward, forward_batch, init_params
from .rng import STREAM_SHUFFLE, seeded_rng
from .simulate import GradedDataset

ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8

ARM_FLAGS = {
    "baseline": dict(multi_branch=False, consensus_loss=False, uncertainty_weighting=False),
    "multibr": dict(multi_branch=True, consensus_loss=False, uncertainty_weighting=False),
    "conloss": dict(multi_branch=True, consensus_loss=True, uncertainty_weighting=False),
    "uncerty": dict(multi_branch=True, consensus_loss=False, uncertainty_weighting=True),
    "full": dict(multi_branch=True, consensus_loss=True, uncertainty_weighting=True),
}
# Fixed row order of the ablation grid.
ARM_ORDER = tuple(ARM_FLAGS)


@dataclass(frozen=True)
class TrainConfig:
    batch_size: int = 32
    max_epochs: int = 50
    lr: float = 2e-4
    lr_halving_period: int = 15
    alpha: float = 0.5
    margin: float = 1.0
    seed: int = 0
    ablation: str = "full"

    def __post_init__(self):
        if self.ablation not in ARM_FLAGS:
            raise ParameterError(f"ablation must be one of {sorted(ARM_FLAGS)}, got {self.ablation!r}")
        if self.batch_size < 1:
            raise ParameterError(f"batch_size must be >= 1, got {self.batch_size}")
        if not 0 < self.lr < math.inf:
            raise ParameterError(f"lr must be finite and > 0, got {self.lr}")
        if self.max_epochs < 0:
            raise ParameterError(f"max_epochs must be >= 0, got {self.max_epochs}")
        if self.lr_halving_period < 1:
            raise ParameterError(f"lr_halving_period must be >= 1, got {self.lr_halving_period}")
        if not 0 < self.margin < math.inf:
            raise ParameterError(f"margin must be finite and > 0, got {self.margin}")
        if not 0 <= self.alpha < math.inf:
            raise ParameterError(f"alpha must be finite and >= 0, got {self.alpha}")


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
    params = init_params(model_config, multi_branch=ARM_FLAGS[train_config.ablation]["multi_branch"])
    return TrainState(params=params, m=np.zeros_like(params.flat), v=np.zeros_like(params.flat))


def _losses_and_grads(probs: dict[str, np.ndarray], sen_idx: np.ndarray | None, spec_idx: np.ndarray | None,
                      softs: np.ndarray, a: np.ndarray, config: TrainConfig):
    """Batch objective scalars and probability-space gradients, both keyed like ``probs``.

    Every arm trains the fusion output on ``softs``; the multi-branch arms add
    the sen/spec cross entropy and the consensus term.
    """
    n = a.size
    arm = ARM_FLAGS[config.ablation]
    u = uncertainties(probs["sen"], probs["spec"]) if arm["uncertainty_weighting"] else np.zeros(n)
    fus, d_fus = fusion_loss(probs["fusion"], softs, u)
    scalars = dict(loss_sen=0.0, loss_spec=0.0, loss_consensus=0.0, loss_fusion=fus)
    grads = {"fusion": d_fus}

    if arm["multi_branch"]:
        ce_sen, d_sen = cross_entropy(probs["sen"], sen_idx)
        ce_spec, d_spec = cross_entropy(probs["spec"], spec_idx)
        con, g_con_sen = consensus_terms(probs["sen"], probs["spec"], a, config.margin)
        alpha = config.alpha if arm["consensus_loss"] else 0.0
        scalars["loss_sen"] = float((ce_sen + alpha * con).mean())
        scalars["loss_spec"] = float((ce_spec + alpha * con).mean())
        scalars["loss_consensus"] = float(con.mean())
        grads["sen"] = (d_sen + 2.0 * alpha * g_con_sen) / n
        grads["spec"] = (d_spec - 2.0 * alpha * g_con_sen) / n
    scalars["total"] = scalars["loss_sen"] + scalars["loss_spec"] + fus
    return scalars, grads


def _adam_update(state: TrainState, g: np.ndarray, lr: float) -> None:
    """One Adam step on ``state.params.flat`` with the flat gradient ``g``."""
    state.t += 1
    bc1 = 1.0 - ADAM_BETA1**state.t
    bc2 = 1.0 - ADAM_BETA2**state.t
    state.m *= ADAM_BETA1
    state.m += (1.0 - ADAM_BETA1) * g
    state.v *= ADAM_BETA2
    state.v += (1.0 - ADAM_BETA2) * g * g
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
    ``fit`` builds them: ``soft_targets`` for the multi-branch arms, the
    one-hot final labels for the single-head baseline.
    """
    if len(idx) < 1:
        raise ParameterError("batch must be non-empty")
    batch, softs = data.subset(idx), softs[idx]
    sen_idx = spec_idx = None  # the baseline draws no branch labels
    if ARM_FLAGS[config.ablation]["multi_branch"]:
        rows = list(zip(batch.ratings.tolist(), batch.sample_ids.tolist()))
        sen_idx, spec_idx = (
            np.array([sample_branch_label(r, i, branch, config.seed, state.epoch) for r, i in rows])
            for branch in Branch
        )

    probs, cache = forward_batch(state.params, batch.features)
    scalars, prob_grads = _losses_and_grads(probs, sen_idx, spec_idx, softs, batch.consensus_flags, config)
    if not math.isfinite(scalars["total"]):
        raise TrainingDivergedError(
            f"non-finite loss at epoch {state.epoch}, step {state.t}: {scalars}"
        )
    grad = backward(state.params, cache, prob_grads)
    _adam_update(state, grad.flat, learning_rate(config, state.epoch))
    return scalars


def _validation_auc(params: ModelParams, features: np.ndarray, labels: np.ndarray):
    """(AUC, None), or (None, reason) when the AUC is undefined."""
    probs, _ = forward_batch(params, features)
    try:
        return roc_auc(probs["fusion"][:, 1], labels), None
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
    Raises ParameterError when the training or validation split is empty.
    """
    for name, part in (("training", train), ("validation", val)):
        if len(part) == 0:
            raise ParameterError(f"the {name} split is empty")
    state = init_state(model_config, train_config)
    if ARM_FLAGS[train_config.ablation]["multi_branch"]:
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
