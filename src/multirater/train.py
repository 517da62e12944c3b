"""Multi-branch training loop: per-epoch label sampling, Adam, LR halving, model selection.

Each batch optimizes one combined objective,

    mean_i[CE_sen_i + alpha * L_con_i] + mean_i[CE_spec_i + alpha * L_con_i]
        + fusion KL (uncertainty-weighted, self-normalized),

with a single Adam update over all parameters. The consensus term appears in
both branch losses, so its effective weight on the shared term is 2 * alpha.

Work that depends only on the fit is done once per fit. ``fit_targets``
builds every training row's soft fusion target (from rater-accuracy weights
of the training split), consensus flag and two branch probabilities, and
``init_state`` allocates the gradient buffer and Adam's work buffers.
``train_step`` gathers its batch's rows from the training arrays and those
targets. It redraws the branch labels through ``labels.sample_branch_label``,
one call per sample and branch (``_branch_labels``), a keyed closed-form
draw: a sample's labels depend on (seed, epoch, sample) alone, not on the
batch it lands in.
The losses' probability-space gradient is one block shaped like the
forward cache's ``probs``, one row per branch, fusion last; ``backward``
maps it into the state's gradient buffer, laid out like the parameters,
and Adam steps on the two flat buffers in place.

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
from dataclasses import dataclass

import numpy as np

from .errors import ParameterError, TrainingDivergedError, UndefinedMetricError
from .labels import Branch, compute_rater_weights, positive_probabilities, sample_branch_label, soft_label
from .losses import consensus_terms, cross_entropy, fusion_loss, uncertainties
from .metrics import roc_auc
from .model import ModelConfig, ModelParams, backward, forward_batch, init_params
from .rng import STREAM_SHUFFLE, seeded_rng
from .simulate import GradedDataset

ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8

# The ablation arms' switches, in the ablation grid's row order.
ARM_FLAGS = {
    "baseline": dict(multi_branch=False, consensus_loss=False, uncertainty_weighting=False),
    "multibr": dict(multi_branch=True, consensus_loss=False, uncertainty_weighting=False),
    "conloss": dict(multi_branch=True, consensus_loss=True, uncertainty_weighting=False),
    "uncerty": dict(multi_branch=True, consensus_loss=False, uncertainty_weighting=True),
    "full": dict(multi_branch=True, consensus_loss=True, uncertainty_weighting=True),
}


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
    """What ``train_step`` reads and writes; ``fit`` keeps the selected parameters and the log."""

    params: ModelParams
    m: np.ndarray  # Adam moments, aligned with params.flat
    v: np.ndarray
    grad: ModelParams  # refilled by backward on every step
    scratch: tuple[np.ndarray, np.ndarray]  # Adam's work buffers, aligned with params.flat
    t: int = 0
    epoch: int = 0


def init_state(model_config: ModelConfig, train_config: TrainConfig) -> TrainState:
    params = init_params(model_config, multi_branch=ARM_FLAGS[train_config.ablation]["multi_branch"])
    flat = params.flat
    # backward overwrites every gradient entry, so the buffer needs no zero fill.
    return TrainState(params=params, m=np.zeros(flat.size), v=np.zeros(flat.size),
                      grad=ModelParams(params.config, params.multi_branch, np.empty_like(flat)),
                      scratch=(np.empty_like(flat), np.empty_like(flat)))


@dataclass(frozen=True)
class FitTargets:
    """Per-row training targets of one fit, aligned with the training split's rows."""

    softs: np.ndarray  # (n, 2) fusion targets
    consensus: np.ndarray  # (n,) consensus flags
    positive: np.ndarray | None = None  # (2, n) P(label = 1), one row per Branch; None for the baseline


def fit_targets(train: GradedDataset, config: TrainConfig) -> FitTargets:
    """The targets ``train_step`` gathers from, for every row of ``train``.

    The multi-branch arms train the fusion output on (1 - y, y) for each
    ``soft_label`` y and draw branch labels with ``positive_probabilities``;
    the single-head baseline trains it on the one-hot final labels and draws none.
    """
    if not ARM_FLAGS[config.ablation]["multi_branch"]:
        return FitTargets(np.eye(2)[train.final_labels], train.consensus_flags)
    y = soft_label(train, compute_rater_weights(train))
    return FitTargets(np.stack([1.0 - y, y], axis=1), train.consensus_flags,
                      positive_probabilities(train.ratings))


def _branch_labels(data: GradedDataset, idx: np.ndarray, targets: FitTargets, seed: int,
                   epoch: int) -> np.ndarray:
    """The (2, len(idx)) sen and spec labels of the rows ``idx``: one ``sample_branch_label`` call each."""
    ids = data.sample_ids[idx].tolist()
    return np.array([[sample_branch_label(p, i, branch, seed, epoch) for p, i in zip(probs, ids)]
                     for branch, probs in zip((Branch.SEN, Branch.SPEC), targets.positive[:, idx].tolist())])


def _losses_and_grads(y: np.ndarray, labels: np.ndarray | None, softs: np.ndarray, a: np.ndarray,
                      config: TrainConfig):
    """Batch objective scalars and their probability-space gradient, a block shaped like ``y``.

    ``y`` is the forward cache's (B, n, 2) branch-major softmax block, fusion
    last, and ``labels`` the (2, n) sen and spec labels, None for the
    baseline. Every arm trains the fusion output on ``softs``; the
    multi-branch arms add the sen/spec cross entropy, taken over both
    branches' rows at once, and the consensus term.
    """
    n = a.size
    arm = ARM_FLAGS[config.ablation]
    u = uncertainties(y[0], y[1]) if arm["uncertainty_weighting"] else np.zeros(n)
    fus, d_fus = fusion_loss(y[-1], softs, u)
    scalars = dict(loss_sen=0.0, loss_spec=0.0, loss_consensus=0.0, loss_fusion=fus)
    dy = d_fus[None]

    if arm["multi_branch"]:
        ce, d_branch = cross_entropy(y[:2], labels)
        con, g_con_sen = consensus_terms(y[0], y[1], a, config.margin)
        alpha = config.alpha if arm["consensus_loss"] else 0.0
        loss_sen, loss_spec = np.add.reduce(ce + alpha * con, axis=1) / n
        scalars["loss_sen"], scalars["loss_spec"] = float(loss_sen), float(loss_spec)
        scalars["loss_consensus"] = float(np.add.reduce(con) / n)
        g_con_sen *= 2.0 * alpha
        d_branch[0] += g_con_sen
        d_branch[1] -= g_con_sen
        d_branch /= n
        dy = np.concatenate((d_branch, dy))
    scalars["total"] = scalars["loss_sen"] + scalars["loss_spec"] + fus
    return scalars, dy


def _adam_update(state: TrainState, g: np.ndarray, lr: float) -> None:
    """One Adam step on ``state.params.flat`` with the flat gradient ``g``, in place.

    The same operations in the same order as
    m = b1 * m + (1 - b1) * g; v = b2 * v + (1 - b2) * g * g;
    flat -= lr * (m / bc1) / (sqrt(v / bc2) + eps), with every temporary
    written to ``state.scratch``. From t = 356 on, bc1 = 1 - b1**t rounds to
    exactly 1.0, and m / 1.0 is m bit for bit, so that division is skipped.
    (bc2 first rounds to 1.0 at t = 37,412; its division always runs.)
    """
    state.t += 1
    bc1 = 1.0 - ADAM_BETA1**state.t
    bc2 = 1.0 - ADAM_BETA2**state.t
    step, denom = state.scratch
    np.multiply(g, 1.0 - ADAM_BETA1, out=step)
    state.m *= ADAM_BETA1
    state.m += step
    np.multiply(g, 1.0 - ADAM_BETA2, out=step)
    step *= g
    state.v *= ADAM_BETA2
    state.v += step
    if bc1 == 1.0:
        np.multiply(state.m, lr, out=step)
    else:
        np.divide(state.m, bc1, out=step)
        step *= lr
    np.divide(state.v, bc2, out=denom)
    np.sqrt(denom, out=denom)
    denom += ADAM_EPS
    step /= denom
    state.params.flat -= step
    state.params.version += 1


def train_step(
    state: TrainState,
    data: GradedDataset,
    idx: np.ndarray,
    targets: FitTargets,
    config: TrainConfig,
) -> dict[str, float]:
    """One combined Adam step on the rows ``idx`` of ``data``; returns the loss scalars.

    ``targets`` holds the per-row targets of every row of ``data``, as
    ``fit_targets`` builds them for ``config``.
    """
    if len(idx) < 1:
        raise ParameterError("batch must be non-empty")
    labels = None  # the baseline draws no branch labels
    if ARM_FLAGS[config.ablation]["multi_branch"]:
        labels = _branch_labels(data, idx, targets, config.seed, state.epoch)

    _, cache = forward_batch(state.params, data.features[idx])
    scalars, dy = _losses_and_grads(cache.probs, labels, targets.softs[idx], targets.consensus[idx], config)
    if not math.isfinite(scalars["total"]):
        raise TrainingDivergedError(
            f"non-finite loss at epoch {state.epoch}, step {state.t}: {scalars}"
        )
    backward(cache, dy, out=state.grad)
    _adam_update(state, state.grad.flat, learning_rate(config, state.epoch))
    return scalars


def _validation_auc(params: ModelParams, features: np.ndarray, labels: np.ndarray):
    """(AUC, None), or (None, reason) when the AUC is undefined."""
    probs, _ = forward_batch(params, features)
    try:
        return roc_auc(probs["fusion"][:, 1], labels), None
    except UndefinedMetricError as exc:
        return None, str(exc)


def kept_initial_params(log: list[dict]) -> bool:
    """Whether the ``fit`` that wrote ``log`` kept its initial parameters: no epoch had a defined val AUC."""
    return all(record.get("val_auc") is None for record in log)


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
    targets = fit_targets(train, train_config)
    val_labels = val.final_labels
    shuffle_rng = seeded_rng(train_config.seed, STREAM_SHUFFLE)
    best_params, best_val_auc, log = state.params.copy(), float("-inf"), []
    n = len(train)

    # A diverging step overflows; its non-finite loss, not numpy's warnings, reports it.
    with np.errstate(over="ignore", invalid="ignore"):
        for epoch in range(train_config.max_epochs):
            state.epoch = epoch
            order = shuffle_rng.permutation(n)
            sums = dict.fromkeys(("loss_sen", "loss_spec", "loss_fusion", "loss_consensus"), 0.0)
            try:
                for start in range(0, n, train_config.batch_size):
                    idx = order[start : start + train_config.batch_size]
                    scalars = train_step(state, train, idx, targets, train_config)
                    for key in sums:
                        sums[key] += scalars[key] * idx.size
            except TrainingDivergedError as exc:
                log.append({"epoch": epoch, "step": state.t, "diverged": str(exc)})
                if on_epoch is not None:
                    on_epoch(log[-1])
                break
            val_auc, undefined = _validation_auc(state.params, val.features, val_labels)
            if val_auc is not None and val_auc >= best_val_auc:
                best_val_auc = val_auc
                best_params.flat[...] = state.params.flat
                best_params.version += 1
            record = {
                "epoch": epoch,
                "lr": learning_rate(train_config, epoch),
                **{key: sums[key] / n for key in sums},
                "val_auc": val_auc,
            }
            if undefined is not None:
                record["val_auc_undefined"] = undefined
            log.append(record)
            if on_epoch is not None:
                on_epoch(record)
    return best_params, log
