"""Multi-branch dense network with a hand-rolled backward pass.

Topology: a shared tanh trunk feeds one tanh feature layer per branch.
``_branches`` lists the branches, fusion last: sen, spec and fusion, or
fusion alone for the single-head baseline (``multi_branch=False``). Every
branch's features land in their own column block of one ``(n, len * bd)``
feature block, in that order. Each branch's head reads its own columns,
except the fusion head, which reads the whole block. Gradients from the
fusion head therefore flow back into every feature layer, and the trunk
receives the sum of all branch contributions.

``forward_batch`` returns the softmax outputs keyed by branch name, and
``backward`` takes the gradients keyed the same way; the baseline has the
``"fusion"`` key only.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass, fields
from numbers import Integral
from types import MappingProxyType

import numpy as np

from .errors import ContractError, DataError, ParameterError
from .rng import STREAM_INIT, seeded_rng

CHECKPOINT_FORMAT_VERSION = 1


@dataclass(frozen=True)
class ModelConfig:
    input_dim: int
    trunk_dims: tuple[int, ...] = (64, 64, 64)
    branch_dim: int = 32
    seed: int = 0

    def __post_init__(self):
        object.__setattr__(self, "trunk_dims", tuple(self.trunk_dims))
        if len(self.trunk_dims) != 3:
            raise ParameterError(f"trunk_dims must hold three widths, got {self.trunk_dims}")
        widths = (self.input_dim, *self.trunk_dims, self.branch_dim)
        if not all(_is_int(w) and w >= 1 for w in widths):
            raise ParameterError(f"all layer widths must be integers >= 1, got {widths}")
        if not _is_int(self.seed):
            raise ParameterError(f"seed must be an integer, got {self.seed!r}")


def _is_int(value) -> bool:
    return isinstance(value, Integral) and not isinstance(value, bool)


class ModelParams:
    """All parameters in one flat float64 buffer, plus topology; mutated in place by training.

    ``flat`` holds every tensor back to back in ``_flat_layout`` order, each
    layer's weight before its bias. ``tensors`` is a read-only mapping from
    each tensor's name to a view into ``flat`` with the tensor's shape: write
    through a view (``tensors[name][...] = x``), or update ``flat`` as a whole,
    as Adam does; rebinding a name raises ``TypeError``.

    ``version`` increments on every in-place update so that backward() can
    detect a stale ``forward_batch`` cache.
    """

    def __init__(self, config: ModelConfig, multi_branch: bool, flat: np.ndarray | None = None):
        self.config = config
        self.multi_branch = multi_branch
        size, layout = _flat_layout(config, multi_branch)
        self.flat = np.zeros(size) if flat is None else flat
        if self.flat.shape != (size,) or self.flat.dtype != np.float64:
            raise ParameterError(f"flat buffer must be float64 of shape ({size},), got {self.flat.shape}")
        self.tensors = MappingProxyType(
            {name: self.flat[start:stop].reshape(shape) for name, start, stop, shape in layout}
        )
        self.version = 0

    def copy(self) -> "ModelParams":
        dup = ModelParams(self.config, self.multi_branch, self.flat.copy())
        dup.version = self.version
        return dup


def _branches(multi_branch: bool) -> tuple[str, ...]:
    """The branch names, in the order the fusion head reads their features; fusion is last."""
    return ("sen", "spec", "fusion") if multi_branch else ("fusion",)


def _flat_layout(config: ModelConfig, multi_branch: bool):
    """(size, ((name, start, stop, shape), ...)): each layer's ``.W``, (fan_in, fan_out), then ``.b``, packed."""
    (t1, t2, t3), bd = config.trunk_dims, config.branch_dim
    branches = _branches(multi_branch)
    layers = [("trunk.0", config.input_dim, t1), ("trunk.1", t1, t2), ("trunk.2", t2, t3)]
    for name in branches:
        head_in = len(branches) * bd if name == branches[-1] else bd
        layers += [(f"{name}.feat", t3, bd), (f"{name}.head", head_in, 2)]
    layout, start = [], 0
    for layer, fan_in, fan_out in layers:
        for name, shape in ((f"{layer}.W", (fan_in, fan_out)), (f"{layer}.b", (fan_out,))):
            stop = start + math.prod(shape)
            layout.append((name, start, stop, shape))
            start = stop
    return start, tuple(layout)


def init_params(config: ModelConfig, multi_branch: bool = True) -> ModelParams:
    """Symmetric uniform fan-in initialization, U(-b, b) with b = 1 / sqrt(fan_in); all biases zero."""
    rng = seeded_rng(config.seed, STREAM_INIT)
    params = ModelParams(config, multi_branch)
    for name, view in params.tensors.items():
        if name.endswith(".W"):  # a weight's rows are its fan-in
            bound = 1.0 / math.sqrt(view.shape[0])
            view[...] = rng.uniform(-bound, bound, view.shape)
    return params


def _softmax(z: np.ndarray) -> np.ndarray:
    shifted = z - z.max(axis=1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=1, keepdims=True)


def _branch_columns(block: np.ndarray, bd: int) -> list[np.ndarray]:
    """Views of each branch's column block of a feature block (or of its gradient), in branch order."""
    return [block[:, k : k + bd] for k in range(0, block.shape[1], bd)]


@dataclass
class ForwardCache:
    params: ModelParams
    version: int
    x: np.ndarray
    trunk: list[np.ndarray]  # post-tanh activations per trunk layer
    block: np.ndarray  # (n, len(branches) * bd) post-tanh features, one column block per branch
    probs: dict[str, np.ndarray]  # branch name -> softmax outputs


def forward_batch(params: ModelParams, x: np.ndarray) -> tuple[dict[str, np.ndarray], ForwardCache]:
    """Run the network on a (n, input_dim) batch; a single sample is a (1, input_dim) batch.

    Returns ``(probs, cache)``: ``probs`` maps each branch of the network to
    its (n, 2) softmax output.
    """
    x = np.asarray(x, dtype=float)
    if x.ndim != 2 or x.shape[1] != params.config.input_dim:
        raise ParameterError(
            f"expected input of shape (n, {params.config.input_dim}), got {x.shape}"
        )
    t = params.tensors
    trunk = []
    h = x
    for i in range(3):
        h = np.tanh(h @ t[f"trunk.{i}.W"] + t[f"trunk.{i}.b"])
        trunk.append(h)

    branches = _branches(params.multi_branch)
    bd = params.config.branch_dim
    block = np.empty((x.shape[0], len(branches) * bd))
    cols = _branch_columns(block, bd)
    for name, col in zip(branches, cols):
        np.tanh(h @ t[f"{name}.feat.W"] + t[f"{name}.feat.b"], out=col)
    # Each head reads its own branch's columns, except the fusion head (last), which reads them all.
    probs = {
        name: _softmax(head_in @ t[f"{name}.head.W"] + t[f"{name}.head.b"])
        for name, head_in in zip(branches, cols[:-1] + [block])
    }
    return probs, ForwardCache(params=params, version=params.version, x=x, trunk=trunk, block=block, probs=probs)


def _softmax_backward(y: np.ndarray, dy: np.ndarray) -> np.ndarray:
    # dL/dz for z the logits of softmax y, given dL/dy.
    inner = (y * dy).sum(axis=1, keepdims=True)
    return y * (dy - inner)


def backward(cache: ForwardCache, grads: dict[str, np.ndarray], out: ModelParams) -> ModelParams:
    """Map probability-space gradients onto all parameters of ``cache.params``, into ``out``.

    ``grads`` maps branch names to dL/dy arrays of shape (n, 2), keyed like
    ``forward_batch``'s outputs; a missing branch means zero gradient.
    ``out`` is a ``ModelParams`` of the cached network's topology. Every
    entry of it is overwritten and it is returned: ``flat`` is the whole
    gradient and ``tensors[name]`` each tensor's part.
    Raises ContractError for a key that names no branch of the network, for
    an ``out`` of another topology, or when the parameters changed since
    ``forward_batch``.
    """
    params = cache.params
    if cache.version != params.version:
        raise ContractError("stale forward cache: parameters changed since forward_batch()")
    unknown = sorted(set(grads) - set(cache.probs))
    if unknown:
        raise ContractError(f"gradients for {unknown}, but the network's branches are {list(cache.probs)}")
    if (out.config, out.multi_branch) != (params.config, params.multi_branch):
        raise ContractError("gradient buffer is laid out for another network")

    def head_dz(name):  # dL/dlogits of the branch's head
        return _softmax_backward(cache.probs[name], np.asarray(grads.get(name, 0.0), dtype=float))

    t, g, bd, h3 = params.tensors, out.tensors, params.config.branch_dim, cache.trunk[2]

    def dense(layer, layer_in, dz):  # fill the layer's weight and bias gradients
        np.matmul(layer_in.T, dz, out=g[f"{layer}.W"])
        dz.sum(axis=0, out=g[f"{layer}.b"])

    branches = _branches(params.multi_branch)
    fusion = branches[-1]

    dz = head_dz(fusion)
    dense(f"{fusion}.head", cache.block, dz)
    dconcat = dz @ t[f"{fusion}.head.W"].T  # one column block per branch

    dh = np.zeros_like(h3)
    for name, feat, dfeat in zip(branches, _branch_columns(cache.block, bd), _branch_columns(dconcat, bd)):
        if name != fusion:  # the branch's own head also reads its features
            dz = head_dz(name)
            dense(f"{name}.head", feat, dz)
            dfeat = dz @ t[f"{name}.head.W"].T + dfeat
        dz = dfeat * (1.0 - feat**2)
        dense(f"{name}.feat", h3, dz)
        dh += dz @ t[f"{name}.feat.W"].T

    for i in (2, 1, 0):
        dz = dh * (1.0 - cache.trunk[i] ** 2)
        dense(f"trunk.{i}", cache.x if i == 0 else cache.trunk[i - 1], dz)
        if i > 0:
            dh = dz @ t[f"trunk.{i}.W"].T
    return out


# ---------------------------------------------------------------------------
# Checkpoint format (stable): a JSON document
#   {"format_version": 1,
#    "model": {<each ModelConfig field, in field order>, "multi_branch"},
#    "metadata": {...},
#    "tensors": [{"name": str, "shape": [int, ...], "data": [row-major floats]}]}
# "model" is written and read through ModelConfig's fields, so a new field
# changes format 1 and must bump CHECKPOINT_FORMAT_VERSION.
# ---------------------------------------------------------------------------


def save_checkpoint(params: ModelParams, path, metadata: dict | None = None) -> None:
    doc = {
        "format_version": CHECKPOINT_FORMAT_VERSION,
        "model": {**asdict(params.config), "multi_branch": params.multi_branch},
        "metadata": metadata or {},
        "tensors": [
            {"name": name, "shape": list(arr.shape), "data": arr.ravel(order="C").tolist()}
            for name, arr in params.tensors.items()
        ],
    }
    with open(path, "w") as fh:
        json.dump(doc, fh, allow_nan=False)


def load_checkpoint(path) -> tuple[ModelParams, dict]:
    """Parameters and metadata of a checkpoint; DataError naming ``path`` if it is malformed."""
    try:
        with open(path) as fh:
            doc = json.load(fh)
        version = doc.get("format_version")
        if not _is_int(version) or version != CHECKPOINT_FORMAT_VERSION:
            raise DataError(f"unsupported checkpoint format {version!r}")
        m = doc["model"]
        config = ModelConfig(**{f.name: m[f.name] for f in fields(ModelConfig)})
        multi_branch = m["multi_branch"]
        if not isinstance(multi_branch, bool):
            raise DataError(f"multi_branch must be a JSON boolean, got {multi_branch!r}")
        metadata = doc.get("metadata", {})
        if not isinstance(metadata, dict):
            raise DataError(f"metadata must be a JSON object, got {metadata!r}")
        try:
            json.dumps(metadata, allow_nan=False)
        except ValueError as exc:  # a NaN or infinity anywhere inside
            raise DataError(f"metadata: {exc}") from exc
        tensors = {
            entry["name"]: np.array(entry["data"], dtype=float).reshape(entry["shape"])
            for entry in doc["tensors"]
        }
        if len(tensors) != len(doc["tensors"]):
            raise DataError("a tensor name repeats")
    except KeyError as exc:
        raise DataError(f"{path}: checkpoint has no key {exc}") from exc
    # ValueError includes malformed JSON, DataError and ParameterError.
    except (AttributeError, TypeError, ValueError) as exc:
        raise DataError(f"{path}: {exc}") from exc
    params = ModelParams(config, multi_branch)
    for name, arr in tensors.items():
        if name not in params.tensors:
            raise DataError(f"{path}: unknown tensor {name}")
        if not np.isfinite(arr).all():
            raise DataError(f"{path}: tensor {name} holds non-finite values")
    for name, view in params.tensors.items():
        if name not in tensors or tensors[name].shape != view.shape:
            raise DataError(f"{path}: tensor {name} missing or mis-shaped")
        view[...] = tensors[name]
    return params, metadata
