"""Multi-branch dense network with a hand-rolled backward pass.

Topology: a shared tanh trunk feeds one tanh feature layer per branch.
``_branches`` lists the branches, fusion last: sen, spec and fusion, or
fusion alone for the single-head baseline (``multi_branch=False``). The
branches run stacked: one matmul computes every branch's features, each in
its own column block of one ``(n, len * bd)`` feature block, in that order.
Each branch's head reads its own columns, except the fusion head, which
reads the whole block; one softmax covers the branch-major ``(len, n, 2)``
head logits. Gradients from the fusion head therefore flow back into every
feature layer, and the trunk receives the sum of all branch contributions,
added branch by branch (a single fused product would round differently).

``forward_batch`` returns the softmax outputs keyed by branch name (the
baseline has the ``"fusion"`` key only) and keeps them as the cache's
``probs`` block; ``backward`` takes the gradient as a block of that shape.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass, fields
from functools import cached_property, lru_cache
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

    ``flat`` holds, back to back: each trunk layer's weight then bias; the
    fused feature weight ``feat_W``, (t3, len * bd) with one column block per
    branch in ``_branches`` order, and its bias ``feat_b``; each branch's head
    weight in branch order; and ``head_b``, the (len, 2) block of head biases,
    one row per branch. ``tensors`` is a read-only mapping from each tensor's
    name, per layer in layer order, to a view into ``flat`` with the tensor's
    shape: ``{branch}.feat.W`` is a column block of ``feat_W`` (so not
    contiguous), ``{branch}.feat.b`` a slice of ``feat_b`` and
    ``{branch}.head.b`` a row of ``head_b``. Write through a view
    (``tensors[name][...] = x``), or update ``flat`` as a whole, as Adam
    does; rebinding a name raises ``TypeError``. The mapping is built on
    first use: a fit's gradient buffer and best-parameter copy never need it.

    ``forward_batch`` and ``backward`` read the same views through tuples
    resolved once here, in ``branches`` order: ``trunk`` holds each trunk
    layer's ``(W, b)``, ``feats`` each branch's feature weight block, ``cols``
    its column slice of the feature block, and ``heads`` its head weight.

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
        views = [self.flat[start:stop].reshape(shape) for start, stop, shape in layout]
        # In _flat_layout's order: three trunk (W, b) pairs, feat_W, feat_b, the head weights, head_b.
        self.trunk = ((views[0], views[1]), (views[2], views[3]), (views[4], views[5]))
        self.feat_W, self.feat_b, self.heads, self.head_b = views[6], views[7], tuple(views[8:-1]), views[-1]
        self.branches = _branches(multi_branch)
        bd = config.branch_dim
        self.cols = tuple([slice(k * bd, (k + 1) * bd) for k in range(len(self.branches))])
        self.feats = tuple([self.feat_W[:, cols] for cols in self.cols])
        self.version = 0

    @cached_property
    def tensors(self) -> MappingProxyType:
        tensors = {}
        for i, (W, b) in enumerate(self.trunk):
            tensors.update({f"trunk.{i}.W": W, f"trunk.{i}.b": b})
        for k, name in enumerate(self.branches):
            tensors.update({f"{name}.feat.W": self.feats[k], f"{name}.feat.b": self.feat_b[self.cols[k]],
                            f"{name}.head.W": self.heads[k], f"{name}.head.b": self.head_b[k]})
        return MappingProxyType(tensors)

    def copy(self) -> "ModelParams":
        dup = ModelParams(self.config, self.multi_branch, self.flat.copy())
        dup.version = self.version
        return dup


def _branches(multi_branch: bool) -> tuple[str, ...]:
    """The branch names, in the order the fusion head reads their features; fusion is last."""
    return ("sen", "spec", "fusion") if multi_branch else ("fusion",)


@lru_cache(maxsize=16)
def _flat_layout(config: ModelConfig, multi_branch: bool):
    """(size, ((start, stop, shape), ...)): the arrays ``flat`` packs, in ``ModelParams`` order.

    Cached: a fit builds several ``ModelParams`` of one topology.
    """
    dims, bd = (config.input_dim, *config.trunk_dims), config.branch_dim
    n_branches = len(_branches(multi_branch))
    width = n_branches * bd
    shapes = [shape for i in range(3) for shape in (dims[i : i + 2], dims[i + 1 : i + 2])]
    shapes += [(dims[3], width), (width,)]
    # The branch heads, the fusion head (it reads every branch's columns), then head_b.
    shapes += [(bd, 2)] * (n_branches - 1) + [(width, 2), (n_branches, 2)]
    layout, start = [], 0
    for shape in shapes:
        stop = start + math.prod(shape)
        layout.append((start, stop, shape))
        start = stop
    return start, tuple(layout)


def init_params(config: ModelConfig, multi_branch: bool = True) -> ModelParams:
    """Symmetric uniform fan-in initialization, U(-b, b) with b = 1 / sqrt(fan_in); all biases zero.

    The weights take their values in ``tensors`` order (trunk layers, then
    each branch's feature and head weights) from one ``rng.random`` draw.
    ``rng.uniform(-b, b)`` computes ``-b + (b - -b) * random()``, so scaling
    each weight's share of the draw that way gives the same values as one
    ``rng.uniform`` call per weight.
    """
    rng = seeded_rng(config.seed, STREAM_INIT)
    params = ModelParams(config, multi_branch)
    weights = [W for W, _ in params.trunk] + [W for pair in zip(params.feats, params.heads) for W in pair]
    draws = rng.random(sum(W.size for W in weights))
    start = 0
    for W in weights:
        bound = 1.0 / math.sqrt(W.shape[0])  # a weight's rows are its fan-in
        np.multiply(draws[start : start + W.size].reshape(W.shape), bound - -bound, out=W)
        W += -bound
        start += W.size
    return params


@dataclass
class ForwardCache:
    params: ModelParams
    version: int
    x: np.ndarray
    trunk: list[np.ndarray]  # post-tanh activations per trunk layer
    block: np.ndarray  # (n, len(branches) * bd) post-tanh features, one column block per branch
    probs: np.ndarray  # (len(branches), n, 2) softmax outputs, in branch order


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
    trunk = []
    h = x
    for W, b in params.trunk:  # tanh(h @ W + b), with the sum and tanh in place
        h = h @ W
        h += b
        np.tanh(h, out=h)
        trunk.append(h)

    block = h @ params.feat_W
    block += params.feat_b
    np.tanh(block, out=block)
    heads = params.heads
    # Each head reads its own branch's columns, except the fusion head (last), which reads them all.
    logits = np.empty((len(heads), x.shape[0], 2))
    for k in range(len(heads) - 1):
        np.matmul(block[:, params.cols[k]], heads[k], out=logits[k])
    np.matmul(block, heads[-1], out=logits[-1])
    logits += params.head_b[:, None, :]
    # Softmax over each row, in place. A row's max and sum, taken as one elementwise op over its two
    # columns, round as the reductions do at a fraction of their cost.
    logits -= np.maximum(logits[..., :1], logits[..., 1:])
    np.exp(logits, out=logits)
    logits /= logits[..., :1] + logits[..., 1:]
    cache = ForwardCache(params=params, version=params.version, x=x, trunk=trunk, block=block, probs=logits)
    return dict(zip(params.branches, logits)), cache


def backward(cache: ForwardCache, dy: np.ndarray, out: ModelParams) -> ModelParams:
    """Map probability-space gradients onto all parameters of ``cache.params``, into ``out``.

    ``dy`` is dL/dy for the cached softmax block: shaped like ``cache.probs``,
    (len(branches), n, 2), one row per branch in ``branches`` order, fusion last.
    ``out`` is a ``ModelParams`` of the cached network's topology. Every
    entry of it is overwritten and it is returned: ``flat`` is the whole
    gradient and ``tensors[name]`` each tensor's part.
    Raises ContractError for a ``dy`` of another shape, for an ``out`` of
    another topology, or when the parameters changed since ``forward_batch``.
    """
    params, y = cache.params, cache.probs
    if cache.version != params.version:
        raise ContractError("stale forward cache: parameters changed since forward_batch()")
    if np.shape(dy) != y.shape:
        raise ContractError(f"gradient block has shape {np.shape(dy)}, expected {y.shape}")
    if out.config != params.config or out.multi_branch != params.multi_branch:
        raise ContractError("gradient buffer is laid out for another network")

    block, cols, heads = cache.block, params.cols, params.heads
    # softmax backward: dL/dlogits of every head
    ydy = y * dy
    dz = y * (dy - (ydy[..., :1] + ydy[..., 1:]))
    np.add.reduce(dz, axis=1, out=out.head_b)
    np.matmul(block.T, dz[-1], out=out.heads[-1])
    dfeat = dz[-1] @ heads[-1].T  # one column block per branch
    for k in range(len(heads) - 1):  # each branch's own head also reads its features
        np.matmul(block[:, cols[k]].T, dz[k], out=out.heads[k])
        dfeat[:, cols[k]] += dz[k] @ heads[k].T
    dfeat *= _tanh_slope(block)
    h3 = cache.trunk[2]
    np.matmul(h3.T, dfeat, out=out.feat_W)
    np.add.reduce(dfeat, axis=0, out=out.feat_b)
    dh = np.zeros(h3.shape)
    for k, W in enumerate(params.feats):  # one product per branch: a single fused one moves the bits
        dh += dfeat[:, cols[k]] @ W.T

    for i in (2, 1, 0):
        dz = _tanh_slope(cache.trunk[i])
        dz *= dh
        W_grad, b_grad = out.trunk[i]
        np.matmul((cache.x if i == 0 else cache.trunk[i - 1]).T, dz, out=W_grad)
        np.add.reduce(dz, axis=0, out=b_grad)
        if i > 0:
            dh = dz @ params.trunk[i][0].T
    return out


def _tanh_slope(a: np.ndarray) -> np.ndarray:
    """1 - a**2, the derivative of tanh at the layer whose output is ``a``, in one new array."""
    slope = np.square(a)
    return np.subtract(1.0, slope, out=slope)


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
        tensors = {}
        for entry in doc["tensors"]:
            name, data = entry["name"], entry["data"]
            # np.array(..., dtype=float) would cast numeric strings and booleans (bool subclasses int).
            if not all(type(v) in (int, float) for v in data):
                raise DataError(f"tensor {name} data must be a flat list of JSON numbers")
            tensors[name] = np.array(data, dtype=float).reshape(entry["shape"])
        if len(tensors) != len(doc["tensors"]):
            raise DataError("a tensor name repeats")
        size, held = _flat_layout(config, multi_branch)[0], sum(arr.size for arr in tensors.values())
        if size > held:  # checked before ModelParams allocates for the claimed widths
            raise DataError(f"the model's {size} parameters exceed the {held} values the tensors hold")
    except KeyError as exc:
        raise DataError(f"{path}: checkpoint has no key {exc}") from exc
    # ValueError includes malformed JSON, DataError and ParameterError; OverflowError an int beyond float range.
    except (AttributeError, TypeError, ValueError, OverflowError) as exc:
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
