"""Independent brute-force oracles used to cross-check the library.

Everything here imports nothing from the package, so that each check really
is a second route to the same quantity. The scalar oracles use plain Python
floats and loops. The network oracle (``per_branch_forward`` and
``per_branch_backward``) is numpy: it runs the branches one at a time on
contiguous copies of every tensor, the same arithmetic in the same order as
the stacked network, which must match it bit for bit.
"""

import csv
import math

import numpy as np

LOG_CLAMP = 1e-12


def consensus_loss_scalar(y_sen, y_spec, a, margin=1.0):
    sq = 0.0
    for p, q in zip(y_sen, y_spec):
        sq += (p - q) ** 2
    dist = math.sqrt(sq)
    if a == 1:
        return 0.5 * sq
    gap = margin - dist
    return 0.5 * gap * gap if gap > 0 else 0.0


def uncertainty_scalar(y_sen, y_spec):
    dot = sum(p * q for p, q in zip(y_sen, y_spec))
    n1 = math.sqrt(sum(p * p for p in y_sen))
    n2 = math.sqrt(sum(q * q for q in y_spec))
    return 0.5 * (1.0 - dot / (n1 * n2))


def cross_entropy_scalar(pred, onehot):
    return -sum(t * math.log(max(p, LOG_CLAMP)) for p, t in zip(pred, onehot))


def branch_loss_scalar(pred, onehot, partner, a, alpha=0.5, margin=1.0):
    return cross_entropy_scalar(pred, onehot) + alpha * consensus_loss_scalar(pred, partner, a, margin)


def cross_entropy_grad_scalar(pred, onehot):
    """Gradient of cross_entropy_scalar wrt pred: -t / p, and 0 where p is clamped."""
    return [-t / p if p > LOG_CLAMP else 0.0 for p, t in zip(pred, onehot)]


def consensus_grad_scalar(y_sen, y_spec, a, margin=1.0):
    """Gradient of consensus_loss_scalar wrt y_sen; wrt y_spec it is the negation.

    On disagreement the gradient is 0 where the hinge is inactive (distance
    >= margin) and, by subgradient choice, at distance 0.
    """
    d = [p - q for p, q in zip(y_sen, y_spec)]
    if a == 1:
        return d
    dist = math.sqrt(sum(x * x for x in d))
    gap = margin - dist
    if gap <= 0 or dist == 0:
        return [0.0 for _ in d]
    return [-gap / dist * x for x in d]


def branch_loss_grads_scalar(pred, onehot, partner, a, alpha=0.5, margin=1.0):
    """(gradient wrt pred, gradient wrt partner) of branch_loss_scalar."""
    con = consensus_grad_scalar(pred, partner, a, margin)
    own = [g + alpha * c for g, c in zip(cross_entropy_grad_scalar(pred, onehot), con)]
    return own, [-alpha * c for c in con]


def fusion_loss_scalar(preds, softs, us):
    num = 0.0
    den = 0.0
    for pred, soft, u in zip(preds, softs, us):
        w = 1.0 + u
        den += w
        for p, s in zip(pred, soft):
            if s > 0.0:
                num += w * s * (math.log(max(s, LOG_CLAMP)) - math.log(max(p, LOG_CLAMP)))
    return num / den


def fusion_grad_scalar(preds, softs, us):
    """Gradient of fusion_loss_scalar wrt preds: -(1 + u_i) s_ij / p_ij / sum(1 + u), 0 where p is clamped."""
    den = sum(1.0 + u for u in us)
    return [
        [-(1.0 + u) * s / p / den if p > LOG_CLAMP else 0.0 for p, s in zip(pred, soft)]
        for pred, soft, u in zip(preds, softs, us)
    ]


def central_difference(f, x, h=1e-5):
    """Gradient of scalar f at x (list of floats) by central differences."""
    grad = []
    for i in range(len(x)):
        hi = list(x)
        lo = list(x)
        hi[i] += h
        lo[i] -= h
        grad.append((f(hi) - f(lo)) / (2.0 * h))
    return grad


def auc_pair_count(scores, labels):
    """Exhaustive positive/negative pair counting; ties credit one half."""
    pos = [s for s, l in zip(scores, labels) if l == 1]
    neg = [s for s, l in zip(scores, labels) if l == 0]
    total = 0.0
    for sp in pos:
        for sn in neg:
            if sp > sn:
                total += 1.0
            elif sp == sn:
                total += 0.5
    return total / (len(pos) * len(neg))


def confusion_tally(predictions, labels):
    """(acc, sen, spec, f1, undefined-names) with the 0.0 sentinel on 0/0."""
    tp = fp = fn = tn = 0
    for p, l in zip(predictions, labels):
        if p == 1 and l == 1:
            tp += 1
        elif p == 1 and l == 0:
            fp += 1
        elif p == 0 and l == 1:
            fn += 1
        else:
            tn += 1
    undefined = set()

    def ratio(num, den, name):
        if den == 0:
            undefined.add(name)
            return 0.0
        return num / den

    acc = (tp + tn) / len(labels)
    sen = ratio(tp, tp + fn, "sen")
    spec = ratio(tn, tn + fp, "spec")
    f1 = ratio(2 * tp, 2 * tp + fp + fn, "f1")
    return acc, sen, spec, f1, undefined


def raw_labels(record):
    """All (rater_id, label) pairs of a grading record, adjudicator entry last when present."""
    raw = list(record.stage1_labels)
    if record.adjudicator_label is not None:
        raw.append(record.adjudicator_label)
    return raw


def rater_accuracy_tally(records):
    """Per-rater fraction of labels equal to the record's final label."""
    counts = {}
    matches = {}
    for rec in records:
        for rid, lab in raw_labels(rec):
            counts[rid] = counts.get(rid, 0) + 1
            matches[rid] = matches.get(rid, 0) + (1 if lab == rec.final_label else 0)
    return {rid: matches[rid] / counts[rid] for rid in counts}


def soft_label_scalar(record, weights, low=0.01, high=0.99):
    """Weighted mean of the record's raw labels, accumulated in rater order, clipped to [low, high]."""
    num = 0.0
    den = 0.0
    for rid, lab in raw_labels(record):
        num += weights[rid] * lab
        den += weights[rid]
    return min(max(num / den, low), high)


def label_pool(record, favored):
    """Raw labels with every rating of the ``favored`` class duplicated in place.

    A uniform draw from the pool is the branch draw that
    ``labels.positive_probabilities`` gives in closed form: favored = 1 for the
    sensitivity branch, 0 for the specificity branch.
    """
    pool = []
    for _, lab in raw_labels(record):
        pool.append(lab)
        if lab == favored:
            pool.append(lab)
    return pool


def positive_probability(ratings, branch):
    """P(label = 1) of one ratings row's branch draw from its p ones and q zeros.

    ``branch`` 0 (sensitivity) counts each positive twice, giving 2p / (2p + q);
    1 (specificity) counts each negative twice, giving p / (p + 2q).
    """
    p = ratings.count(1)
    q = ratings.count(0)
    return 2 * p / (2 * p + q) if branch == 0 else p / (p + 2 * q)


MASK64 = (1 << 64) - 1


def splitmix64(state):
    """Reference SplitMix64 output function on Python ints, reduced mod 2**64."""
    z = (state + 0x9E3779B97F4A7C15) & MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & MASK64
    return z ^ (z >> 31)


def keyed_uniform(*parts):
    """One uniform in [0, 1) from integer key parts, each folded mod 2**64, absorbed in order."""
    h = 0
    for p in parts:
        h = splitmix64(h ^ (p & MASK64))
    return (h >> 11) * 2.0**-53


def midranks(values):
    """1-based Mann-Whitney midranks: below-count plus (tie-count + 1) / 2, pair by pair."""
    ranks = []
    for v in values:
        below = sum(1 for w in values if w < v)
        ties = sum(1 for w in values if w == v)
        ranks.append(below + (ties + 1) / 2)
    return ranks


GRADE_STREAM = 3


def grade_sample(true_label, difficulty, rates, seed, sample_id, error_gain):
    """Two-stage grading from keyed uniforms: ``rates`` lists (sensitivity, specificity)
    for stage-1 rater 1, stage-1 rater 2 and the adjudicator; slot k draws
    keyed_uniform(seed, GRADE_STREAM, k, sample_id). The adjudicator's entry is -1 on agreement.
    """
    labels = []
    for slot, (sensitivity, specificity) in enumerate(rates):
        if slot == 2 and labels[0] == labels[1]:
            labels.append(-1)
            break
        base = 1.0 - (sensitivity if true_label == 1 else specificity)
        err = min(max(base * (1.0 + error_gain * difficulty), 0.0), 0.5)
        correct = keyed_uniform(seed, GRADE_STREAM, slot, sample_id) >= err
        labels.append(true_label if correct else 1 - true_label)
    return tuple(labels)


def write_dataset_csv(records, features, true_labels, path):
    """The dataset CSV formatted record by record, every float written with repr()."""
    d = len(features[0])
    header = (["sample_id"] + [f"f_{j}" for j in range(d)]
              + ["true_label", "rater_labels", "adjudicator_label", "consensus", "final_label", "soft_label"])
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for rec, feats, true_label in zip(records, features, true_labels):
            rater_labels = ";".join(f"{rid}:{lab}" for rid, lab in rec.stage1_labels)
            adj = "" if rec.adjudicator_label is None else "{}:{}".format(*rec.adjudicator_label)
            writer.writerow(
                [rec.sample_id]
                + [repr(x) for x in feats]
                + [true_label, rater_labels, adj, rec.consensus, rec.final_label, repr(rec.soft_label)]
            )


class CsvRejected(Exception):
    """The oracle reader's rejection of a file: ``where`` is ``path:line``, or ``path`` for the whole file."""

    def __init__(self, where, message, empty=False):
        super().__init__(f"{where}: {message}")
        self.where = where
        self.empty = empty


SOFT_LABEL_MIN = 0.01
SOFT_LABEL_MAX = 0.99


def _protocol_violation(labels, raters, adjudicated, soft_label):
    """Why a parsed CSV row breaks the grading protocol, or None when it does not.

    ``labels`` is (true_label, l1, l2, adjudicator label, consensus, final_label)
    and ``raters`` the ids (r1, r2, adjudicator).
    """
    true_label, l1, l2, l3, consensus, final_label = labels
    r1, r2, r3 = raters
    if r1 == r2 or (adjudicated and r3 in (r1, r2)):
        return "a rater id repeats: the stage-1 raters and the adjudicator must all differ"
    if not {true_label, l1, l2, consensus, final_label} <= {0, 1} or (adjudicated and l3 not in (0, 1)):
        return "label outside {0, 1}"
    if consensus != (l1 == l2):
        return "consensus flag disagrees with the stage-1 ratings"
    if consensus and (adjudicated or final_label != l1):
        return "consensus sample must have no adjudicator and the agreed final label"
    if not consensus and (not adjudicated or final_label != l3):
        return "disagreement sample must have the adjudicator's final label"
    if not SOFT_LABEL_MIN <= soft_label <= SOFT_LABEL_MAX:
        return f"soft_label {soft_label!r} outside [{SOFT_LABEL_MIN}, {SOFT_LABEL_MAX}]"
    return None


def _id(text):
    """A sample or rater id; ValueError unless it fits int64."""
    value = int(text)
    if not -(2**63) <= value < 2**63:
        raise ValueError(f"id {text} does not fit in int64")
    return value


def read_dataset_csv(path):
    """The dataset CSV read row by row with ``csv.reader``, ``int`` and ``float``.

    Returns the columns as lists under the names of ``GradedDataset``'s
    arrays, rater slot 2 holding -1 where no adjudicator rated. Raises
    CsvRejected for a file without samples (``empty``) and at ``path:line``
    for a malformed row or a repeated sample_id; a non-finite feature is
    rejected only after every row passed.
    """
    columns = {name: [] for name in ("features", "true_labels", "sample_ids", "rater_ids", "ratings", "soft_labels")}
    line_nums, seen = [], set()
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None:
            raise CsvRejected(path, "empty dataset file", empty=True)
        d = len(header) - 7
        names = (["sample_id"] + [f"f_{j}" for j in range(d)]
                 + ["true_label", "rater_labels", "adjudicator_label", "consensus", "final_label", "soft_label"])
        if d < 1 or header != names:
            raise CsvRejected(path, "unexpected CSV header")
        for row in reader:
            where = f"{path}:{reader.line_num}"
            if len(row) != len(header):
                raise CsvRejected(where, f"expected {len(header)} columns, got {len(row)}")
            try:
                feats = [float(x) for x in row[1 : 1 + d]]
                (r1, l1), (r2, l2) = (pair.split(":") for pair in row[2 + d].split(";"))
                r3, l3 = row[3 + d].split(":") if row[3 + d] else (-1, -1)
                ids = [_id(x) for x in (row[0], r1, r2, r3)]
                labels = [int(x) for x in (row[1 + d], l1, l2, l3, row[4 + d], row[5 + d])]
                soft = float(row[6 + d])
            except ValueError as exc:
                raise CsvRejected(where, exc) from exc
            problem = _protocol_violation(labels, ids[1:], bool(row[3 + d]), soft)
            if problem is not None:
                raise CsvRejected(where, problem)
            if ids[0] in seen:
                raise CsvRejected(where, f"duplicate sample_id {ids[0]}")
            seen.add(ids[0])
            columns["features"].append(feats)
            columns["true_labels"].append(labels[0])
            columns["sample_ids"].append(ids[0])
            columns["rater_ids"].append(ids[1:])
            columns["ratings"].append(labels[1:4])
            columns["soft_labels"].append(soft)
            line_nums.append(reader.line_num)
    if not line_nums:
        raise CsvRejected(path, "dataset has a header but no rows", empty=True)
    for feats, line in zip(columns["features"], line_nums):
        if not all(math.isfinite(x) for x in feats):
            raise CsvRejected(f"{path}:{line}", "non-finite feature")
    return columns


def _softmax_rows(z):
    shifted = z - z.max(axis=1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=1, keepdims=True)


def _branch_names(params):
    return [name[: -len(".head.W")] for name in params.tensors if name.endswith(".head.W")]


def per_branch_forward(params, x):
    """The network one branch at a time: (probs keyed by branch, cache for ``per_branch_backward``).

    Each branch's features land in their own column block of one feature
    block; each head reads its own columns, the fusion head (last) all of them.
    """
    t = {name: np.ascontiguousarray(view) for name, view in params.tensors.items()}
    branches, bd = _branch_names(params), params.config.branch_dim
    h = np.asarray(x, dtype=float)
    trunk = []
    for i in range(3):
        h = np.tanh(h @ t[f"trunk.{i}.W"] + t[f"trunk.{i}.b"])
        trunk.append(h)
    block = np.empty((h.shape[0], len(branches) * bd))
    cols = [block[:, k : k + bd] for k in range(0, block.shape[1], bd)]
    for name, col in zip(branches, cols):
        np.tanh(h @ t[f"{name}.feat.W"] + t[f"{name}.feat.b"], out=col)
    probs = {
        name: _softmax_rows(head_in @ t[f"{name}.head.W"] + t[f"{name}.head.b"])
        for name, head_in in zip(branches, cols[:-1] + [block])
    }
    return probs, (np.asarray(x, dtype=float), trunk, block, probs)


def per_branch_backward(params, cache, grads, out):
    """Fill ``out.tensors`` with the gradient of ``per_branch_forward``'s outputs; a missing branch is zero."""
    x, trunk, block, probs = cache
    t = {name: np.ascontiguousarray(view) for name, view in params.tensors.items()}
    g, branches, bd, h3 = out.tensors, _branch_names(params), params.config.branch_dim, trunk[2]

    def head_dz(name):
        y, dy = probs[name], np.asarray(grads.get(name, 0.0), dtype=float)
        return y * (dy - (y * dy).sum(axis=1, keepdims=True))

    def dense(layer, layer_in, dz):
        g[f"{layer}.W"][...] = layer_in.T @ dz
        g[f"{layer}.b"][...] = dz.sum(axis=0)

    fusion = branches[-1]
    dz = head_dz(fusion)
    dense(f"{fusion}.head", block, dz)
    dconcat = dz @ t[f"{fusion}.head.W"].T
    dh = np.zeros_like(h3)
    for k, name in enumerate(branches):
        feat, dfeat = block[:, k * bd : (k + 1) * bd], dconcat[:, k * bd : (k + 1) * bd]
        if name != fusion:
            dz = head_dz(name)
            dense(f"{name}.head", feat, dz)
            dfeat = dz @ t[f"{name}.head.W"].T + dfeat
        dz = dfeat * (1.0 - feat**2)
        dense(f"{name}.feat", h3, dz)
        dh += dz @ t[f"{name}.feat.W"].T
    for i in (2, 1, 0):
        dz = dh * (1.0 - trunk[i] ** 2)
        dense(f"trunk.{i}", x if i == 0 else trunk[i - 1], dz)
        if i > 0:
            dh = dz @ t[f"trunk.{i}.W"].T
    return out
