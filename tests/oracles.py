"""Independent brute-force oracles used to cross-check the library.

Everything here is deliberately written with plain Python floats and loops,
no numpy and no imports from the package, so that each check really is a
second route to the same quantity.
"""

import math

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
    ``labels.positive_probability`` gives in closed form: favored = 1 for the
    sensitivity branch, 0 for the specificity branch.
    """
    pool = []
    for _, lab in raw_labels(record):
        pool.append(lab)
        if lab == favored:
            pool.append(lab)
    return pool


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
