"""Worked numbers for the four losses and the branch label machinery.

Every value printed here can be checked by hand; the finite-difference block
at the end shows that the analytic gradients track the numeric ones.
"""

import numpy as np

from multirater import (
    Branch,
    GradingRecord,
    branch_loss,
    consensus_loss,
    fusion_loss,
    positive_probability,
    sample_branch_label,
    soft_label,
    uncertainty,
)

print("=== consensus loss: pull together on agreement, push apart on disagreement ===")
same = np.array([0.3, 0.7])
for a in (1, 0):
    loss, g_sen, g_spec = consensus_loss(same, same, a=a, margin=1.0)
    print(f"identical outputs, a={a}: loss {loss:.4f}")
loss, _, _ = consensus_loss([1.0, 0.0], [0.0, 1.0], a=0, margin=1.0)
print(f"opposite one-hots, a=0: loss {loss:.4f} (distance sqrt(2) clears the margin)")

print()
print("=== uncertainty: half of one minus the cosine similarity ===")
print(f"identical outputs          -> u = {uncertainty(same, same):.5f}")
print(f"(0.5,0.5) vs (1,0)         -> u = {uncertainty([0.5, 0.5], [1.0, 0.0]):.5f}")
print(f"opposite one-hots          -> u = {uncertainty([1.0, 0.0], [0.0, 1.0]):.5f}  (the maximum)")

print()
print("=== branch loss: cross entropy plus weighted consensus term ===")
loss, _, _ = branch_loss([0.2, 0.8], [0.0, 1.0], [0.2, 0.8], a=0, alpha=0.5, margin=1.0)
print(f"-log(0.8) + 0.5 * 0.5 = {loss:.5f}")

print()
print("=== soft labels and branch label probabilities for a disagreement record ===")
record = GradingRecord(
    sample_id=0,
    stage1_labels=((1, 1), (2, 0)),
    adjudicator_label=(3, 0),
    consensus=0,
    final_label=0,
    soft_label=0.5,
)
weights = {1: 0.8, 2: 0.9, 3: 1.0}
dist = soft_label(record, weights)
print(f"ratings (1, 0, 0) with weights (0.8, 0.9, 1.0) -> soft label {dist[1]:.4f}")
print(f"sensitivity P(label=1): {positive_probability(record, Branch.SEN):.4f}  (positives counted twice: 2/4)")
print(f"specificity P(label=1): {positive_probability(record, Branch.SPEC):.4f}  (negatives counted twice: 1/5)")
draws = [sample_branch_label(record, Branch.SEN, seed=1, epoch=e) for e in range(10000)]
print(f"empirical P(label=1) for the sensitivity branch: {np.mean(draws):.3f} (exact: 0.5)")

print()
print("=== fusion loss: uncertainty-weighted KL to the soft labels ===")
preds = np.array([[0.9, 0.1], [0.5, 0.5]])
softs = np.array([[0.99, 0.01], [0.5, 0.5]])
u = np.array([0.5, 0.0])
loss, grad = fusion_loss(preds, softs, u)
print(f"two samples, u = (0.5, 0.0): loss {loss:.5f}")
print("gradient flows only into the predictions:")
print(np.round(grad, 4))

print()
print("=== analytic gradients vs central finite differences ===")
rng = np.random.default_rng(0)
h = 1e-5
worst = 0.0
for _ in range(200):
    p = rng.uniform(0.05, 0.95)
    q = rng.uniform(0.05, 0.95)
    y1, y2 = np.array([p, 1 - p]), np.array([q, 1 - q])
    a = int(rng.integers(2))
    dist_ = float(np.linalg.norm(y1 - y2))
    if a == 0 and (abs(dist_ - 1.0) < 1e-3 or dist_ < 1e-3):
        continue
    _, g, _ = consensus_loss(y1, y2, a)
    for k in range(2):
        bump = np.zeros(2)
        bump[k] = h
        up, _, _ = consensus_loss(y1 + bump, y2, a)
        down, _, _ = consensus_loss(y1 - bump, y2, a)
        fd = (up - down) / (2 * h)
        worst = max(worst, abs(fd - g[k]) / max(abs(fd), 1e-6))
print(f"worst relative error over 200 random consensus-loss probes: {worst:.2e}")
