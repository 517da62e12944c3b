"""Train the three-branch model end to end on a reduced dataset.

Uses a smaller sample count and epoch budget than the defaults so the demo
finishes in well under a minute; the printed report shows the
sensitivity-vs-specificity split between branches and the stratified view.
"""

from dataclasses import replace

from multirater.cli import ExperimentConfig, build_datasets
from multirater.metrics import evaluate
from multirater.train import fit

cfg = replace(ExperimentConfig(), n_samples=2000, max_epochs=15, seed=7)

print("=== build train/val/test from the grading simulator ===")
train, val, test = build_datasets(cfg)
print(f"sizes: train {len(train)}, val {len(val)}, test {len(test)}")
print(f"non-consensus share in train: {1 - train.consensus_flags.mean():.3f}")

print()
print("=== fit with consensus loss and uncertainty weighting ===")
records = []
params, log = fit(train, val, cfg.model_config(), cfg.train_config(), on_epoch=records.append)
for rec in records[::5] + records[-1:]:
    print(
        f"epoch {rec['epoch']:>2}  lr {rec['lr']:.1e}  "
        f"sen {rec['loss_sen']:.3f}  spec {rec['loss_spec']:.3f}  "
        f"fusion {rec['loss_fusion']:.3f}  consensus {rec['loss_consensus']:.3f}  "
        f"val auc {rec['val_auc']:.4f}"
    )

print()
print("=== stratified test report ===")
report = evaluate(params, test, threshold=cfg.threshold)
print(report.format_table())
m = report.metrics


def chain(*pairs):
    """'a X > b Y < c Z', with each relation the one the numbers satisfy."""
    text = f"{pairs[0][0]} {pairs[0][1]:.4f}"
    for (_, left), (name, right) in zip(pairs, pairs[1:]):
        relation = "<" if left < right else ">" if left > right else "="
        text += f" {relation} {name} {right:.4f}"
    return text


print("sensitivity by branch: ", chain(*((b, m[b]["all"]["sen"]) for b in ("sen", "fusion", "spec"))))
print("specificity by branch: ", chain(*((b, m[b]["all"]["spec"]) for b in ("spec", "fusion", "sen"))))
u = report.mean_uncertainty
print("mean uncertainty:", chain(("consensus", u["consensus"]), ("non-consensus", u["non_consensus"])))
