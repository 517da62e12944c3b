"""Walk through the grading simulator: clusters, rater noise, adjudication.

Generates a default-sized dataset, grades it with the default three-rater
panel, and shows how the realized consensus categories line up with the
calibration target. Finishes with a stratified split and a CSV round trip.
"""

import tempfile
from pathlib import Path

import numpy as np

from multirater import (
    category_counts,
    default_panel,
    generate_dataset,
    grade_dataset,
    read_dataset_csv,
    split_dataset,
    write_dataset_csv,
)

TARGET = {
    "consensus_positive": 2171,
    "consensus_negative": 2315,
    "non_consensus_positive": 781,
    "non_consensus_negative": 1051,
}

print("=== 1. generate features with a latent difficulty score ===")
samples = generate_dataset(n_samples=6318, seed=42)
difficulty = samples.difficulties
print(f"samples: {len(samples.true_labels)}, feature dim {samples.features.shape[1]}")
print(f"difficulty: mean {difficulty.mean():.3f}, share above 0.5: {(difficulty > 0.5).mean():.3f}")

print()
print("=== 2. grade with two raters + adjudicator ===")
panel = default_panel()
for r in panel.stage1:
    print(f"stage-1 rater {r.rater_id}: sensitivity {r.sensitivity}, specificity {r.specificity}")
print(f"adjudicator {panel.adjudicator.rater_id}: "
      f"sensitivity {panel.adjudicator.sensitivity}, specificity {panel.adjudicator.specificity}")
ds = grade_dataset(samples, panel, seed=42)

counts = category_counts(ds)
total = len(ds)
print(f"\n{'category':<26}{'count':>8}{'share':>9}{'target share':>14}")
for key, count in counts.items():
    print(f"{key:<26}{count:>8}{count / total:>9.3f}{TARGET[key] / sum(TARGET.values()):>14.3f}")

non_consensus = ds.consensus_flags == 0
print(f"\nnon-consensus rate: {non_consensus.mean():.3f}")
print(f"mean difficulty | consensus:     {ds.difficulties[~non_consensus].mean():.3f}")
print(f"mean difficulty | non-consensus: {ds.difficulties[non_consensus].mean():.3f}")
print("disagreement concentrates on samples near the class boundary.")

print()
print("=== 3. stratified split and the CSV contract ===")
train, val, test = split_dataset(ds, (0.6, 0.15, 0.25), seed=42)
print(f"split sizes: train {len(train)}, val {len(val)}, test {len(test)}")
with tempfile.TemporaryDirectory() as tmp:
    path = Path(tmp) / "train.csv"
    write_dataset_csv(train, path)
    again = read_dataset_csv(path)
    header = path.read_text().splitlines()[0]
    print(f"csv header: {header[:72]}...")
    columns = ("features", "true_labels", "sample_ids", "rater_ids", "ratings", "soft_labels")
    exact = all(np.array_equal(getattr(again, c), getattr(train, c)) for c in columns)
    print(f"round trip exact: {exact}")
