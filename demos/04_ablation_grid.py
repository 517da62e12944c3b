"""Run a reduced ablation grid: every arm over two seeds.

The full-size grid is what `multirater ablation` produces; this demo shrinks
the dataset and epoch budget so the five arms finish quickly while still
showing the grid layout and the per-arm flag combinations.
"""

import tempfile
from dataclasses import replace
from pathlib import Path

from multirater.cli import ExperimentConfig, cmd_ablation
from multirater.train import ARM_FLAGS

cfg = replace(ExperimentConfig(), n_samples=1200, max_epochs=8, seed=1)

print("ablation arms (multi_branch, consensus_loss, uncertainty_weighting):")
for arm, flags in ARM_FLAGS.items():
    print(f"  {arm:<9} {tuple(flags.values())}")
print()

with tempfile.TemporaryDirectory() as tmp:
    out = Path(tmp) / "grid"
    rc = cmd_ablation(cfg, out, n_seeds=2)
    print(f"\nexit code {rc}; artifacts: {sorted(p.name for p in out.iterdir())}")
