"""Time one untraced training step and each of its parts, best of N rounds.

Usage::

    python tools/step_parts.py [--n N] [--calls C] [--repeats R]

Builds the datasets of the default experiment (``--n`` samples, default the
paper-sized 6,318; seed 0), the fit targets and a fresh ``full``-arm training
state, and takes the first batch (32 rows) of epoch 0's shuffle. It then
times ``train_step`` on that batch and each part the step runs, each on the
inputs the step would give it: the branch-label draws, ``forward_batch``,
the losses and their gradients, ``backward`` into the state's gradient
buffer and the Adam update.
"rest" is the step less its parts: the batch gathers, the checks and the
calls between them. Each row is the fastest of ``--repeats`` rounds of
``--calls`` calls, in microseconds per call; the rounds of all rows are
interleaved, so a burst of load on a shared machine hits every row alike.
``--calls`` untimed steps run first, so that at the default 1,000 the Adam
step count is past 356, as on 94% of a default run's steps.

Runs the package in this checkout's ``src``; set ``OPENBLAS_NUM_THREADS=1``
to match the benchmark. numpy and the standard library only.
"""

from __future__ import annotations

import argparse
import math
import platform
import sys
import time
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
sys.path.insert(0, str(SRC))

import numpy as np  # noqa: E402

from multirater import train  # noqa: E402  (the package of this checkout, not an installed copy)
from multirater.cli import ExperimentConfig, build_datasets  # noqa: E402
from multirater.rng import STREAM_SHUFFLE, seeded_rng  # noqa: E402
from multirater.simulate import DEFAULT_N_SAMPLES  # noqa: E402


def parts(n: int, warm_up: int) -> dict:
    """The step and its parts as zero-argument calls, keyed by the table's row names."""
    cfg = ExperimentConfig(n_samples=n)
    data, _, _ = build_datasets(cfg)
    config = cfg.train_config()
    targets = train.fit_targets(data, config)
    state = train.init_state(cfg.model_config(), config)
    idx = seeded_rng(config.seed, STREAM_SHUFFLE).permutation(len(data))[: config.batch_size]
    for _ in range(warm_up):
        train.train_step(state, data, idx, targets, config)

    labels = train._branch_labels(data, idx, targets, config.seed, state.epoch)
    x, softs, consensus = data.features[idx], targets.softs[idx], targets.consensus[idx]
    # A copy that the timed steps and Adam updates leave alone, so backward's cache never goes stale.
    params = state.params.copy()
    _, cache = train.forward_batch(params, x)
    _, dy = train._losses_and_grads(cache.probs, labels, softs, consensus, config)
    lr = train.learning_rate(config, state.epoch)
    return {
        "draws": lambda: train._branch_labels(data, idx, targets, config.seed, state.epoch),
        "forward": lambda: train.forward_batch(params, x),
        "losses": lambda: train._losses_and_grads(cache.probs, labels, softs, consensus, config),
        "backward": lambda: train.backward(cache, dy, out=state.grad),
        "adam": lambda: train._adam_update(state, state.grad.flat, lr),
        "train_step": lambda: train.train_step(state, data, idx, targets, config),
    }


def best_us(calls: dict, n_calls: int, repeats: int) -> dict:
    """Per call, the fastest of ``repeats`` interleaved rounds of ``n_calls`` calls of each entry, in µs."""
    best = dict.fromkeys(calls, math.inf)
    for _ in range(repeats):
        for name, fn in calls.items():
            start = time.perf_counter()
            for _ in range(n_calls):
                fn()
            best[name] = min(best[name], (time.perf_counter() - start) / n_calls)
    return {name: 1e6 * seconds for name, seconds in best.items()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--n", type=int, default=DEFAULT_N_SAMPLES, help="samples in the generated dataset")
    parser.add_argument("--calls", type=int, default=1000, help="calls per timed round, and untimed warm-up steps")
    parser.add_argument("--repeats", type=int, default=9, help="timed rounds per row; the fastest is reported")
    args = parser.parse_args(argv)
    if min(args.calls, args.repeats) < 1:
        parser.error("--calls and --repeats must be >= 1")

    us = best_us(parts(args.n, args.calls), args.calls, args.repeats)
    us["rest"] = us["train_step"] - sum(v for k, v in us.items() if k != "train_step")
    print(f"untraced train_step, full arm, batch {ExperimentConfig.batch_size}, n = {args.n}: "
          f"best of {args.repeats} x {args.calls} calls; "
          f"Python {platform.python_version()}, numpy {np.__version__}")
    print("| Part | µs |")
    print("|---|---|")
    for name in ("draws", "forward", "losses", "backward", "adam", "rest", "train_step"):
        print(f"| {name} | {us[name]:.1f} |")
    return 0


if __name__ == "__main__":
    sys.exit(main())
