"""Compare the benchmark of two checkouts over pairs of runs in alternating order.

Usage::

    python tools/bench_pairs.py PARENT_DIR CHANGE_DIR --workload W --pairs N [--seconds S] [--seed K]

Each run is ``bench/run.py --workload W --seed K --seconds S`` in one
checkout, in a fresh interpreter; its last output line is the JSON result.
Pair k runs the parent first when k is even and the change first when k is
odd, so drift on a shared machine does not favour one side. ``--seconds``
defaults to ``run_seconds`` of PARENT_DIR/BENCHMARK.json.

For each end-to-end metric of that BENCHMARK.json the script prints each
side's median and quartiles, the pairs the change won (ties count for
neither), and whether a gain may be claimed: the change won at least nine
tenths of the pairs and the medians differ by more than the parent's
interquartile range. Runs with failed passes are reported and count as
losses for their side's metrics. Standard library only.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path


def run_bench(checkout: Path, workload: str, seed: int, seconds: float) -> dict:
    """The JSON result line of one benchmark run in ``checkout``."""
    done = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed), "--seconds", str(seconds)],
        cwd=checkout, stdout=subprocess.PIPE, text=True, check=False,
    )
    lines = done.stdout.splitlines()
    if done.returncode != 0 or not lines:
        raise SystemExit(f"error: bench/run.py in {checkout} exited {done.returncode}")
    return json.loads(lines[-1])


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", type=Path, help="checkout of the parent commit")
    parser.add_argument("change", type=Path, help="checkout of the change")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be >= 1")

    spec = json.loads((args.parent / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"] if args.seconds is None else args.seconds
    sides = {"parent": args.parent, "change": args.change}
    results = {side: [] for side in sides}
    for k in range(args.pairs):
        for side in (("parent", "change") if k % 2 == 0 else ("change", "parent")):
            result = run_bench(sides[side], args.workload, args.seed, seconds)
            if not result["correct"]:
                print(f"pair {k + 1}: {side} had {result['failed']} failed passes", file=sys.stderr)
            results[side].append(result)
        print(f"pair {k + 1}: " + "  ".join(
            f"{m['name']} {results['parent'][-1]['metrics'][m['name']]['value']:.6g}"
            f" -> {results['change'][-1]['metrics'][m['name']]['value']:.6g}"
            for m in spec["end_to_end"] if m["name"] in results["change"][-1]["metrics"]
        ), flush=True)

    print(f"\nworkload {args.workload}  seed {args.seed}  seconds {seconds:g}  pairs {args.pairs}")
    print(f"{'metric':<22}{'parent q1 / median / q3':>36}{'change q1 / median / q3':>36}{'won':>8}  gain")
    for m in spec["end_to_end"]:
        name, sign = m["name"], (1 if m["better"] == "higher" else -1)
        values = {}
        for side, runs in results.items():
            values[side] = [r["metrics"][name]["value"] if r["correct"] else None
                            for r in runs if name in r["metrics"]]
        if len(values["parent"]) != args.pairs or len(values["change"]) != args.pairs:
            print(f"{name:<22}{'not reported by every run':>36}")
            continue
        won = sum(c is not None and (p is None or sign * (c - p) > 0)
                  for p, c in zip(values["parent"], values["change"]))
        stats = {side: quartiles([v for v in vals if v is not None] or [float("nan")])
                 for side, vals in values.items()}
        gap = sign * (stats["change"][1] - stats["parent"][1])
        claim = won >= 0.9 * args.pairs and gap > stats["parent"][2] - stats["parent"][0]
        cells = "".join(f"{' / '.join(f'{v:.5g}' for v in stats[side]):>36}" for side in sides)
        print(f"{name:<22}{cells}{f'{won}/{args.pairs}':>8}  {'yes' if claim else 'no'}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
