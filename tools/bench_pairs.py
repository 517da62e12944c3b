"""Compare the benchmark of two checkouts over pairs of runs in alternating order.

Usage::

    python tools/bench_pairs.py PARENT_DIR CHANGE_DIR --workload W [W ...] --pairs N [--seconds S] [--seed K]

Each run is ``bench/run.py --workload W --seed K --seconds S`` in one
checkout, in a fresh interpreter; its last output line is the JSON result.
Pair k runs each workload in turn on both sides, the parent first when k is
even and the change first when k is odd, so drift on a shared machine
favours neither side and the workloads' pairs are interleaved.
``--seconds`` defaults to ``run_seconds`` of PARENT_DIR/BENCHMARK.json.

For each workload and each end-to-end metric of that BENCHMARK.json the
script prints each side's median and quartiles, the pairs the change won
(ties count for neither), and whether a gain may be claimed: the change won
at least nine tenths of the pairs and the medians differ by more than the
parent's interquartile range. A run with failed passes, or one that does not
report the metric, counts as a loss for its side. It also prints whether the
change's median stays within the metric's ``bound``: ``ok`` when it is worse
than the parent's median, in the metric's ``better`` direction, by at most
``bound`` times the parent's median, ``worse`` when by more, and
``unresolved`` when the parent's own IQR exceeds ``bound`` times its median.
Standard library only.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

SIDES = ("parent", "change")


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


def value(result: dict, name: str) -> float | None:
    """The metric's value in one run's result; None when the run failed or lacks it."""
    metric = result["metrics"].get(name)
    return metric["value"] if result["correct"] and metric is not None else None


def compare(parent: list, change: list, better: str):
    """(pairs the change won, each side's quartiles, whether a gain may be claimed).

    ``parent`` and ``change`` hold one value per pair, None for a failed run.
    """
    sign = 1 if better == "higher" else -1
    won = sum(c is not None and (p is None or sign * (c - p) > 0) for p, c in zip(parent, change))
    stats = [quartiles([v for v in vals if v is not None] or [float("nan")]) for vals in (parent, change)]
    gap = sign * (stats[1][1] - stats[0][1])
    return won, stats, won >= 0.9 * len(parent) and gap > stats[0][2] - stats[0][0]


def within_bound(stats, better: str, bound: float) -> str:
    """"ok", "worse" or "unresolved" for each side's quartiles ``stats``, as the module docstring says."""
    (q1, median, q3), change = stats[0], stats[1][1]
    if not median or not (q3 - q1) / abs(median) <= bound:
        return "unresolved"
    sign = 1 if better == "higher" else -1
    return "ok" if sign * (change - median) / abs(median) >= -bound else "worse"


def print_table(workload: str, metrics: list[dict], results: dict, seed: int, seconds: float) -> None:
    pairs = len(results["parent"])
    print(f"\nworkload {workload}  seed {seed}  seconds {seconds:g}  pairs {pairs}")
    print(f"{'metric':<22}{'parent q1 / median / q3':>36}{'change q1 / median / q3':>36}{'bound':>12}"
          f"{'won':>8}  gain")
    for m in metrics:
        values = [[value(r, m["name"]) for r in results[side]] for side in SIDES]
        if not any(r["metrics"].get(m["name"]) for side in SIDES for r in results[side]):
            print(f"{m['name']:<22}{'not reported':>36}")
            continue
        won, stats, claim = compare(*values, m["better"])
        cells = "".join(f"{' / '.join(f'{v:.5g}' for v in s):>36}" for s in stats)
        print(f"{m['name']:<22}{cells}{within_bound(stats, m['better'], m['bound']):>12}"
              f"{f'{won}/{pairs}':>8}  {'yes' if claim else 'no'}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", type=Path, help="checkout of the parent commit")
    parser.add_argument("change", type=Path, help="checkout of the change")
    parser.add_argument("--workload", required=True, nargs="+")
    parser.add_argument("--pairs", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be >= 1")

    spec = json.loads((args.parent / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"] if args.seconds is None else args.seconds
    checkouts = dict(zip(SIDES, (args.parent, args.change)))
    results = {w: {side: [] for side in SIDES} for w in args.workload}
    for k in range(args.pairs):
        for workload in args.workload:
            runs = results[workload]
            for side in SIDES if k % 2 == 0 else SIDES[::-1]:
                result = run_bench(checkouts[side], workload, args.seed, seconds)
                if not result["correct"]:
                    print(f"pair {k + 1} {workload}: {side} had {result['failed']} failed passes", file=sys.stderr)
                runs[side].append(result)
            reported = [m["name"] for m in spec["end_to_end"]
                        if all(m["name"] in runs[side][-1]["metrics"] for side in SIDES)]
            print(f"pair {k + 1} {workload}: " + "  ".join(
                f"{name} {runs['parent'][-1]['metrics'][name]['value']:.6g}"
                f" -> {runs['change'][-1]['metrics'][name]['value']:.6g}" for name in reported
            ), flush=True)

    for workload in args.workload:
        print_table(workload, spec["end_to_end"], results[workload], args.seed, seconds)
    return 0


if __name__ == "__main__":
    sys.exit(main())
