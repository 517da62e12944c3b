"""End-to-end and per-layer benchmark of the multirater pipeline.

Usage, from the repository root::

    python3 bench/run.py --workload default_run --seed 0 --seconds 30 --trace 0

Workloads (sizes in ``workloads.SIZES``):

* ``default_run``: the paper-sized in-process pipeline, ``cli.build_datasets``
  then ``train.fit`` then ``metrics.evaluate``; training is ~98% of it.
* ``data_pipeline``: the ``generate``, ``train --epochs 1`` and ``eval`` CLI
  commands in turn on a large dataset; grading and CSV/checkpoint I/O dominate.
* ``ablation_grid``: the ``ablation`` command over all five arms and two seeds
  at reduced size; the single-branch ``baseline`` arm bypasses label draws.

With ``--trace 0`` passes run back to back for up to ``--seconds``: at least
one, and no pass starts that would end later, judged by the mean pass so far.
The end-to-end metrics are run_s (median over passes), setup_s (median over
fresh interpreters), train_samples_per_s (over all passes) and peak_rss_mb.
With ``--trace 1`` one untraced pass is followed by one traced pass, whose
spans give the per-layer metrics. ``--workload all`` runs every workload
untraced and then traced, each in its own process.

Every pass is checked: CLI exit codes, epochs logged, finite losses and
metrics, strict JSON artifacts, CSV and checkpoint round trips, the
default_run AUC floor, and a digest of the artifacts that must not change
between passes at the same seed and source (kept in ``.bench_out/``).

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the metrics named
there are the ones listed in BENCHMARK.json. Each run also writes its full
record (environment, passes, every layer metric, spans) under ``.bench_out/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import resource
import shutil
import subprocess
import sys
import time
from pathlib import Path

from tracer import Tracer, summarize

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
WORKLOADS = ("default_run", "data_pipeline", "ablation_grid")
SETUP_REPEATS = 7
# Fresh interpreter: import the package, resolve the config, print the wall clock.
SETUP_CODE = (
    "import multirater\n"
    "from multirater.cli import resolve_config\n"
    "resolve_config(None, {overrides!r})\n"
    "import time\n"
    "print(repr(time.time()))\n"
)


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        h.update(str(path.relative_to(SRC)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def git_commit() -> str | None:
    """HEAD of the checkout's git repository, read from .git directly; None outside one."""
    git = ROOT / ".git"
    if not (git / "HEAD").is_file():
        return None
    head = (git / "HEAD").read_text().strip()
    if not head.startswith("ref: "):
        return head
    ref = head[len("ref: "):]
    if (git / ref).is_file():
        return (git / ref).read_text().strip()
    packed = git / "packed-refs"
    for line in packed.read_text().splitlines() if packed.is_file() else []:
        sha, _, name = line.partition(" ")
        if name == ref:
            return sha
    return None


def blas_record() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads = None
    try:
        import ctypes

        libs = Path(np.__file__).parent.parent / "numpy.libs"
        for lib in sorted(libs.glob("*openblas*")):
            threads = int(ctypes.CDLL(str(lib)).scipy_openblas_get_num_threads64_())
    except (OSError, AttributeError):
        pass
    return {"name": blas.get("name"), "version": blas.get("version"), "threads": threads,
            "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS")}


def environment(workload: str, seed: int, size: dict, sources: str) -> dict:
    import numpy as np

    return {
        "commit": git_commit(),
        "source_sha256": sources,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_record(),
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "machine": platform.machine(),
        "workload": workload,
        "seed": seed,
        "size": size,
    }


def measure_setup(overrides: dict) -> list[float]:
    """Seconds from starting a fresh interpreter to a resolved config, SETUP_REPEATS times."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    code = SETUP_CODE.format(overrides=overrides)
    times = []
    for _ in range(SETUP_REPEATS):
        start = time.time()
        done = subprocess.run([sys.executable, "-c", code], env=env, cwd=ROOT, capture_output=True,
                              text=True, check=True, timeout=120)
        times.append(float(done.stdout.split()[-1]) - start)
    return times


class DigestStore:
    """Artifact digests by (source, workload, seed, size); a changed digest is a failure."""

    def __init__(self, path: Path):
        self.path = path
        self.digests = json.loads(path.read_text()) if path.is_file() else {}

    def check(self, key: str, digest: str) -> str | None:
        known = self.digests.setdefault(key, digest)
        self.path.write_text(json.dumps(self.digests, indent=1))
        if known != digest:
            return f"artifact digest {digest[:12]} differs from {known[:12]} of an earlier pass"
        return None


def run_passes(workload: str, seed: int, seconds: float, trace: bool, size: dict, store, key):
    import workloads

    passes, tracer = [], None
    started = time.perf_counter()
    while True:
        if trace and passes:
            tracer = Tracer()
        work = OUT / f"work-{os.getpid()}"
        shutil.rmtree(work, ignore_errors=True)
        try:
            result = workloads.run_pass(workload, seed, size, work, tracer)
        finally:
            shutil.rmtree(work, ignore_errors=True)
        if result.digest:
            mismatch = store.check(key, result.digest)
            if mismatch:
                result.failures.append(mismatch)
        for failure in result.failures:
            print(f"FAILED pass {len(passes) + 1}: {failure}", file=sys.stderr)
        passes.append(result)
        # Untraced: stop before a pass that would end after --seconds; the first always runs.
        elapsed = time.perf_counter() - started
        if (len(passes) == 2) if trace else (elapsed + elapsed / len(passes) > seconds):
            return passes, tracer


def fmt(value) -> str:
    return f"{value:.6g}" if isinstance(value, float) else str(value)


def print_report(report: dict, absent: list[str], moves: dict) -> None:
    for name, (unit, value) in report.items():
        if isinstance(value, dict):
            tail = f"  p{fmt(value['tail_pct'])} {fmt(value['tail'])}" if "tail" in value else ""
            print(f"  {name:<32} {fmt(value['median']):>12} {unit:<6} "
                  f"spread {fmt(value['spread'])}  n {value['n']}{tail}")
        else:
            hint = f"  -> {moves[name]}" if name in moves else ""
            print(f"  {name:<32} {fmt(value):>12} {unit:<6}{hint}")
    for name in absent:
        print(f"  {name:<32} {'absent':>12}")


def run_workload(args) -> int:
    # One BLAS thread: the run stays within nproc threads and BLAS sums keep one order.
    os.environ["OPENBLAS_NUM_THREADS"] = "1"
    sys.path.insert(0, str(SRC))
    import workloads

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    size = workloads.SIZES[args.size][args.workload]
    sources = source_digest()
    env = environment(args.workload, args.seed, size, sources)
    OUT.mkdir(exist_ok=True)
    store = DigestStore(OUT / "digests.json")
    key = f"{sources}:{env['python']}:{env['numpy']}:{args.workload}:{args.seed}:{json.dumps(size)}"

    setup = [] if args.trace else measure_setup({"seed": args.seed})
    passes, tracer = run_passes(args.workload, args.seed, args.seconds, bool(args.trace), size, store, key)
    failed = sum(bool(p.failures) for p in passes)

    absent = []
    if args.trace:
        info = dict(passes[1].info, trace_overhead_s=passes[1].run_s - passes[0].run_s)
        layer, absent = workloads.layer_metrics(tracer, args.workload, info)
        units = {m.name: m.unit for m in workloads.LAYER_METRICS}
        report = {name: (units[name], value) for name, value in layer.items()}
        wanted = spec["per_layer"]
    else:
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        fit_s = sum(p.fit_s for p in passes) or math.inf
        report = {
            "run_s": ("s", summarize([p.run_s for p in passes])),
            "setup_s": ("s", summarize(setup)),
            # Samples consumed over seconds inside fit, pooled over the passes.
            "train_samples_per_s": ("1/s", summarize([sum(p.samples for p in passes) / fit_s])),
            "peak_rss_mb": ("MB", summarize([rss_mb])),
        }
        aucs = [p.info["test_auc"] for p in passes if p.info.get("test_auc") is not None]
        if aucs:
            report["test_auc"] = ("ratio", summarize(aucs))
        wanted = spec["end_to_end"]
    report["failed_ratio"] = ("ratio", failed / len(passes))

    print(f"workload {args.workload}  seed {args.seed}  size {args.size}  "
          f"trace {args.trace}  passes {len(passes)}  failed {failed}")
    print("env " + json.dumps(env, sort_keys=True))
    print_report(report, absent, {m.name: m.moves for m in workloads.LAYER_METRICS})
    record = {
        "environment": env,
        "passes": [vars(p) for p in passes],
        "metrics": {n: {"unit": u, "value": v} for n, (u, v) in report.items()},
        "absent": absent,
        "trace": tracer.to_dict() if tracer is not None else None,
    }
    (OUT / f"{args.workload}-{args.size}-seed{args.seed}-trace{args.trace}.json").write_text(json.dumps(record))

    metrics = {}
    for m in wanted:
        if m["name"] in report:
            value = report[m["name"]][1]
            metrics[m["name"]] = {"value": value["median"] if isinstance(value, dict) else value,
                                  "unit": m["unit"]}
    print(json.dumps({"correct": failed == 0, "attempted": len(passes), "failed": failed,
                      "metrics": metrics}))
    return 0


def run_all(args) -> int:
    """Every workload untraced then traced, each in its own process, one after another."""
    correct, attempted, failed, metrics = True, 0, 0, {}
    for workload in WORKLOADS:
        for trace in (0, 1):
            done = subprocess.run(
                [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
                 "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(trace),
                 "--size", args.size],
                stdout=subprocess.PIPE, text=True, check=False)
            lines = done.stdout.splitlines()
            print("\n".join(lines[:-1]))
            if done.returncode != 0 or not lines:
                print(f"error: {workload} trace {trace} exited {done.returncode}", file=sys.stderr)
                return done.returncode or 1
            result = json.loads(lines[-1])
            correct &= result["correct"]
            attempted += result["attempted"]
            failed += result["failed"]
            metrics.update({f"{workload}.{name}": m for name, m in result["metrics"].items()})
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"),
                        help="all: every workload, untraced and traced")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True, help="time to measure, untraced")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny runs every code path in seconds, for checking the benchmark")
    args = parser.parse_args(argv)

    if not (SRC / "multirater" / "__init__.py").is_file():
        print(f"error: no multirater package under {SRC}", file=sys.stderr)
        return 2
    return run_all(args) if args.workload == "all" else run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
