"""Run the reference artifact set and print the sha256 of every file it writes.

Usage::

    python tools/artifact_digests.py OUT

OUT must not exist yet. The set is ``generate --n 800 --seed 3``, then
``train --epochs 4 --seed 3`` and ``eval --seed 3`` (on the test split) for
each ablation arm in ``multirater.train.ARM_FLAGS``, then
``ablation --seeds 2 --n 400 --epochs 2 --seed 3``: 31 files in all. Every
run uses the package in this checkout's ``src`` and
``OPENBLAS_NUM_THREADS=1``, so that BLAS blocking cannot move the last bits.
The output is one ``sha256  path`` line per file, sorted by path, with paths
relative to OUT; two checkouts with equal outputs print equal lines.

``tools/artifact_digests.sha256`` holds the reference lines. The
byte-identity check is an empty diff::

    python tools/artifact_digests.py OUT | diff - tools/artifact_digests.sha256
"""

from __future__ import annotations

import hashlib
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
sys.path.insert(0, str(SRC))

from multirater.train import ARM_FLAGS  # noqa: E402  (the arms of this checkout, not an installed copy)


def _run(*args: str) -> None:
    env = {**os.environ, "OPENBLAS_NUM_THREADS": "1", "PYTHONPATH": str(SRC)}
    subprocess.run(
        [sys.executable, "-m", "multirater", *args], env=env, check=True, stdout=subprocess.DEVNULL
    )


def main(argv: list[str]) -> int:
    if len(argv) != 1:
        print("usage: python tools/artifact_digests.py OUT", file=sys.stderr)
        return 2
    out = Path(argv[0])
    if out.exists():
        print(f"{out} already exists", file=sys.stderr)
        return 2
    data = out / "data"
    _run("generate", "--out", str(data), "--n", "800", "--seed", "3")
    for arm in ARM_FLAGS:
        train = out / f"train-{arm}"
        _run("train", "--data", str(data), "--out", str(train), "--ablation", arm,
             "--epochs", "4", "--seed", "3")
        _run("eval", "--checkpoint", str(train / "checkpoint.json"), "--data", str(data / "test.csv"),
             "--out", str(out / f"eval-{arm}"), "--seed", "3")
    _run("ablation", "--out", str(out / "ablation"), "--seeds", "2", "--n", "400", "--epochs", "2",
         "--seed", "3")
    for path in sorted(p for p in out.rglob("*") if p.is_file()):
        print(f"{hashlib.sha256(path.read_bytes()).hexdigest()}  {path.relative_to(out)}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
