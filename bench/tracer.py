"""In-memory span tracer that wraps package functions from outside.

The benchmark never edits the package. It replaces module-level bindings
(``train.sample_branch_label``, ``cli.fit``, ...) with timing wrappers for
the length of one pass and puts the originals back afterwards.

A span has a name, a start, an end and a parent. Spans of functions marked
hot, called hundreds of thousands of times per pass, are only aggregated per
(name, parent name); all other spans are also kept whole. A span's self time
is its duration minus the time its child spans cover; calls are sequential,
so children never overlap and their durations simply add up.
"""

from __future__ import annotations

import functools
import importlib
import math
import statistics
import time
from fractions import Fraction

TOP = "<top>"  # parent name of spans opened outside any traced call

# Percentiles considered for the tail figure, as exact decimal strings.
PERCENTILES = ("50", "90", "99", "99.9", "99.99")


class Patches:
    """Replaces module attributes and restores the originals on close, last first."""

    def __init__(self):
        self._undo = []

    def wrap(self, module, attr, make_wrapper) -> bool:
        """Wrap ``module.attr``; returns False when the attribute does not exist."""
        original = getattr(module, attr, None)
        if original is None:
            return False
        setattr(module, attr, make_wrapper(original))
        self._undo.append((module, attr, original))
        return True

    def close(self) -> None:
        while self._undo:
            module, attr, original = self._undo.pop()
            setattr(module, attr, original)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()


class Absent(Exception):
    """A metric's source span was not installed, because its function is gone."""


class Tracer:
    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.totals: dict[tuple[str, str], list] = {}  # (name, parent) -> [calls, total_s, self_s]
        self.spans: list = []  # kept spans: (id, name, tag, parent_id, start, end, self_s)
        self.installed: set[str] = set()  # span names with at least one wrapped function
        self.absent: list[str] = []  # "module.attr" bindings that were not found
        self._stack = [[TOP, None, 0.0]]  # open frames: [name, span id, child seconds]

    def wrap(self, name: str, fn, hot: bool = False, tag=None):
        """Timing wrapper around ``fn``; ``tag(*args, **kwargs)`` labels kept spans."""
        stack, totals, spans, clock = self._stack, self.totals, self.spans, self.clock
        self.installed.add(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1]
            span_id = None
            if not hot:
                span_id = len(spans)
                spans.append(None)
            frame = [name, span_id, 0.0]
            stack.append(frame)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                duration = end - start
                parent[2] += duration
                own = duration - frame[2]
                agg = totals.get((name, parent[0]))
                if agg is None:
                    agg = totals[(name, parent[0])] = [0, 0.0, 0.0]
                agg[0] += 1
                agg[1] += duration
                agg[2] += own
                if span_id is not None:
                    label = tag(*args, **kwargs) if tag is not None else None
                    spans[span_id] = (span_id, name, label, parent[1], start, end, own)

        return traced

    def install(self, patches: Patches, bindings, hot=frozenset(), tags=None) -> None:
        """Wrap each (module, attr, span name) binding that still exists.

        Spans named in ``hot`` are only aggregated; ``tags`` maps a span name
        to the function that labels its kept spans.
        """
        tags = tags or {}
        for module_name, attr, name in bindings:
            try:
                module = importlib.import_module(module_name)
            except ImportError:
                module = None
            if module is None or not patches.wrap(
                module, attr, lambda fn, name=name: self.wrap(name, fn, name in hot, tags.get(name))
            ):
                self.absent.append(f"{module_name}.{attr}")

    def _require(self, name: str) -> None:
        if name not in self.installed:
            raise Absent(name)

    def _matching(self, name: str, parent: str | None):
        self._require(name)
        return [agg for (n, p), agg in self.totals.items() if n == name and parent in (None, p)]

    def calls(self, name: str, parent: str | None = None) -> int:
        return sum(agg[0] for agg in self._matching(name, parent))

    def total(self, name: str, parent: str | None = None) -> float:
        return sum(agg[1] for agg in self._matching(name, parent))

    def self_time(self, name: str, parent: str | None = None) -> float:
        return sum(agg[2] for agg in self._matching(name, parent))

    def kept(self, name: str, parent: str | None = None) -> list:
        """Kept spans of ``name``, optionally only those whose parent span is ``parent``."""
        self._require(name)
        return [
            s for s in self.spans
            if s is not None and s[1] == name
            and (parent is None or (s[3] is not None and self.spans[s[3]][1] == parent))
        ]

    def to_dict(self) -> dict:
        return {
            "absent": self.absent,
            "aggregates": [
                {"name": n, "parent": p, "calls": c, "total_s": t, "self_s": s}
                for (n, p), (c, t, s) in sorted(self.totals.items())
            ],
            "spans": [
                {"id": i, "name": n, "tag": tag, "parent": p, "start": a, "end": b, "self_s": s}
                for i, n, tag, p, a, b, s in self.spans
            ],
        }


def tail_percentile(n: int) -> float | None:
    """Highest percentile in PERCENTILES with at least ten of ``n`` samples beyond it."""
    best = None
    for p in PERCENTILES:
        if n * (1 - Fraction(p) / 100) >= 10:
            best = float(p)
    return best


def percentile(values, p: float) -> float:
    """Nearest-rank percentile: the smallest value with at least p% of the values at or below it."""
    ordered = sorted(values)
    return ordered[max(math.ceil(Fraction(str(p)) / 100 * len(ordered)) - 1, 0)]


def summarize(values) -> dict:
    """Median, interquartile spread, sample count and the tail percentile when one qualifies."""
    values = list(values)
    out = {"median": statistics.median(values), "n": len(values), "spread": 0.0}
    if len(values) > 1:
        q1, _, q3 = statistics.quantiles(values, n=4)
        out["spread"] = q3 - q1
    tail = tail_percentile(len(values))
    if tail is not None:
        out["tail_pct"] = tail
        out["tail"] = percentile(values, tail)
    return out
