"""Tests of the benchmark itself; kept out of the package's test suite.

Run from the repository root::

    python -m pytest -q bench/selftest.py
"""

import io
import json
import math
import sys
from contextlib import redirect_stdout
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
import workloads  # noqa: E402
from tracer import Patches, Tracer, percentile, summarize, tail_percentile  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def test_self_time_is_duration_minus_children():
    clock = FakeClock()
    tr = Tracer(clock)

    def leaf():
        clock.now += 2.0

    leaf = tr.wrap("leaf", leaf, hot=True)

    def parent():
        clock.now += 1.0
        leaf()
        leaf()
        clock.now += 3.0

    tr.wrap("parent", parent)()
    assert tr.total("parent") == 8.0
    assert tr.self_time("parent") == 4.0
    assert tr.calls("leaf", parent="parent") == 2
    assert tr.total("leaf", parent="parent") == 4.0
    assert tr.self_time("leaf") == 4.0
    # The hot leaf is aggregated only; the parent is kept whole.
    assert [(s[1], s[5] - s[4], s[6]) for s in tr.spans] == [("parent", 8.0, 4.0)]


def test_span_closes_when_the_function_raises():
    clock = FakeClock()
    tr = Tracer(clock)

    def boom():
        clock.now += 1.0
        raise ValueError("boom")

    with pytest.raises(ValueError):
        tr.wrap("boom", boom)()
    assert tr.total("boom") == 1.0
    assert len(tr._stack) == 1


@pytest.mark.parametrize("n, expected", [
    (9, None), (19, None), (20, 50.0), (99, 50.0), (100, 90.0), (999, 90.0),
    (1000, 99.0), (9999, 99.0), (10000, 99.9), (100000, 99.99),
])
def test_tail_is_highest_percentile_with_ten_samples_beyond(n, expected):
    assert tail_percentile(n) == expected


def test_percentile_and_summary():
    values = list(range(1, 101))
    assert percentile(values, 90) == 90
    assert percentile(values, 50) == 50
    assert percentile(list(range(1, 10001)), 99.9) == 9990
    s = summarize(values)
    assert s["median"] == 50.5 and s["n"] == 100 and s["tail_pct"] == 90.0 and s["tail"] == 90
    assert summarize([3.0]) == {"median": 3.0, "n": 1, "spread": 0.0}


def test_missing_functions_are_recorded_absent():
    tr = Tracer()
    with Patches() as patches:
        tr.install(patches, [("json", "no_such_function", "json.gone"),
                             ("no_such_module_anywhere", "f", "x.gone"),
                             ("json", "dumps", "json.dumps")])
        assert json.dumps(1) == "1"
    assert tr.absent == ["json.no_such_function", "no_such_module_anywhere.f"]
    assert json.dumps.__module__ == "json"  # restored
    values, absent = workloads.layer_metrics(tr, "default_run", {"trace_overhead_s": 0.5})
    assert values == {"trace.overhead_s": 0.5}
    assert "labels.draw_us_per_step" in absent and "train.step_ms.tail" in absent


def test_strict_json_gate():
    failures = []
    workloads.check_json('{"a": NaN}', "x", failures)
    workloads.check_json('{"a": [1e999]}', "y", failures)
    assert workloads.check_json('{"a": [1.5, null]}', "z", failures) == {"a": [1.5, None]}
    assert len(failures) == 2 and failures[0].startswith("x is not strict JSON")


def test_fit_gate_catches_missing_epochs_and_non_finite_losses():
    probe = workloads.Probe()

    def fit(train, val, model_config, train_config):
        return "params", [{"loss": 1.0}, {"loss": math.nan}]

    out = probe._wrap_fit(fit)([0] * 10, None, None, SimpleNamespace(max_epochs=3))
    assert out == ("params", [{"loss": 1.0}, {"loss": math.nan}])
    assert probe.samples == 20
    assert probe.failures == ["fit logged 2 of 3 epochs",
                              "non-finite loss or metric in the training log"]


def test_round_trip_gate():
    def dataset(x):
        return SimpleNamespace(features=np.array([[x]]), true_labels=np.array([1]), records=[])

    probe = workloads.Probe()
    probe.written = {Path("a.csv"): dataset(1.0), Path("b.csv"): dataset(1.0)}
    probe.read = {Path("a.csv"): dataset(1.0), Path("b.csv"): dataset(2.0), Path("c.csv"): dataset(1.0)}
    probe.check_round_trips()
    assert probe.failures == ["b.csv read back differs from what was written",
                              "c.csv was read but not written in this pass"]


def test_digest_store_flags_a_changed_digest(tmp_path):
    store = run.DigestStore(tmp_path / "digests.json")
    assert store.check("k", "aaa") is None
    assert run.DigestStore(tmp_path / "digests.json").check("k", "aaa") is None
    assert "differs" in run.DigestStore(tmp_path / "digests.json").check("k", "bbb")


def test_traced_fit_is_accounted_for_by_steps_and_validation(tmp_path):
    tr = Tracer()
    result = workloads.run_pass("ablation_grid", 5, workloads.SIZES["tiny"]["ablation_grid"],
                                tmp_path / "work", tr)
    assert result.failures == []
    step = tr.total("train.train_step")
    children = sum(agg[1] for (name, parent), agg in tr.totals.items() if parent == "train.train_step")
    assert step == pytest.approx(children + tr.self_time("train.train_step"))
    values, absent = workloads.layer_metrics(tr, "ablation_grid", {"trace_overhead_s": 0.0})
    assert absent == []
    assert 0.0 <= values["train.fit_self_share"] < 0.1
    assert values["train.steps"] == tr.calls("train.train_step") > 0
    # Only the four multi-branch arms draw labels: two draws per training sample.
    assert values["labels.draw_calls"] == 2 * result.samples * 4 / 5


@pytest.mark.parametrize("workload", workloads.ALL)
@pytest.mark.parametrize("trace", [0, 1])
def test_smoke_each_workload_at_tiny_size(workload, trace):
    out = io.StringIO()
    with redirect_stdout(out):
        code = run.main(["--workload", workload, "--seed", "7", "--seconds", "0",
                         "--trace", str(trace), "--size", "tiny"])
    assert code == 0
    result = json.loads(out.getvalue().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    wanted = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    metrics = result["metrics"]
    # A tiny default_run has too few steps for any tail percentile.
    missing = {"train.step_ms.tail"} if (trace, workload) != (1, "ablation_grid") else set()
    assert {m["name"] for m in wanted} - set(metrics) <= missing
    for m in wanted:
        if m["name"] in metrics:
            assert metrics[m["name"]]["unit"] == m["unit"]
            assert math.isfinite(metrics[m["name"]]["value"])


def test_per_layer_spec_matches_the_layer_table():
    table = {m.name: m for m in workloads.LAYER_METRICS}
    for m in SPEC["per_layer"]:
        assert table[m["name"]].unit == m["unit"]
        assert table[m["name"]].workloads == workloads.ALL


def test_refuses_to_run_without_the_package(tmp_path, monkeypatch):
    monkeypatch.setattr(run, "SRC", tmp_path / "src")
    assert run.main(["--workload", "default_run", "--seed", "0", "--seconds", "1"]) == 2
