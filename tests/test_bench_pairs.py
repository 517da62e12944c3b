"""tools/bench_pairs.py against two stub checkouts whose bench/run.py prints canned results."""

import importlib.util
import json
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parent.parent / "tools" / "bench_pairs.py"
spec = importlib.util.spec_from_file_location("bench_pairs", TOOL)
bench_pairs = importlib.util.module_from_spec(spec)
spec.loader.exec_module(bench_pairs)

# Logs each call as "<checkout> <workload>", then prints a progress line and
# the next canned result of that workload.
STUB_RUN = """\
import json, sys
from pathlib import Path

checkout = Path(__file__).resolve().parent.parent
workload = sys.argv[sys.argv.index("--workload") + 1]
call = f"{checkout.name} {workload}"
log = checkout.parent / "calls.log"
with open(log, "a") as fh:
    fh.write(call + "\\n")
k = log.read_text().splitlines().count(call) - 1
print("workload", workload, "pass 1")
print(json.dumps(json.loads((checkout / "canned.json").read_text())[workload][k]))
"""

END_TO_END = [
    {"name": "run_s", "unit": "s", "better": "lower", "bound": 0.24},
    {"name": "train_samples_per_s", "unit": "1/s", "better": "higher", "bound": 0.24},
]


def result(correct=True, **metrics):
    return {"correct": correct, "attempted": 1, "failed": 0 if correct else 1,
            "metrics": {name: {"value": v, "unit": "s"} for name, v in metrics.items()}}


def checkouts(tmp_path, canned):
    """Stub parent and change checkouts; ``canned[side][workload]`` lists one result per run."""
    for side in ("parent", "change"):
        root = tmp_path / side
        (root / "bench").mkdir(parents=True)
        (root / "bench" / "run.py").write_text(STUB_RUN)
        (root / "BENCHMARK.json").write_text(json.dumps({"run_seconds": 1, "end_to_end": END_TO_END}))
        (root / "canned.json").write_text(json.dumps(canned[side]))
    return tmp_path / "parent", tmp_path / "change"


def table_rows(out, workload):
    """{metric: (won, gain)} from the table printed for ``workload``."""
    lines = out.split(f"\nworkload {workload} ")[1].split("\n\n")[0].splitlines()[2:]
    return {line.split()[0]: tuple(line.split()[-2:]) for line in lines}


def test_pairs_alternate_sides_and_interleave_workloads(tmp_path, capsys):
    runs = [result(run_s=1.0, train_samples_per_s=10.0)] * 3
    canned = {side: {"a": runs, "b": runs} for side in ("parent", "change")}
    parent, change = checkouts(tmp_path, canned)
    assert bench_pairs.main([str(parent), str(change), "--workload", "a", "b", "--pairs", "3"]) == 0
    assert (tmp_path / "calls.log").read_text().splitlines() == [
        "parent a", "change a", "parent b", "change b",
        "change a", "parent a", "change b", "parent b",
        "parent a", "change a", "parent b", "change b",
    ]
    out = capsys.readouterr().out
    assert table_rows(out, "a") == table_rows(out, "b") == {"run_s": ("0/3", "no"),
                                                             "train_samples_per_s": ("0/3", "no")}


@pytest.mark.parametrize("change_run_s, gain", [
    ([1.0] * 9 + [2.5], "yes"),  # 9 of 10 won, medians 1.0 vs 2.0 against a parent IQR of 0.2
    ([1.0] * 8 + [2.5] * 2, "no"),  # 8 of 10 won
    ([1.85] * 10, "no"),  # 10 of 10 won, but the 0.15 gap is inside the parent's IQR
])
def test_gain_needs_nine_tenths_of_pairs_and_a_gap_beyond_the_parents_iqr(tmp_path, capsys, change_run_s, gain):
    parent_run_s = [1.9, 2.1] * 5
    canned = {"parent": {"w": [result(run_s=v) for v in parent_run_s]},
              "change": {"w": [result(run_s=v) for v in change_run_s]}}
    parent, change = checkouts(tmp_path, canned)
    bench_pairs.main([str(parent), str(change), "--workload", "w", "--pairs", "10"])
    won = sum(c < p for p, c in zip(parent_run_s, change_run_s))
    assert table_rows(capsys.readouterr().out, "w")["run_s"] == (f"{won}/10", gain)


@pytest.mark.parametrize("parent_run_s, change_run_s, change_rate, verdicts", [
    ([1.9, 2.1] * 5, [2.4] * 10, [8.0] * 10, ("ok", "ok")),  # 20% worse on both, inside the 0.24 bound
    ([1.9, 2.1] * 5, [2.6] * 10, [7.0] * 10, ("worse", "worse")),  # 30% worse on both
    ([1.9, 2.1] * 5, [1.0] * 10, [13.0] * 10, ("ok", "ok")),  # better on both
    ([1.0, 3.0] * 5, [2.0] * 10, [10.0] * 10, ("unresolved", "ok")),  # parent IQR is its median
    ([1.0, 3.0] * 5, [0.5] * 10, [10.0] * 10, ("ok", "ok")),  # the same, but every change run is better
])
def test_bound_check_judges_the_change_median_against_the_parent_median(
        tmp_path, capsys, parent_run_s, change_run_s, change_rate, verdicts):
    canned = {"parent": {"w": [result(run_s=v, train_samples_per_s=10.0) for v in parent_run_s]},
              "change": {"w": [result(run_s=v, train_samples_per_s=r) for v, r in zip(change_run_s, change_rate)]}}
    parent, change = checkouts(tmp_path, canned)
    bench_pairs.main([str(parent), str(change), "--workload", "w", "--pairs", "10"])
    lines = capsys.readouterr().out.split("\nworkload w ")[1].splitlines()[2:]
    assert tuple(line.split()[-3] for line in lines) == verdicts


def test_a_failed_run_is_a_loss_for_its_side(tmp_path, capsys):
    canned = {"parent": {"w": [result(run_s=2.0), result(correct=False, run_s=0.5), result(run_s=2.0)]},
              "change": {"w": [result(correct=False, run_s=0.5), result(run_s=1.0), result(run_s=1.0)]}}
    parent, change = checkouts(tmp_path, canned)
    bench_pairs.main([str(parent), str(change), "--workload", "w", "--pairs", "3"])
    assert table_rows(capsys.readouterr().out, "w")["run_s"] == ("2/3", "no")


def test_a_metric_missing_from_one_side_is_not_compared_per_pair(tmp_path, capsys):
    """A parent run without train_samples_per_s: the pair line leaves it out, the table counts a loss."""
    canned = {"parent": {"w": [result(run_s=3.0), result(run_s=3.0, train_samples_per_s=9.0)]},
              "change": {"w": [result(run_s=2.0, train_samples_per_s=10.0)] * 2}}
    parent, change = checkouts(tmp_path, canned)
    assert bench_pairs.main([str(parent), str(change), "--workload", "w", "--pairs", "2"]) == 0
    out = capsys.readouterr().out
    assert "pair 1 w: run_s 3 -> 2\n" in out
    assert "pair 2 w: run_s 3 -> 2  train_samples_per_s 9 -> 10\n" in out
    assert table_rows(out, "w") == {"run_s": ("2/2", "yes"), "train_samples_per_s": ("2/2", "yes")}


def test_compare_counts_ties_for_neither_side():
    won, stats, claim = bench_pairs.compare([1.0, 2.0, 3.0], [1.0, 1.0, None], "lower")
    assert won == 1 and not claim
    assert stats[1] == (1.0, 1.0, 1.0)
