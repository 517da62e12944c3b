"""tools/step_parts.py at a tiny size: one table row per part, each a time in µs."""

import importlib.util
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parent.parent / "tools" / "step_parts.py"
spec = importlib.util.spec_from_file_location("step_parts", TOOL)
step_parts = importlib.util.module_from_spec(spec)
spec.loader.exec_module(step_parts)


def test_prints_one_row_per_part(capsys):
    assert step_parts.main(["--n", "300", "--calls", "2", "--repeats", "2"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].startswith("untraced train_step, full arm, batch 32, n = 300: best of 2 x 2 calls")
    assert lines[1:3] == ["| Part | µs |", "|---|---|"]
    rows = dict(line.strip("|").replace(" ", "").split("|") for line in lines[3:])
    assert list(rows) == ["draws", "forward", "losses", "backward", "adam", "rest", "train_step"]
    us = {name: float(value) for name, value in rows.items()}
    assert all(us[name] > 0 for name in rows if name != "rest")
    assert us["train_step"] == pytest.approx(sum(us.values()) - us["train_step"], abs=0.5)


@pytest.mark.parametrize("flag", ["--calls", "--repeats"])
def test_rejects_no_calls(flag, capsys):
    with pytest.raises(SystemExit):
        step_parts.main([flag, "0"])
    assert "must be >= 1" in capsys.readouterr().err
