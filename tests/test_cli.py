"""Command-line interface: artifacts, exit codes, config precedence, determinism."""

import json
import math
import os
import re
import subprocess
import sys
from types import SimpleNamespace

import numpy as np
import pytest

from csv_edits import BROKEN_ROWS
from multirater import cli
from multirater.cli import ExperimentConfig, resolve_config
from multirater.errors import ParameterError
from multirater.model import init_params, load_checkpoint

BASE_CONFIG = """
# small experiment for fast tests
n_samples = 240
feature_dim = 6
trunk_dims = 12,12,12
branch_dim = 6
max_epochs = 2
"""


# At --n 12 the validation split holds one sample, so it always has a single class.
ONE_SAMPLE_VAL_CONFIG = """
train_ratio = 0.65
val_ratio = 0.1
test_ratio = 0.25
"""


# The log of a fit whose one epoch had a defined validation AUC, so it returned trained parameters.
TRAINED_LOG = [{"epoch": 0, "val_auc": 0.75}]


def strict_json(text):
    """Parse ``text`` as JSON that holds no NaN or Infinity."""

    def reject(token):
        raise ValueError(f"non-standard JSON constant {token}")

    return json.loads(text, parse_constant=reject)


def run_cli(*args, env=None):
    """Run the CLI; ``env`` holds variables to set on top of this process's environment."""
    return subprocess.run(
        [sys.executable, "-m", "multirater", *map(str, args)],
        capture_output=True,
        text=True,
        env=None if env is None else {**os.environ, **env},
    )


@pytest.fixture()
def config_file(tmp_path):
    path = tmp_path / "small.cfg"
    path.write_text(BASE_CONFIG)
    return path


@pytest.fixture()
def one_sample_val(tmp_path):
    path = tmp_path / "one_sample_val.cfg"
    path.write_text(ONE_SAMPLE_VAL_CONFIG)
    return path


@pytest.fixture()
def generated(tmp_path, config_file):
    out = tmp_path / "data"
    result = run_cli("generate", "--config", config_file, "--seed", 5, "--out", out)
    assert result.returncode == 0, result.stderr
    return out


class TestGenerate:
    def test_writes_csvs_and_manifest(self, generated):
        names = sorted(p.name for p in generated.iterdir())
        assert names == ["manifest.json", "test.csv", "train.csv", "val.csv"]
        manifest = json.loads((generated / "manifest.json").read_text())
        assert manifest["seed"] == 5
        assert manifest["config"]["n_samples"] == 240
        assert sum(manifest["counts"]["overall"].values()) == 240
        assert manifest["sizes"] == {"train": 144, "val": 36, "test": 60}

    def test_names_only_the_files_it_wrote(self, tmp_path):
        out = tmp_path / "x"
        out.mkdir()
        (out / "notes.txt").write_text("kept\n")
        result = run_cli("generate", "--n", 20, "--out", out)
        assert result.returncode == 0, result.stderr
        assert result.stdout == f"wrote manifest.json, test.csv, train.csv, val.csv to {out}\n"
        assert (out / "notes.txt").read_text() == "kept\n"

    def test_zero_samples_is_a_usage_error(self, tmp_path):
        result = run_cli("generate", "--n", 0, "--out", tmp_path / "x")
        assert result.returncode == 2
        assert "n_samples" in result.stderr

    def test_same_seed_twice_is_byte_identical(self, tmp_path, config_file):
        outs = []
        for name in ("a", "b"):
            out = tmp_path / name
            assert run_cli("generate", "--config", config_file, "--seed", 9, "--out", out).returncode == 0
            outs.append(out)
        for fname in ("train.csv", "val.csv", "test.csv", "manifest.json"):
            assert (outs[0] / fname).read_bytes() == (outs[1] / fname).read_bytes()

    def test_cli_flag_overrides_config_file(self, tmp_path, config_file):
        out = tmp_path / "d"
        assert run_cli("generate", "--config", config_file, "--n", 100, "--out", out).returncode == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["config"]["n_samples"] == 100

    @pytest.mark.parametrize("command", ["generate", "ablation"])
    def test_a_size_that_leaves_a_split_empty_is_a_usage_error(self, tmp_path, command):
        result = run_cli(command, "--n", 3, "--out", tmp_path / "x")
        assert result.returncode == 2
        assert "n_samples = 3 leaves a split empty" in result.stderr
        assert not (tmp_path / "x").exists()

    def test_smallest_size_with_every_split_filled(self, tmp_path):
        assert run_cli("generate", "--n", 4, "--out", tmp_path / "x").returncode == 0
        manifest = json.loads((tmp_path / "x" / "manifest.json").read_text())
        assert manifest["sizes"] == {"train": 2, "val": 1, "test": 1}

    def test_unknown_config_key_is_a_usage_error(self, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("nonsense_key = 3\n")
        result = run_cli("generate", "--config", cfg, "--out", tmp_path / "x")
        assert result.returncode == 2
        assert "nonsense_key" in result.stderr


class TestConfigFile:
    def test_every_field_at_its_default_resolves_to_the_defaults(self, tmp_path):
        path = tmp_path / "defaults.cfg"
        path.write_text("".join(
            f"{key} = {','.join(map(str, value)) if isinstance(value, list) else value}\n"
            for key, value in ExperimentConfig().to_dict().items()
        ))
        assert resolve_config(path, {}) == ExperimentConfig()

    @pytest.mark.parametrize("line", ["seed = 1.5", "lr = abc", "margin = 0", "alpha = -1", "error_gain = nan",
                                      "lr = inf", "train_ratio = nan", "feature_dim = 1", "class_balance = 1",
                                      "difficulty_mix = 1.5", "threshold = 2"])
    def test_bad_value_is_a_usage_error(self, tmp_path, line):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(line + "\n")
        result = run_cli("generate", "--config", cfg, "--out", tmp_path / "x")
        assert result.returncode == 2
        assert f"{cfg}:1: " in result.stderr and line.split()[0] in result.stderr
        assert not (tmp_path / "x").exists()

    def test_config_that_is_not_utf8_is_a_usage_error(self, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_bytes(b"lr = \xff\n")
        result = run_cli("generate", "--config", cfg, "--out", tmp_path / "x")
        assert result.returncode == 2
        assert f"{cfg}: not UTF-8 text: " in result.stderr
        assert "Traceback" not in result.stderr
        assert not (tmp_path / "x").exists()

    def test_config_with_a_utf8_byte_order_mark_is_read(self, tmp_path):
        cfg = tmp_path / "bom.cfg"
        cfg.write_bytes(b"\xef\xbb\xbfseed = 4\n")
        assert cli.parse_config_file(cfg) == [(1, "seed", "4")]
        assert resolve_config(cfg, {}).seed == 4

    def test_value_error_names_the_line_it_depends_on(self, tmp_path):
        path = tmp_path / "two.cfg"
        path.write_text("margin = 0\nlr = -1\n")  # the trainer checks lr first
        with pytest.raises(ParameterError, match=f"^{re.escape(str(path))}:2: lr must be finite and > 0"):
            resolve_config(path, {})

    def test_file_value_a_flag_overrides_is_still_parsed(self, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("n_samples = abc\n")
        result = run_cli("generate", "--config", cfg, "--n", 5, "--out", tmp_path / "x")
        assert result.returncode == 2
        assert f"{cfg}:1: config key n_samples: cannot parse 'abc'" in result.stderr
        assert not (tmp_path / "x").exists()

    def test_override_that_is_not_a_setting_is_a_parameter_error(self):
        with pytest.raises(ParameterError, match="'no_such_setting'"):
            resolve_config(None, {"no_such_setting": 1})

    def test_first_of_two_bad_lines_is_named(self, tmp_path):
        path = tmp_path / "two.cfg"
        path.write_text("seed = 3\nlr = abc\nnonsense = 1\n")
        with pytest.raises(ParameterError, match=f"^{re.escape(str(path))}:2: config key lr: cannot parse 'abc'$"):
            resolve_config(path, {})

    def test_error_from_a_flag_names_no_line(self, tmp_path):
        path = tmp_path / "ok.cfg"
        path.write_text("seed = 3\nmargin = 2\n")
        with pytest.raises(ParameterError, match="^n_samples must be >= 1, got 0$"):
            resolve_config(path, {"n_samples": 0})

    @pytest.mark.parametrize(
        "line, message",
        [
            ("nonsense_key = 3", "unknown config key 'nonsense_key'"),
            ("lr = abc", "config key lr: cannot parse 'abc'"),
            ("alpha = -inf", "alpha must be a finite number, got -inf"),
            ("seed = 4", "duplicate key seed"),
            ("seed 4", "expected 'key = value', got 'seed 4'"),
            ("margin = 0", "margin must be finite and > 0, got 0.0"),
        ],
    )
    def test_parse_error_names_file_and_line(self, tmp_path, line, message):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(f"# settings\nseed = 3\n{line}\n")
        result = run_cli("generate", "--config", cfg, "--out", tmp_path / "x")
        assert result.returncode == 2
        assert f"{cfg}:3: {message}" in result.stderr


class TestValidate:
    @pytest.mark.parametrize("key, value", [("error_gain", math.nan), ("lr", math.inf),
                                            ("train_ratio", math.nan), ("alpha", -math.inf)])
    def test_non_finite_float_rejected(self, key, value):
        with pytest.raises(ParameterError, match=f"{key} must be a finite number"):
            ExperimentConfig(**{key: value})

    @pytest.mark.parametrize("ratios", [(0.0, 0.5, 0.5), (0.5, 0.0, 0.5), (0.5, 0.5, 0.0)])
    def test_empty_train_or_val_split_is_a_usage_error_before_any_file(self, tmp_path, ratios):
        cfg = tmp_path / "split.cfg"
        cfg.write_text("".join(f"{key}_ratio = {r}\n" for key, r in zip(("train", "val", "test"), ratios)))
        result = run_cli("ablation", "--config", cfg, "--n", 50, "--seeds", 1, "--epochs", 1,
                         "--out", tmp_path / "grid")
        assert result.returncode == 2
        assert "split ratios must each be > 0 and sum to 1" in result.stderr
        assert not (tmp_path / "grid").exists()

    def test_trunk_of_other_depth_is_a_usage_error_before_any_file(self, tmp_path, generated):
        cfg = tmp_path / "shallow.cfg"
        cfg.write_text("trunk_dims = 8, 8\n")
        result = run_cli("generate", "--config", cfg, "--n", 50, "--out", tmp_path / "data2")
        assert result.returncode == 2
        assert "trunk_dims" in result.stderr
        assert not (tmp_path / "data2").exists()
        result = run_cli("train", "--config", cfg, "--data", generated, "--out", tmp_path / "run")
        assert result.returncode == 2
        assert not (tmp_path / "run").exists()


class TestFlags:
    @pytest.mark.parametrize(
        "argv, key, value",
        [
            (["generate", "--seed", "7"], "seed", 7),
            (["generate", "--n", "123"], "n_samples", 123),
            (["ablation", "--n", "123"], "n_samples", 123),
            (["train", "--data", "d", "--epochs", "3"], "max_epochs", 3),
            (["ablation", "--epochs", "3"], "max_epochs", 3),
            (["generate", "--difficulty-mix", "0.25"], "difficulty_mix", 0.25),
            (["generate", "--class-balance", "0.3"], "class_balance", 0.3),
            (["train", "--data", "d", "--ablation", "baseline"], "ablation", "baseline"),
            (["eval", "--checkpoint", "c", "--data", "d", "--threshold", "0.3"], "threshold", 0.3),
        ],
    )
    def test_flag_reaches_the_resolved_config(self, tmp_path, monkeypatch, argv, key, value):
        seen = []
        for name in ("cmd_generate", "cmd_train", "cmd_eval", "cmd_ablation"):
            monkeypatch.setattr(cli, name, lambda cfg, *args: seen.append(cfg) or 0)
        assert cli.main([*argv, "--out", str(tmp_path)]) == 0
        assert getattr(ExperimentConfig(), key) != value
        assert getattr(seen[0], key) == value

    @pytest.mark.parametrize("command, usage", [("generate", "--n N"), ("train", "--epochs EPOCHS"),
                                                ("ablation", "--n N"), ("ablation", "--epochs EPOCHS")])
    def test_help_keeps_the_flag_metavars(self, capsys, command, usage):
        with pytest.raises(SystemExit):
            cli.main([command, "--help"])
        assert usage in capsys.readouterr().out


class TestTrain:
    def test_writes_checkpoint_log_and_snapshot(self, tmp_path, config_file, generated):
        out = tmp_path / "run"
        result = run_cli("train", "--config", config_file, "--seed", 5,
                         "--data", generated, "--out", out)
        assert result.returncode == 0, result.stderr
        assert (out / "checkpoint.json").is_file()
        assert (out / "config_resolved.json").is_file()
        log_lines = (out / "train_log.jsonl").read_text().splitlines()
        assert len(log_lines) == 2
        for line in log_lines:
            record = json.loads(line)
            assert set(record) == {
                "epoch", "lr", "loss_sen", "loss_spec", "loss_fusion", "loss_consensus", "val_auc",
            }
        checkpoint = json.loads((out / "checkpoint.json").read_text())
        assert checkpoint["metadata"]["seed"] == 5

    def test_baseline_ablation_trains_single_branch(self, tmp_path, config_file, generated):
        out = tmp_path / "base"
        result = run_cli("train", "--config", config_file, "--data", generated,
                         "--out", out, "--ablation", "baseline", "--epochs", 1)
        assert result.returncode == 0, result.stderr
        checkpoint = json.loads((out / "checkpoint.json").read_text())
        assert checkpoint["model"]["multi_branch"] is False
        names = {t["name"] for t in checkpoint["tensors"]}
        assert "sen.head.W" not in names

    def test_val_split_of_another_width_fails_naming_it_before_any_output(self, tmp_path, small_run):
        data = tmp_path / "data"
        data.mkdir()
        (data / "train.csv").write_text((small_run / "data" / "train.csv").read_text())
        narrow = [line.split(",") for line in (small_run / "data" / "val.csv").read_text().splitlines()]
        (data / "val.csv").write_text("".join(",".join(fields[:6] + fields[7:]) + "\n" for fields in narrow))
        result = run_cli("train", "--data", data, "--out", tmp_path / "out")
        assert result.returncode == 1
        assert f"{data / 'val.csv'}: dataset has 5 features, train.csv has 6" in result.stderr
        assert not (tmp_path / "out").exists()

    def test_missing_data_dir_fails_with_runtime_error(self, tmp_path, config_file):
        result = run_cli("train", "--config", config_file,
                         "--data", tmp_path / "nope", "--out", tmp_path / "r")
        assert result.returncode == 1
        assert "missing dataset file" in result.stderr


@pytest.fixture()
def trained(tmp_path, config_file, generated):
    out = tmp_path / "trained"
    result = run_cli("train", "--config", config_file, "--seed", 5, "--data", generated, "--out", out)
    assert result.returncode == 0, result.stderr
    return out


class TestEval:
    def test_writes_reports(self, tmp_path, config_file, generated, trained):
        out = tmp_path / "eval"
        result = run_cli("eval", "--config", config_file,
                         "--checkpoint", trained / "checkpoint.json",
                         "--data", generated / "test.csv", "--out", out)
        assert result.returncode == 0, result.stderr
        doc = json.loads((out / "report.json").read_text())
        assert set(doc["report"]["metrics"]) == {"sen", "spec", "fusion"}
        assert "FusionBr" in (out / "report.txt").read_text()
        assert "FusionBr" in result.stdout

    def test_idempotent(self, tmp_path, config_file, generated, trained):
        outs = []
        for name in ("e1", "e2"):
            out = tmp_path / name
            result = run_cli("eval", "--config", config_file,
                             "--checkpoint", trained / "checkpoint.json",
                             "--data", generated / "test.csv", "--out", out)
            assert result.returncode == 0
            outs.append(out)
        assert (outs[0] / "report.json").read_bytes() == (outs[1] / "report.json").read_bytes()
        assert (outs[0] / "report.txt").read_bytes() == (outs[1] / "report.txt").read_bytes()

    def test_empty_dataset_is_a_usage_error(self, tmp_path, config_file, trained):
        empty = tmp_path / "empty.csv"
        empty.write_text("")
        result = run_cli("eval", "--config", config_file,
                         "--checkpoint", trained / "checkpoint.json",
                         "--data", empty, "--out", tmp_path / "e")
        assert result.returncode == 2

    @pytest.mark.parametrize("command", ["train", "eval"])
    def test_header_only_dataset_is_a_usage_error(self, tmp_path, small_run, command):
        """A header-only train.csv exits 2 from either command, before any output is written."""
        data = tmp_path / "data"
        data.mkdir()
        (data / "val.csv").write_text((small_run / "data" / "val.csv").read_text())
        (data / "train.csv").write_text((small_run / "data" / "test.csv").read_text().splitlines()[0] + "\n")
        inputs = {
            "train": ("--data", data),
            "eval": ("--checkpoint", small_run / "run" / "checkpoint.json", "--data", data / "train.csv"),
        }
        result = run_cli(command, *inputs[command], "--out", tmp_path / "out")
        assert result.returncode == 2
        assert "no rows" in result.stderr
        assert not (tmp_path / "out").exists()

    def test_feature_dim_mismatch_fails(self, tmp_path, config_file, generated, trained):
        other_cfg = tmp_path / "wide.cfg"
        other_cfg.write_text(BASE_CONFIG.replace("feature_dim = 6", "feature_dim = 9"))
        wide = tmp_path / "wide-data"
        assert run_cli("generate", "--config", other_cfg, "--out", wide).returncode == 0
        result = run_cli("eval", "--config", config_file,
                         "--checkpoint", trained / "checkpoint.json",
                         "--data", wide / "test.csv", "--out", tmp_path / "m")
        assert result.returncode == 1
        assert f"{wide / 'test.csv'}: checkpoint expects 6 features, dataset has 9" in result.stderr


@pytest.fixture(scope="module")
def small_run(tmp_path_factory):
    """One generated dataset and a checkpoint trained on it, shared by the tests below."""
    root = tmp_path_factory.mktemp("small_run")
    config = root / "small.cfg"
    config.write_text(BASE_CONFIG)
    assert run_cli("generate", "--config", config, "--seed", 5, "--out", root / "data").returncode == 0
    assert run_cli("train", "--config", config, "--seed", 5, "--epochs", 1,
                   "--data", root / "data", "--out", root / "run").returncode == 0
    return root


def test_eval_rejects_non_finite_checkpoint_metadata_before_any_output(tmp_path, small_run):
    checkpoint = tmp_path / "checkpoint.json"
    doc = json.loads((small_run / "run" / "checkpoint.json").read_text())
    doc["metadata"]["note"] = math.nan
    checkpoint.write_text(json.dumps(doc))
    result = run_cli("eval", "--checkpoint", checkpoint, "--data", small_run / "data" / "test.csv",
                     "--out", tmp_path / "e")
    assert result.returncode == 1
    assert f"error: {checkpoint}: metadata: " in result.stderr
    assert not (tmp_path / "e").exists()


def test_eval_of_a_missing_dataset_csv_fails_before_any_output(tmp_path, small_run):
    missing = tmp_path / "nope.csv"
    result = run_cli("eval", "--checkpoint", small_run / "run" / "checkpoint.json", "--data", missing,
                     "--out", tmp_path / "e")
    assert result.returncode == 1
    assert f"missing dataset file {missing}" in result.stderr
    assert not (tmp_path / "e").exists()


class TestEvalRejectsBrokenRows:
    @pytest.mark.parametrize("breakage", sorted(BROKEN_ROWS))
    def test_exit_1_naming_path_and_line(self, tmp_path, small_run, breakage):
        lines = (small_run / "data" / "test.csv").read_text().splitlines()
        header = lines[0].split(",")
        fields = lines[2].split(",")
        BROKEN_ROWS[breakage](fields, header)
        lines[2] = ",".join(fields)
        broken = tmp_path / "broken.csv"
        broken.write_text("\n".join(lines) + "\n")
        result = run_cli("eval", "--checkpoint", small_run / "run" / "checkpoint.json",
                         "--data", broken, "--out", tmp_path / "e")
        assert result.returncode == 1
        assert f"{broken}:3: " in result.stderr


class TestAblation:
    def test_small_grid_has_all_arms_in_order(self, tmp_path, config_file):
        out = tmp_path / "grid"
        result = run_cli("ablation", "--config", config_file, "--seeds", 2,
                         "--n", 200, "--epochs", 1, "--out", out)
        assert result.returncode == 0, result.stderr
        grid = json.loads((out / "ablation_grid.json").read_text())
        assert grid["row_order"] == ["baseline", "multibr", "conloss", "uncerty", "full"]
        for arm, row in grid["arms"].items():
            assert not row["failed"], (arm, row["errors"])
            assert row["seeds"] == [grid["seed"], grid["seed"] + 1]
            assert len(row["per_seed"]["f1"]) == 2
            assert set(row["mean"]) == {"acc", "sen", "spec", "f1", "auc"}
        table = (out / "ablation_grid.txt").read_text()
        assert table.splitlines()[2].startswith("baseline")


    def _grid(self, tmp_path, monkeypatch, run_experiment):
        monkeypatch.setattr(cli, "run_experiment", run_experiment)
        cfg = resolve_config(None, {"n_samples": 50, "max_epochs": 1, "seed": 4})
        code = cli.cmd_ablation(cfg, tmp_path, n_seeds=2)
        grid = strict_json((tmp_path / "ablation_grid.json").read_text())
        return code, grid, (tmp_path / "ablation_grid.txt").read_text()

    def test_undefined_metrics_are_null(self, tmp_path, monkeypatch):
        def run_experiment(cfg):
            auc = None if cfg.seed == 5 else 0.75
            fusion_all = {"acc": 0.5, "sen": 0.5, "spec": 0.5, "f1": 0.5, "auc": auc}
            return None, TRAINED_LOG, SimpleNamespace(metrics={"fusion": {"all": fusion_all}})

        code, grid, table = self._grid(tmp_path, monkeypatch, run_experiment)
        assert code == 0
        for row in grid["arms"].values():
            assert row["per_seed"]["auc"] == [0.75, None]
            assert row["mean"]["auc"] is None and row["sd"]["auc"] is None
            assert row["median"]["auc"] is None
            assert row["mean"]["acc"] == 0.5
        assert table.splitlines()[2].rstrip().endswith("-")

    def test_a_failed_seed_keeps_per_seed_aligned_with_seeds(self, tmp_path, monkeypatch):
        def run_experiment(cfg):
            if cfg.ablation == "full" and cfg.seed == 5:
                raise RuntimeError("boom")
            fusion_all = dict.fromkeys(("acc", "sen", "spec", "f1", "auc"), cfg.seed / 10)
            return None, TRAINED_LOG, SimpleNamespace(metrics={"fusion": {"all": fusion_all}})

        monkeypatch.setattr(cli, "run_experiment", run_experiment)
        cfg = resolve_config(None, {"n_samples": 50, "max_epochs": 1, "seed": 4})
        assert cli.cmd_ablation(cfg, tmp_path, n_seeds=3) == 1
        row = strict_json((tmp_path / "ablation_grid.json").read_text())["arms"]["full"]
        assert row["seeds"] == [4, 5, 6]
        assert row["per_seed"] == {m: [0.4, None, 0.6] for m in ("acc", "sen", "spec", "f1", "auc")}
        assert [e["seed"] for e in row["errors"]] == [5]

    def test_failures_keep_their_tracebacks(self, tmp_path, monkeypatch):
        def run_experiment(cfg):
            if cfg.ablation == "conloss" and cfg.seed == 5:
                raise_deep_inside(cfg.seed)
            fusion_all = dict.fromkeys(("acc", "sen", "spec", "f1", "auc"), 0.5)
            return None, TRAINED_LOG, SimpleNamespace(metrics={"fusion": {"all": fusion_all}})

        def raise_deep_inside(seed):
            raise RuntimeError(f"boom at seed {seed}")

        code, grid, table = self._grid(tmp_path, monkeypatch, run_experiment)
        assert code == 1
        row = grid["arms"]["conloss"]
        assert row["failed"] and len(row["errors"]) == 1
        error = row["errors"][0]
        assert error["seed"] == 5 and error["message"] == "boom at seed 5"
        assert error["traceback"].startswith("Traceback (most recent call last)")
        assert "raise_deep_inside" in error["traceback"]
        assert error["traceback"].rstrip().endswith("RuntimeError: boom at seed 5")
        assert "conloss     FAILED: seed 5: boom at seed 5" in table
        assert "Traceback" not in table
        assert all(not r["failed"] for arm, r in grid["arms"].items() if arm != "conloss")

    def test_diverged_fits_fail_their_seeds(self, tmp_path):
        """A fit that diverges at its first step keeps the initial parameters; they are not a result."""
        cfg = tmp_path / "diverge.cfg"
        cfg.write_text("lr = 1e308\n")
        out = tmp_path / "grid"
        result = run_cli("ablation", "--config", cfg, "--n", 200, "--seeds", 1, "--epochs", 1,
                         "--seed", 1, "--out", out)
        assert result.returncode == 1, result.stderr
        grid = strict_json((out / "ablation_grid.json").read_text())
        table = (out / "ablation_grid.txt").read_text()
        for arm, row in grid["arms"].items():
            assert row["failed"] and [e["seed"] for e in row["errors"]] == [1]
            assert row["errors"][0]["message"].startswith("training diverged: non-finite loss at epoch 0, step 1")
            assert "TrainingDivergedError: training diverged" in row["errors"][0]["traceback"]
            assert row["per_seed"] == {m: [None] for m in ("acc", "sen", "spec", "f1", "auc")}
            assert f"{arm:<10}  FAILED: seed 1: training diverged" in table
        assert result.stderr == ""  # only the typed message, in the grid, and no numpy RuntimeWarning

    def test_one_class_validation_fails_every_seed(self, tmp_path, one_sample_val):
        """No epoch has a defined validation AUC, so each fit keeps its initial parameters; they are not a result."""
        out = tmp_path / "grid"
        result = run_cli("ablation", "--config", one_sample_val, "--n", 12, "--seeds", 1, "--epochs", 2,
                         "--seed", 2, "--out", out)
        assert result.returncode == 1, result.stderr
        grid = strict_json((out / "ablation_grid.json").read_text())
        table = (out / "ablation_grid.txt").read_text()
        for arm, row in grid["arms"].items():
            assert row["failed"] and [e["seed"] for e in row["errors"]] == [2]
            assert row["errors"][0]["message"] == ("no epoch had a defined validation AUC, "
                                                   "so the fit kept the initial parameters")
            assert "UndefinedMetricError: no epoch had a defined validation AUC" in row["errors"][0]["traceback"]
            assert row["per_seed"] == {m: [None] for m in ("acc", "sen", "spec", "f1", "auc")}
            assert "mean" not in row
            assert f"{arm:<10}  FAILED: seed 2: no epoch had a defined validation AUC" in table


class TestStrictJson:
    def test_one_class_validation_split_logs_null_auc_with_reason(self, tmp_path, one_sample_val):
        data, run = tmp_path / "data", tmp_path / "run"
        cfg = ("--config", one_sample_val)
        assert run_cli("generate", *cfg, "--n", 12, "--seed", 2, "--out", data).returncode == 0
        result = run_cli("train", *cfg, "--data", data, "--out", run, "--epochs", 1, "--seed", 2)
        assert result.returncode == 0, result.stderr
        lines = (run / "train_log.jsonl").read_text().splitlines()
        assert len(lines) == 1
        record = strict_json(lines[0])
        assert record["val_auc"] is None
        assert record["val_auc_undefined"] == "AUC requires both classes present"
        assert ("warning: no epoch had a defined validation AUC, so the fit kept the initial parameters"
                in result.stderr)
        strict_json((run / "checkpoint.json").read_text())
        strict_json((run / "config_resolved.json").read_text())


class TestTrainReports:
    def test_untrained_checkpoint_is_reported(self, tmp_path, one_sample_val):
        data, run = tmp_path / "data", tmp_path / "run"
        cfg = ("--config", one_sample_val)
        assert run_cli("generate", *cfg, "--n", 12, "--seed", 2, "--out", data).returncode == 0
        result = run_cli("train", *cfg, "--data", data, "--out", run, "--epochs", 3, "--seed", 2)
        assert result.returncode == 0, result.stderr
        assert "no epoch had a defined validation AUC" in result.stderr
        assert "trained 3 epochs" in result.stdout
        lines = (run / "train_log.jsonl").read_text().splitlines()
        assert [strict_json(line)["val_auc"] for line in lines] == [None, None, None]
        params, _ = load_checkpoint(run / "checkpoint.json")
        np.testing.assert_array_equal(params.flat, init_params(params.config, params.multi_branch).flat)

    def test_divergence_is_logged_and_reported(self, tmp_path, monkeypatch, capsys, config_file, generated):
        read = cli.read_dataset_csv

        def poisoned(path):
            dataset = read(path)
            if path.name == "train.csv":
                dataset.features[0] = np.nan
            return dataset

        monkeypatch.setattr(cli, "read_dataset_csv", poisoned)
        run = tmp_path / "run"
        argv = ["train", "--config", config_file, "--data", generated, "--out", run, "--seed", 5]
        assert cli.main([str(a) for a in argv]) == 0
        out, err = capsys.readouterr()
        assert "training diverged: non-finite loss at epoch 0" in err
        assert "trained 0 epochs" in out
        lines = (run / "train_log.jsonl").read_text().splitlines()
        assert len(lines) == 1
        assert set(strict_json(lines[0])) == {"epoch", "step", "diverged"}


class TestPipelineDeterminism:
    def test_generate_train_eval_is_bit_identical_across_reruns(self, tmp_path, config_file):
        digests = []
        for name in ("p1", "p2"):
            root = tmp_path / name
            data, run, ev = root / "data", root / "run", root / "eval"
            assert run_cli("generate", "--config", config_file, "--seed", 3, "--out", data).returncode == 0
            assert run_cli("train", "--config", config_file, "--seed", 3,
                           "--data", data, "--out", run).returncode == 0
            assert run_cli("eval", "--config", config_file, "--seed", 3,
                           "--checkpoint", run / "checkpoint.json",
                           "--data", data / "test.csv", "--out", ev).returncode == 0
            digests.append({
                path.relative_to(root): path.read_bytes()
                for path in sorted(root.rglob("*"))
                if path.is_file()
            })
        assert digests[0].keys() == digests[1].keys()
        for key in digests[0]:
            assert digests[0][key] == digests[1][key], f"artifact differs: {key}"

    def test_blas_threads_do_not_move_outputs(self, tmp_path):
        """generate, train and eval write the same bytes with one and with two OpenBLAS threads."""
        written = []
        for threads in ("1", "2"):
            root = tmp_path / f"threads-{threads}"
            data, run = root / "data", root / "run"
            for args in (("generate", "--n", 400, "--seed", 3, "--out", data),
                         ("train", "--epochs", 2, "--seed", 3, "--data", data, "--out", run),
                         ("eval", "--seed", 3, "--checkpoint", run / "checkpoint.json",
                          "--data", data / "test.csv", "--out", root / "eval")):
                result = run_cli(*args, env={"OPENBLAS_NUM_THREADS": threads})
                assert result.returncode == 0, result.stderr
            written.append({
                path.relative_to(root): path.read_bytes() for path in sorted(root.rglob("*")) if path.is_file()
            })
        assert written[0].keys() == written[1].keys()
        for key in written[0]:
            assert written[0][key] == written[1][key], f"artifact differs: {key}"


class TestUsage:
    def test_missing_subcommand_is_usage_error(self):
        assert run_cli().returncode == 2

    def test_unknown_flag_is_usage_error(self, tmp_path):
        assert run_cli("generate", "--out", tmp_path, "--bogus").returncode == 2

    def test_zero_seeds_is_a_usage_error_before_any_file(self, tmp_path):
        result = run_cli("ablation", "--out", tmp_path / "grid", "--seeds", 0)
        assert result.returncode == 2
        assert "--seeds must be >= 1, got 0" in result.stderr
        assert not (tmp_path / "grid").exists()
