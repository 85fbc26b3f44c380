"""CLI pipeline tests: validation, identity, determinism, transfer."""

import contextlib
import importlib
import io
import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import prunecast
from prunecast.checkpoint import save_checkpoint
from prunecast.cli import config_hash, load_config, main, validate_config
from prunecast.data import SplitSpec, synth_dataset
from prunecast.errors import ConfigError, Field, section_problems
from prunecast.model import Forecaster, ForecasterConfig
from prunecast.pruning import ImportanceLedger, PruneSchedule, prune_stat
from prunecast.training import TrainConfig


def base_config(out_dir, **overrides):
    cfg = {
        "model": {"layers": 1, "heads": 2, "d_model": 16, "d_ffn": 16,
                  "patch_len": 4, "context_len": 16, "horizon": 4},
        "data": {"synth": {"kind": "sines", "seed": 5, "n_points": 260,
                           "n_channels": 2},
                 "split": {"train": 180, "val": 40, "test": 40}},
        "prune": {"variant": "importance", "ratio_per_epoch": 0.05,
                  "epochs": 1, "batch_size": 64, "alpha": 0.5},
        "train": {"lr": 1e-3, "batch_size": 64, "max_epochs": 1, "patience": 1},
        "out_dir": str(out_dir),
        "seed": 3,
    }
    cfg.update(overrides)
    return cfg


def write_config(tmp_path, cfg, name="run.json"):
    p = tmp_path / name
    p.write_text(json.dumps(cfg))
    return str(p)


SRC = str(Path(prunecast.__file__).parents[1])
# the BLAS thread-count variables PRUNECAST_THREADS sets
BLAS_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                    "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")


def run(*argv):
    rc = main(list(argv))
    assert rc == 0, f"command failed: {argv}"


PINNED_MODEL = {"layers": 1, "heads": 2, "d_model": 16, "d_ffn": 16, "patch_len": 4,
                "context_len": 16, "horizon": 4}
PINNED_EVERY_KEY = {
    "model": {**PINNED_MODEL, "norm": "rmsnorm", "activation": "relu",
              "attention": "causal"},
    "data": {"synth": {"kind": "ar1", "seed": 5, "n_points": 260, "n_channels": 2,
                       "ar_coeff": 0.5},
             "schema": {"timestamp_column": 0, "frequency": "h"},
             "channel_prefix": "ar",
             "split": {"train": 0.7, "val": 0.15, "test": 40, "stride": 2}},
    "prune": {"variant": "stat_then_importance", "ratio_per_epoch": 0.2, "epochs": 2,
              "batch_size": 32, "k": 3, "alpha": [0.3, 1], "head_threshold": 0.05,
              "act_threshold": 0.1, "target_param_fraction": 0.5},
    "train": {"lr": 0.002, "batch_size": 16, "max_epochs": 0, "patience": 2,
              "optimizer": "sgd", "update_norm_params": False,
              "normalized_metrics": False, "mode": "masked"},
    "out_dir": "out", "seed": 7,
}
# the data keys the config above cannot set together with its own
PINNED_CSV_KEYS = {"data": {"csv": "series.csv", "channels": ["b", "a"],
                            "schema": {"timestamp_column": "date"},
                            "split": {"train": 100, "val": 20, "test": 20}},
                   "out_dir": "out"}
PINNED_REQUIRED_ONLY = {
    "model": PINNED_MODEL,
    "data": {"synth": {"kind": "sines", "n_points": 260, "n_channels": 2},
             "split": {"train": 180, "val": 40, "test": 40}},
    "prune": {}, "train": {"lr": 1e-3}, "out_dir": "out",
}


class TestConfigValidation:
    def test_unknown_keys_rejected_and_all_violations_listed(self):
        raw = {"model": {"layers": 1, "bogus": 2}, "naughty": True,
               "data": {"split": {}}, "out_dir": 7}
        with pytest.raises(ConfigError) as err:
            validate_config(raw)
        msg = str(err.value)
        for needle in ("bogus", "naughty", "out_dir", "heads", "data.split.train",
                       "csv/synth"):
            assert needle in msg, f"missing violation for {needle}: {msg}"

    def test_defaults_applied(self, tmp_path):
        cfg = validate_config(base_config(tmp_path))
        assert cfg["model"]["norm"] == "layernorm"
        assert cfg["prune"]["head_threshold"] == 0.01
        assert cfg["train"]["mode"] == "sliced"

    def test_hash_semantics(self, tmp_path):
        a = validate_config(base_config(tmp_path))
        b = validate_config(base_config("/elsewhere"))
        assert config_hash(a) == config_hash(b)  # out_dir is not semantic
        c = validate_config(base_config(tmp_path))
        c["train"]["lr"] = 2e-3
        assert config_hash(a) != config_hash(c)
        d = validate_config(base_config(tmp_path, seed=4))
        assert config_hash(a) != config_hash(d)

    @pytest.mark.parametrize("key, value, needle", [
        ("heads", 0, "model.heads: must be an int >= 1, got 0"),
        ("layers", -1, "model.layers: must be an int >= 1, got -1"),
        ("d_model", 18, "model.d_model: 18 is not divisible by heads=4"),
        ("context_len", 18, "model.context_len: 18 is not divisible by patch_len=4"),
        ("norm", "batchnorm", "model.norm: must be one of"),
        ("activation", "tanh", "model.activation: must be one of"),
        ("attention", "sparse", "model.attention: must be one of"),
    ], ids=["heads-zero", "layers-negative", "d_model-heads", "context-patch",
            "norm", "activation", "attention"])
    def test_bad_model_section_fails_closed(self, tmp_path, capsys, key, value, needle):
        cfg = base_config(tmp_path / "out", seed="three")
        cfg["model"]["heads"] = 4
        cfg["model"][key] = value
        rc = main(["pretrain", "--config", write_config(tmp_path, cfg)])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error: invalid config")
        assert needle in err
        assert "seed: expected an int" in err  # reported together with the rest
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("part", ["train", "val", "test"])
    def test_negative_split_listed_with_the_rest(self, tmp_path, capsys, part):
        cfg = base_config(tmp_path / "out", seed="three")
        cfg["data"]["split"][part] = -40
        rc = main(["pretrain", "--config", write_config(tmp_path, cfg)])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error: invalid config")
        assert f"data.split.{part}: must be a number >= 0, got -40" in err
        assert "seed: expected an int" in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("alpha, needle", [
        (["x"], "prune.alpha[0]: expected a number, got str"),
        ([0.5, True], "prune.alpha[1]: expected a number, got bool"),
        ([0.5, 1.5], "prune.alpha[1]: must be a number in (0, 1], got 1.5"),
        (0, "prune.alpha: must be a number in (0, 1], got 0"),
        ([], "prune.alpha: the list must not be empty"),
        ([0.5, 0.3, 0.5], "prune.alpha[2]: repeats 0.5"),
    ], ids=["str-item", "bool-item", "above-one", "zero", "empty", "repeated"])
    def test_bad_alpha_listed_with_the_rest(self, tmp_path, capsys, pipeline, alpha, needle):
        cfg = base_config(tmp_path / "out", seed="three")
        cfg["prune"]["alpha"] = alpha
        rc = main(["prune", "--config", write_config(tmp_path, cfg),
                   "--checkpoint", pipeline[2]])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error: invalid config")
        assert needle in err
        assert "seed: expected an int" in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("path, value, needle", [
        (["seed"], -1, "seed: must be an int >= 0, got -1"),
        (["seed"], True, "seed: expected an int"),
        (["data", "synth", "seed"], -1, "data.synth.seed: must be an int >= 0, got -1"),
        (["data", "synth", "n_points"], -5, "data.synth.n_points: must be an int >= 1"),
        (["data", "synth", "n_channels"], 0, "data.synth.n_channels: must be an int >= 1"),
        (["data", "synth"], 5, "data.synth: expected"),
        (["data", "schema"], 5, "data.schema: expected"),
    ], ids=["seed-negative", "seed-bool", "synth-seed-negative", "n-points-negative",
            "n-channels-zero", "synth-not-object", "schema-not-object"])
    def test_bad_seed_or_synth_value_fails_closed(self, tmp_path, capsys, path, value,
                                                   needle):
        cfg = base_config(tmp_path / "out")
        node = cfg
        for key in path[:-1]:
            node = node[key]
        node[path[-1]] = value
        rc = main(["pretrain", "--config", write_config(tmp_path, cfg)])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error: invalid config")
        assert needle in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("path, value, needle", [
        (["train", "lr"], -1, "train.lr: must be a number >= 0, got -1"),
        (["train", "lr"], math.nan, "train.lr: must be a finite number, got nan"),
        (["train", "lr"], math.inf, "train.lr: must be a finite number, got inf"),
        (["train", "optimizer"], "foo", "train.optimizer: must be one of ('sgd', 'adam')"),
        (["train", "patience"], 0, "train.patience: must be an int >= 1, got 0"),
        (["train", "batch_size"], 0, "train.batch_size: must be an int >= 1, got 0"),
        (["train", "max_epochs"], -1, "train.max_epochs: must be an int >= 0, got -1"),
        (["prune", "ratio_per_epoch"], 2,
         "prune.ratio_per_epoch: must be a number in [0, 1], got 2"),
        (["prune", "epochs"], 0, "prune.epochs: must be an int >= 1, got 0"),
        (["prune", "batch_size"], 0, "prune.batch_size: must be an int >= 1, got 0"),
        (["prune", "k"], -1, "prune.k: must be an int >= 0, got -1"),
        (["prune", "target_param_fraction"], 5,
         "prune.target_param_fraction: must be a number in [0, 1], got 5"),
        (["prune", "target_param_fraction"], -1,
         "prune.target_param_fraction: must be a number in [0, 1], got -1"),
        (["prune", "head_threshold"], 2, "prune.head_threshold: must be a number in [0, 1]"),
        (["prune", "act_threshold"], -1, "prune.act_threshold: must be a number in [0, 1]"),
        (["data", "split", "stride"], 0, "data.split.stride: must be an int >= 1, got 0"),
        (["data", "synth", "kind"], "nope", "data.synth.kind: must be one of"),
        (["data", "synth", "ar_coeff"], math.nan,
         "data.synth.ar_coeff: must be a finite number, got nan"),
        (["train", "lr"], 10 ** 400, "train.lr: must be a finite number, got 1000"),
        (["data", "synth", "ar_coeff"], -10 ** 400,
         "data.synth.ar_coeff: must be a finite number, got -1000"),
        # sizes numpy cannot index end here, before anything is allocated
        (["data", "synth", "n_points"], 10 ** 40,
         f"data.synth.n_points: must be an int within ±{sys.maxsize}, got {10 ** 40}"),
        (["model", "layers"], 10 ** 30,
         f"model.layers: must be an int within ±{sys.maxsize}, got {10 ** 30}"),
        (["model", "d_model"], 2 ** 62, f"bytes are more than {sys.maxsize} bytes"),
    ])
    def test_bad_value_fails_before_any_work(self, tmp_path, capsys, path, value, needle):
        cfg = base_config(tmp_path / "out", seed="three")
        node = cfg
        for key in path[:-1]:
            node = node[key]
        node[path[-1]] = value
        rc = main(["pretrain", "--config", write_config(tmp_path, cfg)])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error: invalid config")
        assert needle in err
        assert "seed: expected an int" in err
        assert not (tmp_path / "out").exists()

    # config_hash values of the first release of this check: a valid config
    # must normalize to the same dict, so manifests keep their hashes
    @pytest.mark.parametrize("raw, digest", [
        (PINNED_EVERY_KEY, "67f2f28a38f576e8561529391dcdad5a848b4ca4b1ba9caecb6438dc32ea86c9"),
        (PINNED_CSV_KEYS, "683eb33b0705136f62436a635817f49ebf1260266c63848ff0f58edd035dd99c"),
        (PINNED_REQUIRED_ONLY,
         "6a9b6690476dd1a001089b334c1cfef276ae6958e443b2a7e66c64ecb4009e60"),
    ], ids=["every-key", "csv-keys", "required-only"])
    def test_config_hash_is_pinned(self, raw, digest):
        assert config_hash(validate_config(json.loads(json.dumps(raw)))) == digest

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf, 10 ** 400, -10 ** 400,
                                       2 ** 1024])
    def test_numbers_must_lie_in_the_float_range(self, value):
        assert section_problems({"x": value}, {"x": Field(float)}, "s") == [
            f"s.x: must be a finite number, got {value!r}"]

    @pytest.mark.parametrize("value", [sys.float_info.max, -sys.float_info.max, 10 ** 308,
                                       2 ** 1023])
    def test_numbers_at_the_float_range_edge_pass(self, value):
        assert section_problems({"x": value}, {"x": Field(float)}, "s") == []

    @pytest.mark.parametrize("value, ok", [(sys.maxsize, True), (-sys.maxsize, True),
                                           (sys.maxsize + 1, False), (-sys.maxsize - 1, False)])
    def test_ints_must_lie_in_the_index_range(self, value, ok):
        problems = section_problems({"x": value}, {"x": Field(int)}, "s")
        assert problems == ([] if ok else
                            [f"s.x: must be an int within ±{sys.maxsize}, got {value!r}"])

    @pytest.mark.parametrize("channels, needle", [
        ([], "data.channels: the list must not be empty"),
        (["sine0", 3], "data.channels[1]: expected a string, got int"),
        ("sine0", "data.channels: expected a list, got str"),
        (["sine0", "sine0"], "data.channels[1]: repeats 'sine0'"),
    ], ids=["empty", "not-a-string", "not-a-list", "repeated"])
    def test_bad_channels_listed_with_the_rest(self, tmp_path, capsys, channels, needle):
        cfg = base_config(tmp_path / "out", seed="three")
        cfg["data"]["channels"] = channels
        rc = main(["pretrain", "--config", write_config(tmp_path, cfg)])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error: invalid config")
        assert needle in err
        assert "seed: expected an int" in err
        assert not (tmp_path / "out").exists()

    def test_seed_override_is_checked_like_the_config(self, tmp_path, capsys):
        cfg_path = write_config(tmp_path, base_config(tmp_path / "out"))
        rc = main(["pretrain", "--config", cfg_path, "--seed", "-1"])
        assert rc == 1
        assert "seed: must be an int >= 0, got -1" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_config_path_that_is_a_directory_fails_closed(self, tmp_path, capsys):
        rc = main(["pretrain", "--config", str(tmp_path)])
        assert rc == 1
        assert capsys.readouterr().err.startswith(f"error: {tmp_path}: cannot read")

    @pytest.mark.parametrize("exc, message", [
        (MemoryError("Unable to allocate 14.9 GiB for an array with shape (2000000000,)"),
         "Unable to allocate 14.9 GiB for an array with shape (2000000000,)"),
        (MemoryError(), "MemoryError"),
    ], ids=["numpy", "bare"])
    def test_allocation_failure_fails_closed(self, tmp_path, capsys, monkeypatch, exc, message):
        def synth_dataset(*args, **kwargs):
            raise exc

        monkeypatch.setattr("prunecast.data.synth_dataset", synth_dataset)
        rc = main(["pretrain", "--config", write_config(tmp_path, base_config(tmp_path / "out"))])
        assert rc == 1
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not (tmp_path / "out").exists()

    def test_model_too_large_to_allocate_fails_closed(self, tmp_path, capsys):
        """Several PiB of parameters are more than any address space a process
        maps, so the one allocation of the parameter vector fails before a
        page is touched, whatever the overcommit mode."""
        cfg = base_config(tmp_path / "out")
        cfg["model"].update(layers=10 ** 11, d_model=32)
        rc = main(["pretrain", "--config", write_config(tmp_path, cfg)])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error: Unable to allocate") and err.count("\n") == 1
        assert not (tmp_path / "out").exists()

    def test_thread_cap_is_exported_before_numpy_loads(self, tmp_path):
        """A meta-path finder that imports nothing records the thread variables
        at the first import of numpy, wherever in the run that happens."""
        env = {k: v for k, v in os.environ.items() if k not in BLAS_THREAD_VARS}
        env["PRUNECAST_THREADS"] = "1"
        env["PYTHONPATH"] = SRC
        script = f"""
import os, sys

class FirstNumpyImport:
    seen = None

    @classmethod
    def find_spec(cls, name, path=None, target=None):
        if name == "numpy" and cls.seen is None:
            cls.seen = [os.environ.get(v) for v in {BLAS_THREAD_VARS!r}]
        return None

sys.meta_path.insert(0, FirstNumpyImport)
import prunecast.cli as cli
rc = cli.main(["pretrain", "--config", {str(tmp_path / "absent.json")!r}])
import numpy
print(rc, *FirstNumpyImport.seen)
"""
        proc = subprocess.run([sys.executable, "-c", script], env=env,
                              capture_output=True, text=True, timeout=120)
        assert proc.stdout.split() == ["1"] + ["1"] * len(BLAS_THREAD_VARS), proc.stderr

    def test_module_entry_runs_without_warnings(self, tmp_path):
        """``python -m prunecast.cli``, the no-install form; ``-W error`` turns
        runpy's warning about a package that imports its own ``cli`` into a
        failure."""
        def entry(*argv):
            return subprocess.run([sys.executable, "-W", "error", "-m", "prunecast.cli", *argv],
                                  env={**os.environ, "PYTHONPATH": SRC},
                                  capture_output=True, text=True, timeout=120)

        proc = entry("--help")
        assert proc.returncode == 0, proc.stderr
        assert "pretrain" in proc.stdout
        proc = entry("pretrain", "--config", str(tmp_path / "absent.json"))
        assert proc.returncode == 1
        assert proc.stderr.startswith("error: config file not found"), proc.stderr

    def test_invalid_json_reported(self, tmp_path):
        p = tmp_path / "bad.json"
        p.write_text("{nope")
        with pytest.raises(ConfigError, match="not valid JSON"):
            load_config(str(p))

    def test_int_past_the_digit_limit_reported(self, tmp_path):
        p = tmp_path / "huge.json"
        p.write_text('{"seed": ' + "1" * 5000 + "}")
        with pytest.raises(ConfigError, match="not valid JSON: Exceeds the limit"):
            load_config(str(p))


@pytest.fixture(scope="module")
def pipeline(tmp_path_factory):
    """One pretrained checkpoint shared by the command tests."""
    root = tmp_path_factory.mktemp("pipe")
    out = root / "pretrain"
    cfg_path = root / "cfg.json"
    cfg_path.write_text(json.dumps(base_config(out)))
    run("pretrain", "--config", str(cfg_path))
    return root, str(cfg_path), str(out / "model.ckpt")


# stage -> the package functions its command calls itself
STAGE_CALLS = {
    "pretrain": ("training.finetune", "training.evaluate", "checkpoint.save_checkpoint"),
    "analyze": ("checkpoint.load_checkpoint", "analysis.collect_head_norms"),
    "prune": ("checkpoint.load_checkpoint", "pruning.progressive_prune",
              "checkpoint.save_checkpoint"),
    "finetune": ("checkpoint.load_checkpoint", "training.finetune",
                 "checkpoint.save_checkpoint"),
    "eval": ("checkpoint.load_checkpoint", "training.evaluate"),
    "bench": ("checkpoint.load_checkpoint", "training.bench_inference",
              "slicing.slice_pruned"),
}


class TestCommands:
    def test_stages_call_the_package_through_module_attributes(self, tmp_path, monkeypatch):
        """A tracer or a test that replaces a module attribute must see every
        call a CLI stage makes to it."""
        called = set()
        for target in {t for calls in STAGE_CALLS.values() for t in calls}:
            module, name = target.split(".")
            original = getattr(importlib.import_module(f"prunecast.{module}"), name)

            def spy(*args, _target=target, _original=original, **kwargs):
                called.add(_target)
                return _original(*args, **kwargs)

            monkeypatch.setattr(f"prunecast.{target}", spy)
        cfg_path = write_config(tmp_path, base_config(tmp_path / "out"))
        checkpoints = {"analyze": tmp_path / "pretrain" / "model.ckpt",
                       "prune": tmp_path / "pretrain" / "model.ckpt",
                       "finetune": tmp_path / "prune" / "pruned_alpha0.5.ckpt",
                       "eval": tmp_path / "finetune" / "finetuned.ckpt",
                       "bench": tmp_path / "finetune" / "finetuned.ckpt"}
        for stage, calls in STAGE_CALLS.items():
            called.clear()
            extra = ["--checkpoint", str(checkpoints[stage])] if stage in checkpoints else []
            run(stage, "--config", cfg_path, "--out", str(tmp_path / stage), *extra)
            assert called >= set(calls), (stage, set(calls) - called)

    def test_pretrain_artifacts(self, pipeline):
        root, _, ckpt = pipeline
        out = root / "pretrain"
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["command"] == "pretrain"
        assert "model.ckpt" in manifest["artifacts"]
        assert (out / "timings.json").exists()
        report = json.loads((out / "pretrain_report.json").read_text())
        assert report["param_fraction"] == 1.0

    def test_analyze_emits_csvs(self, pipeline, tmp_path):
        root, cfg_path, ckpt = pipeline
        run("analyze", "--config", cfg_path, "--checkpoint", ckpt,
            "--out", str(tmp_path))
        for name in ("head_norms.csv", "ffn_probs.csv", "magnitude_cdf.csv",
                     "analysis_summary.json"):
            assert (tmp_path / name).exists()

    def test_pipeline_zero_prune_identity(self, pipeline, tmp_path):
        root, cfg_path, ckpt = pipeline
        e1, p0, e2 = tmp_path / "e1", tmp_path / "p0", tmp_path / "e2"
        run("eval", "--config", cfg_path, "--checkpoint", ckpt, "--out", str(e1))

        cfg = json.loads((root / "cfg.json").read_text())
        cfg["prune"]["ratio_per_epoch"] = 0.0
        zero_cfg = tmp_path / "zero.json"
        zero_cfg.write_text(json.dumps(cfg))
        run("prune", "--config", str(zero_cfg), "--checkpoint", ckpt,
            "--out", str(p0))
        pruned = p0 / "pruned_alpha0.5.ckpt"
        report = json.loads((p0 / "prune_report.json").read_text())
        assert report["runs"][0]["param_fraction"] == 1.0
        run("eval", "--config", cfg_path, "--checkpoint", str(pruned),
            "--out", str(e2))
        assert (e1 / "eval_report.json").read_bytes() == \
               (e2 / "eval_report.json").read_bytes()

    def test_alpha_grid_emits_one_trace_per_cell(self, pipeline, tmp_path):
        root, cfg_path, ckpt = pipeline
        cfg = json.loads((root / "cfg.json").read_text())
        cfg["prune"]["alpha"] = [0.1, 0.2, 0.4, 0.5, 0.6, 0.8]
        grid_cfg = tmp_path / "grid.json"
        grid_cfg.write_text(json.dumps(cfg))
        run("prune", "--config", str(grid_cfg), "--checkpoint", ckpt,
            "--out", str(tmp_path / "grid"))
        for alpha in (0.1, 0.2, 0.4, 0.5, 0.6, 0.8):
            assert (tmp_path / "grid" / f"trace_alpha{alpha}.jsonl").exists()
            assert (tmp_path / "grid" / f"pruned_alpha{alpha}.ckpt").exists()

    def test_prune_then_finetune_then_eval(self, pipeline, tmp_path):
        root, cfg_path, ckpt = pipeline
        run("prune", "--config", cfg_path, "--checkpoint", ckpt,
            "--out", str(tmp_path / "p"))
        pruned = tmp_path / "p" / "pruned_alpha0.5.ckpt"
        run("finetune", "--config", cfg_path, "--checkpoint", str(pruned),
            "--out", str(tmp_path / "ft"))
        run("eval", "--config", cfg_path,
            "--checkpoint", str(tmp_path / "ft" / "finetuned.ckpt"),
            "--out", str(tmp_path / "ev"))
        report = json.loads((tmp_path / "ev" / "eval_report.json").read_text())
        assert report["param_fraction"] < 1.0
        assert report["mse"] >= 0.0

    def test_bench_reports_speedup_field(self, pipeline, tmp_path):
        root, cfg_path, ckpt = pipeline
        run("bench", "--config", cfg_path, "--checkpoint", ckpt,
            "--out", str(tmp_path))
        timings = json.loads((tmp_path / "timings.json").read_text())
        assert "speedup" in timings and timings["speedup"] > 0

    def test_both_train_modes_run_the_same_training(self, pipeline, tmp_path):
        root, cfg_path, ckpt = pipeline
        run("prune", "--config", cfg_path, "--checkpoint", ckpt,
            "--out", str(tmp_path / "p"))
        pruned = str(tmp_path / "p" / "pruned_alpha0.5.ckpt")
        outs = {}
        for mode in ("sliced", "masked"):
            cfg = json.loads((root / "cfg.json").read_text())
            cfg["train"]["mode"] = mode
            cfg["train"]["max_epochs"] = 2
            mode_cfg = write_config(tmp_path, cfg, f"{mode}.json")
            outs[mode] = tmp_path / mode
            run("finetune", "--config", mode_cfg, "--checkpoint", pruned,
                "--out", str(outs[mode]))
        assert (outs["sliced"] / "finetuned.ckpt").read_bytes() == \
               (outs["masked"] / "finetuned.ckpt").read_bytes()
        histories = [json.loads((outs[m] / "finetune_history.json").read_text())
                     for m in ("sliced", "masked")]
        assert histories[0]["history"] == histories[1]["history"]
        assert [h["mode"] for h in histories] == ["sliced", "masked"]

    def test_transfer_on_sibling_task(self, pipeline, tmp_path):
        root, cfg_path, ckpt = pipeline
        run("prune", "--config", cfg_path, "--checkpoint", ckpt,
            "--out", str(tmp_path / "p"))
        cfg = json.loads((root / "cfg.json").read_text())
        cfg["data"]["synth"]["seed"] = 99  # same generator, new seed
        sibling = tmp_path / "sibling.json"
        sibling.write_text(json.dumps(cfg))
        run("transfer", "--config", str(sibling),
            "--checkpoint", str(tmp_path / "p" / "pruned_alpha0.5.ckpt"),
            "--out", str(tmp_path / "tr"))
        report = json.loads((tmp_path / "tr" / "transfer_report.json").read_text())
        assert report["n_windows"] > 0

    @pytest.mark.parametrize("edit", ["config-out-of-range", "config-mistyped",
                                      "no-tensors", "tensor-no-offset"])
    def test_eval_on_bad_header_fails_closed(self, pipeline, tmp_path, capsys, edit):
        from test_checkpoint import rewrite_header

        root, _, ckpt = pipeline
        change = {"config-out-of-range": lambda h: h["config"].update(context_len=18),
                  "config-mistyped": lambda h: h["config"].update(heads=2.0),
                  "no-tensors": lambda h: h.pop("tensors"),
                  "tensor-no-offset": lambda h: h["tensors"][0].pop("offset")}[edit]
        bad = tmp_path / "bad.ckpt"
        with open(ckpt, "rb") as f:
            bad.write_bytes(rewrite_header(f.read(), change))
        cfg = json.loads((root / "cfg.json").read_text())
        del cfg["model"]  # the checkpoint's own config is the one checked
        cfg_path = write_config(tmp_path, cfg)
        rc = main(["eval", "--config", cfg_path, "--checkpoint", str(bad),
                   "--out", str(tmp_path / "ev")])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {bad}: ")
        assert not (tmp_path / "ev" / "eval_report.json").exists()

    def test_finetune_on_ledger_off_the_model_fails_closed(self, pipeline, tmp_path, capsys):
        from test_checkpoint import rewrite_header

        root, cfg_path, ckpt = pipeline
        run("prune", "--config", cfg_path, "--checkpoint", ckpt,
            "--out", str(tmp_path / "p"))
        pruned = (tmp_path / "p" / "pruned_alpha0.5.ckpt").read_bytes()
        bad = tmp_path / "bad.ckpt"
        bad.write_bytes(rewrite_header(pruned, lambda h: h["ema"]["refs"].reverse()))
        capsys.readouterr()
        rc = main(["finetune", "--config", cfg_path, "--checkpoint", str(bad),
                   "--out", str(tmp_path / "ft")])
        assert rc == 1
        assert capsys.readouterr().err.startswith(f"error: {bad}: bad ledger: refs: ")
        assert not (tmp_path / "ft" / "finetuned.ckpt").exists()

    @pytest.mark.parametrize("kind", ["missing", "directory"])
    def test_unreadable_checkpoint_fails_closed(self, pipeline, tmp_path, capsys, kind):
        _, cfg_path, _ = pipeline
        bad = tmp_path / "nope.ckpt"
        if kind == "directory":
            bad.mkdir()
        rc = main(["eval", "--config", cfg_path, "--checkpoint", str(bad),
                   "--out", str(tmp_path / "ev")])
        assert rc == 1
        assert capsys.readouterr().err.startswith(f"error: {bad}: cannot read")

    @pytest.mark.parametrize("kind, needle", [
        ("missing", "cannot read"), ("directory", "cannot read"),
        ("latin-1", "not a UTF-8 CSV file"),
    ])
    def test_unreadable_csv_fails_closed(self, pipeline, tmp_path, capsys, kind, needle):
        root, _, ckpt = pipeline
        csv_path = tmp_path / "series.csv"
        if kind == "directory":
            csv_path.mkdir()
        elif kind == "latin-1":
            csv_path.write_bytes("temp\u00b0C,b\n1,2\n".encode("latin-1"))
        cfg = json.loads((root / "cfg.json").read_text())
        cfg["data"]["csv"] = str(csv_path)
        del cfg["data"]["synth"]
        rc = main(["eval", "--config", write_config(tmp_path, cfg),
                   "--checkpoint", ckpt, "--out", str(tmp_path / "ev")])
        assert rc == 1
        assert capsys.readouterr().err.startswith(f"error: {csv_path}: {needle}")

    def test_unknown_channels_fail_closed(self, pipeline, tmp_path, capsys):
        root, _, ckpt = pipeline
        cfg = json.loads((root / "cfg.json").read_text())
        cfg["data"]["channels"] = ["sine0", "nope"]
        rc = main(["eval", "--config", write_config(tmp_path, cfg),
                   "--checkpoint", ckpt, "--out", str(tmp_path / "ev")])
        assert rc == 1
        assert capsys.readouterr().err == \
            "error: data.channels: no such channels ['nope']\n"

    @pytest.mark.parametrize("kind", ["missing-checkpoint", "unknown-channel"])
    def test_failed_run_leaves_no_out(self, pipeline, tmp_path, capsys, kind):
        root, _, ckpt = pipeline
        cfg = json.loads((root / "cfg.json").read_text())
        if kind == "missing-checkpoint":
            ckpt = str(tmp_path / "nope.ckpt")
        else:
            cfg["data"]["channels"] = ["nope"]
        rc = main(["eval", "--config", write_config(tmp_path, cfg),
                   "--checkpoint", ckpt, "--out", str(tmp_path / "ev")])
        assert rc == 1
        assert capsys.readouterr().err.startswith("error: ")
        assert not (tmp_path / "ev").exists()

    @pytest.mark.parametrize("out", ["afile", "afile/sub"])
    def test_out_on_a_file_fails_closed(self, pipeline, tmp_path, capsys, out):
        _, cfg_path, ckpt = pipeline
        (tmp_path / "afile").write_text("kept")
        rc = main(["eval", "--config", cfg_path, "--checkpoint", ckpt,
                   "--out", str(tmp_path / out)])
        assert rc == 1
        assert capsys.readouterr().err.startswith(
            f"error: {tmp_path / out}: cannot create the output directory: ")
        assert (tmp_path / "afile").read_text() == "kept"

    def test_checkpoint_config_mismatch_is_explicit(self, pipeline, tmp_path):
        root, cfg_path, ckpt = pipeline
        cfg = json.loads((root / "cfg.json").read_text())
        cfg["model"]["horizon"] = 8
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(cfg))
        rc = main(["eval", "--config", str(bad), "--checkpoint", ckpt,
                   "--out", str(tmp_path)])
        assert rc == 1


class TestConstructorsCheckTheirTables:
    """Library callers meet the same rules as the run config."""

    @pytest.mark.parametrize("build, needle", [
        (lambda: TrainConfig(lr=-1), "train.lr: must be a number >= 0"),
        (lambda: TrainConfig(lr=math.nan), "train.lr: must be a finite number"),
        (lambda: TrainConfig(lr=1e-3, optimizer="foo"), "train.optimizer"),
        (lambda: PruneSchedule(2), "prune.ratio_per_epoch"),
        (lambda: PruneSchedule(0.1, target_param_fraction=5),
         "prune.target_param_fraction"),
        (lambda: PruneSchedule(0.1, epochs=True), "prune.epochs: expected an int"),
        (lambda: ImportanceLedger([("l", "input", 1)], alpha=[0.5]),
         "prune.alpha: expected a number"),
        (lambda: prune_stat(None, [], [], 0.0, 2.0), "prune.act_threshold"),
        (lambda: SplitSpec(5, 3, 2, context_len=4, horizon=3, stride=0),
         "data.split.stride"),
        (lambda: SplitSpec(5, 3, 2, context_len=0, horizon=3), "model.context_len"),
        (lambda: synth_dataset("nope", 0, (10, 1)), "data.synth.kind"),
        (lambda: synth_dataset("ar1", 0, (10, 1), ar_coeff=math.inf),
         "data.synth.ar_coeff: must be a finite number"),
        (lambda: ForecasterConfig(1, 2, 16, 16, 4, 16, 0), "model.horizon"),
        (lambda: ForecasterConfig(1, 3, 16, 16, 4, 16, 4),
         "model.d_model: 16 is not divisible by heads=3"),
    ])
    def test_bad_value_raises_config_error(self, build, needle):
        with pytest.raises(ConfigError, match=re.escape(needle)):
            build()

    def test_numpy_scalars_are_numbers(self):
        cfg = TrainConfig(lr=np.float64(1e-3), batch_size=np.int64(8))
        assert cfg.batch_size == 8
        PruneSchedule(np.float32(0.1), k=np.int32(2), target_param_fraction=np.float64(0.5))


class TestDeterminism:
    def test_rerun_is_byte_identical_except_timings(self, tmp_path):
        cfg = base_config(tmp_path / "a")
        cfg_path = write_config(tmp_path, cfg)
        run("pretrain", "--config", cfg_path)
        run("pretrain", "--config", cfg_path, "--out", str(tmp_path / "b"))
        for name in ("model.ckpt", "pretrain_report.json", "manifest.json"):
            a = (tmp_path / "a" / name).read_bytes()
            b = (tmp_path / "b" / name).read_bytes()
            assert a == b, f"{name} differs between identical runs"


def _compare_runs():
    import importlib.util
    from pathlib import Path

    path = Path(__file__).resolve().parent.parent / "demos" / "compare_runs.py"
    spec = importlib.util.spec_from_file_location("compare_runs", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class TestCompareRuns:
    def make_tree(self, root, files):
        for rel, text in files.items():
            p = root / rel
            p.parent.mkdir(parents=True, exist_ok=True)
            p.write_text(text)
        return root

    def test_identical_trees_except_timings(self, tmp_path, capsys):
        files = {"pretrain/model.ckpt": "w", "eval/eval_report.json": "{}"}
        a = self.make_tree(tmp_path / "a", {**files, "eval/timings.json": "1.0"})
        b = self.make_tree(tmp_path / "b", {**files, "eval/timings.json": "2.0"})
        assert _compare_runs().main([str(a), str(b)]) == 0
        assert capsys.readouterr().out == ""

    def test_differing_and_one_sided_files_listed(self, tmp_path, capsys):
        a = self.make_tree(tmp_path / "a", {
            "x/r.json": '{"mae": 1.5, "pruned": ["q:1", "k:1"], "n": 3}',
            "t.jsonl": '{"j": 1, "pruned": ["q:1"]}\n{"j": 2, "pruned": []}\n',
            "s.csv": "layer,score\nq,0.25\n", "bad.json": "{", "notes.txt": "a",
            "only_a.csv": "", "same": "s"})
        b = self.make_tree(tmp_path / "b", {
            "x/r.json": '{"mae": 1.75, "pruned": ["q:1", "k:1"], "n": 3}',
            "t.jsonl": '{"j": 1, "pruned": ["k:1"]}\n{"j": 2, "pruned": []}\n',
            "s.csv": "layer,score\nq,0.5\nk,1\n", "bad.json": "{}", "notes.txt": "b",
            "same": "s"})
        model = Forecaster(ForecasterConfig(**PINNED_MODEL), seed=1)
        save_checkpoint(model, str(a / "m.ckpt"))
        model.head.b[1] += 0.25
        save_checkpoint(model, str(b / "m.ckpt"))
        assert _compare_runs().main([str(a), str(b)]) == 1
        out = capsys.readouterr().out.splitlines()
        assert out[0].startswith("bad.json (unparsed: ")
        assert out[1:] == ["m.ckpt (masks match, max |Δ params| 0.25)", "notes.txt",
                           f"only_a.csv (only in {a})",
                           "s.csv (max |Δ numbers| 0.25, other fields differ)",
                           "t.jsonl (max |Δ numbers| 0, other fields differ)",
                           "x/r.json (max |Δ numbers| 0.25, other fields match)"]


# Drawn values stay small: no example builds a large table. Strings come
# from the config's own vocabulary and a short fixed alphabet, so none names
# a real file.
CONFIG_TEXT = st.sampled_from(["sines", "ar1", "sine0", "sine1", "gelu", "relu",
                               "importance", "masked"]) | st.text("abcs0._", max_size=6)
CONFIG_FLOATS = st.floats(-64, 64) | st.sampled_from([math.nan, math.inf, -math.inf])
config_scalars = (st.none() | st.booleans() | st.integers(-64, 64)
                  | CONFIG_FLOATS | CONFIG_TEXT)


def config_containers(inner):
    """Lists and string-keyed dicts of ``inner``: the branches of ``config_values``.

    A named function, not a lambda: hypothesis checks that ``extend`` uses
    its argument by parsing ``inspect.getsource`` of it. For a multi-line
    lambda here, that check once reported the argument unused, a warning
    that the error filter turned into a failure; a def's source is its
    whole body.
    """
    return st.lists(inner, max_size=3) | st.dictionaries(CONFIG_TEXT, inner, max_size=3)


config_values = config_scalars | st.recursive(config_scalars, config_containers, max_leaves=6)
# out_dir would send artifacts elsewhere; data.csv would read a drawn path
NOT_DRAWN = {("out_dir",), ("data", "csv")}


def same_type_values(original):
    """Values of the original's JSON type: these probe ranges, not types."""
    for kind, values in ((bool, st.booleans()), (int, st.integers(-64, 64)),
                         (float, CONFIG_FLOATS),
                         (str, CONFIG_TEXT)):
        if isinstance(original, kind):
            return values
    return config_values


def config_paths(node, path=()):
    """Every path from the config root to a node, the root and containers too."""
    yield path
    keys = sorted(node) if isinstance(node, dict) else \
        range(len(node)) if isinstance(node, list) else ()
    for key in keys:
        if path + (key,) not in NOT_DRAWN:
            yield from config_paths(node[key], path + (key,))


@pytest.fixture(scope="module")
def property_root(pipeline, tmp_path_factory):
    return tmp_path_factory.mktemp("prop"), pipeline[2]


class TestConfigProperty:
    @given(data=st.data())
    def test_eval_on_edited_config_exits_cleanly(self, property_root, data):
        """One value of a valid config replaced by a drawn JSON value: eval
        exits 0, or 1 with an error line, and never raises."""
        root, ckpt = property_root
        cfg = base_config(root / "default-out")
        cfg["data"]["channels"] = ["sine0", "sine1"]
        cfg["data"]["schema"] = {"frequency": "h"}
        cfg["prune"]["alpha"] = [0.5]
        path = data.draw(st.sampled_from(list(config_paths(cfg))))
        parent = cfg
        for key in path[:-1]:
            parent = parent[key]
        original = parent[path[-1]] if path else cfg
        value = data.draw(same_type_values(original) | config_values)
        if path:
            parent[path[-1]] = value
        else:
            cfg = value
        (root / "run.json").write_text(json.dumps(cfg))
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            rc = main(["eval", "--config", str(root / "run.json"), "--checkpoint", ckpt,
                       "--out", str(root / "ev")])
        assert (rc, err.getvalue()[:7]) in ((0, ""), (1, "error: "))
