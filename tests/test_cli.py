"""CLI pipeline tests: validation, identity, determinism, transfer."""

import json

import pytest

from prunecast.cli import config_hash, load_config, main, validate_config
from prunecast.errors import ConfigError


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


def run(*argv):
    rc = main(list(argv))
    assert rc == 0, f"command failed: {argv}"


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
        ("heads", 0, "model.heads: must be positive"),
        ("layers", -1, "model.layers: must be positive"),
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
        assert f"data.split.{part}: must be a finite count or fraction >= 0, got -40" in err
        assert "seed: expected an int" in err
        assert not (tmp_path / "out").exists()

    def test_invalid_json_reported(self, tmp_path):
        p = tmp_path / "bad.json"
        p.write_text("{nope")
        with pytest.raises(ConfigError, match="not valid JSON"):
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


class TestCommands:
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

    def test_checkpoint_config_mismatch_is_explicit(self, pipeline, tmp_path):
        root, cfg_path, ckpt = pipeline
        cfg = json.loads((root / "cfg.json").read_text())
        cfg["model"]["horizon"] = 8
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(cfg))
        rc = main(["eval", "--config", str(bad), "--checkpoint", ckpt,
                   "--out", str(tmp_path)])
        assert rc == 1


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
        a = self.make_tree(tmp_path / "a", {"x/r.json": "1", "only_a.csv": "", "same": "s"})
        b = self.make_tree(tmp_path / "b", {"x/r.json": "2", "same": "s"})
        assert _compare_runs().main([str(a), str(b)]) == 1
        out = capsys.readouterr().out.splitlines()
        assert out == [f"only_a.csv (only in {a})", "x/r.json"]
