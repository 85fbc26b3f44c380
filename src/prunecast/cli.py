"""Command-line pipeline: pretrain, analyze, prune, finetune, eval, bench, transfer.

Heavy imports happen inside functions so the PRUNECAST_THREADS cap can be
exported to the BLAS thread-pool environment variables before numpy loads.
Every command writes its artifacts plus a manifest under --out; wall-clock
figures go to a separate timings.json so re-runs stay byte-identical.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import os
import sys
import time
from pathlib import Path

from .errors import ConfigError, PrunecastError

THREAD_ENV_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                   "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")


def _apply_thread_cap() -> None:
    cap = os.environ.get("PRUNECAST_THREADS")
    if cap:
        for var in THREAD_ENV_VARS:
            os.environ.setdefault(var, cap)


# --------------------------------------------------------------------- config

_NUM = (int, float)

# section -> key -> (types, required, default)
_SCHEMA = {
    "model": {
        "layers": (int, True, None), "heads": (int, True, None),
        "d_model": (int, True, None), "d_ffn": (int, True, None),
        "patch_len": (int, True, None), "context_len": (int, True, None),
        "horizon": (int, True, None),
        "norm": (str, False, "layernorm"),
        "activation": (str, False, "gelu"),
        "attention": (str, False, "bidirectional"),
    },
    "data": {
        "csv": (str, False, None), "synth": (dict, False, None),
        "schema": (dict, False, None),
        "channels": (list, False, None), "channel_prefix": (str, False, None),
        "split": (dict, True, None),
    },
    "prune": {
        "variant": (str, False, "importance"),
        "ratio_per_epoch": (_NUM, False, 0.1), "epochs": (int, False, 1),
        "batch_size": (int, False, 64), "k": (int, False, None),
        "alpha": ((int, float, list), False, 0.5),
        "head_threshold": (_NUM, False, 0.01), "act_threshold": (_NUM, False, 0.01),
        "target_param_fraction": (_NUM, False, None),
    },
    "train": {
        "lr": (_NUM, True, None), "batch_size": (int, False, 32),
        "max_epochs": (int, False, 10), "patience": (int, False, 1),
        "optimizer": (str, False, "adam"),
        "update_norm_params": (bool, False, True),
        "normalized_metrics": (bool, False, True),
        "mode": (str, False, "sliced"),
    },
}

_SPLIT_SCHEMA = {"train": (_NUM, True, None), "val": (_NUM, True, None),
                 "test": (_NUM, True, None), "stride": (int, False, 1)}
_SYNTH_SCHEMA = {"kind": (str, True, None), "seed": (int, False, 0),
                 "n_points": (int, True, None), "n_channels": (int, True, None),
                 "ar_coeff": (_NUM, False, 0.8)}
_DATA_SCHEMA_SCHEMA = {"timestamp_column": ((str, int, type(None)), False, None),
                       "frequency": (str, False, None)}

_VARIANTS = ("importance", "stat", "stat_then_importance")
_MODES = ("sliced", "masked")


def _check_section(name: str, raw: dict, schema: dict, errors: list[str]) -> dict:
    out = {}
    for key in raw:
        if key not in schema:
            errors.append(f"{name}: unknown key {key!r}")
    for key, (types, required, default) in schema.items():
        if key in raw:
            value = raw[key]
            if isinstance(value, bool) and types in (_NUM, int):
                errors.append(f"{name}.{key}: expected a number, got a bool")
            elif not isinstance(value, types):
                errors.append(f"{name}.{key}: expected {types}, got {type(value).__name__}")
            out[key] = value
        elif required:
            errors.append(f"{name}.{key}: missing required key")
        else:
            out[key] = default
    return out


def validate_config(raw: dict) -> dict:
    """Normalize a run config, rejecting unknown keys; lists every violation."""
    errors: list[str] = []
    if not isinstance(raw, dict):
        raise ConfigError("config root must be a JSON object")
    known = set(_SCHEMA) | {"out_dir", "seed"}
    for key in raw:
        if key not in known:
            errors.append(f"unknown top-level key {key!r}")

    cfg: dict = {"seed": raw.get("seed", 0)}
    if not isinstance(cfg["seed"], int):
        errors.append("seed: expected an int")
    if "out_dir" not in raw:
        errors.append("out_dir: missing required key")
    elif not isinstance(raw["out_dir"], str):
        errors.append("out_dir: expected a string path")
    else:
        cfg["out_dir"] = raw["out_dir"]

    for section, schema in _SCHEMA.items():
        if section not in raw:
            cfg[section] = None
            continue
        if not isinstance(raw[section], dict):
            errors.append(f"{section}: expected an object")
            cfg[section] = None
            continue
        cfg[section] = _check_section(section, raw[section], schema, errors)

    data = cfg.get("data")
    if data:
        if isinstance(data.get("split"), dict):
            from .data import split_problems

            data["split"] = _check_section("data.split", data["split"],
                                           _SPLIT_SCHEMA, errors)
            errors.extend(split_problems(data["split"]))
        if data.get("synth") is not None:
            data["synth"] = _check_section("data.synth", data["synth"],
                                           _SYNTH_SCHEMA, errors)
        if data.get("schema") is not None:
            data["schema"] = _check_section("data.schema", data["schema"],
                                            _DATA_SCHEMA_SCHEMA, errors)
        if (data.get("csv") is None) == (data.get("synth") is None):
            errors.append("data: exactly one of csv/synth is required")
        if data.get("channels") is not None and data.get("channel_prefix") is not None:
            errors.append("data: channels and channel_prefix are mutually exclusive")

    if cfg.get("model"):
        from .model import config_problems

        errors.extend(config_problems(cfg["model"]))
    prune = cfg.get("prune")
    if prune and prune["variant"] not in _VARIANTS:
        errors.append(f"prune.variant: must be one of {_VARIANTS}")
    train = cfg.get("train")
    if train and train["mode"] not in _MODES:
        errors.append(f"train.mode: must be one of {_MODES}")

    if errors:
        raise ConfigError("invalid config:\n  " + "\n  ".join(sorted(errors)))
    return cfg


def config_hash(cfg: dict) -> str:
    semantic = {k: v for k, v in cfg.items() if k != "out_dir"}
    blob = json.dumps(semantic, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def load_config(path: str) -> dict:
    try:
        with open(path, encoding="utf-8") as f:
            raw = json.load(f)
    except FileNotFoundError:
        raise ConfigError(f"config file not found: {path}") from None
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path} is not valid JSON: {exc}") from exc
    return validate_config(raw)


# ------------------------------------------------------------------ plumbing


def _require(cfg: dict, *sections: str) -> None:
    missing = [s for s in sections if cfg.get(s) is None]
    if missing:
        raise ConfigError(f"this command needs config section(s): {', '.join(missing)}")


def _write_json(path: Path, obj) -> None:
    path.write_text(json.dumps(obj, sort_keys=True, indent=2) + "\n",
                    encoding="utf-8")


def _write_manifest(out: Path, command: str, cfg: dict, artifacts: list[str]) -> None:
    import numpy
    from . import __version__

    manifest = {
        "command": command,
        "config_hash": config_hash(cfg),
        "seed": cfg["seed"],
        "versions": {"python": sys.version.split()[0],
                     "numpy": numpy.__version__,
                     "prunecast": __version__},
        "artifacts": sorted(artifacts),
    }
    _write_json(out / "manifest.json", manifest)


def _build_table(data_cfg: dict):
    from .data import load_csv, synth_dataset

    if data_cfg.get("csv"):
        table = load_csv(data_cfg["csv"], data_cfg.get("schema"))
    else:
        synth = data_cfg["synth"]
        table = synth_dataset(synth["kind"], synth["seed"],
                              (synth["n_points"], synth["n_channels"]),
                              ar_coeff=synth["ar_coeff"])
    if data_cfg.get("channels"):
        table = table.select(data_cfg["channels"])
    elif data_cfg.get("channel_prefix"):
        names = [n for n in table.names if n.startswith(data_cfg["channel_prefix"])]
        if not names:
            raise ConfigError(f"no channels match prefix {data_cfg['channel_prefix']!r}")
        table = table.select(names)
    return table


def _split_spec(data_cfg: dict, context_len: int, horizon: int):
    from .data import SplitSpec

    s = data_cfg["split"]
    return SplitSpec(s["train"], s["val"], s["test"], context_len=context_len,
                     horizon=horizon, stride=s["stride"])


def _windows(cfg: dict, context_len: int, horizon: int, part: str):
    from .data import make_windows

    table = _build_table(cfg["data"])
    return make_windows(table, _split_spec(cfg["data"], context_len, horizon), part)


def _train_config(cfg: dict):
    from .training import TrainConfig

    t = cfg["train"]
    return TrainConfig(lr=t["lr"], batch_size=t["batch_size"],
                       max_epochs=t["max_epochs"], patience=t["patience"],
                       optimizer=t["optimizer"], seed=cfg["seed"],
                       update_norm_params=t["update_norm_params"])


def _load_model(checkpoint: str, cfg: dict):
    from .checkpoint import load_checkpoint
    from .model import ForecasterConfig

    model = load_checkpoint(checkpoint)
    if cfg.get("model") is not None:
        wanted = ForecasterConfig(**cfg["model"]).to_dict()
        if wanted != model.cfg.to_dict():
            raise ConfigError(
                "checkpoint/model config mismatch: checkpoint was built with "
                f"{model.cfg.to_dict()}, config asks for {wanted}")
    return model


def _model_config(cfg: dict):
    from .model import ForecasterConfig

    return ForecasterConfig(**cfg["model"])


# ------------------------------------------------------------------ commands


def cmd_pretrain(cfg: dict, out: Path) -> list[str]:
    from .checkpoint import save_checkpoint
    from .model import Forecaster
    from .training import evaluate, finetune

    _require(cfg, "model", "data", "train")
    t0 = time.perf_counter()
    mc = _model_config(cfg)
    train_ws = _windows(cfg, mc.context_len, mc.horizon, "train")
    val_ws = _windows(cfg, mc.context_len, mc.horizon, "val")
    model = Forecaster(mc, seed=cfg["seed"])
    model, history = finetune(model, train_ws, val_ws, _train_config(cfg))
    save_checkpoint(model, str(out / "model.ckpt"))
    report = {"history": history,
              "val_mse": evaluate(model, val_ws,
                                  cfg["train"]["normalized_metrics"]).mse,
              "param_fraction": model.param_fraction()}
    _write_json(out / "pretrain_report.json", report)
    _write_json(out / "timings.json", {"wall_seconds": time.perf_counter() - t0})
    return ["model.ckpt", "pretrain_report.json"]


def cmd_analyze(cfg: dict, out: Path, checkpoint: str) -> list[str]:
    from .analysis import (collect_activation_probs, collect_head_norms,
                           sparse_channel_fraction, write_ffn_probs_csv,
                           write_head_norms_csv, write_magnitude_cdf_csv)

    _require(cfg, "data")
    t0 = time.perf_counter()
    model = _load_model(checkpoint, cfg)
    ws = _windows(cfg, model.cfg.context_len, model.cfg.horizon, "train")
    head_stats = collect_head_norms(model, ws)
    act_stats = collect_activation_probs(model, ws)
    write_head_norms_csv(str(out / "head_norms.csv"), head_stats)
    write_ffn_probs_csv(str(out / "ffn_probs.csv"), act_stats)
    write_magnitude_cdf_csv(str(out / "magnitude_cdf.csv"), model, "element")
    summary = {
        "sparse_channel_fraction_at_5pct": sparse_channel_fraction(act_stats, 0.05),
        "mean_head_norm_per_layer": [s.means().mean() for s in head_stats],
        "skipped_tokens": [s.skipped for s in head_stats],
    }
    _write_json(out / "analysis_summary.json", summary)
    _write_json(out / "timings.json", {"wall_seconds": time.perf_counter() - t0})
    return ["head_norms.csv", "ffn_probs.csv", "magnitude_cdf.csv",
            "analysis_summary.json"]


def _prune_one(model, cfg: dict, alpha: float, windows):
    from .analysis import collect_activation_probs, collect_head_norms
    from .pruning import (ImportanceLedger, PruneSchedule, progressive_prune,
                          prune_stat)

    p = cfg["prune"]
    trace = None
    if p["variant"] in ("stat", "stat_then_importance"):
        head_stats = collect_head_norms(model, windows)
        act_stats = collect_activation_probs(model, windows)
        prune_stat(model, head_stats, act_stats,
                   p["head_threshold"], p["act_threshold"])
    if p["variant"] in ("importance", "stat_then_importance"):
        schedule = PruneSchedule(ratio_per_epoch=p["ratio_per_epoch"],
                                 epochs=p["epochs"], batch_size=p["batch_size"],
                                 k=p["k"], seed=cfg["seed"],
                                 target_param_fraction=p["target_param_fraction"])
        _, trace = progressive_prune(model, windows, schedule, alpha=alpha)
    else:
        model.ledger = ImportanceLedger.from_model(model, alpha)
    return trace


def cmd_prune(cfg: dict, out: Path, checkpoint: str) -> list[str]:
    import csv as csv_mod

    from .checkpoint import save_checkpoint

    _require(cfg, "data", "prune")
    t0 = time.perf_counter()
    alphas = cfg["prune"]["alpha"]
    if not isinstance(alphas, list):
        alphas = [alphas]
    artifacts: list[str] = []
    summary = []
    for alpha in alphas:
        model = _load_model(checkpoint, cfg)
        ws = _windows(cfg, model.cfg.context_len, model.cfg.horizon, "train")
        trace = _prune_one(model, cfg, float(alpha), ws)
        tag = f"alpha{alpha}"
        ckpt_name = f"pruned_{tag}.ckpt"
        save_checkpoint(model, str(out / ckpt_name))
        artifacts.append(ckpt_name)
        if trace is not None:
            trace_name = f"trace_{tag}.jsonl"
            (out / trace_name).write_text(trace.to_jsonl(), encoding="utf-8")
            artifacts.append(trace_name)
        scores_name = f"scores_{tag}.csv"
        with open(out / scores_name, "w", newline="", encoding="utf-8") as f:
            w = csv_mod.writer(f)
            w.writerow(["layer", "side", "index", "ema_score", "alive"])
            for row in model.ledger.scores_csv_rows():
                w.writerow(row)
        artifacts.append(scores_name)
        summary.append({"alpha": alpha, "checkpoint": ckpt_name,
                        "param_fraction": model.param_fraction(),
                        "pruned_channels": int((~model.ledger.alive).sum())})
    _write_json(out / "prune_report.json", {"runs": summary})
    artifacts.append("prune_report.json")
    _write_json(out / "timings.json", {"wall_seconds": time.perf_counter() - t0})
    return artifacts


def cmd_finetune(cfg: dict, out: Path, checkpoint: str) -> list[str]:
    from .checkpoint import save_checkpoint
    from .training import finetune

    _require(cfg, "data", "train")
    t0 = time.perf_counter()
    model = _load_model(checkpoint, cfg)
    train_ws = _windows(cfg, model.cfg.context_len, model.cfg.horizon, "train")
    val_ws = _windows(cfg, model.cfg.context_len, model.cfg.horizon, "val")
    _, history = finetune(model, train_ws, val_ws, _train_config(cfg))
    save_checkpoint(model, str(out / "finetuned.ckpt"))
    _write_json(out / "finetune_history.json",
                {"history": history, "mode": cfg["train"]["mode"],
                 "param_fraction": model.param_fraction()})
    _write_json(out / "timings.json", {"wall_seconds": time.perf_counter() - t0})
    return ["finetuned.ckpt", "finetune_history.json"]


def cmd_report(cfg: dict, out: Path, checkpoint: str, report: str) -> list[str]:
    """Evaluate on the test part; eval and transfer differ only in ``report``."""
    from .training import evaluate

    _require(cfg, "data")
    t0 = time.perf_counter()
    model = _load_model(checkpoint, cfg)
    ws = _windows(cfg, model.cfg.context_len, model.cfg.horizon, "test")
    normalized = cfg["train"]["normalized_metrics"] if cfg.get("train") else True
    result = evaluate(model, ws, normalized=normalized)
    _write_json(out / report, result.to_dict())
    _write_json(out / "timings.json",
                {"wall_seconds": time.perf_counter() - t0,
                 "inference_seconds": result.inference_seconds})
    return [report]


def cmd_bench(cfg: dict, out: Path, checkpoint: str,
              repeats: int = 50, warmup: int = 3) -> list[str]:
    from .slicing import slice_pruned
    from .training import bench_inference

    _require(cfg, "data")
    t0 = time.perf_counter()
    model = _load_model(checkpoint, cfg)
    ws = _windows(cfg, model.cfg.context_len, model.cfg.horizon, "test")
    # all variates at one timestep form the batch
    n_channels = len(set(ws.channels.tolist()))
    per_channel = len(ws) // n_channels
    batch = ws.contexts[::per_channel][:n_channels]
    original = bench_inference(model, batch, repeats=repeats, warmup=warmup)
    sliced = bench_inference(slice_pruned(model), batch, repeats=repeats,
                             warmup=warmup)
    _write_json(out / "bench_report.json",
                {"repeats": repeats, "warmup": warmup, "batch": original["batch"],
                 "param_fraction": model.param_fraction()})
    _write_json(out / "timings.json",
                {"wall_seconds": time.perf_counter() - t0,
                 "original_mean_s": original["mean_s"],
                 "original_std_s": original["std_s"],
                 "sliced_mean_s": sliced["mean_s"],
                 "sliced_std_s": sliced["std_s"],
                 "speedup": original["mean_s"] / sliced["mean_s"]})
    return ["bench_report.json"]


# ---------------------------------------------------------------------- main

_COMMANDS = {
    "pretrain": (cmd_pretrain, False),
    "analyze": (cmd_analyze, True),
    "prune": (cmd_prune, True),
    "finetune": (cmd_finetune, True),
    "eval": (functools.partial(cmd_report, report="eval_report.json"), True),
    "bench": (cmd_bench, True),
    "transfer": (functools.partial(cmd_report, report="transfer_report.json"), True),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="prunecast",
        description="Structured prune-then-finetune pipeline for transformer "
                    "forecasters")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, needs_ckpt) in _COMMANDS.items():
        p = sub.add_parser(name)
        p.add_argument("--config", required=True, help="run config JSON")
        p.add_argument("--seed", type=int, default=None, help="override config seed")
        p.add_argument("--out", default=None, help="override config out_dir")
        if needs_ckpt:
            p.add_argument("--checkpoint", required=True,
                           help="input checkpoint path")
    return parser


def main(argv: list[str] | None = None) -> int:
    _apply_thread_cap()
    args = build_parser().parse_args(argv)
    try:
        cfg = load_config(args.config)
        if args.seed is not None:
            cfg["seed"] = args.seed
        if args.out is not None:
            cfg["out_dir"] = args.out
        out = Path(cfg["out_dir"])
        out.mkdir(parents=True, exist_ok=True)
        fn, needs_ckpt = _COMMANDS[args.command]
        if needs_ckpt:
            artifacts = fn(cfg, out, args.checkpoint)
        else:
            artifacts = fn(cfg, out)
        _write_manifest(out, args.command, cfg, artifacts + ["manifest.json"])
    except PrunecastError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
