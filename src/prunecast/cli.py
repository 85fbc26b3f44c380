"""Command-line pipeline: pretrain, analyze, prune, finetune, eval, bench, transfer.

Every command writes its artifacts plus a manifest under --out; wall-clock
figures go to a separate timings.json so re-runs stay byte-identical.
"""

from __future__ import annotations

import argparse
import csv
import functools
import hashlib
import json
import sys
import time
from pathlib import Path

import numpy as np

# Modules, not names: a function looked up on its module at call time is the
# one a test or a tracer has put there.
from . import __version__, analysis, checkpoint, data, pruning, slicing, training
from .errors import ConfigError, Field, PrunecastError, section_problems
from .model import Forecaster, ForecasterConfig, config_problems

# cmd_bench's timing loop
BENCH_REPEATS = 50
BENCH_WARMUP = 3


# --------------------------------------------------------------------- config

def _normalized(d: dict, fields: dict) -> dict:
    """``d`` with every absent key at its default, nested tables too."""
    return {key: _normalized(d[key], f.kind)
            if isinstance(f.kind, dict) and isinstance(d.get(key), dict)
            else d.get(key, f.default) for key, f in fields.items()}


def validate_config(raw: dict) -> dict:
    """Normalize a run config, rejecting unknown keys; lists every violation.
    A section's keys, defaults and rules are the ``FIELDS`` of its module."""
    if not isinstance(raw, dict):
        raise ConfigError("config root must be a JSON object")
    fields = {"seed": Field(int, 0, ">= 0"), "out_dir": Field(str),
              "model": Field(dict, None),  # model.FIELDS, via config_problems
              "data": Field(data.FIELDS, None),
              "prune": Field(pruning.FIELDS, None), "train": Field(training.FIELDS, None)}
    errors = section_problems(raw, fields, where="")
    if isinstance(raw.get("model"), dict):
        errors += config_problems(raw["model"])
    d = raw.get("data")
    if isinstance(d, dict):
        if (d.get("csv") is None) == (d.get("synth") is None):
            errors.append("data: exactly one of csv/synth is required")
        if d.get("channels") is not None and d.get("channel_prefix") is not None:
            errors.append("data: channels and channel_prefix are mutually exclusive")
    if errors:
        raise ConfigError("invalid config:\n  " + "\n  ".join(sorted(errors)))
    cfg = _normalized(raw, fields)
    if cfg["model"] is not None:
        cfg["model"] = ForecasterConfig(**cfg["model"]).to_dict()
    return cfg


def config_hash(cfg: dict) -> str:
    semantic = {k: v for k, v in cfg.items() if k != "out_dir"}
    blob = json.dumps(semantic, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def load_config(path: str, seed: int | None = None) -> dict:
    """Read and validate a run config; ``seed``, when given, replaces the
    config's seed before validation."""
    try:
        with open(path, encoding="utf-8") as f:
            raw = json.load(f)
    except FileNotFoundError:
        raise ConfigError(f"config file not found: {path}") from None
    except OSError as exc:
        raise ConfigError(f"{path}: cannot read: {exc.strerror or exc}") from exc
    except ValueError as exc:  # bad UTF-8 or JSON, or an int past the digit limit
        raise ConfigError(f"{path} is not valid JSON: {exc}") from exc
    if seed is not None and isinstance(raw, dict):
        raw["seed"] = seed
    return validate_config(raw)


# ------------------------------------------------------------------ plumbing


def _write_json(path: Path, obj) -> None:
    path.write_text(json.dumps(obj, sort_keys=True, indent=2) + "\n",
                    encoding="utf-8")


def _write_manifest(out: Path, command: str, cfg: dict, artifacts: list[str]) -> None:
    manifest = {
        "command": command,
        "config_hash": config_hash(cfg),
        "seed": cfg["seed"],
        "versions": {"python": sys.version.split()[0],
                     "numpy": np.__version__,
                     "prunecast": __version__},
        "artifacts": sorted(artifacts),
    }
    _write_json(out / "manifest.json", manifest)


def _windows(data_cfg: dict, mc, parts: tuple[str, ...]) -> dict:
    """Build the data table once and cut every named part from it, windowed
    for the model config ``mc``."""
    if data_cfg.get("csv"):
        table = data.load_csv(data_cfg["csv"], data_cfg.get("schema"))
    else:
        synth = data_cfg["synth"]
        table = data.synth_dataset(synth["kind"], synth["seed"],
                                   (synth["n_points"], synth["n_channels"]),
                                   ar_coeff=synth["ar_coeff"])
    if data_cfg.get("channels"):
        unknown = [n for n in data_cfg["channels"] if n not in table.names]
        if unknown:
            raise ConfigError(f"data.channels: no such channels {unknown}")
        table = table.select(data_cfg["channels"])
    elif data_cfg.get("channel_prefix"):
        names = [n for n in table.names if n.startswith(data_cfg["channel_prefix"])]
        if not names:
            raise ConfigError(f"no channels match prefix {data_cfg['channel_prefix']!r}")
        table = table.select(names)
    s = data_cfg["split"]
    spec = data.SplitSpec(s["train"], s["val"], s["test"], context_len=mc.context_len,
                          horizon=mc.horizon, stride=s["stride"])
    return {part: data.make_windows(table, spec, part) for part in parts}


def _train_config(cfg: dict):
    t = cfg["train"]
    return training.TrainConfig(lr=t["lr"], batch_size=t["batch_size"],
                                max_epochs=t["max_epochs"], patience=t["patience"],
                                optimizer=t["optimizer"], seed=cfg["seed"],
                                update_norm_params=t["update_norm_params"])


def _load_model(path: str, cfg: dict):
    model = checkpoint.load_checkpoint(path)
    if cfg["model"] is not None and cfg["model"] != model.cfg.to_dict():
        raise ConfigError(
            "checkpoint/model config mismatch: checkpoint was built with "
            f"{model.cfg.to_dict()}, config asks for {cfg['model']}")
    return model


# ------------------------------------------------------------------ commands
#
# Each command takes the validated config, the output directory, the model
# and the windows ``main`` cut for it (part name -> WindowSet). It writes its
# artifacts and returns their names together with any timing fields beyond
# ``wall_seconds`` for timings.json.


def cmd_pretrain(cfg: dict, out: Path, model, ws: dict) -> tuple[list[str], dict]:
    model, history = training.finetune(model, ws["train"], ws["val"], _train_config(cfg))
    checkpoint.save_checkpoint(model, str(out / "model.ckpt"))
    report = {"history": history,
              "val_mse": training.evaluate(model, ws["val"],
                                           cfg["train"]["normalized_metrics"]).mse,
              "param_fraction": model.param_fraction()}
    _write_json(out / "pretrain_report.json", report)
    return ["model.ckpt", "pretrain_report.json"], {}


def cmd_analyze(cfg: dict, out: Path, model, ws: dict) -> tuple[list[str], dict]:
    head_stats = analysis.collect_head_norms(model, ws["train"])
    act_stats = analysis.collect_activation_probs(model, ws["train"])
    analysis.write_head_norms_csv(str(out / "head_norms.csv"), head_stats)
    analysis.write_ffn_probs_csv(str(out / "ffn_probs.csv"), act_stats)
    analysis.write_magnitude_cdf_csv(str(out / "magnitude_cdf.csv"), model, "element")
    summary = {
        "sparse_channel_fraction_at_5pct": analysis.sparse_channel_fraction(act_stats, 0.05),
        "mean_head_norm_per_layer": [s.means().mean() for s in head_stats],
        "skipped_tokens": [s.skipped for s in head_stats],
    }
    _write_json(out / "analysis_summary.json", summary)
    return ["head_norms.csv", "ffn_probs.csv", "magnitude_cdf.csv",
            "analysis_summary.json"], {}


def _prune_one(model, cfg: dict, alpha: float, windows):
    p = cfg["prune"]
    trace = None
    if p["variant"] in ("stat", "stat_then_importance"):
        head_stats = analysis.collect_head_norms(model, windows)
        act_stats = analysis.collect_activation_probs(model, windows)
        pruning.prune_stat(model, head_stats, act_stats,
                           p["head_threshold"], p["act_threshold"])
    if p["variant"] in ("importance", "stat_then_importance"):
        schedule = pruning.PruneSchedule(ratio_per_epoch=p["ratio_per_epoch"],
                                         epochs=p["epochs"], batch_size=p["batch_size"],
                                         k=p["k"], seed=cfg["seed"],
                                         target_param_fraction=p["target_param_fraction"])
        _, trace = pruning.progressive_prune(model, windows, schedule, alpha=alpha)
    else:
        model.ledger = pruning.ImportanceLedger.from_model(model, alpha)
    return trace


def cmd_prune(cfg: dict, out: Path, model, ws: dict) -> tuple[list[str], dict]:
    """Prune a fresh clone of the loaded model once per ``prune.alpha`` value."""
    alphas = cfg["prune"]["alpha"]
    if not isinstance(alphas, list):
        alphas = [alphas]
    artifacts: list[str] = []
    summary = []
    for alpha in alphas:
        pruned = model.clone()
        trace = _prune_one(pruned, cfg, float(alpha), ws["train"])
        tag = f"alpha{alpha}"
        ckpt_name = f"pruned_{tag}.ckpt"
        checkpoint.save_checkpoint(pruned, str(out / ckpt_name))
        artifacts.append(ckpt_name)
        if trace is not None:
            trace_name = f"trace_{tag}.jsonl"
            (out / trace_name).write_text(trace.to_jsonl(), encoding="utf-8")
            artifacts.append(trace_name)
        scores_name = f"scores_{tag}.csv"
        with open(out / scores_name, "w", newline="", encoding="utf-8") as f:
            w = csv.writer(f)
            w.writerow(["layer", "side", "index", "ema_score", "alive"])
            for row in pruned.ledger.scores_csv_rows():
                w.writerow(row)
        artifacts.append(scores_name)
        summary.append({"alpha": alpha, "checkpoint": ckpt_name,
                        "param_fraction": pruned.param_fraction(),
                        "pruned_channels": int((~pruned.ledger.alive).sum())})
    _write_json(out / "prune_report.json", {"runs": summary})
    artifacts.append("prune_report.json")
    return artifacts, {}


def cmd_finetune(cfg: dict, out: Path, model, ws: dict) -> tuple[list[str], dict]:
    _, history = training.finetune(model, ws["train"], ws["val"], _train_config(cfg))
    checkpoint.save_checkpoint(model, str(out / "finetuned.ckpt"))
    _write_json(out / "finetune_history.json",
                {"history": history, "mode": cfg["train"]["mode"],
                 "param_fraction": model.param_fraction()})
    return ["finetuned.ckpt", "finetune_history.json"], {}


def cmd_report(cfg: dict, out: Path, model, ws: dict,
               report: str) -> tuple[list[str], dict]:
    """Evaluate on the test part; eval and transfer differ only in ``report``."""
    normalized = cfg["train"]["normalized_metrics"] if cfg.get("train") else True
    result = training.evaluate(model, ws["test"], normalized=normalized)
    _write_json(out / report, result.to_dict())
    return [report], {"inference_seconds": result.inference_seconds}


def cmd_bench(cfg: dict, out: Path, model, ws: dict) -> tuple[list[str], dict]:
    test = ws["test"]
    # all variates at one timestep form the batch
    n_channels = len(set(test.channels.tolist()))
    per_channel = len(test) // n_channels
    batch = test.contexts[::per_channel][:n_channels]
    original = training.bench_inference(model, batch, repeats=BENCH_REPEATS,
                                        warmup=BENCH_WARMUP)
    sliced = training.bench_inference(slicing.slice_pruned(model), batch,
                                      repeats=BENCH_REPEATS, warmup=BENCH_WARMUP)
    _write_json(out / "bench_report.json",
                {"repeats": BENCH_REPEATS, "warmup": BENCH_WARMUP, "batch": original["batch"],
                 "param_fraction": model.param_fraction()})
    return ["bench_report.json"], {"original_mean_s": original["mean_s"],
                                   "original_std_s": original["std_s"],
                                   "sliced_mean_s": sliced["mean_s"],
                                   "sliced_std_s": sliced["std_s"],
                                   "speedup": original["mean_s"] / sliced["mean_s"]}


# ---------------------------------------------------------------------- main

# verb -> (command, config sections it needs, window parts it reads). A verb
# that needs the model section builds a fresh model from it; every other verb
# reads --checkpoint instead.
_COMMANDS = {
    "pretrain": (cmd_pretrain, ("model", "data", "train"), ("train", "val")),
    "analyze": (cmd_analyze, ("data",), ("train",)),
    "prune": (cmd_prune, ("data", "prune"), ("train",)),
    "finetune": (cmd_finetune, ("data", "train"), ("train", "val")),
    "eval": (functools.partial(cmd_report, report="eval_report.json"),
             ("data",), ("test",)),
    "bench": (cmd_bench, ("data",), ("test",)),
    "transfer": (functools.partial(cmd_report, report="transfer_report.json"),
                 ("data",), ("test",)),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="prunecast",
        description="Structured prune-then-finetune pipeline for transformer "
                    "forecasters")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, sections, _) in _COMMANDS.items():
        p = sub.add_parser(name)
        p.add_argument("--config", required=True, help="run config JSON")
        p.add_argument("--seed", type=int, default=None, help="override config seed")
        p.add_argument("--out", default=None, help="override config out_dir")
        if "model" not in sections:
            p.add_argument("--checkpoint", required=True,
                           help="input checkpoint path")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    command, sections, parts = _COMMANDS[args.command]
    try:
        cfg = load_config(args.config, seed=args.seed)
        if args.out is not None:
            cfg["out_dir"] = args.out
        missing = [s for s in sections if cfg[s] is None]
        if missing:
            raise ConfigError(f"this command needs config section(s): {', '.join(missing)}")
        t0 = time.perf_counter()
        if "model" in sections:
            model = Forecaster(ForecasterConfig(**cfg["model"]), seed=cfg["seed"])
        else:
            model = _load_model(args.checkpoint, cfg)
        ws = _windows(cfg["data"], model.cfg, parts)
        out = Path(cfg["out_dir"])
        try:
            out.mkdir(parents=True, exist_ok=True)
        except OSError as exc:  # e.g. the path or one of its parents is a file
            raise ConfigError(f"{out}: cannot create the output directory: "
                              f"{exc.strerror or exc}") from exc
        artifacts, timings = command(cfg, out, model, ws)
        _write_json(out / "timings.json",
                    {"wall_seconds": time.perf_counter() - t0, **timings})
        _write_manifest(out, args.command, cfg, artifacts + ["manifest.json"])
    except (PrunecastError, MemoryError) as exc:  # numpy's allocation failures included
        print(f"error: {str(exc) or type(exc).__name__}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
