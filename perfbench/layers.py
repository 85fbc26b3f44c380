"""The public entry points the traced run wraps, one group per prunecast
module, and the per-layer metrics derived from the spans they record.

Every call inside the program that reaches one of these functions goes
through the module or class attribute (``ad.matmul``, ``from .training
import finetune`` inside a CLI command), so wrapping the attribute sees it.
"""

from __future__ import annotations

import os
from collections import defaultdict

from prunecast import (analysis, autodiff, checkpoint, cli, data, model,
                       pruning, slicing, training)

from spans import Span, Tracer, ancestors, self_times

CLI_STAGES = ("pretrain", "analyze", "prune", "finetune", "eval", "bench")
# The tape ops with metrics of their own; the other ops are not wrapped.
OPS = ("matmul", "mul", "add", "gelu", "softmax_rows", "layer_norm",
       "slice_last", "concat_last", "gather_last", "scatter_last")

# Metric name -> unit, in the order results are printed. The last five are
# measured by the workloads rather than read from spans.
METRICS: dict[str, str] = {}
METRICS.update({f"cli.stage_s.{s}": "s" for s in CLI_STAGES})
METRICS.update({"data.synth_calls": "count", "data.make_windows_calls": "count",
                "data.busy_s": "s",
                "autodiff.backward_s": "s", "autodiff.nodes_per_step": "count"})
METRICS.update({f"autodiff.op_calls.{op}": "count" for op in OPS})
METRICS.update({f"autodiff.op_fwd_s.{op}": "s" for op in OPS})
METRICS.update({
    "model.forward_tape_s": "s", "model.forward_notape_s": "s",
    "slicing.slice_s": "s", "slicing.forward_tape_s": "s",
    "slicing.forward_notape_s": "s",
    "pruning.per_sample_grads_s": "s", "pruning.stacked_s": "s",
    "pruning.score_s": "s", "pruning.prune_step_s": "s",
    "pruning.refs": "count", "pruning.batches": "count", "pruning.removed": "count",
    "training.optimizer_s": "s", "training.val_eval_s": "s",
    "training.epochs.pretrain": "count", "training.epochs.finetune": "count",
    "analysis.head_norms_s": "s", "analysis.activation_probs_s": "s",
    "analysis.forward_passes": "count",
    "checkpoint.save_s": "s", "checkpoint.load_s": "s",
    "checkpoint.bytes": "B", "checkpoint.loads": "count",
})
METRICS.update({
    "model.fwd_over_floor": "ratio", "slicing.fwd_over_floor": "ratio",
    "slicing.flop_fraction": "ratio", "process.minflt_per_step": "count",
    "trace.overhead_ratio": "ratio",
})
MEASURED = ("model.fwd_over_floor", "slicing.fwd_over_floor",
            "slicing.flop_fraction", "process.minflt_per_step",
            "trace.overhead_ratio")


def _forward_label(prefix: str):
    def label(args, kwargs):
        tape = kwargs.get("tape", args[2] if len(args) > 2 else None)
        return f"{prefix}.forward_{'notape' if tape is None else 'tape'}"
    return label


def _saved_bytes(args, kwargs, result):
    return os.path.getsize(kwargs.get("path", args[1] if len(args) > 1 else None))


def install(tracer: Tracer) -> None:
    """Wrap the public entry points of every prunecast module."""
    tracer.wrap(cli, "main", "cli.stage",
                label=lambda a, k: f"cli.stage.{(a[0] if a else k['argv'])[0]}")
    for fn in ("synth_dataset", "make_windows", "load_csv"):
        tracer.wrap(data, fn, f"data.{fn}")
    for op in OPS:
        tracer.wrap(autodiff, op, f"autodiff.op.{op}")
    tracer.wrap(autodiff.Tape, "backward", "autodiff.backward",
                note=lambda a, k, r: len(a[0].nodes))
    tracer.wrap(model.Forecaster, "forward_batch", "", label=_forward_label("model"))
    tracer.wrap(slicing, "slice_pruned", "slicing.slice")
    tracer.wrap(slicing.SlicedForecaster, "forward_batch", "",
                label=_forward_label("slicing"))
    for fn in ("per_sample_grads", "raw_importance", "ema_update", "prune_stat"):
        tracer.wrap(pruning, fn, f"pruning.{fn}")
    tracer.wrap(pruning.PerSampleGrads, "stacked", "pruning.stacked")
    tracer.wrap(pruning, "prune_step", "pruning.prune_step",
                note=lambda a, k, r: len(r))
    tracer.wrap(pruning, "progressive_prune", "pruning.progressive_prune",
                note=lambda a, k, r: len(r[0].refs))
    tracer.wrap(training, "finetune", "training.finetune",
                note=lambda a, k, r: len(r[1]))
    for fn in ("evaluate", "bench_inference"):
        tracer.wrap(training, fn, f"training.{fn}")
    for cls in (training.Adam, training.Sgd):
        tracer.wrap(cls, "step", "training.optimizer")
    for fn in ("collect_head_norms", "collect_activation_probs", "magnitude_cdf",
               "write_head_norms_csv", "write_ffn_probs_csv",
               "write_magnitude_cdf_csv"):
        tracer.wrap(analysis, fn, f"analysis.{fn}")
    tracer.wrap(checkpoint, "save_checkpoint", "checkpoint.save", note=_saved_bytes)
    tracer.wrap(checkpoint, "load_checkpoint", "checkpoint.load")


def span_metrics(spans: list[Span]) -> dict[str, float]:
    """Every span-derived metric of ``METRICS``; zero where a layer was idle.

    Times are inclusive (the call and everything it called) except
    ``autodiff.op_fwd_s.*`` and ``data.busy_s``, which are self times.
    """
    selfs = self_times(spans)
    incl: dict[str, float] = defaultdict(float)
    own: dict[str, float] = defaultdict(float)
    calls: dict[str, int] = defaultdict(int)
    notes: dict[str, list] = defaultdict(list)
    data_self = 0.0
    val_eval = 0.0
    epochs = {"pretrain": 0, "finetune": 0}
    for i, (name, start, end, _, value) in enumerate(spans):
        incl[name] += end - start
        own[name] += selfs[i]
        calls[name] += 1
        if name.startswith("data."):
            data_self += selfs[i]
        if value is not None:
            notes[name].append(value)
        if name == "training.evaluate" and "training.finetune" in ancestors(spans, i):
            val_eval += end - start
        if name == "training.finetune":
            kind = "pretrain" if "cli.stage.pretrain" in ancestors(spans, i) else "finetune"
            epochs[kind] += value or 0

    m = {f"cli.stage_s.{s}": incl[f"cli.stage.{s}"] for s in CLI_STAGES}
    m["data.synth_calls"] = calls["data.synth_dataset"]
    m["data.make_windows_calls"] = calls["data.make_windows"]
    m["data.busy_s"] = data_self
    m["autodiff.backward_s"] = incl["autodiff.backward"]
    nodes = notes["autodiff.backward"]
    m["autodiff.nodes_per_step"] = sum(nodes) / len(nodes) if nodes else 0
    for op in OPS:
        m[f"autodiff.op_calls.{op}"] = calls[f"autodiff.op.{op}"]
    for op in OPS:
        m[f"autodiff.op_fwd_s.{op}"] = own[f"autodiff.op.{op}"]
    for prefix in ("model", "slicing"):
        m[f"{prefix}.forward_tape_s"] = incl[f"{prefix}.forward_tape"]
        m[f"{prefix}.forward_notape_s"] = incl[f"{prefix}.forward_notape"]
    m["slicing.slice_s"] = incl["slicing.slice"]
    m["pruning.per_sample_grads_s"] = incl["pruning.per_sample_grads"]
    m["pruning.stacked_s"] = incl["pruning.stacked"]
    m["pruning.score_s"] = incl["pruning.raw_importance"] + incl["pruning.ema_update"]
    m["pruning.prune_step_s"] = incl["pruning.prune_step"]
    m["pruning.refs"] = max(notes["pruning.progressive_prune"], default=0)
    m["pruning.batches"] = calls["pruning.per_sample_grads"]
    m["pruning.removed"] = sum(notes["pruning.prune_step"])
    m["training.optimizer_s"] = incl["training.optimizer"]
    m["training.val_eval_s"] = val_eval
    m["training.epochs.pretrain"] = epochs["pretrain"]
    m["training.epochs.finetune"] = epochs["finetune"]
    m["analysis.head_norms_s"] = incl["analysis.collect_head_norms"]
    m["analysis.activation_probs_s"] = incl["analysis.collect_activation_probs"]
    m["analysis.forward_passes"] = (calls["analysis.collect_head_norms"]
                                    + calls["analysis.collect_activation_probs"])
    m["checkpoint.save_s"] = incl["checkpoint.save"]
    m["checkpoint.load_s"] = incl["checkpoint.load"]
    m["checkpoint.bytes"] = sum(notes["checkpoint.save"])
    m["checkpoint.loads"] = calls["checkpoint.load"]
    return m
