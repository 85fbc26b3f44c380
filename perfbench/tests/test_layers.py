"""A traced run over a tiny model: metrics come out and every wrapper goes."""

import json
from pathlib import Path

import numpy as np
import pytest

from prunecast import (analysis, autodiff, checkpoint, cli, data, model,
                       pruning, slicing, training)

import layers
import run
import shapes
from spans import Tracer

MODULES = (analysis, autodiff, autodiff.Tape, checkpoint, cli, data, model.Forecaster,
           pruning, pruning.PerSampleGrads, slicing, slicing.SlicedForecaster,
           training, training.Adam, training.Sgd)
BENCHMARK = Path(__file__).resolve().parents[2] / "BENCHMARK.json"


def tiny():
    cfg = model.ForecasterConfig(layers=1, heads=2, d_model=8, d_ffn=16,
                                 patch_len=4, context_len=16, horizon=4)
    return model.Forecaster(cfg, seed=0)


def exercise(tmp_path: Path):
    """One prune step, a sliced finetune epoch and a checkpoint round trip."""
    table = data.synth_dataset("planted_redundancy", 0, (120, 2))
    spec = data.SplitSpec(0.7, 0.15, 0.15, context_len=16, horizon=4)
    train, val = (data.make_windows(table, spec, p) for p in ("train", "val"))
    net = tiny()
    pruning.progressive_prune(net, train.subset(np.arange(8)),
                              pruning.PruneSchedule(0.1, batch_size=8), alpha=0.5)
    sliced = slicing.slice_pruned(net)
    training.finetune(sliced, train.subset(np.arange(8)), val.subset(np.arange(4)),
                      training.TrainConfig(lr=1e-3, batch_size=4, max_epochs=1))
    checkpoint.save_checkpoint(net, str(tmp_path / "m.ckpt"))
    checkpoint.load_checkpoint(str(tmp_path / "m.ckpt"))
    return net, sliced


def test_traced_run_reports_layers_and_removes_every_wrapper(tmp_path):
    before = {id(owner): dict(vars(owner)) for owner in MODULES}
    tracer = Tracer()
    layers.install(tracer)
    try:
        exercise(tmp_path)
    finally:
        tracer.uninstall()
    for owner in MODULES:
        now = vars(owner)
        assert all(now[k] is v for k, v in before[id(owner)].items()), owner

    m = layers.span_metrics(tracer.finished_spans())
    assert set(m) == set(layers.METRICS) - set(layers.MEASURED)
    assert m["pruning.batches"] == 1
    assert m["pruning.removed"] > 0
    assert m["training.epochs.finetune"] == 1
    assert m["checkpoint.loads"] == 1
    assert m["checkpoint.bytes"] == (tmp_path / "m.ckpt").stat().st_size
    assert m["data.synth_calls"] == 1 and m["data.make_windows_calls"] == 2
    assert m["autodiff.op_calls.matmul"] > 0 and m["autodiff.nodes_per_step"] > 0
    assert m["slicing.forward_tape_s"] > 0 and m["model.forward_tape_s"] > 0
    assert m["training.val_eval_s"] > 0


def test_unpruned_slice_has_the_dense_flops():
    net = tiny()
    dense = shapes.dense_shapes(net, batch=3)
    assert shapes.flops(shapes.sliced_shapes(slicing.slice_pruned(net), 3)) == shapes.flops(dense)
    assert shapes.matmul_floor_s(dense, repeats=2) > 0


def test_benchmark_json_lists_what_the_runs_print():
    spec = json.loads(BENCHMARK.read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.E2E
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == layers.METRICS
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    assert bounds["setup_s"] == max(bounds.values())
    assert all(0 < b <= 0.25 for b in bounds.values())
