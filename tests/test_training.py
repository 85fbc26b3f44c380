"""Trainer tests: convergence oracle, grad freezing, metrics, early stop."""

import math

import numpy as np
import pytest

from prunecast import autodiff as ad
from prunecast.checkpoint import load_checkpoint, save_checkpoint, tensor_index
from prunecast.data import WindowSet
from prunecast.errors import ConfigError, TrainingDivergedError
from prunecast.model import Forecaster, ForwardContext, MaskedLinear
from prunecast.pruning import PruneSchedule, progressive_prune
from prunecast.slicing import slice_pruned
from prunecast.training import (CLIP_NORM, Sgd, TrainConfig, batch_loss, bench_inference,
                                evaluate, finetune, make_optimizer)

from test_model import tiny_config
from test_pruning import training_windows
from test_slicing import has_pads, pad_entries, stored_layout


def split_windows(ws, n_val):
    n = len(ws)
    idx = np.arange(n)
    return ws.subset(idx[:-n_val]), ws.subset(idx[-n_val:])


def masked_tape_finetune(model, train, val, cfg):
    """Reference trainer on the masked tape forward: the gradients of pruned
    coordinates are zeroed after backward, and the model itself is trained,
    snapshotted and restored. ``finetune`` trains the sliced twin instead and
    must agree with this loop."""
    optimizer = make_optimizer(cfg)
    rng = np.random.default_rng(cfg.seed)
    history, best_val, bad_epochs = [], np.inf, 0
    best = model.params.copy()
    grad = np.zeros_like(model.params)
    grads = dict(model.views(grad))
    for epoch in range(cfg.max_epochs):
        order = rng.permutation(len(train))
        losses = []
        for b in range(0, len(train), cfg.batch_size):
            idx = order[b:b + cfg.batch_size]
            tape = ad.Tape()
            loss, fp = batch_loss(model, train.contexts[idx], train.targets[idx], tape=tape)
            tape.backward(loss)
            for name, leaf in fp.ctx.param_leaves.items():
                grads[name][...] = tape.grad(leaf)
            for layer in model.linears():
                grads[f"{layer.layer_id}.w"] *= np.outer(layer.m_in, layer.m_out)
                if layer.b is not None:
                    grads[f"{layer.layer_id}.b"] *= layer.m_out
            if not cfg.update_norm_params:
                for name in grads:
                    if name.endswith((".gain", ".offset")):
                        grads[name][...] = 0.0
            total = math.sqrt(sum(float((g * g).sum())
                                  for g in map(grads.get, fp.ctx.param_leaves)))
            if total > CLIP_NORM:
                grad *= CLIP_NORM / total
            optimizer.step(model.params, grad)
            losses.append(loss.item())
        val_mse = evaluate(model, val).mse
        history.append({"epoch": epoch, "train_loss": float(np.mean(losses)),
                        "val_mse": val_mse})
        if val_mse < best_val:
            best_val, bad_epochs = val_mse, 0
            best = model.params.copy()
        else:
            bad_epochs += 1
            if bad_epochs >= cfg.patience:
                break
    model.params[...] = best
    return model, history


def assert_one_vector(model):
    """Every weight, bias, gain and offset the model computes with is the
    view of ``model.params`` at its ``tensor_index`` offset, and so is each
    array ``named_params`` gives; together they cover the vector."""
    used = {}
    for layer in model.linears():
        used[f"{layer.layer_id}.w"] = layer.w
        if layer.b is not None:
            used[f"{layer.layer_id}.b"] = layer.b
    for norm in model.norms():
        used[f"{norm.name}.gain"] = norm.gain
        if norm.offset is not None:
            used[f"{norm.name}.offset"] = norm.offset
    index = tensor_index(model)
    assert [spec["name"] for spec in index] == list(used)
    start = model.params.__array_interface__["data"][0]
    for spec, (name, view) in zip(index, model.named_params()):
        for arr in (used[name], view):
            assert np.shares_memory(arr, model.params), name
            assert arr.__array_interface__["data"][0] - start == spec["offset"], name
            assert arr.shape == tuple(spec["shape"]) and arr.flags.c_contiguous, name
    assert index[-1]["offset"] + 8 * used[index[-1]["name"]].size == 8 * model.params.size


class TestParameterVector:
    @pytest.mark.parametrize("sliced", [False, True], ids=["masked", "sliced"])
    def test_forward_lifts_weights_and_biases_in_layout_order(self, rng, sliced):
        """The clip norm is summed in ``param_leaves`` order, so its bits
        depend on it: a forward lifts each layer's weight, then its bias,
        layer by layer as ``layout`` lists them."""
        model = Forecaster(tiny_config(), seed=5)
        net = slice_pruned(model) if sliced else model
        fp = net.forward_batch(rng.normal(size=(2, model.cfg.context_len)), tape=ad.Tape())
        lifted = [name for name in fp.ctx.param_leaves if name.endswith((".w", ".b"))]
        assert lifted == [name for name, _, _ in net.layout if name.endswith((".w", ".b"))]

    def test_every_parameter_stays_a_view_of_params(self, tmp_path):
        assert_one_vector(Forecaster(tiny_config(norm="rmsnorm"), seed=None))
        model = Forecaster(tiny_config(), seed=5)
        assert_one_vector(model)
        ws = training_windows()
        schedule = PruneSchedule(ratio_per_epoch=0.1, epochs=2, batch_size=64, seed=0)
        progressive_prune(model, ws, schedule, alpha=0.5)
        path = str(tmp_path / "m.ckpt")
        save_checkpoint(model, path)
        assert_one_vector(load_checkpoint(path))
        assert_one_vector(model.clone())
        sliced = slice_pruned(model)
        assert_one_vector(sliced)
        assert has_pads(sliced) and sliced.params.size < model.params.size
        train, val = split_windows(ws, 40)
        cfg = TrainConfig(lr=1e-3, batch_size=64, max_epochs=1, seed=2)
        before = model.params.copy()
        finetune(model, train, val, cfg)  # slices, trains and writes back
        assert_one_vector(model)
        assert not np.array_equal(model.params, before)
        finetune(sliced, train, val, cfg)
        assert_one_vector(sliced)


class TestOptimizers:
    def test_sgd_fits_two_x(self, rng):
        """Convex least-squares: one linear layer fitting y = 2x."""
        params, grad = np.zeros(2), np.zeros(2)
        layer = MaskedLinear("fit", params[:1].reshape(1, 1), params[1:])
        x = rng.uniform(-1, 1, (16, 1))
        y = 2.0 * x
        opt = Sgd(lr=0.1)
        loss_val = None
        for _ in range(500):
            tape = ad.Tape()
            ctx = ForwardContext(tape, grads={"fit.w": grad[:1].reshape(1, 1), "fit.b": grad[1:]})
            pred = layer.forward(ad.constant(x), ctx)
            loss = ad.mse_loss(pred, ad.constant(y))
            tape.backward(loss)
            opt.step(params, grad)
            loss_val = loss.item()
        assert loss_val < 1e-4
        assert abs(layer.w[0, 0] - 2.0) < 1e-2

    def test_zero_lr_changes_nothing(self):
        model = Forecaster(tiny_config(), seed=3)
        before = {n: a.copy() for n, a in model.named_params()}
        ws = training_windows()
        train, val = split_windows(ws, 40)
        cfg = TrainConfig(lr=0.0, batch_size=64, max_epochs=3, patience=3, seed=1)
        _, history = finetune(model, train, val, cfg)
        for name, arr in model.named_params():
            np.testing.assert_array_equal(arr, before[name])
        losses = [h["train_loss"] for h in history]
        # flat up to batch-partition floating error (shuffling regroups windows)
        assert losses == pytest.approx([losses[0]] * len(losses), rel=1e-2)
        vals = [h["val_mse"] for h in history]
        assert vals == [vals[0]] * len(vals)


class TestFinetune:
    def test_masked_coordinates_frozen(self):
        model = Forecaster(tiny_config(), seed=5)
        ws = training_windows()
        schedule = PruneSchedule(ratio_per_epoch=0.1, epochs=1, batch_size=64, seed=0)
        progressive_prune(model, ws, schedule, alpha=0.5)

        dead = {}
        for layer in model.linears():
            dead[layer.layer_id] = (np.outer(layer.m_in == 0, np.ones(layer.d_out, bool))
                                    | np.outer(np.ones(layer.d_in, bool), layer.m_out == 0))
        before = {n: a.copy() for n, a in model.named_params()}
        train, val = split_windows(ws, 40)
        finetune(model, train, val, TrainConfig(lr=1e-3, batch_size=64,
                                                max_epochs=2, patience=2, seed=2))
        changed_something = False
        for layer in model.linears():
            w0 = before[f"{layer.layer_id}.w"]
            mask = dead[layer.layer_id]
            np.testing.assert_array_equal(layer.w[mask], w0[mask])
            if (~mask).any() and not np.array_equal(layer.w[~mask], w0[~mask]):
                changed_something = True
            b0 = before.get(f"{layer.layer_id}.b")
            if b0 is not None:
                np.testing.assert_array_equal(layer.b[layer.m_out == 0],
                                              b0[layer.m_out == 0])
        assert changed_something

    @pytest.mark.parametrize("overrides, train_overrides", [
        ({}, {}),
        ({"attention": "causal", "norm": "rmsnorm", "activation": "relu"},
         {"optimizer": "sgd", "lr": 2e-2, "update_norm_params": False}),
    ], ids=["default", "causal-rmsnorm-relu-sgd-frozen-norms"])
    def test_matches_masked_tape_training(self, overrides, train_overrides):
        model = Forecaster(tiny_config(**overrides), seed=5)
        ws = training_windows()
        schedule = PruneSchedule(ratio_per_epoch=0.1, epochs=1, batch_size=64, seed=0)
        progressive_prune(model, ws, schedule, alpha=0.5)
        assert model.param_fraction() < 1.0
        reference = model.clone()
        train, val = split_windows(ws, 40)
        cfg = TrainConfig(**{"lr": 1e-3, "batch_size": 64, "max_epochs": 3,
                             "patience": 2, "seed": 2, **train_overrides})
        tuned, history = finetune(model, train, val, cfg)
        assert tuned is model
        _, ref_history = masked_tape_finetune(reference, train, val, cfg)
        assert len(history) == len(ref_history)
        for got, want in zip(history, ref_history):
            assert got["epoch"] == want["epoch"]
            assert abs(got["train_loss"] - want["train_loss"]) <= 1e-9
            assert abs(got["val_mse"] - want["val_mse"]) <= 1e-9
        for (name, got), (_, want) in zip(model.named_params(), reference.named_params()):
            np.testing.assert_allclose(got, want, rtol=0, atol=1e-9, err_msg=name)

    def test_sliced_training_writes_back_consistently(self):
        model = Forecaster(tiny_config(), seed=5)
        ws = training_windows()
        # two prune epochs leave alive channels outside an intersection
        schedule = PruneSchedule(ratio_per_epoch=0.1, epochs=2, batch_size=64, seed=0)
        progressive_prune(model, ws, schedule, alpha=0.5)
        before = {n: a.copy() for n, a in model.named_params()}

        sliced = slice_pruned(model)
        train, val = split_windows(ws, 40)
        finetune(sliced, train, val, TrainConfig(lr=1e-3, batch_size=64,
                                                 max_epochs=1, patience=1, seed=2))
        sliced.write_back(model)
        unstored = 0
        for layer, twin in zip(model.linears(), sliced.linears()):
            mask = (np.outer(layer.m_in == 0, np.ones(layer.d_out, bool))
                    | np.outer(np.ones(layer.d_in, bool), layer.m_out == 0))
            np.testing.assert_array_equal(layer.w[mask],
                                          before[f"{layer.layer_id}.w"][mask])
            # pads stay exactly zero; alive coordinates the twin does not
            # store keep their bits
            for key, got, stored, alive in stored_layout(layer, twin):
                assert (pad_entries(twin, key, getattr(twin, key)) == 0.0).all()
                left = alive & ~stored
                np.testing.assert_array_equal(got[left],
                                              before[f"{layer.layer_id}.{key}"][left])
                unstored += int(left.sum())
        assert unstored and has_pads(sliced)
        # masked and sliced twins still agree after write-back
        test = ws.subset(np.arange(50))
        r_masked = evaluate(model, test)
        r_sliced = evaluate(sliced, test)
        assert abs(r_masked.mse - r_sliced.mse) <= 1e-9
        assert abs(r_masked.mae - r_sliced.mae) <= 1e-9

    def test_best_snapshot_returned(self):
        model = Forecaster(tiny_config(), seed=7)
        ws = training_windows()
        train, val = split_windows(ws, 60)
        cfg = TrainConfig(lr=3e-3, batch_size=64, max_epochs=5, patience=2, seed=3)
        model, history = finetune(model, train, val, cfg)
        best = min(h["val_mse"] for h in history)
        assert evaluate(model, val).mse == pytest.approx(best, rel=1e-12)

    def test_nan_aborts_with_diagnostics(self):
        model = Forecaster(tiny_config(), seed=7)
        model.head.w[0, 0] = np.nan
        ws = training_windows()
        train, val = split_windows(ws, 40)
        with pytest.raises(TrainingDivergedError, match="epoch 0.*lr"):
            finetune(model, train, val, TrainConfig(lr=1e-3, seed=0))

    def test_seeded_run_reproduces_bitwise(self):
        ws = training_windows()
        train, val = split_windows(ws, 40)

        def run():
            model = Forecaster(tiny_config(), seed=9)
            cfg = TrainConfig(lr=1e-3, batch_size=48, max_epochs=2, patience=2, seed=4)
            model, history = finetune(model, train, val, cfg)
            return history, {n: a.copy() for n, a in model.named_params()}

        h1, p1 = run()
        h2, p2 = run()
        assert h1 == h2
        for name in p1:
            np.testing.assert_array_equal(p1[name], p2[name])


class TestEvaluate:
    def test_perfect_prediction_zero_error(self):
        model = Forecaster(tiny_config(), seed=1)
        rng = np.random.default_rng(5)
        contexts = rng.normal(0, 1, (8, model.cfg.context_len))
        targets = model.predict(contexts)
        ws = WindowSet(contexts, targets, np.zeros(8, dtype=np.intp), ["c"])
        rep = evaluate(model, ws)
        assert rep.mse == pytest.approx(0.0, abs=1e-28)
        assert rep.mae == pytest.approx(0.0, abs=1e-14)

    def test_constant_zero_vs_alternating_targets(self):
        model = Forecaster(tiny_config(), seed=1)
        model.head.w[...] = 0.0
        model.head.b[...] = 0.0
        L, hz = model.cfg.context_len, model.cfg.horizon
        context = np.tile([1.0, -1.0], L // 2)  # mean 0, std exactly 1
        target = np.tile([1.0, -1.0], hz // 2)
        ws = WindowSet(context[None, :], target[None, :],
                       np.zeros(1, dtype=np.intp), ["c"])
        rep = evaluate(model, ws)
        assert rep.mse == pytest.approx(1.0)
        assert rep.mae == pytest.approx(1.0)

    def test_raw_scale_flag(self):
        model = Forecaster(tiny_config(), seed=1)
        rng = np.random.default_rng(6)
        contexts = 5.0 + 3.0 * rng.normal(0, 1, (4, model.cfg.context_len))
        targets = rng.normal(0, 1, (4, model.cfg.horizon))
        ws = WindowSet(contexts, targets, np.zeros(4, dtype=np.intp), ["c"])
        raw = evaluate(model, ws, normalized=False)
        norm = evaluate(model, ws, normalized=True)
        assert raw.mse != pytest.approx(norm.mse)
        err = model.predict(contexts) - targets
        assert raw.mse == pytest.approx(float((err ** 2).mean()))

    def test_empty_set_rejected(self):
        model = Forecaster(tiny_config(), seed=1)
        ws = WindowSet(np.zeros((0, 24)), np.zeros((0, 6)),
                       np.zeros(0, dtype=np.intp), [])
        with pytest.raises(ConfigError, match="empty"):
            evaluate(model, ws)


class TestBench:
    def test_reports_timing_stats(self, rng):
        model = Forecaster(tiny_config(), seed=2)
        windows = rng.normal(0, 1, (4, model.cfg.context_len))
        out = bench_inference(model, windows, repeats=5, warmup=1)
        assert out["runs"] == 5 and out["batch"] == 4
        assert out["mean_s"] > 0.0 and out["std_s"] >= 0.0
