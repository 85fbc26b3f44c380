"""Acceptance suite: each criterion prints one pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines live.
"""

import json
import os
import subprocess
import sys
import time
from contextlib import contextmanager
from pathlib import Path

import numpy as np
from scipy.stats import spearmanr

from prunecast import autodiff as ad
from prunecast.autodiff import Tape
from prunecast.data import SplitSpec, make_windows, synth_dataset
from prunecast.model import Forecaster, ForecasterConfig, ForwardContext, MaskedLinear
from prunecast.pruning import (ChannelRef, ImportanceLedger, PruneSchedule,
                               oracle_importance, per_sample_grads,
                               progressive_prune, prune_stat, raw_importance,
                               taylor2_importance)
from prunecast.slicing import slice_pruned
from prunecast.training import TrainConfig, evaluate, finetune
from prunecast.analysis import collect_activation_probs, collect_head_norms

from conftest import assert_grads_close, plant_dead_ffn_channels, \
    plant_dead_head
from test_slicing import brute_force_surviving, prune_random_channels


@contextmanager
def criterion(num: int, name: str):
    try:
        yield
    except Exception:
        print(f"\n[criterion {num:02d}] FAIL  {name}")
        raise
    print(f"\n[criterion {num:02d}] PASS  {name}")


def test_01_gradient_correctness():
    """Every parameter and mask gradient vs central finite differences."""
    with criterion(1, "gradient correctness on the 2-layer forecaster"):
        start = time.perf_counter()
        cfg = ForecasterConfig(layers=2, heads=4, d_model=32, d_ffn=64,
                               patch_len=4, context_len=32, horizon=4)
        model = Forecaster(cfg, seed=5)
        rng = np.random.default_rng(17)
        contexts = rng.uniform(-2, 2, (2, cfg.context_len))
        targets = rng.uniform(-1, 1, (2, cfg.horizon))

        tape = Tape()
        fp = model.forward_batch(contexts, tape=tape)
        t_norm = fp.normalized_targets(targets)
        loss = ad.mse_loss(fp.pred_norm, ad.constant(t_norm))
        tape.backward(loss)

        def loss_value() -> float:
            f = model.forward_batch(contexts)
            return float(((f.pred_norm.data - f.normalized_targets(targets)) ** 2).mean())

        def fd_sweep(arr: np.ndarray, analytic: np.ndarray, label: str, h=1e-5):
            it = np.nditer(arr, flags=["multi_index"])
            for _ in it:
                idx = it.multi_index
                orig = arr[idx]
                arr[idx] = orig + h
                fp_ = loss_value()
                arr[idx] = orig - h
                fm_ = loss_value()
                arr[idx] = orig
                assert_grads_close(analytic[idx], (fp_ - fm_) / (2 * h),
                                   rtol=1e-4, label=f"{label}{idx}")

        for name, arr in model.named_params():
            fd_sweep(arr, tape.grad(fp.ctx.param_leaves[name]), name)
        for layer in model.linears():
            m_in_leaf, m_out_leaf = fp.ctx.mask_leaves[layer.layer_id]
            fd_sweep(layer.m_in, tape.grad(m_in_leaf), f"{layer.layer_id}.m_in")
            fd_sweep(layer.m_out, tape.grad(m_out_leaf), f"{layer.layer_id}.m_out")

        elapsed = time.perf_counter() - start
        print(f"  checked all gradients in {elapsed:.1f}s")
        assert elapsed < 60.0


def test_02_mask_identity_equivalence():
    """1000 randomized (layer, mask, input) triples satisfy the two-form identity."""
    with criterion(2, "mask identity f(x*m_in)*m_out == x(W*m_in^T m_out)+b*m_out"):
        rng = np.random.default_rng(23)
        worst = 0.0
        for _ in range(1000):
            d_in = int(rng.integers(1, 12))
            d_out = int(rng.integers(1, 12))
            layer = MaskedLinear("t", rng.normal(0, 1.5, (d_in, d_out)),
                                 rng.normal(0, 1.0, d_out) if rng.integers(2) else None)
            layer.m_in = (rng.random(d_in) >= 0.3).astype(np.float64)
            layer.m_out = (rng.random(d_out) >= 0.3).astype(np.float64)
            x = rng.normal(0, 2, (int(rng.integers(1, 5)), d_in))
            tape = Tape()
            masked = layer.forward(tape.watch(x), ForwardContext(tape)).data
            worst = max(worst, float(np.abs(masked - layer.folded_forward(x)).max()))
        print(f"  max elementwise gap over 1000 triples: {worst:.2e}")
        assert worst <= 1e-12


def test_03_slicing_exactness():
    """30% pruned: sliced vs masked forward, and exact #p accounting."""
    with criterion(3, "slicing exactness and parameter accounting at 30% pruning"):
        rng = np.random.default_rng(31)
        cfg = ForecasterConfig(layers=2, heads=4, d_model=16, d_ffn=32,
                               patch_len=4, context_len=32, horizon=8)
        model = Forecaster(cfg, seed=8)
        prune_random_channels(model, 0.3, rng)
        sliced = slice_pruned(model)
        windows = rng.normal(0, 1, (100, cfg.context_len))
        gap = float(np.abs(sliced.predict(windows) - model.predict(windows)).max())
        print(f"  max |masked - sliced| over 100 windows: {gap:.2e}")
        assert gap <= 1e-9
        surviving = brute_force_surviving(model)
        assert sliced.param_count() == surviving
        assert sliced.param_fraction() == surviving / model.total_param_count()


def test_04_taylor2_quadratic_exactness():
    """Taylor-2 importance equals the brute-force delta on a quadratic loss."""
    with criterion(4, "Taylor-2 equals the zeroing oracle on quadratic losses"):
        rng = np.random.default_rng(41)
        n = 24
        q = rng.normal(0, 1, (n, n))
        q = q + q.T
        b = rng.normal(0, 1, n)
        m = np.ones(n)

        def loss(mv):
            return 0.5 * mv @ q @ mv + b @ mv - 1.7

        grad = q @ m + b
        est = taylor2_importance(grad, np.diag(q))
        worst = 0.0
        for i in range(n):
            e = np.zeros(n)
            e[i] = 1.0
            worst = max(worst, abs(est[i] - abs(loss(m - e) - loss(m))))
        print(f"  max |estimate - oracle| per channel: {worst:.2e}")
        assert worst <= 1e-10


def _planted_model():
    cfg = ForecasterConfig(layers=1, heads=2, d_model=8, d_ffn=12,
                           patch_len=4, context_len=24, horizon=4)
    model = Forecaster(cfg, seed=11)
    dead_ffn = [2, 5, 9]
    plant_dead_ffn_channels(model, 0, dead_ffn)
    plant_dead_head(model, 0, 1)
    g = model.head_group(1)
    dead = {ChannelRef("block0.ffn.down", "input", c) for c in dead_ffn}
    dead |= {ChannelRef("block0.attn.o", "input", i) for i in range(g.start, g.stop)}
    return model, dead


def _task_windows(n_points=500, L=24, hz=4, seed=3):
    table = synth_dataset("sines", seed, (n_points, 2))
    spec = SplitSpec(n_points, 0.0, 0.0, context_len=L, horizon=hz)
    return make_windows(table, spec, "train")


def test_05_oracle_agreement_on_model():
    """Dead channels score ~0, are pruned first; rank correlation reported."""
    with criterion(5, "planted-dead-channel scores, order, and Spearman floor"):
        model, dead_refs = _planted_model()
        ws = _task_windows()
        batch = ws.subset(np.arange(128))

        grads = per_sample_grads(model, batch.contexts, batch.targets)
        ledger = ImportanceLedger.from_model(model, alpha=0.5)
        scores = raw_importance(grads.stacked(ledger))
        position = {r: i for i, r in enumerate(ledger.refs)}
        for ref in dead_refs:
            assert scores[position[ref]] <= 1e-8

        oracle = np.array([oracle_importance(model, batch, r) for r in ledger.refs])
        rho = spearmanr(scores, oracle).statistic
        print(f"  Spearman(fisher scores, oracle deltas) over "
              f"{len(ledger.refs)} channels: {rho:.3f}")
        if rho < 0.5:
            print("  note: below the 0.5 sanity level (hard floor is 0.2)")
        assert rho >= 0.2

        deltas = {r: oracle[i] for i, r in enumerate(ledger.refs)}
        schedule = PruneSchedule(ratio_per_epoch=0.15, epochs=1,
                                 batch_size=64, seed=5)
        _, trace = progressive_prune(model, ws, schedule, alpha=0.5)
        order = trace.pruned_refs()
        assert dead_refs <= set(order)
        seen_useful = False
        for ref in order:
            if deltas.get(ref, 0.0) > 1e-3:
                seen_useful = True
            if ref in dead_refs:
                assert not seen_useful, f"{ref} pruned after a useful channel"


def test_06_progressive_determinism():
    """Identical seed and schedule give identical pruned sets and traces."""
    with criterion(6, "progressive pruning determinism"):
        ws = _task_windows()

        def run():
            cfg = ForecasterConfig(layers=2, heads=2, d_model=8, d_ffn=16,
                                   patch_len=4, context_len=24, horizon=4)
            model = Forecaster(cfg, seed=4)
            schedule = PruneSchedule(ratio_per_epoch=0.1, epochs=2,
                                     batch_size=64, seed=9)
            _, trace = progressive_prune(model, ws, schedule, alpha=0.4)
            return trace

        t1, t2 = run(), run()
        assert set(t1.pruned_refs()) == set(t2.pruned_refs())
        assert t1.to_jsonl() == t2.to_jsonl()
        print(f"  identical traces over {len(t1.records)} batches, "
              f"{len(t1.pruned_refs())} channels pruned")


def test_07_prune_stat_semantics():
    """Zeroed-value head removed at 1%; threshold sweep is monotone."""
    with criterion(7, "prune_stat head removal and threshold monotonicity"):
        cfg = ForecasterConfig(layers=2, heads=4, d_model=16, d_ffn=24,
                               patch_len=4, context_len=24, horizon=4,
                               activation="relu")
        base = Forecaster(cfg, seed=13)
        plant_dead_head(base, 0, 2)
        rng = np.random.default_rng(3)
        windows = rng.normal(0, 1, (16, cfg.context_len))
        head_stats = collect_head_norms(base, windows)
        act_stats = collect_activation_probs(base, windows)

        model = base.clone()
        pruned = prune_stat(model, head_stats, act_stats,
                            head_threshold=0.01, act_threshold=0.0)
        g = base.head_group(2)
        expect = {ChannelRef("block0.attn.o", "input", i)
                  for i in range(g.start, g.stop)}
        assert expect <= set(pruned)
        assert (model.blocks[0].wo.m_in[g] == 0.0).all()

        previous: set = set()
        for thr in (0.0, 0.005, 0.01, 0.02):
            trial = base.clone()
            got = set(prune_stat(trial, head_stats, act_stats, thr, thr))
            assert previous <= got, f"sweep not monotone at {thr}"
            previous = got
        print(f"  head removed at 1%; sweep sizes monotone up to {len(previous)}")


def test_08_inference_speedup():
    """Slicing half the heads and FFN channels speeds up single-thread CPU."""
    with criterion(8, "sliced single-thread forward speedup >= 1.3x"):
        env = dict(os.environ)
        for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                    "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS",
                    "VECLIB_MAXIMUM_THREADS"):
            env[var] = "1"
        script = Path(__file__).with_name("bench_speedup.py")
        proc = subprocess.run([sys.executable, str(script)], env=env,
                              capture_output=True, text=True, timeout=600)
        assert proc.returncode == 0, proc.stderr
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        print(f"  original {result['original_mean_s'] * 1e3:.1f} ms, "
              f"sliced {result['sliced_mean_s'] * 1e3:.1f} ms, "
              f"speedup {result['speedup']:.2f}x, "
              f"#p {result['param_fraction']:.2f}")
        assert result["exactness"] <= 1e-9
        assert result["speedup"] >= 1.3


def test_09_end_to_end_prune_then_finetune(tmp_path):
    """Prune-to-<=70%-params then fine-tune matches plain fine-tuning."""
    with criterion(9, "end-to-end prune-then-finetune analog"):
        start = time.perf_counter()
        cfg = ForecasterConfig(layers=2, heads=4, d_model=32, d_ffn=64,
                               patch_len=8, context_len=96, horizon=24)
        mix = synth_dataset("planted_redundancy", 7, (2600, 8))
        spec = SplitSpec(0.7, 0.15, 0.15, context_len=96, horizon=24)
        train_mix = make_windows(mix, spec, "train")
        val_mix = make_windows(mix, spec, "val")

        model = Forecaster(cfg, seed=1)
        model, _ = finetune(model, train_mix, val_mix,
                            TrainConfig(lr=3e-3, batch_size=128, max_epochs=8,
                                        patience=3, seed=1))

        task = mix.select([n for n in mix.names if n.startswith("taskA")])
        tr = make_windows(task, spec, "train")
        va = make_windows(task, spec, "val")
        te = make_windows(task, spec, "test")
        budget = TrainConfig(lr=2e-3, batch_size=128, max_epochs=8,
                             patience=3, seed=2)

        plain = model.clone()
        plain, _ = finetune(plain, tr, va, budget)
        report_a = evaluate(plain, te)

        pruned = model.clone()
        schedule = PruneSchedule(ratio_per_epoch=0.15, epochs=4, batch_size=128,
                                 target_param_fraction=0.68, seed=3)
        progressive_prune(pruned, tr, schedule, alpha=0.5)
        assert pruned.param_fraction() <= 0.70
        sliced = slice_pruned(pruned)
        sliced, _ = finetune(sliced, tr, va, budget)
        sliced.write_back(pruned)
        report_b = evaluate(pruned, te)

        (tmp_path / "finetune_only_report.json").write_text(
            json.dumps(report_a.to_dict(), indent=2))
        (tmp_path / "prune_then_finetune_report.json").write_text(
            json.dumps(report_b.to_dict(), indent=2))

        ratio = report_b.mse / report_a.mse
        elapsed = time.perf_counter() - start
        print(f"  (a) finetune-only MSE {report_a.mse:.5f}  "
              f"(b) prune+finetune MSE {report_b.mse:.5f}  "
              f"ratio {ratio:.3f}  #p {report_b.param_fraction:.3f}  "
              f"{elapsed:.0f}s")
        assert ratio <= 1.10
        assert elapsed < 600.0


def test_10_transfer_workflow(tmp_path):
    """Prune on a source task, evaluate zero-shot on a sibling task."""
    with criterion(10, "source-to-sibling zero-shot transfer"):
        cfg = ForecasterConfig(layers=1, heads=2, d_model=16, d_ffn=16,
                               patch_len=4, context_len=24, horizon=6)
        source = synth_dataset("sines", 5, (500, 3))
        spec = SplitSpec(0.7, 0.15, 0.15, context_len=24, horizon=6)
        src_train = make_windows(source, spec, "train")
        src_val = make_windows(source, spec, "val")

        model = Forecaster(cfg, seed=6)
        model, _ = finetune(model, src_train, src_val,
                            TrainConfig(lr=3e-3, batch_size=64, max_epochs=3,
                                        patience=3, seed=1))
        schedule = PruneSchedule(ratio_per_epoch=0.1, epochs=1, batch_size=64, seed=2)
        progressive_prune(model, src_train, schedule, alpha=0.5)

        sibling = synth_dataset("sines", 99, (500, 3))  # same generator, new seed
        target_test = make_windows(sibling, spec, "test")
        report = evaluate(model, target_test)
        (tmp_path / "transfer_report.json").write_text(
            json.dumps(report.to_dict(), indent=2))
        print(f"  zero-shot sibling MSE {report.mse:.5f} over "
              f"{report.n_windows} windows at #p {report.param_fraction:.3f}")
        assert np.isfinite(report.mse) and np.isfinite(report.mae)
        assert report.param_fraction < 1.0
