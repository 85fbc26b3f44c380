"""Importance scores, EMA, TopK pruning, threshold variant, loss oracle."""

import gc
import weakref

import numpy as np
import pytest

from prunecast import autodiff as ad
from prunecast import pruning, training
from prunecast.analysis import collect_activation_probs, collect_head_norms
from prunecast.data import WindowSet, synth_dataset, make_windows, SplitSpec
from prunecast.errors import ConfigError, PrunecastError, PruneDivergedError
from prunecast.model import Forecaster, ForwardContext, MaskedLinear
from prunecast.pruning import (ChannelRef, ImportanceLedger, PerSampleGrads,
                               PruneSchedule, ema_update,
                               oracle_importance, per_sample_grads,
                               progressive_prune, prune_stat, prune_step,
                               raw_importance, taylor2_importance)
from prunecast.training import TrainConfig, finetune

from conftest import assert_grads_close, plant_dead_ffn_channels, plant_dead_head
from test_model import tiny_config


def small_windows(model, n, rng):
    contexts = rng.normal(0, 1, (n, model.cfg.context_len)) \
        + np.sin(np.arange(model.cfg.context_len) * 0.3)
    targets = rng.normal(0, 1, (n, model.cfg.horizon))
    return WindowSet(contexts, targets, np.zeros(n, dtype=np.intp), ["c"])


def protected_refs(model):
    """I/O-arity channels exempt from pruning: embed inputs, head outputs."""
    out = {ChannelRef("embed", "input", i) for i in range(model.embed.d_in)}
    return out | {ChannelRef("head", "output", j) for j in range(model.head.d_out)}


def training_windows(n_points=400, channels=2, seed=3, L=24, hz=6):
    table = synth_dataset("sines", seed, (n_points, channels))
    spec = SplitSpec(n_points, 0.0, 0.0, context_len=L, horizon=hz)
    return make_windows(table, spec, "train")


class TestRawImportance:
    def test_single_sample_formula(self):
        assert raw_importance(np.array([0.2])) == pytest.approx(0.18)

    def test_zero_gradients_zero_score(self):
        assert raw_importance(np.zeros(5)) == 0.0

    def test_matrix_form(self):
        g = np.array([[0.2, 1.0], [0.2, -1.0]])
        s = raw_importance(g)
        np.testing.assert_allclose(s, [0.18, 0.5])

    def test_empty_batch_rejected(self):
        with pytest.raises(ConfigError, match="at least one sample"):
            raw_importance(np.zeros((0, 3)))


class TestTaylor2:
    def test_quadratic_exactness(self, rng):
        """On L(m) = ½ mᵀQm + bᵀm + c the estimate is the exact loss delta."""
        n = 12
        q = rng.normal(0, 1, (n, n))
        q = q + q.T
        b = rng.normal(0, 1, n)
        m = np.ones(n)

        def loss(mv):
            return 0.5 * mv @ q @ mv + b @ mv + 3.0

        grad = q @ m + b
        estimates = taylor2_importance(grad, np.diag(q))
        for i in range(n):
            e = np.zeros(n)
            e[i] = 1.0
            oracle = abs(loss(m - e) - loss(m))
            assert abs(estimates[i] - oracle) <= 1e-10

    def test_fisher_variant_on_quadratic_surrogate(self):
        """L(m) = Σ c_i (m_i − 1)²: oracle is c_i, the gradient at m=1 is 0."""
        c = np.array([0.4, 1.3, 0.02])
        grad_at_ones = -2 * c * 0.0
        fisher = raw_importance(grad_at_ones[None, :])
        np.testing.assert_array_equal(fisher, np.zeros(3))
        oracle = np.abs(c * (0.0 - 1.0) ** 2)
        np.testing.assert_allclose(oracle, c)


class TestPerSampleGrads:
    def test_handrolled_two_by_two_closed_form(self):
        layer = MaskedLinear("ml", np.array([[0.5, -1.0], [2.0, 0.25]]),
                             np.array([0.1, -0.3]))
        x = np.array([[1.5, -0.7]])
        t = np.array([[0.2, 0.9]])
        tape = ad.Tape()
        ctx = ForwardContext(tape)
        h = layer.forward(ad.constant(x), ctx)
        tape.backward(ad.mse_loss(h, ad.constant(t)))
        m_in_leaf, m_out_leaf = ctx.mask_leaves["ml"]

        y = x @ layer.w + layer.b
        dl_dh = (y - t) * (2.0 / 2.0)  # mean over the two output elements
        expected_m_out = (y * dl_dh)[0]
        expected_m_in = x[0] * (layer.w @ (dl_dh[0] * layer.m_out))
        assert_grads_close(tape.grad(m_out_leaf), expected_m_out, rtol=1e-12,
                           label="m_out")
        assert_grads_close(tape.grad(m_in_leaf), expected_m_in, rtol=1e-12,
                           label="m_in")

    def test_zeroed_downstream_kills_mask_grads(self, rng):
        model = Forecaster(tiny_config(layers=1), seed=4)
        model.head.w[...] = 0.0
        ws = small_windows(model, 3, rng)
        grads = per_sample_grads(model, ws.contexts, ws.targets)
        for layer in model.linears():
            if layer.layer_id == "head":
                continue
            assert np.abs(grads.arrays[(layer.layer_id, "input")]).max() == 0.0
            assert np.abs(grads.arrays[(layer.layer_id, "output")]).max() == 0.0

    def test_per_sample_mean_equals_tape_leaf_gradient(self, rng):
        """Manual x·∂L/∂(xm) assembly must agree with the tape's own leaf grads.

        The reference is a plain tape forward, whose masks are leaves; the
        capture pass that ``per_sample_grads`` runs has none.
        """
        model = Forecaster(tiny_config(layers=2), seed=7)
        ws = small_windows(model, 5, rng)
        tape = ad.Tape()
        fp = model.forward_batch(ws.contexts, tape=tape)
        loss = ad.mse_loss(fp.pred_norm, ad.constant(fp.normalized_targets(ws.targets)))
        tape.backward(loss)

        grads = per_sample_grads(model, ws.contexts, ws.targets)
        for layer in model.linears():
            m_in_leaf, m_out_leaf = fp.ctx.mask_leaves[layer.layer_id]
            manual_in = grads.arrays[(layer.layer_id, "input")].mean(axis=0)
            manual_out = grads.arrays[(layer.layer_id, "output")].mean(axis=0)
            assert np.abs(manual_in - tape.grad(m_in_leaf)).max() <= 1e-10
            assert np.abs(manual_out - tape.grad(m_out_leaf)).max() <= 1e-10

    def test_against_finite_differences_on_masks(self, rng):
        model = Forecaster(tiny_config(layers=1, d_model=8, d_ffn=8,
                                       context_len=12, patch_len=4, horizon=3),
                           seed=9)
        ws = small_windows(model, 2, rng)
        grads = per_sample_grads(model, ws.contexts, ws.targets)

        h = 1e-4
        probe = [ChannelRef("block0.attn.v", "output", 2),
                 ChannelRef("block0.ffn.up", "output", 5),
                 ChannelRef("block0.ffn.down", "input", 1),
                 ChannelRef("embed", "output", 3),
                 ChannelRef("head", "input", 6)]
        for n in range(2):
            ctx1, tgt1 = ws.contexts[n:n + 1], ws.targets[n:n + 1]
            for ref in probe:
                layer = model.layer_by_id(ref.layer_id)
                mask = layer.m_in if ref.side == "input" else layer.m_out

                def loss_at(v):
                    mask[ref.index] = v
                    fp = model.forward_batch(ctx1)
                    out = float(((fp.pred_norm.data - fp.normalized_targets(tgt1)) ** 2).mean())
                    mask[ref.index] = 1.0
                    return out

                fd = (loss_at(1.0 + h) - loss_at(1.0 - h)) / (2 * h)
                assert_grads_close(grads.vector(ref)[n], fd, rtol=1e-4,
                                   label=str(ref))


class FullTapeContext(ForwardContext):
    """The capture pass with every parameter and mask a watched leaf and the
    input a constant, so the backward forms every gradient there is."""

    def __init__(self, tape):
        super().__init__(tape, capture_grads=True)

    def lift(self, name, array):
        if name not in self.param_leaves:
            self.param_leaves[name] = self.tape.watch(array)
        return self.param_leaves[name]

    def input(self, array):
        return ad.constant(array)

    def masks(self, layer):
        if layer.layer_id not in self.mask_leaves:
            self.mask_leaves[layer.layer_id] = (self.tape.watch(layer.m_in),
                                                self.tape.watch(layer.m_out))
        return self.mask_leaves[layer.layer_id]


def full_tape_per_sample_grads(model, contexts, targets):
    """Reference extraction over a tape that holds every leaf."""
    n = contexts.shape[0]
    tape = ad.Tape()
    fp = model._forward(contexts, FullTapeContext(tape), None)
    loss = ad.mse_loss(fp.pred_norm, ad.constant(fp.normalized_targets(targets)))
    tape.backward(loss)
    arrays = {}
    for layer in model.linears():
        cap = fp.ctx.captures[layer.layer_id]
        axes = tuple(range(1, cap.x.data.ndim - 1))
        for side, (act, node) in (("input", (cap.x, cap.xm)), ("output", (cap.y, cap.h))):
            g = tape.grads.get(node.node_id)
            width = layer.d_in if side == "input" else layer.d_out
            arrays[(layer.layer_id, side)] = (np.zeros((n, width)) if g is None
                                              else n * (act.data * g).sum(axis=axes))
    return arrays, loss.item(), fp.ctx


def prune_at_random(model, rng, fraction=0.3):
    protected = protected_refs(model)
    for layer in model.linears():
        for side, mask in (("input", layer.m_in), ("output", layer.m_out)):
            for i in np.flatnonzero(rng.random(mask.size) < fraction):
                if ChannelRef(layer.layer_id, side, int(i)) not in protected:
                    mask[i] = 0.0


class TestCapturePass:
    @pytest.mark.parametrize("overrides", [
        dict(norm="layernorm", attention="bidirectional", activation="gelu"),
        dict(norm="rmsnorm", attention="causal", activation="relu"),
    ], ids=["layernorm-bidirectional-gelu", "rmsnorm-causal-relu"])
    def test_equals_full_tape_extraction(self, rng, overrides):
        model = Forecaster(tiny_config(layers=2, **overrides), seed=5)
        prune_at_random(model, rng)
        ws = small_windows(model, 6, rng)
        expected, loss, ctx = full_tape_per_sample_grads(model, ws.contexts, ws.targets)
        assert ctx.param_leaves and ctx.mask_leaves  # the reference is a full tape
        grads = per_sample_grads(model, ws.contexts, ws.targets)
        assert grads.loss == loss
        assert grads.arrays.keys() == expected.keys()
        for key, arr in expected.items():
            assert np.array_equal(grads.arrays[key], arr), key

    def test_no_leaves_and_no_weight_gradients(self, rng, monkeypatch):
        model = Forecaster(tiny_config(layers=2), seed=5)
        prune_at_random(model, rng)
        ws = small_windows(model, 4, rng)

        def tensordot(*args, **kwargs):
            raise AssertionError("a weight gradient was formed")

        monkeypatch.setattr(np, "tensordot", tensordot)
        tape = ad.Tape()
        fp = model.forward_batch(ws.contexts, tape=tape, capture_grads=True)
        assert fp.ctx.param_leaves == {} and fp.ctx.mask_leaves == {}
        tape.backward(ad.mse_loss(fp.pred_norm,
                                  ad.constant(fp.normalized_targets(ws.targets))))
        per_sample_grads(model, ws.contexts, ws.targets)

        plain = ad.Tape()  # the plain tape does form weight gradients
        fp = model.forward_batch(ws.contexts, tape=plain)
        with pytest.raises(AssertionError, match="weight gradient"):
            plain.backward(ad.mse_loss(fp.pred_norm,
                                       ad.constant(fp.normalized_targets(ws.targets))))


def tuple_sort_prune(ledger, k, protected):
    """The per-ref Python reference: sort (ema, ref) tuples, take k."""
    candidates = sorted((float(ledger.ema[i]), r) for i, r in enumerate(ledger.refs)
                        if ledger.alive[i] and r not in protected)
    return [r for _, r in candidates[:k]]


class TestLedgerIndexArrays:
    @pytest.fixture
    def eleven_blocks(self):
        """block1.* and block10.* sort next to each other, embed and head after."""
        return Forecaster(tiny_config(layers=11, d_model=4, d_ffn=4, heads=2,
                                      context_len=8, patch_len=4, horizon=2), seed=2)

    def tied_ledger(self, model, rng, source):
        for layer in model.linears():
            for mask in (layer.m_in, layer.m_out):
                mask[rng.random(mask.size) < 0.2] = 0.0
        ledger = ImportanceLedger.from_model(model, alpha=0.5)
        ledger.ema[:] = rng.integers(0, 3, len(ledger.refs)) * 0.25
        if source == "from-dict":  # the ledger a checkpoint load rebuilds
            ledger = ImportanceLedger.from_dict(ledger.to_dict(), model)
        return ledger

    @pytest.mark.parametrize("source", ["model-order", "from-dict"])
    def test_stacked_equals_per_ref_columns(self, eleven_blocks, rng, source):
        ledger = self.tied_ledger(eleven_blocks, rng, source)
        arrays = {}
        for layer in eleven_blocks.linears():
            arrays[(layer.layer_id, "input")] = rng.normal(size=(3, layer.d_in))
            arrays[(layer.layer_id, "output")] = rng.normal(size=(3, layer.d_out))
        grads = PerSampleGrads(arrays, 0.0)
        expected = np.stack([arrays[(r.layer_id, r.side)][:, r.index]
                             for r in ledger.refs], axis=1)
        assert np.array_equal(grads.stacked(ledger), expected)

    @pytest.mark.parametrize("source", ["model-order", "from-dict"])
    def test_prune_step_equals_tuple_sort_under_ties(self, eleven_blocks, rng, source):
        model = eleven_blocks
        ledger = self.tied_ledger(model, rng, source)
        protected = protected_refs(model)
        position = {r: i for i, r in enumerate(ledger.refs)}
        assert {"block1.attn.q", "block10.attn.q", "embed", "head"} <= {
            r.layer_id for r in position}
        k = len(ledger.candidates()) // 2
        expected = tuple_sort_prune(ledger, k, protected)
        tied = {float(ledger.ema[position[r]]) for r in expected}
        assert len(tied) < k  # the ties decide most of the order
        pruned = prune_step(ledger, model, k)
        assert pruned == expected
        for ref in pruned:
            assert not ledger.alive[position[ref]]
            layer = model.layer_by_id(ref.layer_id)
            assert (layer.m_in if ref.side == "input" else layer.m_out)[ref.index] == 0.0

    def test_refs_rank_and_protected_follow_the_layout(self, eleven_blocks):
        ledger = ImportanceLedger.from_model(eleven_blocks, alpha=0.5)
        refs = ledger.refs
        assert [ledger.ref(i) for i in range(len(refs))] == refs
        assert ledger.names() == [str(r) for r in refs]
        assert list(np.argsort(ledger.rank)) == sorted(range(len(refs)), key=refs.__getitem__)
        protected = protected_refs(eleven_blocks)
        assert list(ledger.protected) == [i for i, r in enumerate(refs) if r in protected]

    def test_non_finite_score_names_the_batch(self):
        model = Forecaster(tiny_config(), seed=3)
        model.blocks[0].ffn_down.b[0] = np.nan
        schedule = PruneSchedule(ratio_per_epoch=0.1, epochs=1, batch_size=64, seed=0)
        with pytest.raises(PruneDivergedError, match="prune batch 1") as err:
            progressive_prune(model, training_windows(), schedule, alpha=0.5)
        assert isinstance(err.value, PrunecastError)
        assert all(l.m_in.all() and l.m_out.all() for l in model.linears())


class TestTapesFreedWithoutGc:
    """A tape holds no reference cycle once its backward ran, so reference
    counting frees it; the cyclic collector is switched off to show that."""

    @pytest.fixture
    def tapes(self, monkeypatch):
        made = []

        class TrackedTape(ad.Tape):
            def __init__(self):
                super().__init__()
                made.append(weakref.ref(self))

        monkeypatch.setattr(pruning, "Tape", TrackedTape)
        monkeypatch.setattr(training, "Tape", TrackedTape)
        enabled = gc.isenabled()
        gc.collect()
        gc.disable()
        yield made
        if enabled:
            gc.enable()

    def test_per_sample_grads(self, tapes, rng):
        model = Forecaster(tiny_config(), seed=3)
        ws = small_windows(model, 4, rng)
        per_sample_grads(model, ws.contexts, ws.targets)
        assert len(tapes) == 1 and tapes[0]() is None

    def test_training_steps(self, tapes):
        model = Forecaster(tiny_config(), seed=3)
        ws = training_windows()
        cfg = TrainConfig(lr=1e-3, batch_size=128, max_epochs=1, seed=0)
        finetune(model, ws.subset(np.arange(256)), ws.subset(np.arange(256, 300)), cfg)
        assert len(tapes) == 2
        assert all(t() is None for t in tapes)


class TestEmaAndPruneStep:
    def test_ema_recurrence(self):
        ledger = ImportanceLedger([("l", "input", 1)], alpha=0.5)
        ledger.ema[0] = 0.2
        ema_update(ledger, np.array([0.4]))
        assert ledger.ema[0] == pytest.approx(0.3)

    def test_alpha_one_copies_raw(self):
        ledger = ImportanceLedger([("l", "input", 1)], alpha=1.0)
        ledger.ema[0] = 0.9
        ema_update(ledger, np.array([0.4]))
        assert ledger.ema[0] == 0.4

    def test_first_update_scales_by_alpha(self):
        ledger = ImportanceLedger([("l", "input", 1)], alpha=0.3)
        ema_update(ledger, np.array([1.0]))
        assert ledger.ema[0] == pytest.approx(0.3)

    def test_alpha_out_of_range(self):
        with pytest.raises(ConfigError, match="alpha"):
            ImportanceLedger([("l", "input", 1)], alpha=0.0)

    def test_prune_step_takes_lowest(self):
        model = Forecaster(tiny_config(layers=1), seed=0)
        layer = model.blocks[0].ffn_up
        ledger = ImportanceLedger([(layer.layer_id, "output", 4)], alpha=0.5)
        ledger.ema[:] = [0.5, 0.1, 0.3, 0.1]
        pruned = prune_step(ledger, model, 2)
        assert {r.index for r in pruned} == {1, 3}
        assert layer.m_out[1] == 0.0 and layer.m_out[3] == 0.0

    def test_prune_step_zero_is_noop(self):
        model = Forecaster(tiny_config(layers=1), seed=0)
        ledger = ImportanceLedger.from_model(model, alpha=0.5)
        assert prune_step(ledger, model, 0) == []
        assert all(l.m_in.all() and l.m_out.all() for l in model.linears())

    def test_prune_step_matches_sort_oracle(self, rng):
        model = Forecaster(tiny_config(layers=1), seed=1)
        ledger = ImportanceLedger.from_model(model, alpha=0.5)
        ledger.ema[:] = rng.random(len(ledger.refs))
        dead = rng.choice(len(ledger.refs), 30, replace=False)
        ledger.alive[dead] = False
        protected = protected_refs(model)

        expected = sorted(
            ((ledger.ema[i], r) for i, r in enumerate(ledger.refs)
             if ledger.alive[i] and r not in protected))[:17]
        pruned = prune_step(ledger, model, 17)
        assert pruned == [r for _, r in expected]

    def test_prune_step_too_large(self):
        model = Forecaster(tiny_config(layers=1), seed=0)
        ledger = ImportanceLedger.from_model(model, alpha=0.5)
        with pytest.raises(ConfigError, match="cannot prune"):
            prune_step(ledger, model, len(ledger.refs) + 1)


class TestProgressive:
    def test_zero_target_leaves_model_unchanged(self):
        model = Forecaster(tiny_config(), seed=3)
        ws = training_windows()
        schedule = PruneSchedule(ratio_per_epoch=0.0, epochs=1, batch_size=64)
        ledger, trace = progressive_prune(model, ws, schedule, alpha=0.5)
        assert trace.pruned_refs() == []
        assert all(l.m_in.all() and l.m_out.all() for l in model.linears())
        assert ledger.alive_count() == len(ledger.refs)

    def test_dead_channels_pruned_before_useful_ones(self, rng):
        model = Forecaster(tiny_config(layers=1, heads=2, d_model=8, d_ffn=12,
                                       context_len=24, patch_len=4, horizon=4),
                           seed=11)
        dead_ffn = [2, 5, 9]
        plant_dead_ffn_channels(model, 0, dead_ffn)
        plant_dead_head(model, 0, 1)
        g = model.head_group(1)
        dead_refs = {ChannelRef("block0.ffn.down", "input", c) for c in dead_ffn}
        dead_refs |= {ChannelRef("block0.attn.o", "input", i)
                      for i in range(g.start, g.stop)}

        ws = training_windows(L=24, hz=4)
        # oracle loss deltas measured before pruning mutates anything
        eval_ws = ws.subset(np.arange(64))
        deltas = {}
        ledger0 = ImportanceLedger.from_model(model, alpha=0.5)
        for ref in ledger0.refs:
            if ref not in protected_refs(model):
                deltas[ref] = oracle_importance(model, eval_ws, ref)
        for ref in dead_refs:
            assert deltas[ref] <= 1e-12

        schedule = PruneSchedule(ratio_per_epoch=0.15, epochs=1, batch_size=64, seed=5)
        _, trace = progressive_prune(model, ws, schedule, alpha=0.5)
        order = trace.pruned_refs()
        assert dead_refs <= set(order)
        seen_useful = False
        for ref in order:
            if deltas.get(ref, 0.0) > 1e-3:
                seen_useful = True
            if ref in dead_refs:
                assert not seen_useful, f"{ref} pruned after a useful channel"

    def test_determinism(self):
        ws = training_windows()

        def run():
            model = Forecaster(tiny_config(), seed=3)
            schedule = PruneSchedule(ratio_per_epoch=0.1, epochs=1,
                                     batch_size=32, seed=7)
            _, trace = progressive_prune(model, ws, schedule, alpha=0.4)
            return trace

        t1, t2 = run(), run()
        assert t1.pruned_refs() == t2.pruned_refs()
        assert t1.to_jsonl() == t2.to_jsonl()

    def test_alive_count_monotone_and_masks_stay_zero(self):
        model = Forecaster(tiny_config(), seed=3)
        ws = training_windows()
        schedule = PruneSchedule(ratio_per_epoch=0.08, epochs=2, batch_size=48, seed=1)
        ledger, trace = progressive_prune(model, ws, schedule, alpha=0.5)
        alive = [r.alive_count for r in trace.records]
        assert all(a >= b for a, b in zip(alive, alive[1:]))
        for ref in trace.pruned_refs():
            layer = model.layer_by_id(ref.layer_id)
            mask = layer.m_in if ref.side == "input" else layer.m_out
            assert mask[ref.index] == 0.0
        assert (ledger.ema >= 0).all()

    def test_param_floor_stops_early(self):
        model = Forecaster(tiny_config(), seed=3)
        ws = training_windows()
        schedule = PruneSchedule(ratio_per_epoch=0.9, epochs=1, batch_size=32,
                                 target_param_fraction=0.8, seed=2)
        progressive_prune(model, ws, schedule, alpha=0.5)
        assert model.param_fraction() <= 0.8
        assert model.param_fraction() > 0.4  # stopped near the floor, not at 90%


class TestPruneStat:
    def collect(self, model, rng, n=6):
        windows = rng.normal(0, 1, (n, model.cfg.context_len))
        return (collect_head_norms(model, windows),
                collect_activation_probs(model, windows))

    def test_zero_thresholds_prune_nothing(self, rng):
        model = Forecaster(tiny_config(layers=1), seed=2)
        head_stats, act_stats = self.collect(model, rng)
        pruned = prune_stat(model, head_stats, act_stats, 0.0, 0.0)
        assert pruned == []

    def test_dead_value_head_removed(self, rng):
        model = Forecaster(tiny_config(layers=1, heads=2, activation="relu"), seed=2)
        plant_dead_head(model, 0, 0)
        head_stats, act_stats = self.collect(model, rng)
        pruned = prune_stat(model, head_stats, act_stats, 0.01, 0.0)
        g = model.head_group(0)
        expected = {ChannelRef("block0.attn.o", "input", i)
                    for i in range(g.start, g.stop)}
        assert set(pruned) == expected
        assert (model.blocks[0].wo.m_in[g] == 0.0).all()

    def test_dead_ffn_channel_pruned_jointly(self, rng):
        model = Forecaster(tiny_config(layers=1, activation="relu"), seed=2)
        plant_dead_ffn_channels(model, 0, [4])
        head_stats, act_stats = self.collect(model, rng)
        pruned = prune_stat(model, head_stats, act_stats, 0.0, 0.01)
        assert ChannelRef("block0.ffn.up", "output", 4) in pruned
        assert ChannelRef("block0.ffn.down", "input", 4) in pruned

    def test_threshold_sweep_monotone(self, rng):
        model = Forecaster(tiny_config(layers=2, heads=4, d_model=16,
                                       activation="relu"), seed=13)
        plant_dead_head(model, 0, 2)
        head_stats, act_stats = self.collect(model, rng, n=10)
        previous = set()
        for thr in (0.0, 0.005, 0.01, 0.02):
            trial = model.clone()
            pruned = set(prune_stat(trial, head_stats, act_stats, thr, thr))
            assert previous <= pruned
            previous = pruned

    def test_threshold_out_of_range(self, rng):
        model = Forecaster(tiny_config(layers=1), seed=2)
        head_stats, act_stats = self.collect(model, rng)
        with pytest.raises(ConfigError, match="head_threshold"):
            prune_stat(model, head_stats, act_stats, 1.5, 0.0)


class TestOracle:
    def test_zeroed_downstream_gives_zero(self, rng):
        model = Forecaster(tiny_config(layers=1), seed=4)
        model.head.w[...] = 0.0
        ws = small_windows(model, 4, rng)
        ref = ChannelRef("block0.ffn.up", "output", 1)
        assert oracle_importance(model, ws, ref) == 0.0

    def test_dead_input_channel_gives_zero(self, rng):
        model = Forecaster(tiny_config(layers=1), seed=4)
        plant_dead_ffn_channels(model, 0, [3])
        ws = small_windows(model, 4, rng)
        assert oracle_importance(model, ws,
                                 ChannelRef("block0.ffn.down", "input", 3)) == 0.0

    def test_oracle_restores_mask(self, rng):
        model = Forecaster(tiny_config(layers=1), seed=4)
        ws = small_windows(model, 4, rng)
        oracle_importance(model, ws, ChannelRef("block0.attn.q", "output", 0))
        assert model.blocks[0].wq.m_out.all()
