"""Importance scores, EMA, TopK pruning, threshold variant, loss oracle."""

import gc
import weakref

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from prunecast import autodiff as ad
from prunecast import pruning, training
from prunecast.analysis import collect_activation_probs, collect_head_norms
from prunecast.data import WindowSet, synth_dataset, make_windows, SplitSpec
from prunecast.errors import ConfigError, PrunecastError, PruneDivergedError
from prunecast.model import Forecaster, ForwardContext, MaskedLinear
from prunecast.pruning import (ChannelRef, ImportanceLedger, PerSampleGrads,
                               PruneSchedule, ema_update, per_sample_grads,
                               progressive_prune, prune_stat, prune_step,
                               raw_importance, taylor2_importance)
from prunecast.slicing import slice_pruned
from prunecast.training import TrainConfig, finetune

from oracles import (assert_grads_close, layer_by_id, oracle_importance,
                     plant_dead_ffn_channels, plant_dead_head)
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
        """The batch mean of the per-window rows equals the 1-D mask-leaf
        gradient of a plain tape forward over the same batch."""
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
                layer = layer_by_id(model, ref.layer_id)
                mask = layer.mask(ref.side)

                def loss_at(v):
                    mask[ref.index] = v
                    fp = model.forward_batch(ctx1)
                    out = float(((fp.pred_norm.data - fp.normalized_targets(tgt1)) ** 2).mean())
                    mask[ref.index] = 1.0
                    return out

                fd = (loss_at(1.0 + h) - loss_at(1.0 - h)) / (2 * h)
                assert_grads_close(grads.arrays[(ref.layer_id, ref.side)][n, ref.index],
                                   fd, rtol=1e-4, label=str(ref))


class FullTapeContext(ForwardContext):
    """The capture pass with every parameter a watched leaf as well, so the
    backward forms every gradient there is."""

    def __init__(self, tape):
        super().__init__(tape, capture_grads=True)

    def lift(self, name, array):
        if name not in self.param_leaves:
            self.param_leaves[name] = self.tape.watch(array)
        return self.param_leaves[name]


def full_tape_per_sample_grads(model, contexts, targets):
    """Reference extraction over a tape that holds every leaf."""
    n = contexts.shape[0]
    tape = ad.Tape()
    fp = model._forward(contexts, FullTapeContext(tape), None)
    loss = ad.mse_loss(fp.pred_norm, ad.constant(fp.normalized_targets(targets)))
    tape.backward(loss)
    arrays = {}
    for layer in model.linears():
        for side, leaf in zip(("input", "output"), fp.ctx.mask_leaves[layer.layer_id]):
            g = tape.grad(leaf)
            arrays[(layer.layer_id, side)] = n * g.sum(axis=tuple(range(1, g.ndim - 1)))
    return arrays, loss.item(), fp.ctx


def prune_at_random(model, rng, fraction=0.3):
    protected = protected_refs(model)
    for layer in model.linears():
        for side, mask in (("input", layer.m_in), ("output", layer.m_out)):
            for i in np.flatnonzero(rng.random(mask.size) < fraction):
                if ChannelRef(layer.layer_id, side, int(i)) not in protected:
                    mask[i] = 0.0


SETTINGS = pytest.mark.parametrize("overrides", [
    dict(norm="layernorm", attention="bidirectional", activation="gelu"),
    dict(norm="rmsnorm", attention="causal", activation="relu"),
], ids=["layernorm-bidirectional-gelu", "rmsnorm-causal-relu"])


class TestCapturePass:
    @SETTINGS
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
        assert fp.ctx.param_leaves == {}
        for layer in model.linears():  # one row per window, whatever the tokens
            rows, cols = fp.ctx.kept.get(layer.layer_id, (None, None))
            assert [leaf.shape for leaf in fp.ctx.mask_leaves[layer.layer_id]] == [
                (4, layer.d_in if rows is None else rows.size),
                (4, layer.d_out if cols is None else cols.size)], layer.layer_id
        for block in model.blocks:  # residual-facing sides stay full width
            for layer in (block.wq, block.wk, block.wv, block.ffn_up):
                assert fp.ctx.kept.get(layer.layer_id, (None,))[0] is None
            for layer in (block.wo, block.ffn_down):
                assert fp.ctx.kept.get(layer.layer_id, (None, None))[1] is None
        assert fp.ctx.kept and not {"embed", "head"} & fp.ctx.kept.keys()
        tape.backward(ad.mse_loss(fp.pred_norm,
                                  ad.constant(fp.normalized_targets(ws.targets))))
        per_sample_grads(model, ws.contexts, ws.targets)

        plain = ad.Tape()  # the plain tape does form weight gradients
        fp = model.forward_batch(ws.contexts, tape=plain)
        with pytest.raises(AssertionError, match="weight gradient"):
            plain.backward(ad.mse_loss(fp.pred_norm,
                                       ad.constant(fp.normalized_targets(ws.targets))))

    @SETTINGS
    def test_rows_equal_single_window_mask_leaf_gradients(self, rng, overrides):
        """Row n is the 1-D mask-leaf gradient of window n's own loss, taken
        on a plain tape that holds that window alone."""
        model = Forecaster(tiny_config(layers=2, **overrides), seed=6)
        prune_at_random(model, rng)
        ws = small_windows(model, 4, rng)
        grads = per_sample_grads(model, ws.contexts, ws.targets)
        for n in range(4):
            tape = ad.Tape()
            fp = model.forward_batch(ws.contexts[n:n + 1], tape=tape)
            tape.backward(ad.mse_loss(
                fp.pred_norm, ad.constant(fp.normalized_targets(ws.targets[n:n + 1]))))
            for layer in model.linears():
                for side, leaf in zip(("input", "output"), fp.ctx.mask_leaves[layer.layer_id]):
                    np.testing.assert_allclose(grads.arrays[(layer.layer_id, side)][n],
                                               tape.grad(leaf), rtol=0, atol=1e-10,
                                               err_msg=f"{layer.layer_id}:{side} window {n}")


def kill_heads(model, block_idx, heads):
    """Mask whole heads: every V-out and O-in channel of their groups."""
    block = model.blocks[block_idx]
    for head in heads:
        g = model.head_group(head)
        block.wv.m_out[g] = 0.0
        block.wo.m_in[g] = 0.0


def kill_ffn(model, block_idx, channels):
    """Mask FFN channels on both sides of the activation."""
    block = model.blocks[block_idx]
    block.ffn_up.m_out[channels] = 0.0
    block.ffn_down.m_in[channels] = 0.0


def skipped_channels(model):
    """(layer_id, side) -> the channels whose mask gradients the capture pass
    may skip, from the masks alone: every Q-out, K-out, V-out and O-in
    channel of a head whose V-out and O-in channels are all dead, and each
    FFN channel dead on up-out and down-in."""
    out = {}
    for block in model.blocks:
        heads = [model.head_group(h) for h in range(model.cfg.heads)]
        dead = [i for g in heads if not (block.wv.m_out[g].any() or block.wo.m_in[g].any())
                for i in range(g.start, g.stop)]
        for layer in (block.wq, block.wk, block.wv):
            out[(layer.layer_id, "output")] = dead
        out[(block.wo.layer_id, "input")] = dead
        mid = list(np.flatnonzero((block.ffn_up.m_out == 0.0) & (block.ffn_down.m_in == 0.0)))
        out[(block.ffn_up.layer_id, "output")] = out[(block.ffn_down.layer_id, "input")] = mid
    return out


ALL_SETTINGS = pytest.mark.parametrize("overrides", [
    dict(norm=norm, activation=act, attention=att)
    for norm in ("layernorm", "rmsnorm") for act in ("gelu", "relu")
    for att in ("bidirectional", "causal")], ids=lambda o: "-".join(o.values()))


def wide_heads(**overrides):
    return Forecaster(tiny_config(layers=2, heads=4, d_model=16, **overrides), seed=8)


class TestCompactCapture:
    """The capture pass skips dead heads and doubly-dead FFN channels; the
    full-width reference ``full_tape_per_sample_grads`` runs them all."""

    @ALL_SETTINGS
    def test_skipped_channels_zero_and_the_rest_match_full_width(self, rng, overrides):
        model = wide_heads(**overrides)
        prune_at_random(model, rng)
        kill_heads(model, 0, [1])
        kill_heads(model, 1, [0, 3])
        kill_ffn(model, 0, [2, 5, 9])
        kill_ffn(model, 1, [0, 7])
        # head 3 of block 0 has no channel alive on both V-out and O-in, so it
        # adds nothing to the forward, yet its V-out and O-in mask gradients
        # are not zero: it must not be skipped
        g = model.head_group(3)
        model.blocks[0].wv.m_out[g.start:g.start + 2] = 1.0
        model.blocks[0].wv.m_out[g.start + 2:g.stop] = 0.0
        model.blocks[0].wo.m_in[g.start:g.start + 2] = 0.0
        model.blocks[0].wo.m_in[g.start + 2:g.stop] = 1.0
        ws = small_windows(model, 6, rng)
        expected, loss, _ = full_tape_per_sample_grads(model, ws.contexts, ws.targets)
        tape = ad.Tape()
        kept = model.forward_batch(ws.contexts, tape=tape, capture_grads=True).ctx.kept
        assert {f"block{i}.{name}" for i in (0, 1) for name in (
            "attn.q", "attn.k", "attn.v", "attn.o", "ffn.up", "ffn.down")} == kept.keys()
        assert set(range(g.start, g.stop)) <= set(kept["block0.attn.v"][1])
        assert np.abs(expected[("block0.attn.v", "output")][:, g]).max() > 0.0
        grads = per_sample_grads(model, ws.contexts, ws.targets)
        assert grads.loss == pytest.approx(loss, rel=1e-12, abs=0)
        largest = max(np.abs(arr).max() for arr in expected.values())
        skipped = skipped_channels(model)
        assert sum(map(len, skipped.values())) >= 4 * 3 * 4 + 2 * 5
        for key, arr in expected.items():
            got = grads.arrays[key]
            assert got.shape == arr.shape, key
            assert (got[:, skipped.get(key, [])] == 0.0).all(), key
            assert np.abs(got - arr).max() <= 1e-12 * largest, key

    @SETTINGS
    def test_unpruned_model_is_bit_identical(self, rng, overrides):
        model = Forecaster(tiny_config(layers=2, **overrides), seed=5)
        ws = small_windows(model, 5, rng)
        expected, loss, _ = full_tape_per_sample_grads(model, ws.contexts, ws.targets)
        fp = model.forward_batch(ws.contexts, tape=ad.Tape(), capture_grads=True)
        assert fp.ctx.kept == {}
        grads = per_sample_grads(model, ws.contexts, ws.targets)
        assert grads.loss == loss
        for key, arr in expected.items():
            assert np.array_equal(grads.arrays[key], arr), key

    @SETTINGS
    def test_block_without_live_heads_or_ffn_channels(self, rng, overrides):
        model = wide_heads(**overrides)
        kill_heads(model, 0, range(4))
        kill_ffn(model, 1, slice(None))
        ws = small_windows(model, 4, rng)
        fp = model.forward_batch(ws.contexts, tape=ad.Tape(), capture_grads=True)
        assert fp.ctx.kept["block0.attn.q"][1].size == 0
        assert fp.ctx.kept["block1.ffn.up"][1].size == 0
        expected, _, _ = full_tape_per_sample_grads(model, ws.contexts, ws.targets)
        grads = per_sample_grads(model, ws.contexts, ws.targets)
        scores = raw_importance(grads.stacked(ImportanceLedger.from_model(model, 0.5)))
        assert np.isfinite(scores).all()
        largest = max(np.abs(arr).max() for arr in expected.values())
        for key, arr in expected.items():
            assert np.abs(grads.arrays[key] - arr).max() <= 1e-12 * largest, key

    def test_non_finite_alive_weight_still_raises(self):
        model = wide_heads()
        kill_heads(model, 0, [1])
        kill_ffn(model, 0, [2, 5])
        model.blocks[0].wq.w[3, model.head_group(2).start] = np.nan
        schedule = PruneSchedule(ratio_per_epoch=0.1, epochs=1, batch_size=64, seed=0)
        with pytest.raises(PruneDivergedError, match="prune batch 1"):
            progressive_prune(model, training_windows(), schedule, alpha=0.5)

    def test_non_finite_skipped_weights_do_not_poison_scores(self, rng):
        """As in the sliced twin, weights of skipped channels are never read:
        a NaN there leaves every score finite, where the full-width pass
        spreads it to every channel (NaN · 0 is NaN)."""
        model = wide_heads()
        kill_heads(model, 0, [1])
        kill_ffn(model, 1, [2, 5])
        g, block0, block1 = model.head_group(1), model.blocks[0], model.blocks[1]
        for w in (block0.wq.w, block0.wk.w, block0.wv.w):
            w[:, g] = np.nan
        block0.wo.w[g, :] = np.inf
        block1.ffn_up.w[:, [2, 5]] = np.nan
        block1.ffn_down.w[[2, 5], :] = np.nan
        ws = small_windows(model, 4, rng)
        expected, _, _ = full_tape_per_sample_grads(model, ws.contexts, ws.targets)
        assert not np.isfinite(expected[("embed", "output")]).any()
        grads = per_sample_grads(model, ws.contexts, ws.targets)
        assert all(np.isfinite(arr).all() for arr in grads.arrays.values())
        assert np.isfinite(slice_pruned(model).predict(ws.contexts)).all()
        schedule = PruneSchedule(ratio_per_epoch=0.1, epochs=1, batch_size=64, seed=0)
        ledger, _ = progressive_prune(model, training_windows(), schedule, alpha=0.5)
        assert np.isfinite(ledger.ema).all()


# Per block, the mask bits of the six coupled ends: each head of Q-out,
# K-out, V-out and O-in either whole, dead or drawn channel by channel, so
# whole-head skips occur; FFN up-out and down-in drawn channel by channel.
HEAD_BITS = st.one_of(st.sampled_from([0, 15]), st.integers(0, 15))
BLOCK_MASKS = st.tuples(*[st.lists(HEAD_BITS, min_size=4, max_size=4)] * 4,
                        *[st.lists(st.booleans(), min_size=16, max_size=16)] * 2)


class TestCouplingTable:
    """Every consumer of ``Block.pairs`` against per-channel loops over the
    masks of a 2-block, 4-head model (head width 4, 16 FFN channels)."""

    @staticmethod
    def masked(blocks):
        model = wide_heads()
        for block, (q, k, v, o, up, down) in zip(model.blocks, blocks):
            for mask, heads in ((block.wq.m_out, q), (block.wk.m_out, k),
                                (block.wv.m_out, v), (block.wo.m_in, o)):
                mask[...] = [(bits >> j) & 1 for bits in heads for j in range(4)]
            block.ffn_up.m_out[...], block.ffn_down.m_in[...] = up, down
        return model

    @given(st.tuples(BLOCK_MASKS, BLOCK_MASKS))
    def test_consumers_match_per_channel_sets(self, blocks):
        model = self.masked(blocks)
        sliced = slice_pruned(model)
        ws = small_windows(model, 2, np.random.default_rng(0))
        kept = model.forward_batch(ws.contexts, tape=ad.Tape(), capture_grads=True).ctx.kept
        expected_kept = {}
        for block, twin in zip(model.blocks, sliced.blocks):
            q, k, v, o = block.wq.m_out, block.wk.m_out, block.wv.m_out, block.wo.m_in
            union_heads = []
            for h, plan in enumerate(twin.heads):
                group = range(4 * h, 4 * h + 4)
                assert plan.qk.tolist() == [c for c in group if q[c] and k[c]]
                assert plan.vo.tolist() == [c for c in group if v[c] and o[c]]
                if any(v[c] or o[c] for c in group):
                    union_heads += group
            up, down = block.ffn_up.m_out, block.ffn_down.m_in
            mid = [c for c in range(16) if up[c] and down[c]]
            assert twin.up.cols.tolist() == twin.down.rows.tolist() == mid
            if len(union_heads) < 16:
                for layer in (block.wq, block.wk, block.wv):
                    expected_kept[layer.layer_id] = (None, union_heads)
                expected_kept[block.wo.layer_id] = (union_heads, None)
            ffn_union = [c for c in range(16) if up[c] or down[c]]
            if len(ffn_union) < 16:
                expected_kept[block.ffn_up.layer_id] = (None, ffn_union)
                expected_kept[block.ffn_down.layer_id] = (ffn_union, None)
        assert {layer_id: tuple(None if idx is None else idx.tolist() for idx in sides)
                for layer_id, sides in kept.items()} == expected_kept

        ledger = ImportanceLedger.from_model(model, alpha=0.5)
        position = {name: i for i, name in enumerate(ledger.names())}
        src, dst = [], []
        for b in range(2):
            for a_end, b_end in (("attn.q:output", "attn.k:output"),
                                 ("attn.v:output", "attn.o:input")):
                for c in range(16):
                    src.append(position[f"block{b}.{a_end}:{c}"])
                    dst.append(position[f"block{b}.{b_end}:{c}"])
        assert ledger.tie_src.tolist() == src
        assert ledger.tie_dst.tolist() == dst


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
            layer = layer_by_id(model, ref.layer_id)
            assert layer.mask(ref.side)[ref.index] == 0.0

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
            layer = layer_by_id(model, ref.layer_id)
            mask = layer.mask(ref.side)
            assert mask[ref.index] == 0.0
        assert (ledger.ema >= 0).all()

    @SETTINGS
    @pytest.mark.parametrize("seed", [0, 3])
    def test_reversed_batches_prune_the_same_channels(self, monkeypatch, overrides, seed):
        """Feeding each prune batch's windows in reverse order changes only
        the summation order of the batch means. Coupled channels (Q-out and
        K-out, V-out and O-in) tie exactly, so rounding decides no prune
        order: the same channels go in the same order. The batch loss, a
        mean over the reversed windows, agrees to rounding."""
        ws = training_windows()
        forward = pruning._shuffled_batches

        def run():
            model = Forecaster(tiny_config(**overrides), seed=seed)
            schedule = PruneSchedule(ratio_per_epoch=0.3, epochs=2, batch_size=32, seed=seed)
            ledger, trace = progressive_prune(model, ws, schedule, alpha=0.5)
            return model, ledger, trace

        model, ledger, trace = run()
        monkeypatch.setattr(pruning, "_shuffled_batches",
                            lambda *args: (idx[::-1] for idx in forward(*args)))
        model_r, ledger_r, trace_r = run()
        assert len(trace.records) == len(trace_r.records) > 20
        for rec, rec_r in zip(trace.records, trace_r.records):
            assert (rec.batch, rec.pruned, rec.alive_count) == (
                rec_r.batch, rec_r.pruned, rec_r.alive_count)
            assert rec.loss == pytest.approx(rec_r.loss, rel=1e-12, abs=0)
        assert np.array_equal(ledger.alive, ledger_r.alive)
        for layer, layer_r in zip(model.linears(), model_r.linears()):
            assert np.array_equal(layer.m_in, layer_r.m_in), layer.layer_id
            assert np.array_equal(layer.m_out, layer_r.m_out), layer.layer_id

    def test_coupled_channels_share_a_score_while_both_alive(self, rng):
        model = Forecaster(tiny_config(), seed=3)
        prune_at_random(model, rng)
        ledger = ImportanceLedger.from_model(model, alpha=0.5)
        names = ledger.names()
        pairs = [(names[s], names[d]) for s, d in zip(ledger.tie_src, ledger.tie_dst)]
        assert len(pairs) == 2 * 2 * model.cfg.d_model
        assert all(s.replace("attn.q", "attn.k") == d or
                   s.replace("attn.v:output", "attn.o:input") == d for s, d in pairs)
        scores = rng.random(ledger.alive.size)
        tied = ledger.tie(scores.copy())
        both = ledger.alive[ledger.tie_src] & ledger.alive[ledger.tie_dst]
        assert both.any() and not both.all()
        assert np.array_equal(tied[ledger.tie_dst[both]], scores[ledger.tie_src[both]])
        untouched = np.setdiff1d(np.arange(scores.size), ledger.tie_dst[both])
        assert np.array_equal(tied[untouched], scores[untouched])

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
