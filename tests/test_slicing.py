"""Slicing equivalence: compact forward must reproduce masked forward."""

import os
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from prunecast import autodiff as ad
from prunecast.checkpoint import checkpoint_bytes, load_checkpoint
from prunecast.data import WindowSet
from prunecast.model import (ACTIVATIONS, ATTENTION_STYLES, NORM_KINDS, Forecaster,
                             ForecasterConfig, MaskedLinear)
from prunecast.slicing import SlicedLinear, slice_pruned
from prunecast.training import TrainConfig, batch_loss, finetune

from test_model import tiny_config


def brute_force_surviving(model):
    """Independent recount of surviving parameters, entry by entry."""
    n = 0
    for layer in model.linears():
        for i in range(layer.d_in):
            for j in range(layer.d_out):
                if layer.m_in[i] == 1.0 and layer.m_out[j] == 1.0:
                    n += 1
        if layer.b is not None:
            n += int(layer.m_out.sum())
    for norm in model.norms():
        n += norm.gain.size + (0 if norm.offset is None else norm.offset.size)
    return n


def prune_random_channels(model, fraction, rng):
    """Zero a random fraction of non-protected mask coordinates."""
    refs = []
    for layer in model.linears():
        for i in range(layer.d_in):
            if layer.layer_id != "embed":
                refs.append((layer, "in", i))
        for j in range(layer.d_out):
            if layer.layer_id != "head":
                refs.append((layer, "out", j))
    chosen = rng.choice(len(refs), size=int(len(refs) * fraction), replace=False)
    for c in chosen:
        layer, side, idx = refs[c]
        (layer.m_in if side == "in" else layer.m_out)[idx] = 0.0
    return len(chosen)


class TestSlicing:
    def test_nothing_pruned_is_bit_identical(self, rng):
        shapes = [tiny_config(),                                  # T=6
                  tiny_config(context_len=64),                    # d=8, 2 heads, T=16
                  tiny_config(heads=4, d_model=32, d_ffn=64, context_len=48)]  # T=12
        for cfg in shapes:
            for seed in range(5):
                model = Forecaster(cfg, seed=seed)
                sliced = slice_pruned(model)
                assert sliced.surviving_param_count() == model.cfg.param_count
                for batch in (1, 4):
                    windows = rng.normal(0, 1, (batch, cfg.context_len))
                    np.testing.assert_array_equal(
                        sliced.predict(windows), model.predict(windows),
                        err_msg=f"{cfg}, seed {seed}, batch {batch}")

    def test_empty_ffn_reduces_to_residual_passthrough(self, rng):
        model = Forecaster(tiny_config(layers=1), seed=5)
        block = model.blocks[0]
        block.ffn_up.m_out[...] = 0.0
        block.ffn_down.m_in[...] = 0.0
        sliced = slice_pruned(model)
        windows = rng.normal(0, 1, (3, model.cfg.context_len))
        assert np.abs(sliced.predict(windows) - model.predict(windows)).max() <= 1e-12

        # with a zero down-bias the whole FFN contribution vanishes
        twin = model.clone()
        twin.blocks[0].ffn_down.w[...] = 0.0
        twin.blocks[0].ffn_down.b[...] = 0.0
        twin.blocks[0].ffn_up.m_out[...] = 1.0
        twin.blocks[0].ffn_down.m_in[...] = 1.0
        np.testing.assert_allclose(sliced.predict(windows), twin.predict(windows),
                                   atol=1e-12)

    def test_random_30pct_pruning_matches_masked(self, rng):
        model = Forecaster(tiny_config(layers=2, heads=4, d_model=16, d_ffn=24), seed=8)
        prune_random_channels(model, 0.3, rng)
        sliced = slice_pruned(model)
        windows = rng.normal(0, 1, (100, model.cfg.context_len))
        diff = np.abs(sliced.predict(windows) - model.predict(windows))
        assert diff.max() <= 1e-9

    def test_param_count_equals_brute_force_recount(self, rng):
        model = Forecaster(tiny_config(), seed=2)
        prune_random_channels(model, 0.4, rng)
        sliced = slice_pruned(model)
        expected = brute_force_surviving(model)
        assert sliced.surviving_param_count() == expected
        assert model.surviving_param_count() == expected
        assert sliced.param_fraction() == expected / model.cfg.param_count

    def test_dead_head_is_removed_but_exact(self, rng):
        model = Forecaster(tiny_config(layers=1, heads=2, d_model=8), seed=6)
        g = model.head_group(0)
        model.blocks[0].wv.m_out[g] = 0.0
        model.blocks[0].wo.m_in[g] = 0.0
        sliced = slice_pruned(model)
        assert not sliced.blocks[0].heads[0].alive
        assert sliced.blocks[0].heads[1].alive
        windows = rng.normal(0, 1, (5, model.cfg.context_len))
        assert np.abs(sliced.predict(windows) - model.predict(windows)).max() <= 1e-12

    def test_scoreless_head_falls_back_to_uniform_attention(self, rng):
        model = Forecaster(tiny_config(layers=1, heads=2, d_model=8), seed=7)
        g = model.head_group(1)
        model.blocks[0].wq.m_out[g] = 0.0
        model.blocks[0].wk.m_out[g] = 0.0
        sliced = slice_pruned(model)
        assert sliced.blocks[0].heads[1].alive
        assert not sliced.blocks[0].heads[1].scored
        windows = rng.normal(0, 1, (5, model.cfg.context_len))
        assert np.abs(sliced.predict(windows) - model.predict(windows)).max() <= 1e-12

    def test_causal_and_rmsnorm_variant_matches_masked(self, rng):
        model = Forecaster(tiny_config(layers=2, attention="causal",
                                       norm="rmsnorm", activation="relu"), seed=9)
        prune_random_channels(model, 0.25, rng)
        sliced = slice_pruned(model)
        windows = rng.normal(0, 1, (20, model.cfg.context_len))
        assert np.abs(sliced.predict(windows) - model.predict(windows)).max() <= 1e-9

    def test_non_binary_mask_rejected(self):
        model = Forecaster(tiny_config(), seed=1)
        model.blocks[0].ffn_up.m_out[0] = 0.5
        with pytest.raises(ValueError, match="not binary"):
            slice_pruned(model)

    def test_write_back_updates_only_surviving_coords(self, rng):
        """Write-back moves the stored coordinates and nothing else: not the
        dead ones, not the alive ones outside an intersection, and no pad."""
        model = Forecaster(tiny_config(layers=1), seed=4)
        prune_random_channels(model, 0.3, rng)
        frozen = {name: arr.copy() for name, arr in model.named_params()}
        sliced = slice_pruned(model)
        for _, arr in sliced.named_params():
            arr += 0.25
        sliced.write_back(model)
        unstored = 0
        for layer, twin in zip(model.linears(), sliced.linears()):
            for key, got, stored, alive in stored_layout(layer, twin):
                want = frozen[f"{layer.layer_id}.{key}"]
                np.testing.assert_array_equal(got[stored], want[stored] + 0.25)
                np.testing.assert_array_equal(got[~stored], want[~stored])
                unstored += int((alive & ~stored).sum())
        assert unstored and has_pads(sliced)

    def test_each_weight_and_bias_leaf_feeds_one_node(self, rng):
        """On the tape, each weight and bias of a pruned twin is an input of
        exactly one node, its layer's ``linear``, whose inputs are the
        activation, the weight and the bias: no weight is re-gathered or
        transposed per forward."""
        model = Forecaster(tiny_config(heads=4, d_model=16, d_ffn=24), seed=3)
        prune_random_channels(model, 0.3, rng)
        sliced = slice_pruned(model)
        assert has_pads(sliced)
        tape = ad.Tape()
        fp = sliced.forward_batch(rng.normal(0, 1, (4, model.cfg.context_len)), tape=tape)
        consumers = {leaf.node_id: [] for name, leaf in fp.ctx.param_leaves.items()
                     if name.endswith((".w", ".b"))}
        assert len(consumers) == sum(1 + (l.b is not None) for l in sliced.linears())
        for node in tape.nodes:
            for i in node.inputs:
                if i in consumers:
                    consumers[i].append(node)
        for layer in sliced.linears():
            w, b = (fp.ctx.param_leaves.get(f"{layer.layer_id}.{key}") for key in ("w", "b"))
            params = (w.node_id,) if b is None else (w.node_id, b.node_id)
            [node] = consumers[w.node_id]
            assert node.inputs[1:] == params and node.inputs[0] not in consumers
            assert all(consumers[p] == [node] for p in params)

    def test_every_linear_layer_records_one_node(self, rng, monkeypatch):
        """On a masked tape, in the capture pass and on a twin tape, each
        linear layer's forward records one ``linear`` node; the twin's
        layers may add the gather and scatter of their index maps, and no
        layer records anything else but its leaves."""
        model = Forecaster(tiny_config(heads=4, d_model=16, d_ffn=24), seed=3)
        prune_random_channels(model, 0.3, rng)
        sliced = slice_pruned(model)
        windows = rng.normal(0, 1, (4, model.cfg.context_len))
        made: dict[str, list[int]] = {}

        def recording(name):
            op = getattr(ad, name)

            def wrapped(*args, **kwargs):
                out = op(*args, **kwargs)
                made.setdefault(name, []).append(out.node_id)
                return out
            monkeypatch.setattr(ad, name, wrapped)

        for name in ("linear", "gather_last", "scatter_last"):
            recording(name)
        seen = []

        def counting(forward):
            def wrapped(layer, x, ctx):
                before = len(ctx.tape.nodes)
                made.clear()
                out = forward(layer, x, ctx)
                nodes = ctx.tape.nodes[before:]
                interior = [before + i for i, node in enumerate(nodes) if node.inputs]
                seen.append((layer.layer_id, interior, dict(made)))
                return out
            return wrapped

        monkeypatch.setattr(MaskedLinear, "forward", counting(MaskedLinear.forward))
        monkeypatch.setattr(SlicedLinear, "forward", counting(SlicedLinear.forward))
        for run in (lambda: model.forward_batch(windows, tape=ad.Tape()),
                    lambda: model.forward_batch(windows, tape=ad.Tape(), capture_grads=True),
                    lambda: sliced.forward_batch(windows, tape=ad.Tape())):
            seen.clear()
            run()
            assert [lid for lid, _, _ in seen] == [l.layer_id for l in model.linears()]
            for lid, interior, ops in seen:
                assert len(ops.get("linear", ())) == 1, lid
                assert sorted(interior) == sorted(i for ids in ops.values() for i in ids), lid
        assert sum(len(ops) for _, _, ops in seen) > len(seen)  # the twin did gather


def stored_layout(layer, twin):
    """Per parameter of a masked layer: its key, its master array, the
    master coordinates its sliced twin stores, and those the masks keep
    alive."""
    r, c = twin.rows >= 0, twin.cols >= 0
    stored = np.zeros(layer.w.shape, bool)
    stored[np.ix_(twin.rows[r], twin.cols[c])] = True
    out = [("w", layer.w, stored, np.outer(layer.m_in == 1, layer.m_out == 1))]
    if layer.b is not None:
        stored_b = np.zeros(layer.b.shape, bool)
        stored_b[twin.cols[c]] = True
        out.append(("b", layer.b, stored_b, layer.m_out == 1))
    return out


def stored_pairs(twin, key, master, compact):
    """One parameter's stored entries but the pads, as two arrays in the
    same order: ``master``'s at their master coordinates and ``compact``'s."""
    r, c = twin.rows >= 0, twin.cols >= 0
    if key == "b":
        return master[twin.cols[c]], compact[c]
    return master[np.ix_(twin.rows[r], twin.cols[c])], compact[np.ix_(r, c)]


def pad_entries(twin, key, array):
    """The entries of a sliced layer's weight (or bias) that are pads."""
    if key == "b":
        return array[twin.cols < 0]
    return array[(twin.rows < 0)[:, None] | (twin.cols < 0)[None, :]]


def has_pads(sliced):
    return any((t.rows < 0).any() or (t.cols < 0).any() for t in sliced.linears())


# Attention patterns for block 0 of a 4-head, d_h = 4 model. Each returns a
# check on the sliced block that the pattern produced the layout it names.

def unequal_head_widths(model):
    """Head i keeps 4 - i Q·K channels and i + 1 V·O channels, each product
    cut from both of its sides, so every head is zero-padded on one side."""
    block = model.blocks[0]
    for i in range(model.cfg.heads):
        g = model.head_group(i)
        for j in range(i):
            (block.wq if j % 2 else block.wk).m_out[g.start + j] = 0.0
        for j in range(model.cfg.head_dim - 1 - i):
            (block.wv.m_out if j % 2 else block.wo.m_in)[g.stop - 1 - j] = 0.0
    return lambda sb: ([(h.qk.size, h.vo.size) for h in sb.heads]
                       == [(4, 1), (3, 2), (2, 3), (1, 4)]
                       and (sb.q.width, sb.v.width) == (16, 16))


def all_heads_dead(model):
    block = model.blocks[0]
    for i in range(model.cfg.heads):
        (block.wv.m_out if i % 2 else block.wo.m_in)[model.head_group(i)] = 0.0
    return lambda sb: (not any(h.alive for h in sb.heads) and sb.head_count == 1
                       and sb.v.width == sb.q.width == 0)


def no_scored_head(model):
    block = model.blocks[0]
    for i in range(model.cfg.heads):
        (block.wq if i % 2 else block.wk).m_out[model.head_group(i)] = 0.0
    return lambda sb: (all(h.alive and not h.scored for h in sb.heads)
                       and sb.head_count == 4 and sb.q.width == sb.k.width == 0)


def no_qkv_input(model):
    block = model.blocks[0]
    for layer in (block.wq, block.wk, block.wv):
        layer.m_in[...] = 0.0
    return lambda sb: sb.q.w.shape[0] == sb.k.w.shape[0] == sb.v.w.shape[0] == 0


PATTERNS = [unequal_head_widths, all_heads_dead, no_scored_head, no_qkv_input]


def patterned(pattern, style):
    model = Forecaster(tiny_config(heads=4, d_model=16, d_ffn=24, attention=style), seed=3)
    laid_out = pattern(model)
    sliced = slice_pruned(model)
    assert laid_out(sliced.blocks[0])
    return model, sliced


def parameter_grads(net, windows, targets):
    tape = ad.Tape()
    loss, fp = batch_loss(net, windows, targets, tape=tape)
    tape.backward(loss)
    return {name: tape.grad(leaf) for name, leaf in fp.ctx.param_leaves.items()}


class TestPaddedLayout:
    @pytest.mark.parametrize("style", ATTENTION_STYLES)
    @pytest.mark.parametrize("pattern", PATTERNS, ids=lambda p: p.__name__)
    def test_forward_matches_masked(self, rng, pattern, style):
        model, sliced = patterned(pattern, style)
        windows = rng.normal(0, 1, (6, model.cfg.context_len))
        assert np.abs(sliced.predict(windows) - model.predict(windows)).max() <= 1e-9

    @pytest.mark.parametrize("style", ATTENTION_STYLES)
    @pytest.mark.parametrize("pattern", PATTERNS, ids=lambda p: p.__name__)
    def test_gradients_match_masked_on_surviving_coordinates(self, rng, pattern, style):
        """Stored coordinates get the masked gradients; pads hold 0.0 and get
        exactly 0.0, and so does every alive coordinate the twin does not
        store. Nonzero biases would show a pad built from a master entry."""
        model, _ = patterned(pattern, style)
        for layer in model.linears():
            if layer.b is not None:
                layer.b[...] = rng.normal(0, 1, layer.b.shape)
        sliced = slice_pruned(model)
        windows = rng.normal(0, 1, (6, model.cfg.context_len))
        targets = rng.normal(0, 1, (6, model.cfg.horizon))
        masked = parameter_grads(model, windows, targets)
        compact = parameter_grads(sliced, windows, targets)
        assert masked.keys() == compact.keys()
        for layer, twin in zip(model.linears(), sliced.linears()):
            name = layer.layer_id
            for key, _, stored, alive in stored_layout(layer, twin):
                full, small = masked[f"{name}.{key}"], compact[f"{name}.{key}"]
                on_master, on_twin = stored_pairs(twin, key, full, small)
                assert np.abs(on_master - on_twin).max(initial=0.0) <= 1e-9, (name, key)
                for pads in (pad_entries(twin, key, getattr(twin, key)),
                             pad_entries(twin, key, small)):
                    assert (pads == 0.0).all(), (name, key)
                assert (full[alive & ~stored] == 0.0).all(), (name, key)
        for norm in model.norms():
            for key in (f"{norm.name}.gain", f"{norm.name}.offset"):
                if key in masked:
                    assert np.abs(masked[key] - compact[key]).max() <= 1e-9, key


def _mask(draw, size):
    """A random channel mask, three in four channels alive."""
    keep = draw(st.lists(st.integers(0, 3), min_size=size, max_size=size))
    return (np.array(keep) < 3).astype(float)


@st.composite
def masked_models(draw):
    """A small forecaster of drawn shape whose masks hold, per head, a whole
    dead head, a scoreless head, random channels or nothing pruned; per FFN,
    an empty, random or full intersection; and now and then a layer with no
    surviving input, whose output is its bias alone."""
    heads, d_h, patch = draw(st.integers(1, 3)), draw(st.integers(1, 3)), draw(st.integers(1, 3))
    cfg = ForecasterConfig(
        layers=draw(st.integers(1, 2)), heads=heads, d_model=heads * d_h,
        d_ffn=draw(st.integers(1, 5)), patch_len=patch,
        context_len=patch * draw(st.integers(1, 4)), horizon=draw(st.integers(1, 3)),
        norm=draw(st.sampled_from(NORM_KINDS)),
        activation=draw(st.sampled_from(ACTIVATIONS)),
        attention=draw(st.sampled_from(ATTENTION_STYLES)))
    model = Forecaster(cfg, seed=draw(st.integers(0, 99)))
    model.embed.m_out[...] = _mask(draw, cfg.d_model)
    model.head.m_in[...] = _mask(draw, cfg.d_model)
    for block in model.blocks:
        for i in range(heads):
            g = model.head_group(i)
            kind = draw(st.sampled_from(("full", "dead", "scoreless", "random")))
            if kind == "dead":
                draw(st.sampled_from((block.wv.m_out, block.wo.m_in)))[g] = 0.0
            elif kind == "scoreless":
                draw(st.sampled_from((block.wq.m_out, block.wk.m_out)))[g] = 0.0
            elif kind == "random":
                for m in (block.wq.m_out, block.wk.m_out, block.wv.m_out, block.wo.m_in):
                    m[g] = _mask(draw, d_h)
        ffn = draw(st.sampled_from(("full", "empty", "random")))
        if ffn != "full":
            block.ffn_up.m_out[...] = _mask(draw, cfg.d_ffn) if ffn == "random" else 0.0
            block.ffn_down.m_in[...] = _mask(draw, cfg.d_ffn) if ffn == "random" else 0.0
        for layer in block.linears:
            if draw(st.integers(0, 11)) == 11:
                layer.m_in[...] = 0.0
    return model


class TestModelContract:
    @settings(max_examples=100)
    @given(model=masked_models())
    def test_sliced_twin_keeps_the_contract(self, model):
        cfg = model.cfg
        rng = np.random.default_rng(0)
        windows = rng.normal(0, 1, (3, cfg.context_len))
        sliced = slice_pruned(model)
        assert np.abs(sliced.predict(windows) - model.predict(windows)).max() <= 1e-9
        assert sliced.surviving_param_count() == model.surviving_param_count() \
            == brute_force_surviving(model)
        assert cfg.param_count == sum(a.size for _, a in model.named_params())

        blob = checkpoint_bytes(model)
        with tempfile.TemporaryDirectory() as root:
            path = os.path.join(root, "m.ckpt")
            with open(path, "wb") as f:
                f.write(blob)
            loaded = load_checkpoint(path)
        assert checkpoint_bytes(loaded) == blob
        np.testing.assert_array_equal(loaded.predict(windows), model.predict(windows))

        frozen = [(layer.w.copy(), None if layer.b is None else layer.b.copy())
                  for layer in model.linears()]
        n = 8
        train = WindowSet(rng.normal(0, 1, (n, cfg.context_len)),
                          rng.normal(0, 1, (n, cfg.horizon)), np.zeros(n, dtype=int))
        finetune(model, train, train, TrainConfig(lr=1e-2, batch_size=4, max_epochs=1))
        for layer, (w, b) in zip(model.linears(), frozen):
            dead = (layer.m_in == 0)[:, None] | (layer.m_out == 0)[None, :]
            np.testing.assert_array_equal(layer.w[dead], w[dead], err_msg=layer.layer_id)
            if b is not None:
                dead_b = layer.m_out == 0
                np.testing.assert_array_equal(layer.b[dead_b], b[dead_b],
                                              err_msg=layer.layer_id)
