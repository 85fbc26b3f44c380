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
                             ForecasterConfig)
from prunecast.slicing import slice_pruned
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
        n += norm.param_count()
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
                assert sliced.param_count() == model.total_param_count()
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
        assert sliced.param_count() == expected
        assert model.surviving_param_count() == expected
        assert sliced.param_fraction() == expected / model.total_param_count()

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
        model = Forecaster(tiny_config(layers=1), seed=4)
        prune_random_channels(model, 0.3, rng)
        frozen = {name: arr.copy() for name, arr in model.named_params()}
        sliced = slice_pruned(model)
        for _, arr in sliced.named_params():
            arr += 0.25
        sliced.write_back(model)
        for layer in model.linears():
            dead = np.outer(layer.m_in == 0, np.ones(layer.d_out, dtype=bool)) \
                 | np.outer(np.ones(layer.d_in, dtype=bool), layer.m_out == 0)
            np.testing.assert_array_equal(layer.w[dead], frozen[f"{layer.layer_id}.w"][dead])
            alive = ~dead
            if alive.any():
                assert np.allclose(layer.w[alive],
                                   frozen[f"{layer.layer_id}.w"][alive] + 0.25)


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
    return lambda sb: ([(h.q_pos.size, h.v_pos.size) for h in sb.heads]
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
        model, sliced = patterned(pattern, style)
        windows = rng.normal(0, 1, (6, model.cfg.context_len))
        targets = rng.normal(0, 1, (6, model.cfg.horizon))
        masked = parameter_grads(model, windows, targets)
        compact = parameter_grads(sliced, windows, targets)
        assert masked.keys() == compact.keys()
        for layer, twin in zip(model.linears(), sliced.linears()):
            name = layer.layer_id
            assert np.abs(masked[f"{name}.w"][np.ix_(twin.in_idx, twin.out_idx)]
                          - compact[f"{name}.w"]).max(initial=0.0) <= 1e-9, name
            if layer.b is not None:
                assert np.abs(masked[f"{name}.b"][twin.out_idx]
                              - compact[f"{name}.b"]).max(initial=0.0) <= 1e-9, name
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
        assert sliced.param_count() == model.surviving_param_count() \
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
