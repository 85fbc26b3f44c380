"""Slicing equivalence: compact forward must reproduce masked forward."""

import numpy as np
import pytest

from prunecast.model import Forecaster
from prunecast.slicing import index_maps, slice_pruned

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

    def test_index_maps_reflect_masks(self):
        model = Forecaster(tiny_config(layers=1), seed=0)
        model.blocks[0].ffn_up.m_out[[1, 3]] = 0.0
        maps = index_maps(model)
        up = maps["block0.ffn.up"]
        assert 1 not in up["out"] and 3 not in up["out"]
        assert up["in"] == list(range(model.cfg.d_model))

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
