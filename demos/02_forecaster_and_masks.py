"""A maskable patch-transformer forecaster: masked vs folded vs sliced forms,
plus a checkpoint round-trip.

Run:  python3 demos/02_forecaster_and_masks.py
"""

import os
import tempfile

import numpy as np

from prunecast.checkpoint import load_checkpoint, save_checkpoint
from prunecast.model import Forecaster, ForecasterConfig
from prunecast.slicing import slice_pruned

cfg = ForecasterConfig(layers=2, heads=4, d_model=32, d_ffn=64, patch_len=8,
                       context_len=96, horizon=24)
model = Forecaster(cfg, seed=42)
print(f"forecaster: {cfg.layers} blocks, {cfg.heads} heads, d={cfg.d_model}, "
      f"{model.cfg.param_count} parameters")

window = np.sin(np.arange(cfg.context_len) * 0.21) + 0.05
print("forecast head:", np.round(model.forward_window(window)[:5], 4), "...")

# Every linear layer carries binary channel masks. Zeroing an output channel
# silences it exactly, bias included.
layer = model.blocks[0].ffn_up
x = np.random.default_rng(1).normal(0, 1, (3, layer.d_in))
layer.m_out[7] = 0.0
folded = layer.folded_forward(x)
print("\nmasked column 7 of block0.ffn.up:", folded[:, 7])

# Prune a few channels, then slice them out physically.
model.blocks[0].ffn_up.m_out[:16] = 0.0
model.blocks[0].ffn_down.m_in[:16] = 0.0
model.blocks[1].wv.m_out[:8] = 0.0
model.blocks[1].wo.m_in[:8] = 0.0
sliced = slice_pruned(model)
gap = np.abs(sliced.forward_window(window) - model.forward_window(window)).max()
print(f"\nsliced vs masked forecast gap: {gap:.2e}")
print(f"parameters: {model.cfg.param_count} -> {sliced.surviving_param_count()} "
      f"(#p = {sliced.param_fraction():.3f})")

# Checkpoints round-trip the weights, masks and index maps byte-exactly.
with tempfile.TemporaryDirectory() as tmp:
    path = os.path.join(tmp, "model.ckpt")
    save_checkpoint(model, path)
    twin = load_checkpoint(path)
    same = np.array_equal(twin.forward_window(window), model.forward_window(window))
    print(f"\ncheckpoint round-trip bitwise-identical forward: {same}")
