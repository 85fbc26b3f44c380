"""Shared oracles: central finite differences, tolerance helpers, planted
dead channels and brute-force channel importance."""

import numpy as np

from prunecast.training import batch_loss


def central_diff(f, arrays, which, h=1e-5):
    """Gradient of scalar f(arrays) w.r.t. arrays[which] by central differences."""
    work = [np.array(a, dtype=np.float64, copy=True) for a in arrays]
    g = np.zeros_like(work[which])
    it = np.nditer(work[which], flags=["multi_index"])
    for _ in it:
        idx = it.multi_index
        orig = work[which][idx]
        work[which][idx] = orig + h
        fp = f(work)
        work[which][idx] = orig - h
        fm = f(work)
        work[which][idx] = orig
        g[idx] = (fp - fm) / (2.0 * h)
    return g


def assert_grads_close(analytic, numeric, rtol=1e-4, atol=1e-8, label=""):
    """Relative tolerance with an absolute escape for near-zero gradients.

    Central differences of near-zero gradients are pure rounding noise, so a
    plain relative test would be meaningless there.
    """
    analytic = np.asarray(analytic)
    numeric = np.asarray(numeric)
    denom = np.maximum(np.abs(analytic), np.abs(numeric))
    err = np.abs(analytic - numeric)
    ok = (err <= rtol * denom) | (err <= atol)
    if not ok.all():
        worst = np.unravel_index(np.argmax(err - rtol * denom), err.shape)
        raise AssertionError(
            f"{label} gradient mismatch at {worst}: "
            f"analytic={analytic[worst]:.6e} numeric={numeric[worst]:.6e} "
            f"abs_err={err[worst]:.3e}"
        )


def plant_dead_ffn_channels(model, block_idx, channels):
    """Zero everything feeding the given FFN intermediate channels.

    Their post-activation values become exactly 0 (relu/gelu fix 0), so the
    matching down-input channels see x ≡ 0 and carry zero importance.
    """
    block = model.blocks[block_idx]
    for c in channels:
        block.ffn_up.w[:, c] = 0.0
        block.ffn_up.b[c] = 0.0


def plant_dead_head(model, block_idx, head):
    """Zero a head's value projection so its W_O input group sees x ≡ 0."""
    block = model.blocks[block_idx]
    g = model.head_group(head)
    block.wv.w[:, g] = 0.0
    block.wv.b[g] = 0.0


def layer_by_id(model, layer_id):
    for layer in model.linears():
        if layer.layer_id == layer_id:
            return layer
    raise KeyError(layer_id)


def oracle_importance(model, windows, ref):
    """Brute-force importance: |L(mask with channel zeroed) − L(mask)|."""
    contexts, targets = windows.contexts, windows.targets
    layer = layer_by_id(model, ref.layer_id)
    mask = layer.mask(ref.side)
    base = batch_loss(model, contexts, targets)[0]
    saved = mask[ref.index]
    mask[ref.index] = 0.0
    try:
        flipped = batch_loss(model, contexts, targets)[0]
    finally:
        mask[ref.index] = saved
    return abs(flipped - base)
