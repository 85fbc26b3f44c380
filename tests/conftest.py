"""Shared oracles: central finite differences and tolerance helpers."""

import os
import tempfile

import numpy as np
import pytest
from hypothesis import settings

# Property tests draw the same examples on every run and keep no example
# database, so tier-1 stays deterministic. Hypothesis still caches the
# constants it mines from source files; that cache goes to the temp dir, so
# the tests write no .hypothesis/ into the working tree.
os.environ.setdefault("HYPOTHESIS_STORAGE_DIRECTORY",
                      os.path.join(tempfile.gettempdir(), "prunecast-hypothesis"))
settings.register_profile("prunecast", derandomize=True, database=None,
                          deadline=None, max_examples=150)
settings.load_profile("prunecast")


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


@pytest.fixture
def rng():
    return np.random.default_rng(0)


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
