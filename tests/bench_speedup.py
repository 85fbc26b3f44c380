"""Single-thread forward speedup measurement, run in a pinned subprocess.

Removes half the attention heads (all four per-head projection groups) and
half the FFN channels (up-output + down-input jointly), slices, and times
the dense original against the sliced model. Prints one JSON line.
BLAS is pinned to one thread unless the caller set the variables, so a
run by hand measures what the pinned subprocess of test_08 measures.
"""

import json
import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ.setdefault(_var, "1")

import numpy as np  # noqa: E402  (after the pin)

from prunecast.model import Forecaster, ForecasterConfig  # noqa: E402
from prunecast.slicing import slice_pruned  # noqa: E402
from prunecast.training import bench_inference  # noqa: E402


def main():
    cfg = ForecasterConfig(layers=12, heads=8, d_model=256, d_ffn=1024,
                           patch_len=8, context_len=512, horizon=96)
    pruned = Forecaster(cfg, seed=0)
    original = pruned.clone()  # all-ones masks, identical weights
    rng = np.random.default_rng(2)
    batch = rng.normal(0, 1, (4, cfg.context_len))

    for block in pruned.blocks:
        for h in range(0, cfg.heads, 2):
            g = pruned.head_group(h)
            for layer in (block.wq, block.wk, block.wv):
                layer.m_out[g] = 0.0
            block.wo.m_in[g] = 0.0
        half = np.arange(0, cfg.d_ffn, 2)
        block.ffn_up.m_out[half] = 0.0
        block.ffn_down.m_in[half] = 0.0

    sliced = slice_pruned(pruned)
    exactness = float(np.abs(sliced.predict(batch) - pruned.predict(batch)).max())
    slow = bench_inference(original, batch, repeats=50, warmup=3)
    fast = bench_inference(sliced, batch, repeats=50, warmup=3)
    print(json.dumps({
        "original_mean_s": slow["mean_s"], "original_std_s": slow["std_s"],
        "sliced_mean_s": fast["mean_s"], "sliced_std_s": fast["std_s"],
        "speedup": slow["mean_s"] / fast["mean_s"],
        "exactness": exactness,
        "param_fraction": pruned.param_fraction(),
    }))


if __name__ == "__main__":
    main()
