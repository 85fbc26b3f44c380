"""Matmul shapes of one forward, their FLOPs, and a pure-numpy matmul floor.

A shape is (lead, m, k, n): an (m, k) @ (k, n) product repeated over the
leading batch dimensions ``lead``. The lists mirror the forward code: every
linear layer as one (B*T, d_in) @ (d_in, d_out) product, and per attention
head Q·Kᵀ and attention·V over (B, T, ·).
"""

from __future__ import annotations

import statistics
import time

import numpy as np

Shape = tuple[tuple[int, ...], int, int, int]


def dense_shapes(model, batch: int) -> list[Shape]:
    """The masked forward computes every layer at full width."""
    cfg = model.cfg
    bt, t, d, d_h = batch * cfg.tokens, cfg.tokens, cfg.d_model, cfg.head_dim
    out: list[Shape] = [((), bt, cfg.patch_len, d)]
    for _ in model.blocks:
        out += [((), bt, d, d)] * 3
        out += [((batch,), t, d_h, t), ((batch,), t, t, d_h)] * cfg.heads
        out += [((), bt, d, d), ((), bt, d, cfg.d_ffn), ((), bt, cfg.d_ffn, d)]
    out.append(((), batch, d, cfg.horizon))
    return out


def sliced_shapes(sliced, batch: int) -> list[Shape]:
    """Products the sliced forward runs: surviving widths, live heads only."""
    cfg = sliced.cfg
    bt, t = batch * cfg.tokens, cfg.tokens

    def linear(layer, rows, k=None):
        return ((), rows, layer.w.shape[0] if k is None else k, layer.w.shape[1])

    out: list[Shape] = [linear(sliced.embed, bt)]
    for block in sliced.blocks:
        alive = [h for h in block.heads if h.alive]
        if alive:
            out += [linear(block.q, bt), linear(block.k, bt), linear(block.v, bt)]
            for plan in alive:
                if plan.scored:
                    out.append(((batch,), t, plan.q_pos.size, t))
                out.append(((batch,), t, t, plan.v_pos.size))
            out.append(linear(block.o, bt, sum(p.o_pos.size for p in alive)))
        if block.mid_up_pos.size:
            out += [linear(block.up, bt), linear(block.down, bt, block.mid_down_pos.size)]
    out.append(linear(sliced.head, batch))
    return out


def flops(shapes: list[Shape]) -> int:
    return sum(2 * int(np.prod(lead, dtype=np.int64)) * m * k * n
               for lead, m, k, n in shapes)


def matmul_floor_s(shapes: list[Shape], repeats: int, seed: int = 0) -> float:
    """Median wall time of running just the products, on random operands."""
    rng = np.random.default_rng(seed)
    operands = {}
    for lead, m, k, n in shapes:
        if (lead, m, k, n) not in operands:
            operands[(lead, m, k, n)] = (rng.standard_normal(lead + (m, k)),
                                         rng.standard_normal(lead + (k, n)))
    pairs = [operands[s] for s in shapes]
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        for a, b in pairs:
            a @ b
        times.append(time.perf_counter() - t0)
    return statistics.median(times)
