"""Exact physical slicing of pruned channels.

A sliced model stores exactly the mask-surviving weight entries and skips
the pruned compute. Interior dimensions shrink the stored matrices; the
residual stream keeps its original width via input-gather and output-
scatter at the residual-facing sides. Where two sides meet in a product
(Q·Kᵀ, context·W_O, activation·W_down) only the index intersection is
computed; entries dead on either side contribute exactly zero. A head
whose V-output ∩ W_O-input intersection is empty is dropped from compute
entirely.

The sliced twin shares ``ForecasterBase``'s forward skeleton with the
masked model and supplies its own attention and FFN cores. It is the only
model that trains: ``training.finetune`` slices a masked forecaster, trains
the twin and writes it back, so pruned coordinates never enter the tape.
"""

from __future__ import annotations

import math

import numpy as np

from . import autodiff as ad
from .autodiff import Tape, Tensor
from .model import (Block, Forecaster, ForecasterBase, ForecasterConfig,
                    ForwardContext, ForwardPass, MaskedLinear, NormParams)


def require_binary(layer: MaskedLinear) -> None:
    for name, m in (("m_in", layer.m_in), ("m_out", layer.m_out)):
        if not np.isin(m, (0.0, 1.0)).all():
            raise ValueError(f"{layer.layer_id}.{name} is not binary; freeze masks "
                             "before slicing")


def _alive(mask: np.ndarray) -> np.ndarray:
    return np.flatnonzero(mask == 1.0).astype(np.intp)


def _positions(universe: np.ndarray, wanted: np.ndarray) -> np.ndarray:
    """Positions of `wanted` (sorted, subset) inside sorted `universe`."""
    return np.searchsorted(universe, wanted).astype(np.intp)


class SlicedLinear:
    """Compact storage of one masked layer: only surviving entries remain."""

    def __init__(self, layer: MaskedLinear):
        require_binary(layer)
        self.layer_id = layer.layer_id
        self.in_idx = _alive(layer.m_in)
        self.out_idx = _alive(layer.m_out)
        self.d_in_full = layer.d_in
        self.d_out_full = layer.d_out
        self.w = layer.w[np.ix_(self.in_idx, self.out_idx)].copy()
        self.b = None if layer.b is None else layer.b[self.out_idx].copy()

    def gather_input(self, x: Tensor) -> Tensor:
        return x if self.in_idx.size == self.d_in_full else ad.gather_last(x, self.in_idx)

    def affine(self, xg: Tensor, ctx: ForwardContext, rows: np.ndarray | None = None) -> Tensor:
        """xg·W (+ b); ``rows`` picks the rows of W that xg's columns meet."""
        w = ctx.lift(f"{self.layer_id}.w", self.w)
        if rows is not None and rows.size != self.in_idx.size:
            w = ad.transpose_last2(ad.gather_last(ad.transpose_last2(w), rows))
        return self.add_bias(ad.matmul(xg, w), ctx)

    def add_bias(self, y: Tensor, ctx: ForwardContext) -> Tensor:
        return y if self.b is None else ad.add(y, ctx.lift(f"{self.layer_id}.b", self.b))

    def scatter_output(self, y: Tensor) -> Tensor:
        if self.out_idx.size == self.d_out_full:
            return y
        return ad.scatter_last(y, self.out_idx, self.d_out_full)

    def forward(self, x: Tensor, ctx: ForwardContext) -> Tensor:
        """Full-width in, full-width out: gather, compact affine, scatter."""
        return self.scatter_output(self.affine(self.gather_input(x), ctx))

    def stored_weights(self) -> int:
        return self.w.size + (0 if self.b is None else self.b.size)

    def write_back(self, layer: MaskedLinear) -> None:
        layer.w[np.ix_(self.in_idx, self.out_idx)] = self.w
        if self.b is not None:
            layer.b[self.out_idx] = self.b


class _HeadPlan:
    """Intersection index maps for one attention head."""

    def __init__(self, group: slice, q: SlicedLinear, k: SlicedLinear,
                 v: SlicedLinear, o: SlicedLinear):
        lo, hi = group.start, group.stop

        def in_group(idx):
            return idx[(idx >= lo) & (idx < hi)]

        qk = np.intersect1d(in_group(q.out_idx), in_group(k.out_idx))
        vo = np.intersect1d(in_group(v.out_idx), in_group(o.in_idx))
        self.q_pos = _positions(q.out_idx, qk)
        self.k_pos = _positions(k.out_idx, qk)
        self.v_pos = _positions(v.out_idx, vo)
        self.o_pos = _positions(o.in_idx, vo)
        self.alive = vo.size > 0
        self.scored = qk.size > 0


class SlicedBlock:
    def __init__(self, block: Block, cfg: ForecasterConfig):
        self.q = SlicedLinear(block.wq)
        self.k = SlicedLinear(block.wk)
        self.v = SlicedLinear(block.wv)
        self.o = SlicedLinear(block.wo)
        self.up = SlicedLinear(block.ffn_up)
        self.down = SlicedLinear(block.ffn_down)
        self.linears = (self.q, self.k, self.v, self.o, self.up, self.down)
        self.norm1 = _copy_norm(block.norm1)
        self.norm2 = _copy_norm(block.norm2)
        d_h = cfg.head_dim
        self.heads = [_HeadPlan(slice(i * d_h, (i + 1) * d_h),
                                self.q, self.k, self.v, self.o)
                      for i in range(cfg.heads)]
        mid = np.intersect1d(self.up.out_idx, self.down.in_idx)
        self.mid_up_pos = _positions(self.up.out_idx, mid)
        self.mid_down_pos = _positions(self.down.in_idx, mid)


def _bias_only(layer: SlicedLinear, x: Tensor, ctx: ForwardContext) -> Tensor:
    """The output of a layer none of whose inputs survive: its bias alone."""
    zeros = ad.constant(np.zeros(x.shape[:-1] + (layer.out_idx.size,)))
    return layer.scatter_output(layer.add_bias(zeros, ctx))


def _copy_norm(norm: NormParams) -> NormParams:
    twin = NormParams(norm.name, norm.kind, norm.gain.size, norm.eps)
    twin.gain = norm.gain.copy()
    if norm.offset is not None:
        twin.offset = norm.offset.copy()
    return twin


class SlicedForecaster(ForecasterBase):
    """Compact twin of a masked forecaster; forward skips pruned compute.

    It is the model that training runs: ``training.finetune`` slices a
    masked forecaster, trains this twin and writes the result back.
    """

    def __init__(self, model: Forecaster):
        self.cfg = model.cfg
        self.embed = SlicedLinear(model.embed)
        self.blocks = [SlicedBlock(b, model.cfg) for b in model.blocks]
        self.head = SlicedLinear(model.head)
        self._total = model.total_param_count()

    def param_count(self) -> int:
        n = sum(l.stored_weights() for l in self.linears())
        return n + sum(norm.param_count() for norm in self.norms())

    def param_fraction(self) -> float:
        return self.param_count() / self._total

    def write_back(self, model: Forecaster) -> None:
        """Copy trained compact weights into the full-size master model."""
        for compact, master in zip(self.linears(), model.linears()):
            compact.write_back(master)
        for twin, master in zip(self.norms(), model.norms()):
            master.gain[...] = twin.gain
            if master.offset is not None:
                master.offset[...] = twin.offset

    def forward_batch(self, windows: np.ndarray, tape: Tape | None = None) -> ForwardPass:
        """Forward a (B, L) batch of context windows through the compact weights."""
        return self._forward(windows, ForwardContext(tape), None)

    def mha_forward(self, block: SlicedBlock, xn: Tensor, ctx: ForwardContext,
                    causal: np.ndarray | None, cap: None) -> Tensor:
        """Attention over live heads only, each at its surviving widths."""
        alive = [h for h in block.heads if h.alive]
        if not alive:
            return _bias_only(block.o, xn, ctx)
        q_c = block.q.affine(block.q.gather_input(xn), ctx)
        k_c = block.k.affine(block.k.gather_input(xn), ctx)
        v_c = block.v.affine(block.v.gather_input(xn), ctx)
        inv_scale = 1.0 / math.sqrt(self.cfg.head_dim)
        contexts = []
        for plan in alive:
            if plan.scored:
                qi = ad.gather_last(q_c, plan.q_pos)
                ki = ad.gather_last(k_c, plan.k_pos)
                scores = ad.scale(ad.matmul(qi, ad.transpose_last2(ki)), inv_scale)
            else:
                scores = ad.constant(np.zeros(xn.shape[:-1] + (xn.shape[-2],)))
            if causal is not None:
                scores = ad.add(scores, ad.constant(causal))
            attn = ad.softmax_rows(scores)
            contexts.append(ad.matmul(attn, ad.gather_last(v_c, plan.v_pos)))
        rows = np.concatenate([p.o_pos for p in alive])
        return block.o.scatter_output(block.o.affine(ad.concat_last(contexts), ctx, rows))

    def ffn_forward(self, block: SlicedBlock, xn: Tensor, ctx: ForwardContext,
                    cap: None) -> Tensor:
        """FFN over the channels alive on both sides of the activation."""
        if not block.mid_up_pos.size:
            return _bias_only(block.down, xn, ctx)
        act = self._activation(block.up.affine(block.up.gather_input(xn), ctx))
        if block.mid_up_pos.size != block.up.out_idx.size:
            act = ad.gather_last(act, block.mid_up_pos)
        return block.down.scatter_output(block.down.affine(act, ctx, block.mid_down_pos))


def slice_pruned(model: Forecaster) -> SlicedForecaster:
    """Physically remove masked channels; forward stays exact to the masked model."""
    return SlicedForecaster(model)
