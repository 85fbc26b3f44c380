"""Exact physical slicing of pruned channels.

A sliced model stores exactly the mask-surviving weight entries and skips
the pruned compute. Each compact layer carries its own index maps: the
input columns it reads, the rows of its weight they meet, the outputs it
keeps and where it writes them. The residual-facing sides read and write
the full model width. Where two sides meet in a product (Q·Kᵀ,
context·W_O, activation·W_down) only the index intersection is computed;
entries dead on either side contribute exactly zero. Q, K and V write the
live heads side by side, each zero-padded to the block's widest one, and
a head whose V-output ∩ W_O-input intersection is empty gets no slot.

The sliced twin therefore runs ``ForecasterBase``'s forward, the same
attention and FFN code as the masked model. It is the only model that
trains: ``training.finetune`` slices a masked forecaster, trains the twin
and writes it back, so pruned coordinates never enter the tape.
"""

from __future__ import annotations

import copy

import numpy as np

from . import autodiff as ad
from .autodiff import Tape, Tensor
from .model import (Block, Forecaster, ForecasterBase, ForecasterConfig,
                    ForwardContext, ForwardPass, MaskedLinear)


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
    """Compact storage of one masked layer, and the index maps it computes through.

    ``forward`` reads the input columns ``cols``, meets them with the rows
    ``rows`` of the compact weight, keeps the compact outputs ``keep`` (bias
    included) and writes them to ``slots`` of a zero output of width
    ``width``. Each map is a strictly increasing index array, skipped when
    it takes everything. By default the layer reads and writes full width:
    ``cols`` and ``slots`` are its surviving channels, and every row and
    output is kept. ``SlicedBlock`` rewires the layers that meet inside it.
    """

    def __init__(self, layer: MaskedLinear):
        require_binary(layer)
        self.layer_id = layer.layer_id
        self.in_idx = _alive(layer.m_in)
        self.out_idx = _alive(layer.m_out)
        self.w = layer.w[np.ix_(self.in_idx, self.out_idx)].copy()
        self.b = None if layer.b is None else layer.b[self.out_idx].copy()
        self.cols, self.rows = self.in_idx, np.arange(self.in_idx.size)
        self.keep, self.slots, self.width = (np.arange(self.out_idx.size), self.out_idx,
                                             layer.d_out)

    def forward(self, x: Tensor, ctx: ForwardContext) -> Tensor:
        if self.cols.size != x.shape[-1]:
            x = ad.gather_last(x, self.cols)
        w = ctx.lift(f"{self.layer_id}.w", self.w)
        if self.rows.size != self.w.shape[0]:
            w = ad.transpose_last2(ad.gather_last(ad.transpose_last2(w), self.rows))
        if self.keep.size != self.w.shape[1]:
            w = ad.gather_last(w, self.keep)
        y = ad.matmul(x, w)
        if self.b is not None:
            b = ctx.lift(f"{self.layer_id}.b", self.b)
            y = ad.add(y, b if self.keep.size == self.b.size else ad.gather_last(b, self.keep))
        return y if self.slots.size == self.width else ad.scatter_last(y, self.slots, self.width)

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
    """One block's compact layers, rewired for the shared forward.

    Q, K and V write the j-th live head to slots j·w onwards, w the widest
    live (qk, vo) width, and O reads V's slots. FFN up and down meet at the
    channels alive on both sides of the activation. With no live head the
    block runs one head of width 0, whose attention output is O's bias.
    """

    def __init__(self, block: Block, cfg: ForecasterConfig):
        self.q = SlicedLinear(block.wq)
        self.k = SlicedLinear(block.wk)
        self.v = SlicedLinear(block.wv)
        self.o = SlicedLinear(block.wo)
        self.up = SlicedLinear(block.ffn_up)
        self.down = SlicedLinear(block.ffn_down)
        self.linears = (self.q, self.k, self.v, self.o, self.up, self.down)
        self.norm1 = copy.deepcopy(block.norm1)
        self.norm2 = copy.deepcopy(block.norm2)
        d_h = cfg.head_dim
        self.heads = [_HeadPlan(slice(i * d_h, (i + 1) * d_h),
                                self.q, self.k, self.v, self.o)
                      for i in range(cfg.heads)]
        live = [h for h in self.heads if h.alive]
        self.head_count = max(len(live), 1)
        for layer, pos in ((self.q, "q_pos"), (self.k, "k_pos"), (self.v, "v_pos")):
            _pad_heads(layer, [getattr(h, pos) for h in live])
        self.o.cols = self.v.slots
        self.o.rows = _joined([h.o_pos for h in live])
        mid = np.intersect1d(self.up.out_idx, self.down.in_idx)
        self.mid_up_pos = _positions(self.up.out_idx, mid)
        self.mid_down_pos = _positions(self.down.in_idx, mid)
        self.up.keep, self.down.rows = self.mid_up_pos, self.mid_down_pos
        self.up.slots = self.down.cols = np.arange(mid.size)
        self.up.width = mid.size


def _joined(parts: list[np.ndarray]) -> np.ndarray:
    return np.concatenate([np.empty(0, np.intp), *parts])


def _pad_heads(layer: SlicedLinear, parts: list[np.ndarray]) -> None:
    """Keep the compact outputs ``parts[j]`` of each live head j and write
    them to slots j·w onwards, w the widest part."""
    w = max((p.size for p in parts), default=0)
    layer.keep = _joined(parts)
    layer.slots = _joined([j * w + np.arange(p.size) for j, p in enumerate(parts)])
    layer.width = len(parts) * w


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


def slice_pruned(model: Forecaster) -> SlicedForecaster:
    """Physically remove masked channels; forward stays exact to the masked model."""
    return SlicedForecaster(model)
