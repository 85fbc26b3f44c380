"""Exact physical slicing of pruned channels.

A sliced model skips the pruned compute. Each compact weight is built
once, at slice time, in the layout its product runs. The residual-facing
sides read and write the full model width. Of each coupled pair
(``model.Block.pairs``) only the channels alive at both ends are stored.
Q, K and V hold the live heads side by side, each zero-padded to the
block's widest one; a pad meets a zero across its product, so its
gradient is exactly zero. A head with no V/O channel alive at both ends
gets no columns.

The twin works out every layer's layout, then sizes its parameter vector,
pads included, and gathers each weight into its view; the norms, the tail
of both vectors, are one slice. The sliced twin runs ``ForecasterBase``'s
forward, the same attention and FFN code as the masked model. It is the
only model that trains: ``training.finetune`` slices a masked forecaster,
trains the twin and writes it back, so pruned coordinates never enter the
tape.
"""

from __future__ import annotations

from typing import Callable

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
    """One masked layer's weight, stored in the layout its product runs.

    Stored row i of ``w`` is master row ``rows[i]`` and stored column j is
    master column ``cols[j]``; -1 marks a zero pad. By default these are
    the surviving channels: the layer gathers its input from full width
    and scatters its output back to ``width``, the full output width.
    ``SlicedBlock`` passes the layouts of the layers that meet inside it,
    which read and write them as they are. ``gather`` stores the weight.
    """

    def __init__(self, layer: MaskedLinear, rows: np.ndarray | None = None,
                 cols: np.ndarray | None = None):
        require_binary(layer)
        self.layer_id = layer.layer_id
        self.in_idx = _alive(layer.m_in)
        self.out_idx = _alive(layer.m_out)
        self.rows = self.in_idx if rows is None else rows
        self.cols = self.out_idx if cols is None else cols
        self.width = layer.d_out if cols is None else self.cols.size

    def gather(self, layer: MaskedLinear, carve: Callable[..., np.ndarray]) -> None:
        """Take ``w`` and ``b`` from ``carve`` and fill them from ``layer``."""
        self.w = carve(f"{self.layer_id}.w", self.rows.size, self.cols.size)
        # a -1 reads the last master row or column, zeroed just below
        self.w[...] = layer.w[np.ix_(self.rows, self.cols)]
        self.w[self.rows < 0] = 0.0
        self.w[:, self.cols < 0] = 0.0
        self.b = None
        if layer.b is not None:
            self.b = carve(f"{self.layer_id}.b", self.cols.size)
            self.b[...] = np.where(self.cols < 0, 0.0, layer.b[self.cols])

    def forward(self, x: Tensor, ctx: ForwardContext) -> Tensor:
        if x.shape[-1] != self.rows.size:
            x = ad.gather_last(x, self.rows)
        y = ctx.linear(self, x)
        return y if self.cols.size == self.width else ad.scatter_last(y, self.cols, self.width)

    def surviving_weights(self) -> int:
        """The masked layer's count: pads and unstored channels do not change it."""
        n = self.in_idx.size * self.out_idx.size
        return n + (0 if self.b is None else self.out_idx.size)

    def write_back(self, layer: MaskedLinear) -> None:
        """Copy every stored entry but the pads to its master coordinates."""
        r, c = self.rows >= 0, self.cols >= 0
        layer.w[np.ix_(self.rows[r], self.cols[c])] = self.w[np.ix_(r, c)]
        if self.b is not None:
            layer.b[self.cols[c]] = self.b[c]


class _HeadPlan:
    """A head's master channels ``qk`` and ``vo`` (``Block.pairs``) and their
    positions among Q's and V's alive outputs and O's alive inputs."""

    def __init__(self, qk: np.ndarray, vo: np.ndarray, block: "SlicedBlock"):
        self.qk, self.vo = qk, vo
        self.q_pos = _positions(block.q.out_idx, qk)
        self.v_pos = _positions(block.v.out_idx, vo)
        self.o_pos = _positions(block.o.in_idx, vo)
        self.alive = vo.size > 0
        self.scored = qk.size > 0


class SlicedBlock:
    """One block's compact layers, laid out for the shared forward.

    Q and K store the j-th live head's Q·K channels from column j·w on, w
    the widest live head's, and V stores its V·O channels the same way,
    as does O in its rows. FFN up stores the columns and FFN down the rows
    alive on both sides of the activation. With no live head the block
    runs one head of width 0, whose attention output is O's bias.
    """

    def __init__(self, block: Block, cfg: ForecasterConfig):
        qk, vo, mid = (np.flatnonzero(f) for f in block.coupled(np.logical_and))
        bounds = np.arange(cfg.head_dim, cfg.d_model, cfg.head_dim)
        qks, vos = (np.split(idx, np.searchsorted(idx, bounds)) for idx in (qk, vo))
        live = [i for i, idx in enumerate(vos) if idx.size]
        self.head_count = max(len(live), 1)
        qk_cols, vo_cols = _padded([qks[i] for i in live]), _padded([vos[i] for i in live])
        self.q = SlicedLinear(block.wq, cols=qk_cols)
        self.k = SlicedLinear(block.wk, cols=qk_cols)
        self.v = SlicedLinear(block.wv, cols=vo_cols)
        self.o = SlicedLinear(block.wo, rows=vo_cols)
        self.up = SlicedLinear(block.ffn_up, cols=mid)
        self.down = SlicedLinear(block.ffn_down, rows=mid)
        self.linears = (self.q, self.k, self.v, self.o, self.up, self.down)
        self.heads = [_HeadPlan(q, v, self) for q, v in zip(qks, vos)]
        self.mid_up_pos = _positions(self.up.out_idx, mid)
        self.mid_down_pos = _positions(self.down.in_idx, mid)


def _padded(parts: list[np.ndarray]) -> np.ndarray:
    """The parts side by side, each padded with -1 to the widest."""
    w = max((p.size for p in parts), default=0)
    return np.concatenate([np.empty(0, np.intp),
                           *(np.pad(p, (0, w - p.size), constant_values=-1) for p in parts)])


class SlicedForecaster(ForecasterBase):
    """Compact twin of a masked forecaster; forward skips pruned compute.

    It is the model that training runs: ``training.finetune`` slices a
    masked forecaster, trains this twin and writes the result back.
    """

    def __init__(self, model: Forecaster):
        self.cfg = cfg = model.cfg
        self.embed = SlicedLinear(model.embed)
        self.blocks = [SlicedBlock(b, cfg) for b in model.blocks]
        self.head = SlicedLinear(model.head)
        pairs = list(zip(self.linears(), model.linears()))
        self.params = np.zeros(sum(c.rows.size * c.cols.size + (0 if m.b is None else c.cols.size)
                                   for c, m in pairs) + cfg.norm_param_count)
        self.layout = []
        for compact, master in pairs:
            compact.gather(master, self.carve)
        for block, master in zip(self.blocks, model.blocks):
            block.norm1, block.norm2 = (NormParams(norm.name, cfg.norm, cfg.d_model, self.carve)
                                        for norm in (master.norm1, master.norm2))
        norms = slice(-cfg.norm_param_count, None)
        self.params[norms] = model.params[norms]

    def write_back(self, model: Forecaster) -> None:
        """Copy trained compact weights into the full-size master model."""
        for compact, master in zip(self.linears(), model.linears()):
            compact.write_back(master)
        norms = slice(-self.cfg.norm_param_count, None)
        model.params[norms] = self.params[norms]

    def forward_batch(self, windows: np.ndarray, tape: Tape | None = None,
                      grads: dict[str, np.ndarray] | None = None) -> ForwardPass:
        """Forward a (B, L) batch of context windows through the compact
        weights; ``grads`` as in ``Forecaster.forward_batch``."""
        return self._forward(windows, ForwardContext(tape, grads=grads), None)


def slice_pruned(model: Forecaster) -> SlicedForecaster:
    """Physically remove masked channels; forward stays exact to the masked model."""
    return SlicedForecaster(model)
