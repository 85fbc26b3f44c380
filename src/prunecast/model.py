"""Patch-based transformer forecaster whose every linear layer is maskable.

Every linear transformation carries binary input/output channel masks with
the identity h = f(x ⊙ m_in) ⊙ m_out = x (W ⊙ m_inᵀm_out) + b ⊙ m_out.
Forward passes can run bare (numpy only) or on a gradient tape; the
capture pass tiles each mask leaf to one row per window, so its gradient
holds the per-sample mask gradients. An analysis capture keeps the
intermediates of the sparsity diagnostics.
"""

from __future__ import annotations

import contextlib
import copy
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import autodiff as ad
from .autodiff import Tape, Tensor
from .errors import ConfigError, Field, ShapeError, section_problems

NORM_KINDS = ("layernorm", "rmsnorm")
ACTIVATIONS = ("relu", "gelu")
ATTENTION_STYLES = ("bidirectional", "causal")

STD_FLOOR = 1e-8
NORM_EPS = 1e-5
NEG_INF = -1e30


_SIZE = Field(int, rule=">= 1")
FIELDS = {"layers": _SIZE, "heads": _SIZE, "d_model": _SIZE, "d_ffn": _SIZE,
          "patch_len": _SIZE, "context_len": _SIZE, "horizon": _SIZE,
          "norm": Field(str, "layernorm", NORM_KINDS),
          "activation": Field(str, "gelu", ACTIVATIONS),
          "attention": Field(str, "bidirectional", ATTENTION_STYLES)}


def config_problems(d, where: str = "model") -> list[str]:
    """The problems ``section_problems`` finds in a model section; once there
    are none, a ``d_model`` not divisible by ``heads`` and a ``context_len``
    not divisible by ``patch_len``."""
    return section_problems(d, FIELDS, where) or [
        f"{where}.{key}: {d[key]} is not divisible by {div}={d[div]}"
        for key, div in (("d_model", "heads"), ("context_len", "patch_len"))
        if d[key] % d[div]]


@dataclass
class ForecasterConfig:
    layers: int
    heads: int
    d_model: int
    d_ffn: int
    patch_len: int
    context_len: int
    horizon: int
    norm: str = "layernorm"
    activation: str = "gelu"
    attention: str = "bidirectional"

    def __post_init__(self):
        problems = config_problems(self.to_dict())
        if problems:
            raise ConfigError("; ".join(problems))

    @property
    def tokens(self) -> int:
        return self.context_len // self.patch_len

    @property
    def head_dim(self) -> int:
        return self.d_model // self.heads

    @property
    def param_count(self) -> int:
        """The exact number of weights, biases, gains and offsets the model lays out."""
        d, f = self.d_model, self.d_ffn
        norm = (2 if self.norm == "layernorm" else 1) * d
        block = 4 * d * d + 2 * d * f + 3 * d + f + 2 * norm
        return (self.patch_len + 1) * d + self.layers * block + (d + 1) * self.horizon

    def to_dict(self) -> dict:
        return {k: getattr(self, k) for k in FIELDS}


def pools(cfg: ForecasterConfig, batch: int) -> bool:
    """Whether a no-tape forward of ``batch`` windows can ask ``ad.empty``
    for ``ad.POOL_MIN`` elements or multiply a weight that large, so that a
    reuse scope changes anything. Its arrays are at most (batch, tokens,
    w) for w the widest of patch_len, d_model, d_ffn, horizon and heads ·
    tokens (the scores), and its weights at most d_model by the widest of
    the others; a sliced twin's are no larger. Otherwise a scope pools
    nothing and only costs time.
    """
    widest = max(cfg.patch_len, cfg.d_model, cfg.d_ffn, cfg.horizon)
    return max(batch * cfg.tokens * max(widest, cfg.heads * cfg.tokens),
               cfg.d_model * widest) >= ad.POOL_MIN


class ForwardContext:
    """Carries the tape and collects the leaves of one forward pass.

    On a tape every parameter and mask becomes a watched leaf. The capture
    pass (``capture_grads``) reads only mask gradients, so there parameters
    enter as constants and each mask leaf is tiled (a broadcast view, no
    copy) to the shape of the activation a it multiplies, one row per
    window: its gradient is a ⊙ ∂L/∂(a ⊙ m) per window and token, and no
    weight, bias or gain gradient is ever formed.
    """

    def __init__(self, tape: Tape | None = None, capture_grads: bool = False):
        self.tape = tape
        self.capture_grads = capture_grads and tape is not None
        self.param_leaves: dict[str, Tensor] = {}
        self.mask_leaves: dict[str, tuple[Tensor, Tensor]] = {}

    def lift(self, name: str, array: np.ndarray) -> Tensor:
        if self.tape is None or self.capture_grads:
            return ad.constant(array)
        leaf = self.param_leaves.get(name)
        if leaf is None:
            leaf = self.tape.watch(array)
            self.param_leaves[name] = leaf
        return leaf

    def masks(self, layer: MaskedLinear, lead: tuple[int, ...]) -> tuple[Tensor, Tensor]:
        """A layer's (m_in, m_out) as watched leaves: 1-D on a plain tape,
        tiled to the (*lead, width) activations in the capture pass."""
        leaves = self.mask_leaves.get(layer.layer_id)
        if leaves is None:
            tile = lead if self.capture_grads else ()
            leaves = tuple(self.tape.watch(np.broadcast_to(m, tile + m.shape))
                           for m in (layer.m_in, layer.m_out))
            self.mask_leaves[layer.layer_id] = leaves
        return leaves


class MaskedLinear:
    """Weight matrix + optional bias + binary input/output channel masks."""

    def __init__(self, layer_id: str, w: np.ndarray, b: np.ndarray | None):
        self.layer_id = layer_id
        self.w = np.asarray(w, dtype=np.float64)
        self.b = None if b is None else np.asarray(b, dtype=np.float64)
        self.m_in = np.ones(self.w.shape[0])
        self.m_out = np.ones(self.w.shape[1])

    @property
    def d_in(self) -> int:
        return self.w.shape[0]

    @property
    def d_out(self) -> int:
        return self.w.shape[1]

    def forward(self, x: Tensor, ctx: ForwardContext) -> Tensor:
        """(x ⊙ m_in) W + b, times m_out. With no tape the product runs in
        numpy (``ad.product``) and the bias and output mask are applied to
        it in place; all-ones masks are skipped."""
        if x.shape[-1] != self.d_in:
            raise ShapeError(f"{self.layer_id}: input width {x.shape[-1]} != d_in {self.d_in}")
        if ctx.tape is None:
            out = x.data
            if not (self.m_in == 1.0).all():
                out = np.multiply(out, self.m_in, out=ad.empty(out.shape))
            out = ad.product(out, self.w)
            if self.b is not None:
                out += self.b
            if not (self.m_out == 1.0).all():
                out *= self.m_out
            return ad.constant(out)

        m_in_t, m_out_t = ctx.masks(self, x.shape[:-1])
        y = ad.matmul(ad.mul(x, m_in_t), ctx.lift(f"{self.layer_id}.w", self.w))
        if self.b is not None:
            y = ad.add(y, ctx.lift(f"{self.layer_id}.b", self.b))
        return ad.mul(y, m_out_t)

    def folded_forward(self, x: np.ndarray) -> np.ndarray:
        """The right-hand side of the mask identity: x(W ⊙ m_inᵀm_out) + b ⊙ m_out."""
        w = self.w * np.outer(self.m_in, self.m_out)
        out = x @ w
        if self.b is not None:
            out = out + self.b * self.m_out
        return out

    def surviving_weights(self) -> int:
        n = int(self.m_in.sum()) * int(self.m_out.sum())
        if self.b is not None:
            n += int(self.m_out.sum())
        return n


class NormParams:
    """LayerNorm (gain+offset) or RMSNorm (gain only) over the model dim."""

    def __init__(self, name: str, kind: str, d: int, eps: float = NORM_EPS):
        self.name = name
        self.kind = kind
        self.eps = eps
        self.gain = np.ones(d)
        self.offset = np.zeros(d) if kind == "layernorm" else None

    def forward(self, x: Tensor, ctx: ForwardContext) -> Tensor:
        gain = ctx.lift(f"{self.name}.gain", self.gain)
        if self.kind == "layernorm":
            return ad.layer_norm(x, gain, ctx.lift(f"{self.name}.offset", self.offset),
                                 self.eps)
        return ad.rms_norm(x, gain, self.eps)

    def param_count(self) -> int:
        return self.gain.size + (0 if self.offset is None else self.offset.size)


class Block:
    def __init__(self, index: int, cfg: ForecasterConfig, draw: Callable[[int, int], np.ndarray]):
        d, f = cfg.d_model, cfg.d_ffn
        prefix = f"block{index}"
        self.wq = MaskedLinear(f"{prefix}.attn.q", draw(d, d), None)
        self.wk = MaskedLinear(f"{prefix}.attn.k", draw(d, d), None)
        self.wv = MaskedLinear(f"{prefix}.attn.v", draw(d, d), np.zeros(d))
        self.wo = MaskedLinear(f"{prefix}.attn.o", draw(d, d), np.zeros(d))
        self.norm1 = NormParams(f"{prefix}.norm1", cfg.norm, d)
        self.norm2 = NormParams(f"{prefix}.norm2", cfg.norm, d)
        self.ffn_up = MaskedLinear(f"{prefix}.ffn.up", draw(d, f), np.zeros(f))
        self.ffn_down = MaskedLinear(f"{prefix}.ffn.down", draw(f, d), np.zeros(d))
        self.linears = (self.wq, self.wk, self.wv, self.wo, self.ffn_up, self.ffn_down)
        self.head_count = cfg.heads


def attention(q: Tensor, k: Tensor, v: Tensor, heads: int, scale: float,
              causal: np.ndarray | None) -> Tensor:
    """Scaled dot-product attention of ``heads`` heads side by side.

    ``q`` and ``k`` are (…, T, heads·w_qk) and ``v`` is (…, T, heads·w_vo);
    head i owns the i-th run of w columns. The heads are split into
    (…, heads, T, w) views and run in one batched score/softmax/context
    pass; the contexts are merged back to (…, T, heads·w_vo). ``causal``
    is an additive (T, T) score mask.
    """
    lead, t = q.shape[:-2], q.shape[-2]

    def split(p: Tensor) -> Tensor:
        return ad.swap_axes(ad.reshape(p, lead + (t, heads, p.shape[-1] // heads)), -3, -2)

    q, k, v = split(q), split(k), split(v)
    scores = ad.scale(ad.matmul(q, ad.transpose_last2(k)), scale)
    if causal is not None:
        scores = ad.add(scores, ad.constant(causal))
    contexts = ad.matmul(ad.softmax_rows(scores), v)
    return ad.reshape(ad.swap_axes(contexts, -3, -2), lead + (t, heads * v.shape[-1]))


class AnalysisCapture:
    """Numpy-side intermediates for the sparsity diagnostics."""

    def __init__(self):
        self.residuals: list[np.ndarray] = []      # per layer: (B, T, d) pre-MHA residual
        self.post_attn: list[np.ndarray] = []      # per layer: (B, T, d) after the MHA add
        self.head_outputs: list[np.ndarray] = []   # per layer: (H, B, T, d), head first
        self.activations: list[np.ndarray] = []    # per layer: (B, T, d_ffn) post-activation


class ForwardPass:
    """Everything one forward produced: predictions, the context holding
    its leaves, the de-normalization statistics and the analysis capture."""

    def __init__(self, pred_norm: Tensor, mu: np.ndarray, sigma: np.ndarray,
                 ctx: ForwardContext, analysis: AnalysisCapture | None):
        self.pred_norm = pred_norm
        self.mu = mu
        self.sigma = sigma
        self.ctx = ctx
        self.analysis = analysis

    def denormalized(self) -> np.ndarray:
        return self.pred_norm.data * self.sigma + self.mu

    def normalized_targets(self, targets: np.ndarray) -> np.ndarray:
        """Targets on the model's scale, using the context-window statistics."""
        return (np.atleast_2d(np.asarray(targets, dtype=np.float64)) - self.mu) / self.sigma


class ForecasterBase:
    """The one forward of the masked model and its sliced twin.

    A subclass holds ``cfg``, ``embed``, ``blocks`` and ``head``. Each block
    holds ``norm1``, ``norm2``, its six linear layers in ``linears`` (Q, K,
    V, O, FFN up, FFN down) and ``head_count``, the number of heads its Q/K/V
    outputs lay side by side. Every linear layer has ``forward(x, ctx)``:
    a masked layer applies its masks at full width; a sliced layer reads,
    multiplies and writes only through its own index maps. The attention
    and FFN code below is therefore the same for both models.
    """

    def linears(self) -> list:
        """Every linear layer: embed, per block Q, K, V, O, FFN up, FFN down, head."""
        return [self.embed, *(layer for b in self.blocks for layer in b.linears), self.head]

    def norms(self) -> list[NormParams]:
        return [norm for b in self.blocks for norm in (b.norm1, b.norm2)]

    def named_params(self) -> list[tuple[str, np.ndarray]]:
        """Mutable parameter arrays, deterministic order; masks excluded."""
        out = []
        for layer in self.linears():
            out.append((f"{layer.layer_id}.w", layer.w))
            if layer.b is not None:
                out.append((f"{layer.layer_id}.b", layer.b))
        for norm in self.norms():
            out.append((f"{norm.name}.gain", norm.gain))
            if norm.offset is not None:
                out.append((f"{norm.name}.offset", norm.offset))
        return out

    def normalize_windows(self, windows: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Per-window instance normalization with a std floor."""
        windows = np.asarray(windows, dtype=np.float64)
        mu = windows.mean(axis=-1, keepdims=True)
        sigma = np.maximum(windows.std(axis=-1, keepdims=True), STD_FLOOR)
        return (windows - mu) / sigma, mu, sigma

    def _forward(self, windows: np.ndarray, ctx: ForwardContext,
                 cap: AnalysisCapture | None) -> ForwardPass:
        """Forward a (B, L) batch of context windows; see ``forward_batch``.

        A plain inference forward, with no tape and no analysis capture,
        runs in an ``ad.reuse_scope`` when ``pools`` says its batch can use
        one: each large op output reuses a buffer that an earlier layer of
        the same forward has finished with. The scope closes when the
        forward returns or raises.
        """
        windows = np.atleast_2d(np.asarray(windows, dtype=np.float64))
        cfg = self.cfg
        plain = ctx.tape is None and cap is None and pools(cfg, windows.shape[0])
        with ad.reuse_scope() if plain else contextlib.nullcontext():
            if windows.shape[-1] != cfg.context_len:
                raise ShapeError(f"window length {windows.shape[-1]} != context {cfg.context_len}")
            norm_w, mu, sigma = self.normalize_windows(windows)
            x = ad.constant(norm_w.reshape(windows.shape[0], cfg.tokens, cfg.patch_len))
            x = self.embed.forward(x, ctx)

            causal = None
            if cfg.attention == "causal":
                t = cfg.tokens
                causal = np.triu(np.full((t, t), NEG_INF), k=1)

            for block in self.blocks:
                if cap is not None:
                    cap.residuals.append(x.data.copy())
                x = ad.add(x, self.mha_forward(block, block.norm1.forward(x, ctx), ctx, causal,
                                               cap))
                if cap is not None:
                    cap.post_attn.append(x.data.copy())
                x = ad.add(x, self.ffn_forward(block, block.norm2.forward(x, ctx), ctx, cap))

            pred = self.head.forward(ad.take_token(x, cfg.tokens - 1), ctx)
            return ForwardPass(pred, mu, sigma, ctx, cap)

    def mha_forward(self, block, x: Tensor, ctx: ForwardContext | None = None,
                    causal: np.ndarray | None = None,
                    cap: AnalysisCapture | None = None) -> Tensor:
        """Multi-head attention of normalized (…, T, d) tokens through O, no residual."""
        ctx = ctx or ForwardContext()
        x = ad.constant(x)
        q, k, v, o = block.linears[:4]
        merged = attention(q.forward(x, ctx), k.forward(x, ctx), v.forward(x, ctx),
                           block.head_count, 1.0 / math.sqrt(self.cfg.head_dim), causal)
        if cap is not None:
            cap.head_outputs.append(self._head_outputs(block, merged.data))
        return o.forward(merged, ctx)

    def ffn_forward(self, block, xn: Tensor, ctx: ForwardContext,
                    cap: AnalysisCapture | None = None) -> Tensor:
        up, down = block.linears[4:]
        act = self._activation(up.forward(xn, ctx))
        if cap is not None:
            cap.activations.append(act.data.copy())
        return down.forward(act, ctx)

    def _activation(self, x: Tensor) -> Tensor:
        return ad.relu(x) if self.cfg.activation == "relu" else ad.gelu(x)

    def predict(self, windows: np.ndarray) -> np.ndarray:
        """De-normalized (B, Hz) predictions, no gradients."""
        fp = self.forward_batch(windows)
        return fp.denormalized()

    def forward_window(self, window: np.ndarray) -> np.ndarray:
        """Forecast the next horizon values for a single length-L window."""
        window = np.asarray(window, dtype=np.float64)
        if window.ndim != 1:
            raise ShapeError(f"expected a 1-D window, got shape {window.shape}")
        return self.predict(window[None, :])[0]


class Forecaster(ForecasterBase):
    """Stack of pre-norm transformer blocks over patch tokens.

    With a seed, every weight matrix is drawn from N(0, 1/√d_in), in the
    order embed, per block Q, K, V, O, FFN up, FFN down, head. With
    ``seed=None`` the weights are zeros and nothing is drawn: the model is
    a layout for ``load_checkpoint`` to fill. Biases and offsets start at
    zero, gains and masks at one.
    """

    def __init__(self, cfg: ForecasterConfig, seed: int | None = 0):
        self.cfg = cfg
        rng = None if seed is None else np.random.default_rng(seed)

        def draw(d_in: int, d_out: int) -> np.ndarray:
            if rng is None:
                return np.zeros((d_in, d_out))
            return rng.normal(0, 1.0 / math.sqrt(d_in), (d_in, d_out))

        self.embed = MaskedLinear("embed", draw(cfg.patch_len, cfg.d_model),
                                  np.zeros(cfg.d_model))
        self.blocks = [Block(i, cfg, draw) for i in range(cfg.layers)]
        self.head = MaskedLinear("head", draw(cfg.d_model, cfg.horizon), np.zeros(cfg.horizon))
        self.ledger = None  # attached by the pruner; serialized with checkpoints

    # ------------------------------------------------------------------ layout

    def layer_by_id(self, layer_id: str) -> MaskedLinear:
        for layer in self.linears():
            if layer.layer_id == layer_id:
                return layer
        raise KeyError(layer_id)

    def head_group(self, head: int) -> slice:
        d_h = self.cfg.head_dim
        return slice(head * d_h, (head + 1) * d_h)

    def total_param_count(self) -> int:
        return self.cfg.param_count

    def surviving_param_count(self) -> int:
        n = sum(l.surviving_weights() for l in self.linears())
        return n + sum(norm.param_count() for norm in self.norms())

    def param_fraction(self) -> float:
        return self.surviving_param_count() / self.total_param_count()

    # ----------------------------------------------------------------- forward

    def forward_batch(self, windows: np.ndarray, tape: Tape | None = None,
                      capture_grads: bool = False,
                      analysis: bool = False) -> ForwardPass:
        """Forward a (B, L) batch of context windows.

        Returns normalized-scale predictions; de-normalization stats ride
        along. With a tape, every parameter and mask becomes a watched leaf;
        with ``capture_grads`` as well, only the masks are, each tiled to
        one row per window (see ``ForwardContext``).
        """
        return self._forward(windows, ForwardContext(tape, capture_grads),
                             AnalysisCapture() if analysis else None)

    def _head_outputs(self, block: Block, contexts: np.ndarray) -> np.ndarray:
        """Per-head contributions o_i to the residual, masks applied.

        ``contexts`` is the merged (…, T, d) attention context, head i in
        the columns of ``head_group(i)``; the result stacks the heads first,
        (H, …, T, d).
        """
        outs = []
        for i in range(self.cfg.heads):
            g = self.head_group(i)
            ci = contexts[..., g] * block.wo.m_in[g]
            outs.append((ci @ block.wo.w[g, :]) * block.wo.m_out)
        return np.stack(outs)

    # ------------------------------------------------------------------- misc

    def clone(self) -> "Forecaster":
        """A copy of the parameters and masks that shares no array; no ledger."""
        return copy.deepcopy(self, {id(self.ledger): None})
