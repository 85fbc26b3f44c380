"""Patch-based transformer forecaster whose every linear layer is maskable.

Every linear transformation carries binary input/output channel masks with
the identity h = f(x ⊙ m_in) ⊙ m_out = x (W ⊙ m_inᵀm_out) + b ⊙ m_out,
and runs as one ``ad.linear`` call on and off the tape, as in the sliced
twin. Forward passes can run bare or on a gradient tape; the capture
pass gives each mask leaf one row per window, so its gradient holds the
per-sample mask gradients, and skips the heads and FFN channels whose
mask gradients are exactly zero. Only the last token reaches the
head, so the last block runs its query, attention, O, norm2 and FFN for
that token alone. An analysis capture keeps the intermediates of the
sparsity diagnostics, and every token.

Each weight, bias, gain and offset is a view of one float64 vector per
model, ``params``, laid out in the checkpoint's payload order.
"""

from __future__ import annotations

import contextlib
import math
import sys
from dataclasses import dataclass
from types import SimpleNamespace
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
    are none, a ``d_model`` not divisible by ``heads``, a ``context_len`` not
    divisible by ``patch_len``, or more parameter bytes than numpy indexes."""
    problems = section_problems(d, FIELDS, where) or [
        f"{where}.{key}: {d[key]} is not divisible by {div}={d[div]}"
        for key, div in (("d_model", "heads"), ("context_len", "patch_len"))
        if d[key] % d[div]]
    if not problems and 8 * (n := _counts(d)[0]) > sys.maxsize:
        problems = [f"{where}: {n} parameters of 8 bytes are more than {sys.maxsize} bytes"]
    return problems


def _counts(d) -> tuple[int, int]:
    """The parameters a valid model section ``d`` lays out, and the block
    norms' gains and offsets among them."""
    dm, f = d["d_model"], d["d_ffn"]
    norm = d.get("norm", FIELDS["norm"].default)
    norms = d["layers"] * 2 * (2 if norm == "layernorm" else 1) * dm
    block = 4 * dm * dm + 2 * dm * f + 3 * dm + f
    return (d["patch_len"] + 1) * dm + d["layers"] * block + (dm + 1) * d["horizon"] + norms, norms


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
        return _counts(vars(self))[0]

    @property
    def norm_param_count(self) -> int:
        """The block norms' gains and offsets: the tail of every parameter vector."""
        return _counts(vars(self))[1]

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
    enter as constants and each mask leaf is (N, width), one row per window
    (a broadcast view, no copy) that ``ad.linear`` broadcasts over the
    window's tokens: its gradient is window n's Σ_tokens a ⊙ ∂L/∂(a ⊙ m)
    for the activation a it multiplies, and no weight, bias or gain
    gradient is ever formed.

    ``kept[layer_id]`` holds the master (input, output) channels of each
    layer ``Forecaster._capture_block`` narrowed, None for a side kept
    whole; its leaves are that wide.

    A parameter leaf named in ``grads`` sums its gradient into that view.
    """

    def __init__(self, tape: Tape | None = None, capture_grads: bool = False,
                 grads: dict[str, np.ndarray] | None = None):
        self.tape = tape
        self.capture_grads = capture_grads and tape is not None
        self.grads = grads or {}
        self.param_leaves: dict[str, Tensor] = {}
        self.mask_leaves: dict[str, tuple[Tensor, Tensor]] = {}
        self.kept: dict[str, tuple[np.ndarray | None, np.ndarray | None]] = {}

    def lift(self, name: str, array: np.ndarray) -> Tensor | np.ndarray:
        if self.tape is None or self.capture_grads:
            return array
        leaf = self.param_leaves.get(name)
        if leaf is None:
            leaf = self.tape.watch(array, self.grads.get(name))
            self.param_leaves[name] = leaf
        return leaf

    def linear(self, layer, x: Tensor, m_in=None, m_out=None) -> Tensor:
        """``ad.linear`` of ``x`` through a layer's weight and bias. On a
        tape each is lifted, the weight first: ``finetune`` sums its clip
        norm in ``param_leaves`` order."""
        if self.tape is None:  # no leaves: skip formatting their names
            return ad.linear(x, layer.w, layer.b, m_in, m_out)
        w = self.lift(f"{layer.layer_id}.w", layer.w)
        b = None if layer.b is None else self.lift(f"{layer.layer_id}.b", layer.b)
        return ad.linear(x, w, b, m_in, m_out)

    def masks(self, layer: MaskedLinear, n: int) -> tuple:
        """A layer's (m_in, m_out): its arrays with no tape, else watched
        leaves, 1-D on a plain tape and (n, width) in the capture pass."""
        if self.tape is None:
            return layer.m_in, layer.m_out
        leaves = self.mask_leaves.get(layer.layer_id)
        if leaves is None:
            rows = (n,) if self.capture_grads else ()
            leaves = tuple(self.tape.watch(np.broadcast_to(m, rows + m.shape))
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

    def mask(self, side: str) -> np.ndarray:
        """``m_in`` for side "input", ``m_out`` for "output"."""
        return self.m_in if side == "input" else self.m_out

    def forward(self, x: Tensor, ctx: ForwardContext) -> Tensor:
        """((x ⊙ m_in) W + b) ⊙ m_out as one ``ad.linear`` node."""
        if x.shape[-1] != self.d_in:
            raise ShapeError(f"{self.layer_id}: input width {x.shape[-1]} != d_in {self.d_in}")
        return ctx.linear(self, x, *ctx.masks(self, x.shape[0]))

    def folded_forward(self, x: np.ndarray) -> np.ndarray:
        """The right-hand side of the mask identity: x(W ⊙ m_inᵀm_out) + b ⊙ m_out."""
        w = self.w * np.outer(self.m_in, self.m_out)
        out = x @ w
        if self.b is not None:
            out = out + self.b * self.m_out
        return out

    def narrowed(self, rows: np.ndarray | None = None,
                 cols: np.ndarray | None = None) -> "MaskedLinear":
        """This layer over master input channels ``rows`` and output channels
        ``cols`` (None keeps a side whole): the same ``layer_id``, with the
        weight, bias and masks gathered."""
        w, b, m_in, m_out = self.w, self.b, self.m_in, self.m_out
        if rows is not None:
            w, m_in = np.take(w, rows, axis=0), m_in[rows]
        if cols is not None:  # np.take keeps the weight C-contiguous
            w, m_out = np.take(w, cols, axis=1), m_out[cols]
            b = None if b is None else b[cols]
        out = MaskedLinear(self.layer_id, w, b)
        out.m_in, out.m_out = m_in, m_out
        return out

    def surviving_weights(self) -> int:
        n = int(self.m_in.sum()) * int(self.m_out.sum())
        if self.b is not None:
            n += int(self.m_out.sum())
        return n


class NormParams:
    """LayerNorm (gain+offset) or RMSNorm (gain only) over the model dim."""

    def __init__(self, name: str, kind: str, d: int, carve: Callable[..., np.ndarray]):
        self.name = name
        self.kind = kind
        self.gain = carve(f"{name}.gain", d)
        self.gain[...] = 1.0
        self.offset = carve(f"{name}.offset", d) if kind == "layernorm" else None

    def forward(self, x: Tensor, ctx: ForwardContext) -> Tensor:
        gain = ctx.lift(f"{self.name}.gain", self.gain)
        if self.kind == "layernorm":
            return ad.layer_norm(x, gain, ctx.lift(f"{self.name}.offset", self.offset),
                                 NORM_EPS)
        return ad.rms_norm(x, gain, NORM_EPS)


class Block:
    """One block's six masked layers and ``pairs``, its coupled channels.

    Channel i at one (layer, side) end of a pair meets only channel i at the
    other: Q-out and K-out per head in the scores, V-out and O-in per head
    in context·W_O, FFN up-out and down-in through the activation (act(0) =
    0). Dead at either end, a channel adds exactly 0 to its product and the
    alive end's mask gradient is exactly 0; dead at both, both are. While
    both ends are alive, Q/K and V/O have equal per-window mask gradients in
    exact arithmetic (Σ q·∂L/∂q = Σ k·∂L/∂k; V reaches O only through
    context column i), so they tie: the second end takes the first's score,
    and rounding never decides which goes first. Under gelu up-out and
    down-in differ, so that pair does not.
    """

    def __init__(self, index: int, cfg: ForecasterConfig, linear: Callable[..., MaskedLinear]):
        d, f = cfg.d_model, cfg.d_ffn
        prefix = f"block{index}"
        self.wq = linear(f"{prefix}.attn.q", d, d, bias=False)
        self.wk = linear(f"{prefix}.attn.k", d, d, bias=False)
        self.wv = linear(f"{prefix}.attn.v", d, d)
        self.wo = linear(f"{prefix}.attn.o", d, d)
        self.ffn_up = linear(f"{prefix}.ffn.up", d, f)
        self.ffn_down = linear(f"{prefix}.ffn.down", f, d)
        self.linears = (self.wq, self.wk, self.wv, self.wo, self.ffn_up, self.ffn_down)
        self.head_count = cfg.heads
        self.pairs = (((self.wq, "output"), (self.wk, "output"), True),
                      ((self.wv, "output"), (self.wo, "input"), True),
                      ((self.ffn_up, "output"), (self.ffn_down, "input"), False))

    def coupled(self, join: Callable[[np.ndarray, np.ndarray], np.ndarray]) -> list[np.ndarray]:
        """Per pair, its channels' alive flags at the two ends combined by
        ``join``: ``np.logical_and`` gives the channels a product computes
        through, ``np.logical_or`` those whose mask gradients can be nonzero."""
        return [join(a.mask(a_side) != 0.0, b.mask(b_side) != 0.0)
                for (a, a_side), (b, b_side), _ in self.pairs]


def attention(q: Tensor, k: Tensor, v: Tensor, heads: int, scale: float,
              causal: np.ndarray | None) -> Tensor:
    """Scaled dot-product attention of ``heads`` heads side by side.

    ``k`` is (…, T, heads·w_qk) and ``v`` is (…, T, heads·w_vo); head i
    owns the i-th run of w columns. ``q`` is (…, T, heads·w_qk), or
    (…, heads·w_qk) for one query token. The heads are split into
    (…, heads, rows, w) views and run in one batched score/softmax/context
    pass; the contexts are merged back to q's shape at width heads·w_vo.
    ``causal`` is an additive (rows, T) score mask.
    """
    lead, t = k.shape[:-2], k.shape[-2]
    merged = q.shape[:-1] + v.shape[-1:]
    rows = q.shape[-2] if len(q.shape) == len(k.shape) else 1

    def split(p: Tensor, n: int) -> Tensor:
        return ad.swap_axes(ad.reshape(p, lead + (n, heads, p.shape[-1] // heads)), -3, -2)

    q, k, v = split(q, rows), split(k, t), split(v, t)
    scores = ad.scale(ad.matmul(q, ad.transpose_last2(k)), scale)
    if causal is not None:
        scores = ad.add(scores, ad.constant(causal))
    contexts = ad.matmul(ad.softmax_rows(scores), v)
    return ad.reshape(ad.swap_axes(contexts, -3, -2), merged)


class AnalysisCapture:
    """Numpy-side intermediates for the sparsity diagnostics."""

    def __init__(self):
        self.residuals: list[np.ndarray] = []      # per layer: (B, T, d) pre-MHA residual
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
    """The one forward and parameter layout of the masked model and its twin.

    A subclass holds ``cfg``, ``params``, ``layout``, ``embed``, ``blocks``
    and ``head``. Every weight, bias, gain and offset is a view of the
    vector ``params`` that ``carve`` handed out, and ``layout`` lists each
    one's (name, offset, shape); the block norms come last. Each block
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

    def carve(self, name: str, *shape: int) -> np.ndarray:
        """The next elements of ``params`` as a view of ``shape``, listed in ``layout``."""
        lo = self.layout[-1][1] + math.prod(self.layout[-1][2]) if self.layout else 0
        self.layout.append((name, lo, shape))
        return self.params[lo:lo + math.prod(shape)].reshape(shape)

    def views(self, vector: np.ndarray) -> list[tuple[str, np.ndarray]]:
        """Each parameter's (name, view) of a vector laid out as ``params``."""
        return [(name, vector[lo:lo + math.prod(shape)].reshape(shape))
                for name, lo, shape in self.layout]

    def named_params(self) -> list[tuple[str, np.ndarray]]:
        """Every weight, bias, gain and offset as a view of ``params``, in
        ``layout`` order, the checkpoint's payload order; masks excluded."""
        return self.views(self.params)

    def surviving_param_count(self) -> int:
        """The parameters the masks keep; a sliced twin counts its master's."""
        return sum(l.surviving_weights() for l in self.linears()) + self.cfg.norm_param_count

    def param_fraction(self) -> float:
        return self.surviving_param_count() / self.cfg.param_count

    def normalize_windows(self, windows: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Per-window instance normalization with a std floor."""
        windows = np.asarray(windows, dtype=np.float64)
        mu = windows.mean(axis=-1, keepdims=True)
        sigma = np.maximum(windows.std(axis=-1, keepdims=True), STD_FLOOR)
        return (windows - mu) / sigma, mu, sigma

    def _forward(self, windows: np.ndarray, ctx: ForwardContext,
                 cap: AnalysisCapture | None, blocks: list | None = None) -> ForwardPass:
        """Forward a (B, L) batch of context windows through ``blocks``
        (by default the model's own); see ``forward_batch``.

        The head reads only the last token. The last block therefore runs
        norm1, K and V over every token, and Q (one query row per head),
        O, the residual, norm2 and the FFN on the (B, d) last token. An
        analysis capture averages its statistics over every token, so it
        runs every block at every token and takes the last one after.

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

            blocks = self.blocks if blocks is None else blocks
            for i, block in enumerate(blocks):
                last = cap is None and i == len(blocks) - 1
                if cap is not None:
                    cap.residuals.append(x.data.copy())
                xn = block.norm1.forward(x, ctx)
                if last:
                    x = ad.take_token(x, cfg.tokens - 1)
                x = ad.add(x, self.mha_forward(block, xn, ctx, causal, cap, last))
                x = ad.add(x, self.ffn_forward(block, block.norm2.forward(x, ctx), ctx, cap))

            if cap is not None:
                x = ad.take_token(x, cfg.tokens - 1)
            pred = self.head.forward(x, ctx)
            return ForwardPass(pred, mu, sigma, ctx, cap)

    def mha_forward(self, block, x: Tensor, ctx: ForwardContext | None = None,
                    causal: np.ndarray | None = None, cap: AnalysisCapture | None = None,
                    last: bool = False) -> Tensor:
        """Multi-head attention of normalized (…, T, d) tokens through O, no
        residual; with ``last``, of the last token only, (…, d). Its query
        attends to every token, so no causal mask applies."""
        ctx = ctx or ForwardContext()
        x = xq = ad.constant(x)
        q, k, v, o = block.linears[:4]
        if last:
            xq, causal = ad.take_token(x, x.shape[-2] - 1), None
        merged = attention(q.forward(xq, ctx), k.forward(x, ctx), v.forward(x, ctx),
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

    ``params`` is allocated first, so a model too large to hold fails at
    that one allocation. Its views are carved in the order embed, per block
    Q, K, V, O, FFN up, FFN down, head, then the norms. With a seed, every
    weight matrix is drawn from N(0, 1/√d_in) into its view in that order.
    With ``seed=None`` nothing is drawn: the model is a layout for
    ``load_checkpoint`` to fill. Biases and offsets start at zero, gains
    and masks at one.
    """

    def __init__(self, cfg: ForecasterConfig, seed: int | None = 0):
        self.cfg = cfg
        self.params, self.layout = np.zeros(cfg.param_count), []
        rng = None if seed is None else np.random.default_rng(seed)

        def linear(layer_id: str, d_in: int, d_out: int, bias: bool = True) -> MaskedLinear:
            w = self.carve(f"{layer_id}.w", d_in, d_out)
            if rng is not None:  # the bits of rng.normal(0, std), drawn in place
                rng.standard_normal(out=w)
                w *= 1.0 / math.sqrt(d_in)
            return MaskedLinear(layer_id, w, self.carve(f"{layer_id}.b", d_out) if bias else None)

        self.embed = linear("embed", cfg.patch_len, cfg.d_model)
        self.blocks = [Block(i, cfg, linear) for i in range(cfg.layers)]
        self.head = linear("head", cfg.d_model, cfg.horizon)
        for i, block in enumerate(self.blocks):
            block.norm1, block.norm2 = (NormParams(f"block{i}.norm{j}", cfg.norm, cfg.d_model,
                                                   self.carve) for j in (1, 2))
        self.ledger = None  # attached by the pruner; serialized with checkpoints

    # ------------------------------------------------------------------ layout

    def head_group(self, head: int) -> slice:
        d_h = self.cfg.head_dim
        return slice(head * d_h, (head + 1) * d_h)

    # ----------------------------------------------------------------- forward

    def forward_batch(self, windows: np.ndarray, tape: Tape | None = None,
                      capture_grads: bool = False, analysis: bool = False,
                      grads: dict[str, np.ndarray] | None = None) -> ForwardPass:
        """Forward a (B, L) batch of context windows.

        Returns normalized-scale predictions; de-normalization stats ride
        along. With a tape, every parameter and mask becomes a watched leaf,
        and a parameter named in ``grads`` sums its gradient into that view
        (see ``ForwardContext``); with ``capture_grads`` as well, only the
        masks are leaves, each one row per window, and each block
        runs narrowed by ``_capture_block``. An analysis capture reads every
        head, so it keeps the full-width blocks.
        """
        ctx = ForwardContext(tape, capture_grads, grads)
        blocks = None
        if ctx.capture_grads and not analysis:
            blocks = [self._capture_block(block, ctx) for block in self.blocks]
        return self._forward(windows, ctx, AnalysisCapture() if analysis else None, blocks)

    def _capture_block(self, block: Block, ctx: ForwardContext):
        """``block`` narrowed to the channels whose mask gradients can be
        nonzero: the unions of ``Block.coupled``. A head with no V/O channel
        in the union has context 0 and passes back gradient 0, so its Q and
        K mask gradients are 0 too. Q, K and V keep the other heads' columns
        and O the same rows, with one head of width 0 if none is left; FFN
        up keeps the union's columns and down the same rows. Each narrowed
        layer's master channels go to ``ctx.kept``; a block with nothing to
        skip is returned as it is.
        """
        q, k, v, o, up, down = block.linears
        d_h = self.cfg.head_dim
        _, vo, mid = block.coupled(np.logical_or)
        live, mid = vo.reshape(-1, d_h).any(axis=1), np.flatnonzero(mid)
        if live.all() and mid.size == up.d_out:
            return block

        def narrow(layer: MaskedLinear, rows=None, cols=None) -> MaskedLinear:
            ctx.kept[layer.layer_id] = (rows, cols)
            return layer.narrowed(rows, cols)

        attn, head_count = (q, k, v, o), block.head_count
        if not live.all():
            cols = (np.flatnonzero(live)[:, None] * d_h + np.arange(d_h)).ravel()
            attn = (narrow(q, cols=cols), narrow(k, cols=cols), narrow(v, cols=cols),
                    narrow(o, rows=cols))
            head_count = max(int(live.sum()), 1)
        ffn = (up, down)
        if mid.size < up.d_out:
            ffn = (narrow(up, cols=mid), narrow(down, rows=mid))
        return SimpleNamespace(norm1=block.norm1, norm2=block.norm2, linears=attn + ffn,
                               head_count=head_count)

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
        twin = Forecaster(self.cfg, seed=None)
        twin.params[...] = self.params
        for mine, theirs in zip(self.linears(), twin.linears()):
            theirs.m_in[...] = mine.m_in
            theirs.m_out[...] = mine.m_out
        return twin
