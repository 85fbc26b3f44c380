"""Dense f64 tensors with a reverse-mode gradient tape.

The tape records every operation applied to watched tensors and, on
``backward``, produces the gradients of its reachable leaves (parameters
and channel-mask vectors); interior gradients are passed on and dropped.
An op computes gradients only for its inputs that are on the tape.
Broadcasting is deliberately restricted to a leading batch dimension: two
operands are compatible iff their shapes are equal or one shape is a
trailing suffix of the other. The one exception is ``linear``'s (N, width)
masks, one row per window broadcast over its tokens.

Ops write their outputs into arrays from ``empty``. Inside a
``reuse_scope``, which a plain inference forward opens, a large output reuses
a buffer that an earlier op has finished with, and a ``linear`` with a
large weight runs as one GEMM over all leading axes. Outside a scope
``empty`` is ``np.empty``. Ops whose input is on no tape (norms, gelu)
work in place whether or not a scope is open, and ``linear`` adds its
bias in place always.
"""

from __future__ import annotations

import math
import sys
from contextlib import contextmanager
from typing import Callable, Sequence

import numpy as np

from .errors import ShapeError, TapeError

_GELU_C = math.sqrt(2.0 / math.pi)
_GELU_A = 0.044715

# elements (256 KB): smaller arrays are never pooled, and a smaller weight
# keeps numpy's batched product
POOL_MIN = 1 << 15

_pool: list[np.ndarray] | None = None  # the buffers of the open reuse scope


def _free_refs() -> int:
    """The reference count ``empty`` reads for a buffer that only its pool
    holds (the list's, the loop variable's and getrefcount's argument's),
    measured the way ``empty`` reads it."""
    for buf in [np.empty(1)]:
        return sys.getrefcount(buf)


_FREE_REFS = _free_refs()


@contextmanager
def reuse_scope():
    """Pool the large arrays ``empty`` hands out until the scope closes.

    Inside the scope a request of at least ``POOL_MIN`` elements gets the
    smallest pooled 1-D buffer that is large enough and that nothing but
    the pool references, as a view of the requested shape; when none is
    free a new buffer joins the pool. A Tensor, view or closure that still
    holds an array raises its buffer's reference count, so nothing alive
    is overwritten. The pool (yielded) is dropped when the scope closes,
    by return or by exception; arrays still in use keep their buffers.
    The scope is module state: ops must not run on another thread while
    one is open.
    """
    global _pool
    outer, _pool = _pool, []
    try:
        yield _pool
    finally:
        _pool = outer


def empty(shape: tuple[int, ...]) -> np.ndarray:
    """An uninitialized float64 array; inside a ``reuse_scope`` one of at
    least ``POOL_MIN`` elements is a view of a free pooled buffer."""
    pool = _pool
    if pool is None:
        return np.empty(shape)
    n = math.prod(shape)
    if n < POOL_MIN:
        return np.empty(shape)
    best = None
    for buf in pool:
        if (buf.size >= n and (best is None or buf.size < best.size)
                and sys.getrefcount(buf) == _FREE_REFS):
            best = buf
    if best is None:
        best = np.empty(n)
        pool.append(best)
    return best[:n].reshape(shape)


def _mean_last(x: np.ndarray) -> np.ndarray:
    """``x.mean(axis=-1, keepdims=True)``, the same bits, without numpy's Python wrapper."""
    return np.add.reduce(x, axis=-1, keepdims=True) / x.shape[-1]


class Tensor:
    """A dense float64 array, optionally attached to one gradient tape."""

    __slots__ = ("data", "tape", "node_id")

    def __init__(self, data, tape: "Tape | None" = None, node_id: int | None = None):
        self.data = np.asarray(data, dtype=np.float64)
        self.tape = tape
        self.node_id = node_id

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def requires_grad(self) -> bool:
        return self.node_id is not None

    def item(self) -> float:
        return float(self.data.reshape(-1)[0])

    def __repr__(self) -> str:
        tag = f", node={self.node_id}" if self.node_id is not None else ""
        return f"Tensor(shape={self.shape}{tag})"


class _Node:
    __slots__ = ("inputs", "backward")

    def __init__(self, inputs: tuple[int, ...], backward: Callable):
        self.inputs = inputs
        self.backward = backward


class Tape:
    """Append-only record of operations; inputs always precede their node.

    A tape supports exactly one ``backward`` call. Only leaf gradients (of
    the tensors ``watch`` made) are kept; an interior node's gradient is
    dropped once the sweep has passed it on, and ``grad`` of an interior
    node raises. The sweep drops each node's backward closure once it has
    called it, and the rest, reached or not, when it ends: ``nodes`` and
    ``grads`` stay, the arrays the closures saved are freed as the sweep
    goes, and the tape holds no reference cycle, so it is freed as soon as
    the last tensor on it is.
    """

    def __init__(self):
        self.nodes: list[_Node] = []
        self.grads: dict[int, np.ndarray] = {}
        self._summed: set[int] = set()  # the leaves whose gradient is a caller's array
        self._backward_done = False

    def watch(self, value, grad: np.ndarray | None = None) -> Tensor:
        """Register a leaf tensor whose gradient should be tracked. ``grad``,
        an array of the leaf's shape, is zeroed; the backward then sums the
        leaf's gradient into it in place, and ``grad(leaf)`` returns it."""
        data = value.data if isinstance(value, Tensor) else value
        t = Tensor(data)
        t.tape = self
        t.node_id = self._add_node((), None)
        if grad is not None:
            grad[...] = 0.0
            self.grads[t.node_id] = grad
            self._summed.add(t.node_id)
        return t

    def _add_node(self, inputs: tuple[int, ...], backward: Callable | None) -> int:
        self.nodes.append(_Node(inputs, backward))
        return len(self.nodes) - 1

    def backward(self, loss: Tensor) -> None:
        """Seed d(loss)/d(loss)=1 and sweep the tape in reverse."""
        if loss.tape is not self or loss.node_id is None:
            raise TapeError("loss tensor is not attached to this tape")
        if loss.data.size != 1:
            raise TapeError(f"loss must be scalar, got shape {loss.data.shape}")
        if self._backward_done:
            raise TapeError("backward was already called on this tape")
        self._backward_done = True

        self.grads[loss.node_id] = np.ones_like(loss.data)
        try:
            for nid in range(loss.node_id, -1, -1):
                g = self.grads.get(nid)
                if g is None:
                    continue
                node = self.nodes[nid]
                if node.backward is None:
                    continue
                in_grads = node.backward(g)
                node.backward = None
                del self.grads[nid]
                g = None  # the dropped gradient is freed before the sums below allocate
                for in_id, in_grad in zip(node.inputs, in_grads):
                    if in_grad is None:
                        continue
                    acc = self.grads.get(in_id)
                    if in_id in self._summed:
                        acc += in_grad
                    else:
                        self.grads[in_id] = in_grad if acc is None else acc + in_grad
        finally:
            for node in self.nodes:
                node.backward = None

    def grad(self, t: Tensor) -> np.ndarray:
        """Gradient of the last backward's loss w.r.t. the leaf ``t`` (zeros if unreached)."""
        if t.tape is not self or t.node_id is None:
            raise TapeError("tensor is not watched by this tape")
        if self.nodes[t.node_id].inputs:
            raise TapeError("tensor is an interior node; the tape keeps leaf gradients only")
        g = self.grads.get(t.node_id)
        return np.zeros_like(t.data) if g is None else g


def constant(value) -> Tensor:
    """A tensor that never receives gradients."""
    return value if isinstance(value, Tensor) else Tensor(value)


def _record(inputs: Sequence[Tensor], out_data: np.ndarray, backward: Callable) -> Tensor:
    """Attach ``out_data`` to the tape shared by any tracked input.

    ``backward(g)`` must return one gradient per input, positionally, and
    None for every input that is not on the tape. Ops read each input's
    ``requires_grad`` when they are built, so a backward computes only the
    gradients the sweep accumulates: the weight gradient of a matmul whose
    weight is a constant is never formed. A single-input op is recorded
    only when its input is on the tape, so it needs no such test.
    Closures keep arrays, shapes and flags, not the input tensors.
    """
    tape = None
    for t in inputs:
        if t.tape is not None:
            if tape is not None and t.tape is not tape:
                raise TapeError("operands belong to different tapes")
            tape = t.tape
    out = Tensor(out_data)
    if tape is not None:
        out.tape = tape
        out.node_id = tape._add_node(tuple(t.node_id for t in inputs), backward)
    return out


def _broadcast_check(a_shape, b_shape, op: str):
    """Allow equal shapes or a trailing-suffix match (leading batch dims)."""
    if a_shape == b_shape:
        return
    small, big = sorted((a_shape, b_shape), key=len)
    if len(small) == len(big) or big[len(big) - len(small):] != small:
        raise ShapeError(f"{op}: shapes {a_shape} and {b_shape} only broadcast "
                         "over leading batch dimensions")


def _reduce_to(g: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    if g.shape == shape:
        return g
    axes = tuple(range(g.ndim - len(shape)))
    return g.sum(axis=axes)


def _kept(a: Tensor, b: Tensor) -> tuple[np.ndarray | None, np.ndarray | None]:
    """The data a product's backward reads: each operand's gradient reads
    only the other operand, so ``a``'s data is kept only if ``b`` is on the
    tape and ``b``'s only if ``a`` is. A constant weight therefore does not
    keep the activation it multiplies alive."""
    return (a.data if b.requires_grad else None), (b.data if a.requires_grad else None)


def add(a, b) -> Tensor:
    a, b = constant(a), constant(b)
    _broadcast_check(a.shape, b.shape, "add")
    a_shape, b_shape = a.shape, b.shape
    ga, gb = a.requires_grad, b.requires_grad

    def bw(g):
        return (_reduce_to(g, a_shape) if ga else None,
                _reduce_to(g, b_shape) if gb else None)

    return _record([a, b], np.add(a.data, b.data, out=empty(max(a_shape, b_shape, key=len))),
                   bw)


def mul(a, b) -> Tensor:
    a, b = constant(a), constant(b)
    _broadcast_check(a.shape, b.shape, "mul")
    a_shape, b_shape = a.shape, b.shape
    ga, gb = a.requires_grad, b.requires_grad
    ka, kb = _kept(a, b)

    def bw(g):
        return (_reduce_to(g * kb, a_shape) if ga else None,
                _reduce_to(g * ka, b_shape) if gb else None)

    out = np.multiply(a.data, b.data, out=empty(max(a_shape, b_shape, key=len)))
    return _record([a, b], out, bw)


def scale(a, c: float) -> Tensor:
    a = constant(a)
    c = float(c)
    return _record([a], np.multiply(a.data, c, out=empty(a.shape)), lambda g: (g * c,))


def matmul(a, b) -> Tensor:
    """Matrix product; supports (m,k)@(k,n), (...,m,k)@(k,n) and batched
    (...,m,k)@(...,k,n) with identical leading dimensions. A 2-D ``b`` is
    a ``linear`` node."""
    a, b = constant(a), constant(b)
    ad, bd = a.data, b.data
    if ad.ndim < 2 or bd.ndim < 2:
        raise ShapeError(f"matmul needs 2-D+ operands, got {ad.shape} and {bd.shape}")
    if bd.ndim == 2:
        return linear(a, b)
    if ad.shape[:-2] != bd.shape[:-2] or ad.shape[-1] != bd.shape[-2]:
        raise ShapeError(f"matmul batch or inner dimensions disagree: {ad.shape} vs {bd.shape}")
    ga, gb = a.requires_grad, b.requires_grad
    ka, kb = _kept(a, b)

    def bw(g):
        return (g @ kb.swapaxes(-1, -2) if ga else None,
                ka.swapaxes(-1, -2) @ g if gb else None)

    return _record([a, b], np.matmul(ad, bd, out=empty(ad.shape[:-1] + bd.shape[-1:])), bw)


def _applied(m: np.ndarray, width: int, x_shape: tuple[int, ...]) -> np.ndarray | None:
    """A ``linear`` mask as it multiplies an activation of ``x_shape``: a
    (width,) one as it is, an (N, width) one as (N, 1, …, 1, width); None
    if it is all ones."""
    if m.shape != (width,) and m.shape != (x_shape[0], width):
        raise ShapeError(f"linear: mask {m.shape} does not fit input {x_shape}")
    if not np.count_nonzero(m != 1.0):  # half the time of (m == 1.0).all()
        return None
    return m if m.ndim == 1 else m.reshape(m.shape[:1] + (1,) * (len(x_shape) - 2) + m.shape[1:])


def linear(x, w, b=None, m_in=None, m_out=None) -> Tensor:
    """((x ⊙ m_in) W + b) ⊙ m_out as one node, for (…, k) x and (k, n) w.

    A mask is (width,), or (N, width) for an (N, …, width) activation: one
    row per window, broadcast over its tokens, whose gradient is that
    window's own sum. A missing or all-ones mask is not applied. The bias
    is added in place, and the output mask is applied in place unless it is
    on a tape, as its gradient reads the unmasked output. Inside a reuse scope
    a ``w`` of at least ``POOL_MIN`` elements meets all of ``x``'s leading
    axes in one (rows, k) @ (k, n) GEMM; elsewhere the product is numpy's
    own, batched over the leading axes. Smaller weights stay batched: with
    d=32 weights and 128 windows the one GEMM took up to 2.4x as long.
    Each input is a Tensor or a float64 array; off the tape none is wrapped.
    """
    args = (x, w, b, m_in, m_out)
    xd, wd, bd, mid, mod = [t.data if isinstance(t, Tensor) else t for t in args]
    if wd.ndim != 2 or xd.shape[-1:] != wd.shape[:1]:
        raise ShapeError(f"linear: input {xd.shape} does not meet weight {wd.shape}")
    mi = None if mid is None else _applied(mid, wd.shape[0], xd.shape)
    mo = None if mod is None else _applied(mod, wd.shape[1], xd.shape)
    xm = xd if mi is None else np.multiply(xd, mi, out=empty(xd.shape))
    shape = xd.shape[:-1] + wd.shape[1:]
    rows = xm
    if _pool is not None and wd.size >= POOL_MIN and xd.ndim > 2:
        rows = xm.reshape(-1, xd.shape[-1])
    z = np.matmul(rows, wd, out=empty(rows.shape[:-1] + wd.shape[1:])).reshape(shape)
    if bd is not None:
        z += bd
    gx, gw, gb, gi, go = tracked = [isinstance(t, Tensor) and t.node_id is not None for t in args]
    out = z if mo is None else np.multiply(z, mo, out=empty(shape) if go else z)
    if not any(tracked):
        return Tensor(out)
    given = [t is not None for t in args]
    # the activations the backward reads, kept only if it does
    kx, kxm, kz = (xd if gi else None), (xm if gw else None), (z if go else None)

    def bw(g):
        gz = g if mo is None else g * mo
        da = gz @ wd.T if gx or gi else None
        lead = tuple(range(g.ndim - 1))
        grads = ((da if mi is None else da * mi) if gx else None,
                 np.tensordot(kxm, gz, axes=(lead, lead)) if gw else None,
                 gz.sum(axis=lead) if gb else None,
                 # a mask's gradient is summed over every axis but its own
                 (da * kx).sum(axis=tuple(range(mid.ndim - 1, g.ndim - 1))) if gi else None,
                 (g * kz).sum(axis=tuple(range(mod.ndim - 1, g.ndim - 1))) if go else None)
        return tuple(d for d, has in zip(grads, given) if has)

    return _record([constant(t) for t in args if t is not None], out, bw)


def transpose_last2(a) -> Tensor:
    a = constant(a)
    swapped = a.data.swapaxes(-1, -2)
    out = empty(swapped.shape)
    np.copyto(out, swapped)
    return _record([a], out, lambda g: (g.swapaxes(-1, -2),))


def swap_axes(a, axis1: int, axis2: int) -> Tensor:
    """Exchange two axes; the result is a view, like ``np.swapaxes``."""
    a = constant(a)
    return _record([a], a.data.swapaxes(axis1, axis2),
                   lambda g: (g.swapaxes(axis1, axis2),))


def reshape(a, shape) -> Tensor:
    a = constant(a)
    old = a.shape
    return _record([a], a.data.reshape(shape), lambda g: (g.reshape(old),))


def relu(a) -> Tensor:
    a = constant(a)
    pos = a.data > 0.0
    return _record([a], np.where(pos, a.data, 0.0), lambda g: (g * pos,))


def _gelu_into(x: np.ndarray, t: np.ndarray, out: np.ndarray) -> None:
    """out = gelu(x); t is left holding tanh(sqrt(2/pi)(x + 0.044715 x³))."""
    np.multiply(x, x, out=t)
    t *= x
    t *= _GELU_A
    t += x
    t *= _GELU_C
    np.tanh(t, out=t)
    np.add(t, 1.0, out=out)
    out *= x
    out *= 0.5


def gelu(a) -> Tensor:
    """GELU, tanh form: x * 0.5 * (1 + tanh(sqrt(2/pi)(x + 0.044715 x^3))).

    The cubic is x² · x, not ``x ** 3``: numpy's general ``pow`` costs more
    than the rest of the op. It runs in ``POOL_MIN``-element blocks on and
    off the tape, reusing temporaries in place; the tape keeps t whole for
    the backward, while off it one block-sized t serves every block.
    """
    a = constant(a)
    shape = a.shape
    # flat, so a 0-d product (a numpy scalar, which cannot take out=) is (1,)
    x = a.data.reshape(-1)
    if a.requires_grad:
        # t first, then out: with out first, glibc's heap trim made a d=256
        # prune step fault about twice as many pages
        t = np.empty(x.shape)
        out = np.empty(x.shape)
    else:
        out = empty(x.shape)
        t = empty((min(x.size, POOL_MIN),))
    for lo in range(0, x.size, POOL_MIN):
        hi = min(lo + POOL_MIN, x.size)
        t_lo = lo if a.requires_grad else 0
        _gelu_into(x[lo:hi], t[t_lo:t_lo + hi - lo], out[lo:hi])
    if not a.requires_grad:
        return Tensor(out.reshape(shape))

    def bw(g):
        # 0.5(1 + t) + 0.5 x (1 - t²) C (1 + 3A x²)
        d = t * t
        np.subtract(1.0, d, out=d)
        d *= x
        d *= 0.5 * _GELU_C
        p = x * x
        p *= 3.0 * _GELU_A
        p += 1.0
        d *= p
        np.add(t, 1.0, out=p)
        p *= 0.5
        d += p
        d *= g.reshape(-1)
        return (d.reshape(shape),)

    return _record([a], out.reshape(shape), bw)


def softmax_rows(a) -> Tensor:
    """Softmax along the last axis, stabilized by row-max subtraction.

    Forward and backward each allocate one array of the input's size and
    work in it in place.
    """
    a = constant(a)
    y = np.subtract(a.data, a.data.max(axis=-1, keepdims=True), out=empty(a.shape))
    np.exp(y, out=y)
    y /= y.sum(axis=-1, keepdims=True)

    def bw(g):
        # y (g - Σ g y)
        d = g * y
        s = d.sum(axis=-1, keepdims=True)
        np.subtract(g, s, out=d)
        d *= y
        return (d,)

    return _record([a], y, bw)


def layer_norm(a, gain, offset, eps: float) -> Tensor:
    """Normalize the last axis to zero mean / unit variance, then affine.

    With no input on a tape nothing reads the normalized values back, so
    the affine runs in place.
    """
    if eps <= 0:
        raise ValueError("layer_norm eps must be positive")
    a, gain, offset = constant(a), constant(gain), constant(offset)
    x = a.data
    y = np.subtract(x, _mean_last(x), out=empty(x.shape))
    inv = 1.0 / np.sqrt(_mean_last(np.square(y, out=empty(x.shape))) + eps)
    y *= inv
    gd, offset_shape = gain.data, offset.shape
    ga, gg, go = a.requires_grad, gain.requires_grad, offset.requires_grad
    if not (ga or gg or go):
        y *= gd
        y += offset.data
        return Tensor(y)

    def bw(g):
        dx = None
        if ga:
            gy = g * gd
            dx = inv * (gy - _mean_last(gy) - y * _mean_last(gy * y))
        dgain = _reduce_to(g * y, gd.shape) if gg else None
        doffset = _reduce_to(g, offset_shape) if go else None
        return dx, dgain, doffset

    return _record([a, gain, offset], y * gd + offset.data, bw)


def rms_norm(a, gain, eps: float) -> Tensor:
    """Scale the last axis by its root-mean-square, then gain (in place
    when no input is on a tape, as in ``layer_norm``)."""
    if eps <= 0:
        raise ValueError("rms_norm eps must be positive")
    a, gain = constant(a), constant(gain)
    x = a.data
    r = np.sqrt(_mean_last(np.square(x, out=empty(x.shape))) + eps)
    y = np.divide(x, r, out=empty(x.shape))
    gd = gain.data
    ga, gg = a.requires_grad, gain.requires_grad
    if not (ga or gg):
        y *= gd
        return Tensor(y)

    def bw(g):
        dx = None
        if ga:
            gy = g * gd
            dx = gy / r - x * _mean_last(gy * x) / (r * r * r)
        return dx, _reduce_to(g * y, gd.shape) if gg else None

    return _record([a, gain], y * gd, bw)


def mse_loss(pred, target) -> Tensor:
    """Mean of squared differences over every element; scalar output."""
    pred, target = constant(pred), constant(target)
    if pred.shape != target.shape:
        raise ShapeError(f"mse_loss: prediction {pred.shape} vs target {target.shape}")
    diff = pred.data - target.data
    n = diff.size
    gp, gt = pred.requires_grad, target.requires_grad

    def bw(g):
        d = g * (2.0 / n) * diff
        return d if gp else None, -d if gt else None

    return _record([pred, target], np.asarray((diff * diff).mean()), bw)


def slice_last(a, start: int, stop: int) -> Tensor:
    a = constant(a)
    shape = a.shape

    def bw(g):
        z = np.zeros(shape)
        z[..., start:stop] = g
        return (z,)

    return _record([a], a.data[..., start:stop].copy(), bw)


def concat_last(parts: Sequence) -> Tensor:
    parts = [constant(p) for p in parts]
    widths = [p.shape[-1] for p in parts]
    offs = np.cumsum([0] + widths)
    needs = [p.requires_grad for p in parts]

    def bw(g):
        return tuple(g[..., offs[i]:offs[i + 1]] if need else None
                     for i, need in enumerate(needs))

    return _record(parts, np.concatenate([p.data for p in parts], axis=-1), bw)


def _check_unique(idx: np.ndarray, op: str) -> None:
    """Strictly increasing indices are unique; only others pay for ``np.unique``."""
    if (idx[1:] > idx[:-1]).all():
        return
    if idx.size != np.unique(idx).size:
        raise ValueError(f"{op} indices must be unique")


def gather_last(a, idx: np.ndarray) -> Tensor:
    """Select columns of the last axis; indices must be unique."""
    a = constant(a)
    idx = np.asarray(idx, dtype=np.intp)
    _check_unique(idx, "gather_last")
    shape = a.shape

    def bw(g):
        z = np.zeros(shape)
        z[..., idx] = g
        return (z,)

    # np.take returns a C-contiguous array where a[..., idx] does not, so
    # products of the gathered columns run the same BLAS path as dense ones.
    return _record([a], np.take(a.data, idx, axis=-1), bw)


def scatter_last(a, idx: np.ndarray, width: int) -> Tensor:
    """Place columns into a zero tensor of the given trailing width."""
    a = constant(a)
    idx = np.asarray(idx, dtype=np.intp)
    _check_unique(idx, "scatter_last")
    out = empty(a.shape[:-1] + (width,))
    out.fill(0.0)
    out[..., idx] = a.data
    return _record([a], out, lambda g: (g[..., idx],))


def take_token(a, index: int) -> Tensor:
    """Select one position along the token axis (axis -2)."""
    a = constant(a)
    shape = a.shape

    def bw(g):
        z = np.zeros(shape)
        z[..., index, :] = g
        return (z,)

    return _record([a], a.data[..., index, :].copy(), bw)
