"""Dense f64 tensors with a reverse-mode gradient tape.

The tape records every operation applied to watched tensors and, on
``backward``, produces the gradients of its reachable leaves (parameters
and channel-mask vectors); interior gradients are passed on and dropped.
An op computes gradients only for its inputs that are on the tape.
Broadcasting is deliberately restricted to a leading batch dimension: two
operands are compatible iff their shapes are equal or one shape is a
trailing suffix of the other.
"""

from __future__ import annotations

import math
from typing import Callable, Sequence

import numpy as np

from .errors import ShapeError, TapeError

_GELU_C = math.sqrt(2.0 / math.pi)
_GELU_A = 0.044715


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
        self._backward_done = False

    def watch(self, value) -> Tensor:
        """Register a leaf tensor whose gradient should be tracked."""
        data = value.data if isinstance(value, Tensor) else value
        t = Tensor(data)
        t.tape = self
        t.node_id = self._add_node((), None)
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


def add(a, b) -> Tensor:
    a, b = constant(a), constant(b)
    _broadcast_check(a.shape, b.shape, "add")
    a_shape, b_shape = a.shape, b.shape
    ga, gb = a.requires_grad, b.requires_grad

    def bw(g):
        return (_reduce_to(g, a_shape) if ga else None,
                _reduce_to(g, b_shape) if gb else None)

    return _record([a, b], a.data + b.data, bw)


def mul(a, b) -> Tensor:
    a, b = constant(a), constant(b)
    _broadcast_check(a.shape, b.shape, "mul")
    ad, bd = a.data, b.data
    ga, gb = a.requires_grad, b.requires_grad

    def bw(g):
        return (_reduce_to(g * bd, ad.shape) if ga else None,
                _reduce_to(g * ad, bd.shape) if gb else None)

    return _record([a, b], ad * bd, bw)


def scale(a, c: float) -> Tensor:
    a = constant(a)
    c = float(c)
    return _record([a], a.data * c, lambda g: (g * c,))


def sub(a, b) -> Tensor:
    return add(a, scale(b, -1.0))


def matmul(a, b) -> Tensor:
    """Matrix product; supports (m,k)@(k,n), (...,m,k)@(k,n) and batched
    (...,m,k)@(...,k,n) with identical leading dimensions."""
    a, b = constant(a), constant(b)
    ad, bd = a.data, b.data
    if ad.ndim < 2 or bd.ndim < 2:
        raise ShapeError(f"matmul needs 2-D+ operands, got {ad.shape} and {bd.shape}")
    if ad.shape[-1] != bd.shape[-2]:
        raise ShapeError(f"matmul inner dimensions disagree: {ad.shape} vs {bd.shape}")
    ga, gb = a.requires_grad, b.requires_grad
    if bd.ndim == 2:
        def bw(g):
            da = g @ bd.swapaxes(-1, -2) if ga else None
            db = np.tensordot(ad, g, axes=(tuple(range(ad.ndim - 1)),
                                           tuple(range(g.ndim - 1)))) if gb else None
            return da, db
    else:
        if ad.shape[:-2] != bd.shape[:-2]:
            raise ShapeError(f"matmul batch dimensions disagree: {ad.shape} vs {bd.shape}")

        def bw(g):
            return (g @ bd.swapaxes(-1, -2) if ga else None,
                    ad.swapaxes(-1, -2) @ g if gb else None)

    return _record([a, b], ad @ bd, bw)


def transpose_last2(a) -> Tensor:
    a = constant(a)
    return _record([a], a.data.swapaxes(-1, -2).copy(),
                   lambda g: (g.swapaxes(-1, -2),))


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


def gelu(a) -> Tensor:
    """GELU, tanh form: x * 0.5 * (1 + tanh(sqrt(2/pi)(x + 0.044715 x^3))).

    The cubic is x² · x, not ``x ** 3``: numpy's general ``pow`` costs more
    than the rest of the op. Temporaries are reused in place.
    """
    a = constant(a)
    shape = a.shape
    # 0-d products come back as numpy scalars, which cannot take out=
    x = a.data.reshape(shape or (1,))
    t = x * x
    t *= x
    t *= _GELU_A
    t += x
    t *= _GELU_C
    np.tanh(t, out=t)
    out = t + 1.0
    out *= x
    out *= 0.5

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
        d *= g
        return (d.reshape(shape),)

    return _record([a], out.reshape(shape), bw)


def softmax_rows(a) -> Tensor:
    """Softmax along the last axis, stabilized by row-max subtraction.

    Forward and backward each allocate one array of the input's size and
    work in it in place.
    """
    a = constant(a)
    y = a.data - a.data.max(axis=-1, keepdims=True)
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
    """Normalize the last axis to zero mean / unit variance, then affine."""
    if eps <= 0:
        raise ValueError("layer_norm eps must be positive")
    a, gain, offset = constant(a), constant(gain), constant(offset)
    x = a.data
    mu = x.mean(axis=-1, keepdims=True)
    xc = x - mu
    var = (xc ** 2).mean(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + eps)
    y = xc * inv
    gd, offset_shape = gain.data, offset.shape
    ga, gg, go = a.requires_grad, gain.requires_grad, offset.requires_grad

    def bw(g):
        dx = None
        if ga:
            gy = g * gd
            dx = inv * (gy - gy.mean(axis=-1, keepdims=True)
                        - y * (gy * y).mean(axis=-1, keepdims=True))
        dgain = _reduce_to(g * y, gd.shape) if gg else None
        doffset = _reduce_to(g, offset_shape) if go else None
        return dx, dgain, doffset

    return _record([a, gain, offset], y * gd + offset.data, bw)


def rms_norm(a, gain, eps: float) -> Tensor:
    """Scale the last axis by its root-mean-square, then gain."""
    if eps <= 0:
        raise ValueError("rms_norm eps must be positive")
    a, gain = constant(a), constant(gain)
    x = a.data
    r = np.sqrt((x ** 2).mean(axis=-1, keepdims=True) + eps)
    y = x / r
    gd = gain.data
    ga, gg = a.requires_grad, gain.requires_grad

    def bw(g):
        dx = None
        if ga:
            gy = g * gd
            dx = gy / r - x * (gy * x).mean(axis=-1, keepdims=True) / (r * r * r)
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
    out = np.zeros(a.shape[:-1] + (width,))
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
