"""Loss-guided channel importance and progressive pruning.

The raw per-channel score over a batch of N windows is

    s_i = | -(1/N) Σ_n g_{n,i} + (1/2N) Σ_n g_{n,i}² |

where g_{n,i} is the gradient of window n's loss w.r.t. mask coordinate i
(the squared term standing in for the second derivative). Scores are
smoothed by an EMA across batches and the globally lowest-scored alive
channels are removed a few at a time until the schedule's target.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

from . import autodiff as ad
from .autodiff import Tape
from .data import WindowSet
from .errors import ConfigError, PruneDivergedError
from .model import Forecaster
from .training import batch_loss

SIDES = ("input", "output")


@dataclass(frozen=True, order=True)
class ChannelRef:
    layer_id: str
    side: str
    index: int

    def __str__(self) -> str:
        return f"{self.layer_id}:{self.side}:{self.index}"

    @classmethod
    def parse(cls, text: str) -> "ChannelRef":
        layer_id, side, index = text.rsplit(":", 2)
        return cls(layer_id, side, int(index))


class ImportanceLedger:
    """Global registry of maskable channels, their EMA scores and liveness.

    The refs are fixed at construction, and index arrays over them are
    cached once so per-batch work never loops over refs in Python:
    ``columns`` maps each (layer_id, side) to the ledger positions of its
    channels and their channel indices, and ``rank`` gives every ref's place
    in ``ChannelRef`` order, (layer_id, side, index), the tie-break of
    ``prune_step``.
    """

    def __init__(self, refs: list[ChannelRef], alpha: float):
        if not 0.0 < alpha <= 1.0:
            raise ConfigError(f"EMA alpha must lie in (0, 1], got {alpha}")
        self.refs = refs
        self.index = {r: i for i, r in enumerate(refs)}
        self.ema = np.zeros(len(refs))
        self.last_raw = np.zeros(len(refs))
        self.alive = np.ones(len(refs), dtype=bool)
        self.alpha = alpha
        self.batch_count = 0

        groups: dict[tuple[str, str], list[tuple[int, int]]] = {}
        for i, r in enumerate(refs):
            groups.setdefault((r.layer_id, r.side), []).append((i, r.index))
        self.columns: dict[tuple[str, str], tuple[np.ndarray, np.ndarray]] = {}
        self.rank = np.empty(len(refs), dtype=np.intp)
        placed = 0
        for key in sorted(groups):
            cols, chans = np.asarray(groups[key], dtype=np.intp).T
            self.columns[key] = (cols, chans)
            self.rank[cols[np.argsort(chans, kind="stable")]] = np.arange(
                placed, placed + cols.size)
            placed += cols.size

    @classmethod
    def from_model(cls, model: Forecaster, alpha: float) -> "ImportanceLedger":
        refs = []
        for layer in model.linears():
            refs.extend(ChannelRef(layer.layer_id, "input", i) for i in range(layer.d_in))
            refs.extend(ChannelRef(layer.layer_id, "output", j) for j in range(layer.d_out))
        ledger = cls(refs, alpha)
        for layer in model.linears():
            for side, mask in (("input", layer.m_in), ("output", layer.m_out)):
                cols, chans = ledger.columns[(layer.layer_id, side)]
                ledger.alive[cols[mask[chans] == 0.0]] = False
        return ledger

    def candidates(self, protected: set | frozenset) -> np.ndarray:
        """Ledger positions of the alive channels not in ``protected``, ascending."""
        free = self.alive.copy()
        for ref in protected:
            i = self.index.get(ref)
            if i is not None:
                free[i] = False
        return np.flatnonzero(free)

    def alive_count(self) -> int:
        return int(self.alive.sum())

    def check_invariants(self) -> None:
        if (self.ema < 0).any():
            raise AssertionError("EMA of nonnegative scores went negative")

    def to_dict(self) -> dict:
        return {
            "alpha": self.alpha,
            "batch_count": self.batch_count,
            "refs": [str(r) for r in self.refs],
            "ema": self.ema.tolist(),
            "last_raw": self.last_raw.tolist(),
            "alive": self.alive.astype(int).tolist(),
        }

    @classmethod
    def from_dict(cls, d: dict) -> "ImportanceLedger":
        ledger = cls([ChannelRef.parse(r) for r in d["refs"]], d["alpha"])
        ledger.batch_count = d["batch_count"]
        ledger.ema = np.asarray(d["ema"], dtype=np.float64)
        ledger.last_raw = np.asarray(d["last_raw"], dtype=np.float64)
        ledger.alive = np.asarray(d["alive"], dtype=bool)
        return ledger

    def scores_csv_rows(self) -> list[tuple]:
        return [(r.layer_id, r.side, r.index, float(self.ema[i]), int(self.alive[i]))
                for i, r in enumerate(self.refs)]


def default_protected(model: Forecaster) -> set[ChannelRef]:
    """I/O-arity channels exempt from pruning: embed inputs, head outputs."""
    out = {ChannelRef("embed", "input", i) for i in range(model.embed.d_in)}
    out |= {ChannelRef("head", "output", j) for j in range(model.head.d_out)}
    return out


@dataclass
class PruneSchedule:
    ratio_per_epoch: float
    epochs: int = 1
    batch_size: int = 64
    k: int | None = None
    protected: set = field(default_factory=set)
    target_param_fraction: float | None = None
    seed: int = 0

    def __post_init__(self):
        if not 0.0 <= self.ratio_per_epoch <= 1.0:
            raise ConfigError("ratio_per_epoch must lie in [0, 1]")
        if self.epochs < 1 or self.batch_size < 1:
            raise ConfigError("epochs and batch_size must be positive")
        if self.k is not None and self.k < 0:
            raise ConfigError("k must be >= 0")


class PerSampleGrads:
    """Per-window gradients of the loss w.r.t. every mask coordinate."""

    def __init__(self, arrays: dict[tuple[str, str], np.ndarray], loss: float):
        self.arrays = arrays  # (layer_id, side) -> (N, width)
        self.loss = loss

    def vector(self, ref: ChannelRef) -> np.ndarray:
        return self.arrays[(ref.layer_id, ref.side)][:, ref.index]

    def stacked(self, ledger: ImportanceLedger) -> np.ndarray:
        """(N, n_channels) matrix aligned with the ledger's channel order."""
        n = next(iter(self.arrays.values())).shape[0]
        out = np.empty((n, len(ledger.refs)))
        for key, (cols, chans) in ledger.columns.items():
            out[:, cols] = self.arrays[key][:, chans]
        return out


def per_sample_grads(model: Forecaster, contexts: np.ndarray,
                     targets: np.ndarray) -> PerSampleGrads:
    """One batched forward/backward; per-window mask gradients extracted
    from the tape's intermediate-node gradients.

    The forward is the capture pass (``capture_grads``): parameters and
    masks are constants, so the backward runs over activations only and
    forms no weight, bias, gain or mask gradient, and the tape keeps only
    the gradients read below. With the batch-mean loss, the gradient at
    any sample-private activation equals 1/N times that sample's own loss
    gradient, so g_{n,i} = N · Σ_tokens x_i · ∂L/∂(x_i m_i) restricted to
    window n.
    """
    contexts = np.atleast_2d(contexts)
    targets = np.atleast_2d(targets)
    n = contexts.shape[0]
    tape = Tape()
    fp = model.forward_batch(contexts, tape=tape, capture_grads=True)
    loss = ad.mse_loss(fp.pred_norm, ad.constant(fp.normalized_targets(targets)))
    captures = fp.ctx.captures.values()
    tape.backward(loss, keep={t.node_id for cap in captures for t in (cap.xm, cap.h)})

    arrays: dict[tuple[str, str], np.ndarray] = {}
    for layer in model.linears():
        cap = fp.ctx.captures[layer.layer_id]
        token_axes = tuple(range(1, cap.x.data.ndim - 1))
        g_xm = tape.grads.get(cap.xm.node_id)
        g_h = tape.grads.get(cap.h.node_id)
        zeros_in = np.zeros((n, layer.d_in))
        zeros_out = np.zeros((n, layer.d_out))
        arrays[(layer.layer_id, "input")] = (
            zeros_in if g_xm is None
            else n * (cap.x.data * g_xm).sum(axis=token_axes))
        arrays[(layer.layer_id, "output")] = (
            zeros_out if g_h is None
            else n * (cap.y.data * g_h).sum(axis=token_axes))
    return PerSampleGrads(arrays, loss.item())


def raw_importance(per_sample: np.ndarray) -> np.ndarray | float:
    """First-order term plus half the mean squared gradient, absolute value."""
    g = np.asarray(per_sample, dtype=np.float64)
    if g.ndim == 1:
        g = g[:, None]
        squeeze = True
    else:
        squeeze = False
    if g.shape[0] == 0:
        raise ConfigError("raw_importance needs at least one sample")
    s = np.abs(-g.mean(axis=0) + 0.5 * (g ** 2).mean(axis=0))
    return float(s[0]) if squeeze else s


def taylor2_importance(first: np.ndarray, second: np.ndarray) -> np.ndarray:
    """Second-order Taylor estimate of the prune loss-delta, |−g + h/2|.

    Exact for losses quadratic in the mask coordinates; the Fisher variant
    in raw_importance replaces h by the mean squared gradient.
    """
    return np.abs(-np.asarray(first, dtype=np.float64)
                  + 0.5 * np.asarray(second, dtype=np.float64))


def ema_update(ledger: ImportanceLedger, raw_scores: np.ndarray,
               alpha: float | None = None) -> ImportanceLedger:
    """s̃ ← α·s + (1−α)·s̃ for every channel, dead ones included."""
    alpha = ledger.alpha if alpha is None else alpha
    if not 0.0 < alpha <= 1.0:
        raise ConfigError(f"EMA alpha must lie in (0, 1], got {alpha}")
    raw_scores = np.asarray(raw_scores, dtype=np.float64)
    if raw_scores.shape != ledger.ema.shape:
        raise ConfigError(f"raw score vector has shape {raw_scores.shape}, "
                          f"ledger holds {ledger.ema.shape}")
    ledger.last_raw = raw_scores.copy()
    ledger.ema = alpha * raw_scores + (1.0 - alpha) * ledger.ema
    return ledger


def prune_step(ledger: ImportanceLedger, model: Forecaster, k: int,
               protected: set | frozenset = frozenset()) -> list[ChannelRef]:
    """Kill the k alive, unprotected channels with the smallest EMA scores.

    Ties break on (layer_id, side, index) so runs are reproducible: the
    channels come out in the order of the (ema, ref) tuple sort, which a
    lexsort on (ema, ledger.rank) reproduces.
    """
    if k == 0:
        return []
    candidates = ledger.candidates(protected)
    if k > candidates.size:
        raise ConfigError(f"cannot prune {k} channels: only {candidates.size} "
                          "alive and unprotected")
    order = np.lexsort((ledger.rank[candidates], ledger.ema[candidates]))
    layers = {layer.layer_id: layer for layer in model.linears()}
    pruned = []
    for i in candidates[order[:k]]:
        ref = ledger.refs[i]
        ledger.alive[i] = False
        layer = layers[ref.layer_id]
        (layer.m_in if ref.side == "input" else layer.m_out)[ref.index] = 0.0
        pruned.append(ref)
    return pruned


@dataclass
class BatchRecord:
    batch: int
    loss: float
    pruned: list[ChannelRef]
    alive_count: int

    def to_json(self) -> str:
        return json.dumps({"j": self.batch, "loss": self.loss,
                           "pruned": [str(r) for r in self.pruned],
                           "alive_count": self.alive_count},
                          sort_keys=True, separators=(",", ":"))


class PruneTrace:
    def __init__(self):
        self.records: list[BatchRecord] = []

    def append(self, rec: BatchRecord) -> None:
        self.records.append(rec)

    def pruned_refs(self) -> list[ChannelRef]:
        out = []
        for rec in self.records:
            out.extend(rec.pruned)
        return out

    def to_jsonl(self) -> str:
        return "\n".join(r.to_json() for r in self.records) + "\n"


def progressive_prune(model: Forecaster, windows: WindowSet,
                      schedule: PruneSchedule, alpha: float,
                      ledger: ImportanceLedger | None = None) -> tuple[ImportanceLedger, PruneTrace]:
    """Batch-wise score → EMA → global TopK removal until the target ratio.

    Batches are drawn without replacement within each epoch from a seeded
    shuffle. The model's masks are mutated in place; the ledger is attached
    to the model for checkpointing.
    """
    if ledger is None:
        ledger = ImportanceLedger.from_model(model, alpha)
    protected = schedule.protected or default_protected(model)
    total = len(ledger.refs)
    target_total = int(round(total * schedule.ratio_per_epoch * schedule.epochs))
    target_total = min(target_total, ledger.candidates(protected).size)

    n = len(windows)
    batches_per_epoch = max(1, math.ceil(n / schedule.batch_size))
    k = schedule.k
    if k is None:
        k = math.ceil(total * schedule.ratio_per_epoch / batches_per_epoch)

    trace = PruneTrace()
    rng = np.random.default_rng(schedule.seed)
    removed = 0
    j = 0
    done = removed >= target_total
    for _ in range(schedule.epochs):
        if done:
            break
        order = rng.permutation(n)
        for b in range(batches_per_epoch):
            idx = order[b * schedule.batch_size:(b + 1) * schedule.batch_size]
            if idx.size == 0:
                continue
            j += 1
            grads = per_sample_grads(model, windows.contexts[idx], windows.targets[idx])
            scores = raw_importance(grads.stacked(ledger))
            bad = np.flatnonzero(~np.isfinite(scores))
            if bad.size:
                raise PruneDivergedError(
                    f"non-finite importance score at prune batch {j} for "
                    f"{bad.size} channel(s), first {ledger.refs[bad[0]]}; "
                    f"batch loss {grads.loss}")
            ema_update(ledger, scores)
            ledger.batch_count += 1
            k_eff = min(k, target_total - removed)
            pruned = prune_step(ledger, model, k_eff, protected)
            removed += len(pruned)
            trace.append(BatchRecord(j, grads.loss, pruned, ledger.alive_count()))
            if removed >= target_total:
                done = True
            if (schedule.target_param_fraction is not None
                    and model.param_fraction() <= schedule.target_param_fraction):
                done = True
            if done:
                break
    ledger.check_invariants()
    model.ledger = ledger
    return ledger, trace


def prune_stat(model: Forecaster, head_stats, act_stats,
               head_threshold: float, act_threshold: float,
               ledger: ImportanceLedger | None = None) -> list[ChannelRef]:
    """Threshold pruning from forward statistics (strict inequality).

    Heads whose mean relative output norm is below the threshold lose their
    W_O input group; FFN intermediate channels below the activation
    threshold lose the up-output and down-input coordinates jointly.
    """
    for name, thr in (("head_threshold", head_threshold),
                      ("act_threshold", act_threshold)):
        if not 0.0 <= thr <= 1.0:
            raise ConfigError(f"{name} must lie in [0, 1], got {thr}")

    pruned: list[ChannelRef] = []

    def kill(layer, side: str, index: int):
        ref = ChannelRef(layer.layer_id, side, index)
        mask = layer.m_in if side == "input" else layer.m_out
        if mask[index] == 0.0:
            return
        mask[index] = 0.0
        pruned.append(ref)
        if ledger is not None:
            ledger.alive[ledger.index[ref]] = False

    for li, block in enumerate(model.blocks):
        layer_stats = head_stats[li]
        for head, mean_norm in enumerate(layer_stats.means()):
            if mean_norm < head_threshold:
                g = model.head_group(head)
                for i in range(g.start, g.stop):
                    kill(block.wo, "input", i)
        probs = act_stats[li].probabilities()
        for c, p in enumerate(probs):
            if p < act_threshold:
                kill(block.ffn_up, "output", c)
                kill(block.ffn_down, "input", c)
    return pruned


def oracle_importance(model: Forecaster, windows: WindowSet | tuple,
                      ref: ChannelRef) -> float:
    """Brute-force importance: |L(mask with channel zeroed) − L(mask)|."""
    if isinstance(windows, WindowSet):
        contexts, targets = windows.contexts, windows.targets
    else:
        contexts, targets = windows
    layer = model.layer_by_id(ref.layer_id)
    mask = layer.m_in if ref.side == "input" else layer.m_out
    base = batch_loss(model, contexts, targets)[0]
    saved = mask[ref.index]
    mask[ref.index] = 0.0
    try:
        flipped = batch_loss(model, contexts, targets)[0]
    finally:
        mask[ref.index] = saved
    return abs(flipped - base)
