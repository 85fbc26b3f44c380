"""Loss-guided channel importance and progressive pruning.

The raw per-channel score over a batch of N windows is

    s_i = | -(1/N) Σ_n g_{n,i} + (1/2N) Σ_n g_{n,i}² |

where g_{n,i} is the gradient of window n's loss w.r.t. mask coordinate i
(the squared term standing in for the second derivative). Scores are
smoothed by an EMA across batches and the globally lowest-scored alive
channels are removed a few at a time until the schedule's target.
"""

from __future__ import annotations

import bisect
import json
import math
import sys
from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import Tape
from .data import WindowSet
from .errors import ConfigError, Field, PruneDivergedError, require
from .model import Forecaster
from .training import batch_loss

@dataclass(frozen=True, order=True)
class ChannelRef:
    layer_id: str
    side: str
    index: int

    def __str__(self) -> str:
        return f"{self.layer_id}:{self.side}:{self.index}"


PROTECTED = (("embed", "input"), ("head", "output"))  # I/O arity, never pruned

FIELDS = {
    "variant": Field(str, "importance", ("importance", "stat", "stat_then_importance")),
    "ratio_per_epoch": Field(float, 0.1, "[0, 1]"),
    "epochs": Field(int, 1, ">= 1"),
    "batch_size": Field(int, 64, ">= 1"),
    "k": Field(int, None, ">= 0"),
    "alpha": Field((float, [float]), 0.5, "(0, 1]"),  # a grid: one run per value
    "head_threshold": Field(float, 0.01, "[0, 1]"),
    "act_threshold": Field(float, 0.01, "[0, 1]"),
    "target_param_fraction": Field(float, None, "[0, 1]"),
}


class ImportanceLedger:
    """EMA scores and liveness of every maskable channel.

    ``layout`` lists the model's (layer_id, side, width) groups in model
    order, and each group's channels sit at contiguous ledger positions, so
    all per-channel structure follows from the widths: the ``ChannelRef`` of
    a position, ``rank`` (each position's place in ``ChannelRef`` order, the
    tie-break of ``prune_step``) and the ``protected`` positions.
    """

    def __init__(self, layout: list[tuple[str, str, int]], alpha: float):
        require({"alpha": alpha}, {"alpha": FIELDS["alpha"]._replace(kind=float)}, "prune")
        self.layout = layout
        widths = [width for _, _, width in layout]
        self.starts = np.cumsum([0] + widths).tolist()
        self.ema = np.zeros(self.starts[-1])
        self.last_raw = np.zeros(self.starts[-1])
        self.alive = np.ones(self.starts[-1], dtype=bool)
        self.alpha = alpha
        self.batch_count = 0
        by_ref = sorted(range(len(layout)), key=lambda g: layout[g][:2])
        self.rank = np.argsort(np.concatenate(
            [np.arange(self.starts[g], self.starts[g + 1]) for g in by_ref]))
        self.protected = np.flatnonzero(np.repeat(
            [(layer_id, side) in PROTECTED for layer_id, side, _ in layout], widths))

    @classmethod
    def from_model(cls, model: Forecaster, alpha: float) -> "ImportanceLedger":
        masks = [(layer.layer_id, side, mask) for layer in model.linears()
                 for side, mask in (("input", layer.m_in), ("output", layer.m_out))]
        ledger = cls([(layer_id, side, mask.size) for layer_id, side, mask in masks], alpha)
        ledger.alive = np.concatenate([mask != 0.0 for _, _, mask in masks])
        return ledger

    def ref(self, i: int) -> ChannelRef:
        g = bisect.bisect_right(self.starts, i) - 1
        layer_id, side, _ = self.layout[g]
        return ChannelRef(layer_id, side, int(i - self.starts[g]))

    @property
    def refs(self) -> list[ChannelRef]:
        return [ChannelRef(layer_id, side, i)
                for layer_id, side, width in self.layout for i in range(width)]

    def names(self) -> list[str]:
        """``str`` of every ref, formatted without building the refs."""
        return [f"{layer_id}:{side}:{i}"
                for layer_id, side, width in self.layout for i in range(width)]

    def candidates(self) -> np.ndarray:
        """Ledger positions of the alive, unprotected channels, ascending."""
        free = self.alive.copy()
        free[self.protected] = False
        return np.flatnonzero(free)

    def alive_count(self) -> int:
        return int(self.alive.sum())

    def to_dict(self) -> dict:
        return {
            "alpha": self.alpha,
            "batch_count": self.batch_count,
            "refs": self.names(),
            "ema": self.ema.tolist(),
            "last_raw": self.last_raw.tolist(),
            "alive": self.alive.astype(int).tolist(),
        }

    @classmethod
    def from_dict(cls, d: dict, model: Forecaster) -> "ImportanceLedger":
        """Rebuild a stored ledger on ``model``'s layout and masks.

        Raises ``ConfigError`` naming the first field that does not fit:
        ``alpha`` outside (0, 1], ``batch_count`` not an int >= 0, refs other
        than the model's in order, EMA state not finite and >= 0, or
        ``alive`` other than the masks as 0/1 ints.
        """
        alpha, count = d["alpha"], d["batch_count"]
        if not (type(alpha) in (int, float) and 0.0 < alpha <= 1.0):  # a bool is mistyped
            raise ConfigError(f"alpha: must be a number in (0, 1], got {alpha!r}")
        if not (type(count) is int and count >= 0):
            raise ConfigError(f"batch_count: must be an int >= 0, got {count!r}")
        ledger = cls.from_model(model, alpha)
        ledger.batch_count = count
        n = ledger.alive.size
        if d["refs"] != ledger.names():
            raise ConfigError(f"refs: must name the model's {n} channels in order")
        for key in ("ema", "last_raw"):
            vals = d[key]
            if not (isinstance(vals, list) and len(vals) == n and all(
                    type(v) in (int, float) and 0 <= v <= sys.float_info.max for v in vals)):
                raise ConfigError(f"{key}: must be {n} finite numbers >= 0")
            setattr(ledger, key, np.asarray(vals, dtype=np.float64))
        if (d["alive"] != ledger.alive.astype(int).tolist()
                or not all(type(b) is int for b in d["alive"])):
            raise ConfigError(f"alive: must be the masks, as {n} ints of 0 or 1")
        return ledger

    def scores_csv_rows(self) -> list[tuple]:
        return [(r.layer_id, r.side, r.index, float(self.ema[i]), int(self.alive[i]))
                for i, r in enumerate(self.refs)]


@dataclass
class PruneSchedule:
    ratio_per_epoch: float
    epochs: int = 1
    batch_size: int = 64
    k: int | None = None
    target_param_fraction: float | None = None
    seed: int = 0

    def __post_init__(self):
        require({k: v for k, v in vars(self).items() if k in FIELDS}, FIELDS, "prune")


class PerSampleGrads:
    """Per-window gradients of the loss w.r.t. every mask coordinate."""

    def __init__(self, arrays: dict[tuple[str, str], np.ndarray], loss: float):
        self.arrays = arrays  # (layer_id, side) -> (N, width)
        self.loss = loss

    def stacked(self, ledger: ImportanceLedger) -> np.ndarray:
        """(N, n_channels) matrix aligned with the ledger's channel order."""
        return np.concatenate([self.arrays[(layer_id, side)]
                               for layer_id, side, _ in ledger.layout], axis=1)


def per_sample_grads(model: Forecaster, contexts: np.ndarray,
                     targets: np.ndarray) -> PerSampleGrads:
    """One batched forward/backward; per-window mask gradients read from
    the tape's mask leaves.

    The forward is the capture pass (``capture_grads``): parameters are
    constants and each mask leaf is tiled to the activation it multiplies,
    so the backward forms no weight, bias or gain gradient. With the
    batch-mean loss, a leaf row private to window n receives 1/N times the
    gradient of that window's own loss, so
    g_{n,i} = N · Σ_tokens ∂L/∂m[n, t, i].
    """
    contexts = np.atleast_2d(contexts)
    targets = np.atleast_2d(targets)
    n = contexts.shape[0]
    tape = Tape()
    fp = model.forward_batch(contexts, tape=tape, capture_grads=True)
    loss = ad.mse_loss(fp.pred_norm, ad.constant(fp.normalized_targets(targets)))
    tape.backward(loss)

    arrays: dict[tuple[str, str], np.ndarray] = {}
    for layer in model.linears():
        for side, leaf in zip(("input", "output"), fp.ctx.mask_leaves[layer.layer_id]):
            g = tape.grad(leaf)
            arrays[(layer.layer_id, side)] = n * g.sum(axis=tuple(range(1, g.ndim - 1)))
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


def ema_update(ledger: ImportanceLedger, raw_scores: np.ndarray) -> ImportanceLedger:
    """s̃ ← α·s + (1−α)·s̃ for every channel, dead ones included."""
    raw_scores = np.asarray(raw_scores, dtype=np.float64)
    if raw_scores.shape != ledger.ema.shape:
        raise ConfigError(f"raw score vector has shape {raw_scores.shape}, "
                          f"ledger holds {ledger.ema.shape}")
    ledger.last_raw = raw_scores.copy()
    ledger.ema = ledger.alpha * raw_scores + (1.0 - ledger.alpha) * ledger.ema
    return ledger


def prune_step(ledger: ImportanceLedger, model: Forecaster, k: int) -> list[ChannelRef]:
    """Kill the k alive, unprotected channels with the smallest EMA scores.

    Ties break on (layer_id, side, index) so runs are reproducible: the
    channels come out in the order of the (ema, ref) tuple sort, which a
    lexsort on (ema, ledger.rank) reproduces.
    """
    if k == 0:
        return []
    candidates = ledger.candidates()
    if k > candidates.size:
        raise ConfigError(f"cannot prune {k} channels: only {candidates.size} "
                          "alive and unprotected")
    order = np.lexsort((ledger.rank[candidates], ledger.ema[candidates]))
    layers = {layer.layer_id: layer for layer in model.linears()}
    pruned = []
    for i in candidates[order[:k]]:
        ref = ledger.ref(i)
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


def progressive_prune(model: Forecaster, windows: WindowSet, schedule: PruneSchedule,
                      alpha: float) -> tuple[ImportanceLedger, PruneTrace]:
    """Batch-wise score → EMA → global TopK removal until the target ratio.

    Batches are drawn without replacement within each epoch from a seeded
    shuffle. The model's masks are mutated in place; the ledger is attached
    to the model for checkpointing.
    """
    ledger = ImportanceLedger.from_model(model, alpha)
    total = ledger.alive.size
    target_total = int(round(total * schedule.ratio_per_epoch * schedule.epochs))
    target_total = min(target_total, ledger.candidates().size)

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
                    f"{bad.size} channel(s), first {ledger.ref(bad[0])}; "
                    f"batch loss {grads.loss}")
            ema_update(ledger, scores)
            ledger.batch_count += 1
            k_eff = min(k, target_total - removed)
            pruned = prune_step(ledger, model, k_eff)
            removed += len(pruned)
            trace.append(BatchRecord(j, grads.loss, pruned, ledger.alive_count()))
            if removed >= target_total:
                done = True
            if (schedule.target_param_fraction is not None
                    and model.param_fraction() <= schedule.target_param_fraction):
                done = True
            if done:
                break
    model.ledger = ledger
    return ledger, trace


def prune_stat(model: Forecaster, head_stats, act_stats,
               head_threshold: float, act_threshold: float) -> list[ChannelRef]:
    """Threshold pruning from forward statistics (strict inequality).

    Heads whose mean relative output norm is below the threshold lose their
    W_O input group; FFN intermediate channels below the activation
    threshold lose the up-output and down-input coordinates jointly.
    """
    require({"head_threshold": head_threshold, "act_threshold": act_threshold},
            FIELDS, "prune")
    pruned: list[ChannelRef] = []

    def kill(layer, side: str, index: int):
        mask = layer.m_in if side == "input" else layer.m_out
        if mask[index] == 0.0:
            return
        mask[index] = 0.0
        pruned.append(ChannelRef(layer.layer_id, side, index))

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


def oracle_importance(model: Forecaster, windows: WindowSet,
                      ref: ChannelRef) -> float:
    """Brute-force importance: |L(mask with channel zeroed) − L(mask)|."""
    contexts, targets = windows.contexts, windows.targets
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
