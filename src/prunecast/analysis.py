"""Forward-pass sparsity diagnostics.

Per attention head: the mean over tokens of ‖o_i‖₂/‖x‖₂, where x is the
residual entering the attention sublayer and o_i the head's contribution
to it. Per FFN intermediate channel: the frequency of strictly positive
post-activation values. Plus normalized weight-magnitude CDFs.
"""

from __future__ import annotations

import csv

import numpy as np

from .data import WindowSet
from .errors import ConfigError
from .model import Forecaster

CDF_POINTS = 1000


class HeadNormStats:
    """Streaming per-head relative output norms for one layer."""

    def __init__(self, heads: int):
        self.ratio_sums = np.zeros(heads)
        self.tokens = 0
        self.skipped = 0  # zero-norm residual tokens excluded from the mean

    def update(self, residual: np.ndarray, head_outputs: np.ndarray) -> None:
        """residual: (B, T, d); head_outputs: (H, B, T, d)."""
        x_norm = np.linalg.norm(residual, axis=-1)          # (B, T)
        o_norm = np.linalg.norm(head_outputs, axis=-1)      # (H, B, T)
        keep = x_norm > 0.0
        self.skipped += int((~keep).sum())
        self.tokens += int(keep.sum())
        ratios = np.where(keep, o_norm / np.where(keep, x_norm, 1.0), 0.0)
        self.ratio_sums += ratios.sum(axis=(1, 2))

    def merge(self, other: "HeadNormStats") -> "HeadNormStats":
        out = HeadNormStats(len(self.ratio_sums))
        out.ratio_sums = self.ratio_sums + other.ratio_sums
        out.tokens = self.tokens + other.tokens
        out.skipped = self.skipped + other.skipped
        return out

    def means(self) -> np.ndarray:
        if self.tokens == 0:
            raise ConfigError("no tokens observed; collect statistics first")
        return self.ratio_sums / self.tokens


class ActivationStats:
    """Streaming P(activation > 0) for one layer's FFN channels."""

    def __init__(self, channels: int):
        self.positives = np.zeros(channels, dtype=np.int64)
        self.total = 0

    def update(self, activations: np.ndarray) -> None:
        """activations: (B, T, d_ffn) post-activation values."""
        self.positives += (activations > 0.0).sum(axis=(0, 1))
        self.total += activations.shape[0] * activations.shape[1]

    def merge(self, other: "ActivationStats") -> "ActivationStats":
        out = ActivationStats(len(self.positives))
        out.positives = self.positives + other.positives
        out.total = self.total + other.total
        return out

    def probabilities(self) -> np.ndarray:
        if self.total == 0:
            raise ConfigError("no activations observed; collect statistics first")
        return self.positives / self.total


def _iter_batches(windows, batch_size: int):
    contexts = windows.contexts if isinstance(windows, WindowSet) else np.atleast_2d(windows)
    for i in range(0, contexts.shape[0], batch_size):
        yield contexts[i:i + batch_size]


def collect_head_norms(model: Forecaster, windows,
                       batch_size: int = 256) -> list[HeadNormStats]:
    """Mean relative head output norm per layer over all supplied windows."""
    stats = [HeadNormStats(model.cfg.heads) for _ in range(model.cfg.layers)]
    for batch in _iter_batches(windows, batch_size):
        fp = model.forward_batch(batch, analysis=True)
        for li in range(model.cfg.layers):
            stats[li].update(fp.analysis.residuals[li], fp.analysis.head_outputs[li])
    return stats


def collect_activation_probs(model: Forecaster, windows,
                             batch_size: int = 256) -> list[ActivationStats]:
    """Exact positive-activation counts per FFN channel, per layer."""
    stats = [ActivationStats(model.cfg.d_ffn) for _ in range(model.cfg.layers)]
    for batch in _iter_batches(windows, batch_size):
        fp = model.forward_batch(batch, analysis=True)
        for li in range(model.cfg.layers):
            stats[li].update(fp.analysis.activations[li])
    return stats


def sparse_channel_fraction(stats: list[ActivationStats], threshold: float) -> list[float]:
    """Per-layer fraction of channels with activation probability < threshold."""
    if not 0.0 <= threshold <= 1.0:
        raise ConfigError(f"threshold must lie in [0, 1], got {threshold}")
    if not stats:
        raise ConfigError("empty statistics")
    return [float((s.probabilities() < threshold).mean()) for s in stats]


GRANULARITIES = ("element", "row", "column")


def magnitude_values(model: Forecaster, granularity: str) -> np.ndarray:
    if granularity == "element":
        vals = [np.abs(l.w).ravel() for l in model.linears()]
    elif granularity == "row":
        vals = [np.linalg.norm(l.w, axis=1) for l in model.linears()]
    elif granularity == "column":
        vals = [np.linalg.norm(l.w, axis=0) for l in model.linears()]
    else:
        raise ConfigError(f"granularity must be one of {GRANULARITIES}")
    return np.concatenate(vals)


def magnitude_cdf(model: Forecaster, granularity: str = "element") -> tuple[np.ndarray, np.ndarray]:
    """CDF of weight magnitudes normalized by their maximum.

    Returns (thresholds, fractions) sampled at 1000 evenly spaced points.
    """
    vals = magnitude_values(model, granularity)
    peak = vals.max()
    if peak == 0.0:
        raise ConfigError("all magnitudes are zero; nothing to normalize")
    normed = np.sort(vals / peak)
    thresholds = np.linspace(0.0, 1.0, CDF_POINTS)
    fractions = np.searchsorted(normed, thresholds, side="right") / normed.size
    return thresholds, fractions


def write_head_norms_csv(path: str, stats: list[HeadNormStats]) -> None:
    with open(path, "w", newline="", encoding="utf-8") as f:
        w = csv.writer(f)
        w.writerow(["layer", "head", "mean_ratio", "tokens", "skipped"])
        for li, s in enumerate(stats):
            for h, m in enumerate(s.means()):
                w.writerow([li, h, repr(float(m)), s.tokens, s.skipped])


def write_ffn_probs_csv(path: str, stats: list[ActivationStats]) -> None:
    with open(path, "w", newline="", encoding="utf-8") as f:
        w = csv.writer(f)
        w.writerow(["layer", "channel", "prob"])
        for li, s in enumerate(stats):
            for c, p in enumerate(s.probabilities()):
                w.writerow([li, c, repr(float(p))])


def write_magnitude_cdf_csv(path: str, model: Forecaster,
                            granularity: str = "element") -> None:
    thresholds, fractions = magnitude_cdf(model, granularity)
    with open(path, "w", newline="", encoding="utf-8") as f:
        w = csv.writer(f)
        w.writerow(["granularity", "threshold", "fraction"])
        for t, fr in zip(thresholds, fractions):
            w.writerow([granularity, repr(float(t)), repr(float(fr))])
