"""CSV ingestion, chronological splitting, windowing, synthetic series.

Splits are contiguous in time. Validation/test contexts may reach back
across their split boundary (the standard long-horizon benchmark
convention); targets never do. Test enumeration uses every admissible
start, never dropping the last short stretch.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import ConfigError, Field, ParseError, require
from .model import FIELDS as MODEL_FIELDS


@dataclass
class SeriesTable:
    names: list[str]
    values: np.ndarray  # (time, channels) float64
    frequency: str | None = None

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=np.float64)
        if self.values.ndim != 2:
            raise ValueError(f"values must be 2-D, got shape {self.values.shape}")
        if len(self.names) != self.values.shape[1]:
            raise ValueError("one name per channel required")

    @property
    def n_points(self) -> int:
        return self.values.shape[0]

    @property
    def n_channels(self) -> int:
        return self.values.shape[1]

    def select(self, names: list[str]) -> "SeriesTable":
        """Sub-table with the given channels, order preserved as requested."""
        missing = [n for n in names if n not in self.names]
        if missing:
            raise KeyError(f"unknown channels: {missing}")
        cols = [self.names.index(n) for n in names]
        return SeriesTable(list(names), self.values[:, cols].copy(), self.frequency)


SYNTH_KINDS = ("sines", "ar1", "planted_redundancy")
# a split part is a point count or a fraction, see SplitSpec
_PART = Field(float, rule=">= 0")
SPLIT_FIELDS = {"train": _PART, "val": _PART, "test": _PART, "stride": Field(int, 1, ">= 1")}
SYNTH_FIELDS = {"kind": Field(str, rule=SYNTH_KINDS), "seed": Field(int, 0, ">= 0"),
                "n_points": Field(int, rule=">= 1"), "n_channels": Field(int, rule=">= 1"),
                "ar_coeff": Field(float, 0.8)}
SCHEMA_FIELDS = {"timestamp_column": Field((str, int), None), "frequency": Field(str, None)}
FIELDS = {"csv": Field(str, None), "synth": Field(SYNTH_FIELDS, None),
          "schema": Field(SCHEMA_FIELDS, None), "channels": Field([str], None),
          "channel_prefix": Field(str, None), "split": Field(SPLIT_FIELDS)}


@dataclass
class SplitSpec:
    """Points per part: a value strictly between 0 and 1 is a fraction of the
    series, any other value a point count, so 1.0 means one point."""

    train: float
    val: float
    test: float
    context_len: int
    horizon: int
    stride: int = 1

    def __post_init__(self):
        require({k: v for k, v in vars(self).items() if k in SPLIT_FIELDS},
                SPLIT_FIELDS, "data.split")
        require({"context_len": self.context_len, "horizon": self.horizon},
                {k: MODEL_FIELDS[k] for k in ("context_len", "horizon")}, "model")

    def resolve(self, n_points: int) -> tuple[int, int, int]:
        """Turn counts-or-fractions into point counts; trailing points unused."""
        parts = tuple(int(n_points * v) if 0 < v < 1 else int(v)
                      for v in (self.train, self.val, self.test))
        if sum(parts) > n_points:
            raise ConfigError(f"split {parts} exceeds {n_points} points")
        return parts


@dataclass
class WindowSet:
    """Channel-major, then time, enumeration of (context, target, channel)."""

    contexts: np.ndarray   # (N, L)
    targets: np.ndarray    # (N, Hz)
    channels: np.ndarray   # (N,) channel indices
    channel_names: list[str] = field(default_factory=list)

    def __len__(self) -> int:
        return self.contexts.shape[0]

    def subset(self, idx: np.ndarray) -> "WindowSet":
        return WindowSet(self.contexts[idx], self.targets[idx],
                         self.channels[idx], self.channel_names)


def _parse_cell(text: str, line: int) -> float:
    try:
        v = float(text)
    except ValueError:
        raise ParseError(f"could not parse {text!r} as a number", line) from None
    if not math.isfinite(v):
        raise ParseError(f"non-finite value {text!r} rejected", line)
    return v


def load_csv(path: str, schema: dict | None = None) -> SeriesTable:
    """Parse a CSV of numeric channels, first column optionally a timestamp.

    ``schema`` may carry {"timestamp_column": name-or-index-or-None,
    "frequency": str}. Without a schema the first column is treated as a
    timestamp iff its first data cell does not parse as a number.
    """
    try:
        with open(path, newline="", encoding="utf-8") as f:
            rows = list(csv.reader(f))
    except OSError as exc:
        raise ParseError(f"{path}: cannot read: {exc.strerror or exc}") from exc
    except (UnicodeDecodeError, csv.Error) as exc:
        raise ParseError(f"{path}: not a UTF-8 CSV file: {exc}") from exc
    if not rows or all(not r for r in rows):
        raise ParseError(f"{path}: empty file")
    if [] in rows:
        raise ParseError("blank row", rows.index([]) + 1)

    frequency = None
    if schema:
        require(schema, SCHEMA_FIELDS, "data.schema")
        frequency = schema.get("frequency")

    def is_number(s: str) -> bool:
        try:
            float(s)
            return True
        except ValueError:
            return False

    header: list[str] | None = None
    first = rows[0]
    if any(not is_number(c) for c in first):
        header = [c.strip() for c in first]
        repeated = next((c for i, c in enumerate(header) if c in header[:i]), None)
        if repeated is not None:
            raise ParseError(f"repeated column name {repeated!r}", 1)
        data_rows = rows[1:]
        first_line = 2
    else:
        data_rows = rows
        first_line = 1
    if not data_rows:
        raise ParseError(f"{path}: no data rows")

    width = len(first)
    if schema and "timestamp_column" in schema:
        ts_col = tc = schema["timestamp_column"]
        if isinstance(tc, str):  # a name: looked up in the stripped header, if any
            if header is None or tc not in header:
                raise ConfigError(f"timestamp column {tc!r} not in header")
            ts_col = header.index(tc)
        elif tc is not None and not 0 <= tc < width:
            raise ConfigError(f"data.schema.timestamp_column: index {tc} is not a "
                              f"column of a {width}-column row")
    else:
        ts_col = 0 if not is_number(data_rows[0][0]) else None

    keep = [j for j in range(width) if j != ts_col]
    if not keep:
        raise ParseError(f"{path}: no numeric columns")
    names = ([header[j] for j in keep] if header is not None
             else [f"ch{j}" for j in range(len(keep))])

    values = np.empty((len(data_rows), len(keep)))
    for i, row in enumerate(data_rows):
        line = first_line + i
        if len(row) != width:
            raise ParseError(f"ragged row: {len(row)} cells, expected {width}", line)
        for out_j, j in enumerate(keep):
            values[i, out_j] = _parse_cell(row[j], line)
    return SeriesTable(names, values, frequency)


def _admissible_starts(region_start: int, region_end: int, spec: SplitSpec,
                       allow_lookback: bool, part: str) -> range:
    lo = region_start if allow_lookback else region_start + spec.context_len
    lo = max(lo, spec.context_len)
    hi = region_end - spec.horizon  # last admissible target start
    if hi < lo:
        need = spec.horizon if allow_lookback else spec.context_len + spec.horizon
        raise ConfigError(f"{part} part too short: needs at least {need} points "
                          f"(context {spec.context_len}, horizon {spec.horizon})")
    return range(lo, hi + 1, spec.stride)


def make_windows(table: SeriesTable, spec: SplitSpec, part: str) -> WindowSet:
    """Enumerate (context, target, channel) windows of one chronological part.

    Contexts and targets are each cut by one strided view of the (channel,
    time) series and copied once, channel-major, then time, into a fresh array.
    """
    if part not in ("train", "val", "test"):
        raise ConfigError(f"part must be train/val/test, got {part!r}")
    n_train, n_val, n_test = spec.resolve(table.n_points)
    bounds = {"train": (0, n_train),
              "val": (n_train, n_train + n_val),
              "test": (n_train + n_val, n_train + n_val + n_test)}
    region_start, region_end = bounds[part]
    starts = _admissible_starts(region_start, region_end, spec,
                                allow_lookback=part != "train", part=part)
    if table.n_channels == 0:
        raise ConfigError(f"{part} part yields no windows")
    series = table.values.T

    def cut(offset: int, width: int) -> np.ndarray:
        # row (c, i) is series[c, t + offset:t + offset + width] for t = starts[i]
        view = sliding_window_view(series, width, axis=1)
        return np.concatenate(view[:, starts.start + offset:starts.stop + offset:starts.step])

    channels = np.repeat(np.arange(table.n_channels, dtype=np.intp), len(starts))
    return WindowSet(cut(-spec.context_len, spec.context_len), cut(0, spec.horizon),
                     channels, list(table.names))


def synth_dataset(kind: str, seed: int, dims: tuple[int, int],
                  ar_coeff: float = 0.8) -> SeriesTable:
    """Reproducible synthetic series.

    ``planted_redundancy`` mixes two sub-tasks with well separated dominant
    frequencies, so a model pre-trained on the mixture carries capacity
    irrelevant to either sub-task alone.
    """
    n_points, n_channels = dims
    require({"kind": kind, "seed": seed, "n_points": n_points, "n_channels": n_channels,
             "ar_coeff": ar_coeff}, SYNTH_FIELDS, "data.synth")
    rng = np.random.default_rng(seed)
    t = np.arange(n_points)

    if kind == "sines":
        cols, names = [], []
        for c in range(n_channels):
            f1, f2 = rng.uniform(0.01, 0.12, 2)
            a1, a2 = rng.uniform(0.5, 1.5, 2)
            p1, p2 = rng.uniform(0, 2 * np.pi, 2)
            cols.append(a1 * np.sin(2 * np.pi * f1 * t + p1)
                        + a2 * np.sin(2 * np.pi * f2 * t + p2)
                        + 0.05 * rng.standard_normal(n_points))
            names.append(f"sine{c}")
        return SeriesTable(names, np.stack(cols, axis=1))

    if kind == "ar1":
        cols = []
        for _ in range(n_channels):
            eps = rng.standard_normal(n_points)
            x = np.empty(n_points)
            x[0] = eps[0]
            for i in range(1, n_points):
                x[i] = ar_coeff * x[i - 1] + eps[i]
            cols.append(x)
        return SeriesTable([f"ar{c}" for c in range(n_channels)],
                           np.stack(cols, axis=1))

    # planted_redundancy: first half task A (slow), second half task B (fast)
    n_a = n_channels // 2 + n_channels % 2
    cols, names = [], []
    for c in range(n_channels):
        task_a = c < n_a
        base = 1.0 / 48.0 if task_a else 1.0 / 8.0
        harmonic = 2.0 * base
        jitter = 1.0 + 0.05 * rng.standard_normal()
        p1, p2 = rng.uniform(0, 2 * np.pi, 2)
        amp = rng.uniform(0.8, 1.2)
        cols.append(amp * np.sin(2 * np.pi * base * jitter * t + p1)
                    + 0.4 * amp * np.sin(2 * np.pi * harmonic * jitter * t + p2)
                    + 0.05 * rng.standard_normal(n_points))
        names.append(f"{'taskA' if task_a else 'taskB'}_{c if task_a else c - n_a}")
    return SeriesTable(names, np.stack(cols, axis=1))
