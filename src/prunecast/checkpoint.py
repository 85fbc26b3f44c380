"""Single-file checkpoint format.

Layout: 8-byte magic ("PCKPT\\0\\0" + version byte), 4-byte little-endian
header length, canonical-JSON UTF-8 header (config, layer masks, EMA ledger,
``tensor_index``), the little-endian f64 tensors in that order, and a CRC32
of everything before it. Round-trips are byte-exact. Tensors stream between
the file and the model's own arrays: the writer writes each from its memory,
and the reader checks the payload's length against the config's exact
``param_count`` before it allocates a model, builds one that draws no
weights and reads each tensor straight into it. Neither holds a second
copy of the payload.
"""

from __future__ import annotations

import functools
import json
import os
import stat
import sys
import zlib
from typing import BinaryIO, Callable, Iterator

import numpy as np

from .errors import (CheckpointChecksumError, CheckpointError, CheckpointFormatError,
                     CheckpointTruncatedError, CheckpointVersionError, ConfigError)
from .model import Forecaster, ForecasterConfig, config_problems
from .pruning import ImportanceLedger
from .slicing import require_binary

MAGIC_PREFIX = b"PCKPT\x00\x00"
VERSION = 1
MAGIC = MAGIC_PREFIX + bytes([VERSION])

_canonical = functools.partial(json.dumps, sort_keys=True, separators=(",", ":"))


def tensor_index(model: Forecaster) -> list[dict]:
    """The payload layout: each parameter's name, shape and byte offset, in
    ``named_params`` order at consecutive offsets."""
    params = model.named_params()
    offsets = np.cumsum([0] + [8 * arr.size for _, arr in params]).tolist()
    return [{"name": name, "shape": list(arr.shape), "offset": offset}
            for (name, arr), offset in zip(params, offsets)]


def _chunks(model: Forecaster) -> Iterator[bytes | memoryview]:
    """The file before its CRC32: framing and header, then each tensor as a
    byte view of its own memory (a copy only where it is not contiguous
    little-endian f64)."""
    for l in model.linears():
        require_binary(l)
    header = {
        "config": model.cfg.to_dict(),
        "layers": [{"id": l.layer_id, "m_in": l.m_in.astype(int).tolist(),
                    "m_out": l.m_out.astype(int).tolist()} for l in model.linears()],
        "ema": None if model.ledger is None else model.ledger.to_dict(),
        "tensors": tensor_index(model),
    }
    head = _canonical(header).encode("utf-8")
    yield MAGIC + len(head).to_bytes(4, "little") + head
    for _, arr in model.named_params():
        yield memoryview(np.ascontiguousarray(arr, dtype="<f8")).cast("B")


def _write(model: Forecaster, write: Callable[[bytes | memoryview], object]) -> None:
    """Pass the file to ``write`` chunk by chunk, CRC32 last."""
    crc = 0
    for chunk in _chunks(model):
        crc = zlib.crc32(chunk, crc)
        write(chunk)
    write(crc.to_bytes(4, "little"))


def checkpoint_bytes(model: Forecaster) -> bytes:
    parts: list[bytes | memoryview] = []
    _write(model, parts.append)
    return b"".join(parts)


def save_checkpoint(model: Forecaster, path: str) -> None:
    with open(path, "wb") as f:
        _write(model, f.write)


HEADER_KEYS = ("config", "layers", "ema", "tensors")
LAYER_KEYS = ("id", "m_in", "m_out")
LEDGER_KEYS = ("alpha", "batch_count", "refs", "ema", "last_raw", "alive")


def _require_keys(path: str, where: str, spec, keys: tuple[str, ...]) -> None:
    if not isinstance(spec, dict):
        raise CheckpointFormatError(f"{path}: {where} must be an object, "
                                    f"got {type(spec).__name__}")
    missing = [k for k in keys if k not in spec]
    if missing:
        raise CheckpointFormatError(f"{path}: {where} lacks {', '.join(missing)}")


def load_checkpoint(path: str) -> Forecaster:
    """Rebuild the model (and its ledger, when present) from a checkpoint.

    Accepts exactly the layout the writer writes: a path that cannot be read
    raises ``CheckpointError``; a header that lacks a key, has a bad config
    (``model.config_problems``), a payload of other than 8 · ``param_count``
    bytes, a ``tensors`` index other than the config's ``tensor_index``,
    other layers or a ledger that does not fit the model raises
    ``CheckpointFormatError``.

    The file streams through once: each tensor is read straight into the
    model's array, the CRC32 taken over the bytes read. The payload length
    follows from the file size (so a pipe cannot be read), and it is checked
    before the model is built (``seed=None``, no draw): a config far larger
    than the file allocates nothing. A CRC32 mismatch outranks every header
    problem; one found before the CRC32 is known is raised once the rest of
    the file has streamed through it and matched. A file that ends early,
    inside its framing or header, at a short read, or before the payload its
    config declares (its CRC32 then fails), is ``CheckpointTruncatedError``.
    """
    try:
        with open(path, "rb") as f:
            info = os.fstat(f.fileno())
            if not stat.S_ISREG(info.st_mode):
                raise CheckpointError(f"{path}: cannot read: not a regular file")
            return _read(path, f, info.st_size)
    except OSError as exc:
        raise CheckpointError(f"{path}: cannot read: {exc.strerror or exc}") from exc


def _read_exact(path: str, f: BinaryIO, into, crc: int) -> int:
    """Fill the writable buffer ``into`` from ``f`` and return ``crc``
    carried over its bytes."""
    if f.readinto(into) != len(into):
        raise CheckpointTruncatedError(f"{path}: the file ends early")
    return zlib.crc32(into, crc)


def _check_crc(path: str, f: BinaryIO, crc: int, cut: bool) -> None:
    """Compare ``crc`` with the stored CRC32 that ends the file. ``cut``: the
    file is shorter than its config declares, so a mismatch means it was
    truncated."""
    stored = bytearray(4)
    _read_exact(path, f, stored, 0)
    stored = int.from_bytes(stored, "little")
    if stored == crc:
        return
    if cut:
        raise CheckpointTruncatedError(f"{path}: the file ends before the payload its "
                                       "config declares")
    raise CheckpointChecksumError(f"{path}: CRC32 {crc:08x} != stored {stored:08x}")


def _header(path: str, head: bytearray) -> dict:
    """The parsed header, with every key present and a valid config."""
    try:
        header = json.loads(head.decode("utf-8"))
    except ValueError as exc:  # bad UTF-8 or JSON, or an int past the digit limit
        raise CheckpointFormatError(f"{path}: unreadable header: {exc}") from exc
    _require_keys(path, "header", header, HEADER_KEYS)
    problems = config_problems(header["config"], where="config")
    if problems:
        raise CheckpointFormatError(f"{path}: bad header config: " + "; ".join(problems))
    return header


def _check_index(path: str, stored, index: list[dict]) -> None:
    """The stored ``tensors`` index must be the one derived from the config."""
    if _canonical(stored) == _canonical(index):
        return
    got = stored if isinstance(stored, list) else []
    i = next((i for i, (a, b) in enumerate(zip(got, index))
              if _canonical(a) != _canonical(b)), min(len(got), len(index)))
    want = index[i]["name"] if i < len(index) else f"absent, the config has {i} tensors"
    raise CheckpointFormatError(f"{path}: tensors: entry {i} must be {want}")


def _read(path: str, f: BinaryIO, size: int) -> Forecaster:
    """``load_checkpoint`` on the open file ``f`` of ``size`` bytes."""
    if size < len(MAGIC) + 4 + 4:
        raise CheckpointTruncatedError(f"{path}: {size} bytes is shorter than "
                                       "the fixed framing")
    frame = bytearray(len(MAGIC) + 4)
    crc = _read_exact(path, f, frame, 0)
    if frame[:len(MAGIC_PREFIX)] != MAGIC_PREFIX:
        raise CheckpointFormatError(f"{path}: bad magic bytes")
    version = frame[len(MAGIC_PREFIX)]
    if version != VERSION:
        raise CheckpointVersionError(f"{path}: format version {version}, "
                                     f"this reader supports {VERSION}")
    head_len = int.from_bytes(frame[8:12], "little")
    payload_len = size - 12 - head_len - 4
    if payload_len < 0:
        raise CheckpointTruncatedError(f"{path}: header declares {head_len} bytes "
                                       "but the file ends early")
    head = bytearray(head_len)
    crc = _read_exact(path, f, head, crc)

    declared = problem = None
    try:
        header = _header(path, head)
        cfg = ForecasterConfig(**header["config"])
        declared = 8 * cfg.param_count
        if payload_len != declared:
            raise CheckpointFormatError(f"{path}: the payload holds {payload_len} bytes, "
                                        f"not the {declared} its config's tensors take")
        model = Forecaster(cfg, seed=None)
        _check_index(path, header["tensors"], tensor_index(model))
    except CheckpointFormatError as exc:
        problem = exc
    if problem is not None:
        buf = memoryview(bytearray(1 << 16))
        for lo in range(0, payload_len, len(buf)):
            crc = _read_exact(path, f, buf[:payload_len - lo], crc)
        _check_crc(path, f, crc, cut=declared is not None and payload_len < declared)
        raise problem
    for _, arr in model.named_params():
        crc = _read_exact(path, f, memoryview(arr).cast("B"), crc)
        if sys.byteorder == "big":
            arr.byteswap(inplace=True)
    _check_crc(path, f, crc, cut=False)

    linears = model.linears()
    if not isinstance(header["layers"], list) or len(header["layers"]) != len(linears):
        raise CheckpointFormatError(f"{path}: header must list {len(linears)} layers")
    for i, (layer, spec) in enumerate(zip(linears, header["layers"])):
        _require_keys(path, f"layer entry {i}", spec, LAYER_KEYS)
        if layer.layer_id != spec["id"]:
            raise CheckpointFormatError(f"{path}: layer order mismatch at {spec['id']!r}")
        for side, mask in (("m_in", layer.m_in), ("m_out", layer.m_out)):
            bits = spec[side]
            if not (isinstance(bits, list) and len(bits) == mask.size
                    and all(b in (0, 1) and not isinstance(b, bool) for b in bits)):
                raise CheckpointFormatError(f"{path}: {spec['id']}.{side} must be "
                                            f"{mask.size} bits of 0 or 1")
            mask[...] = np.asarray(bits, dtype=np.float64)

    if header["ema"] is not None:
        _require_keys(path, "header ema", header["ema"], LEDGER_KEYS)
        try:
            model.ledger = ImportanceLedger.from_dict(header["ema"], model)
        except ConfigError as exc:
            raise CheckpointFormatError(f"{path}: bad ledger: {exc}") from exc
    return model
