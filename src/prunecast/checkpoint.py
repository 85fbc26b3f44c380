"""Single-file checkpoint format.

Layout: 8-byte magic ("PCKPT\\0\\0" + version byte), 4-byte little-endian
header length, canonical-JSON UTF-8 header (config, layer masks, EMA ledger,
``tensor_index``), the little-endian f64 tensors in that order, and a CRC32
of everything before it. Round-trips are byte-exact. The reader checks the
payload's length against the config's exact ``param_count`` before it
allocates a model, then builds one that draws no weights and fills it.
"""

from __future__ import annotations

import functools
import json
import zlib

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


def _chunks(model: Forecaster) -> list[bytes]:
    """The file as byte strings: framing, header, one per tensor, CRC32."""
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
    chunks = [MAGIC + len(head).to_bytes(4, "little"), head]
    chunks += [np.ascontiguousarray(arr, dtype="<f8").tobytes()
               for _, arr in model.named_params()]
    crc = functools.reduce(lambda crc, chunk: zlib.crc32(chunk, crc), chunks, 0)
    return chunks + [crc.to_bytes(4, "little")]


def checkpoint_bytes(model: Forecaster) -> bytes:
    return b"".join(_chunks(model))


def save_checkpoint(model: Forecaster, path: str) -> None:
    with open(path, "wb") as f:
        f.writelines(_chunks(model))


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
    ``CheckpointFormatError``. The length check runs before a model is
    built, so a config far larger than the file allocates nothing; the
    model is built with ``seed=None`` (no draw) and each tensor copied in.
    """
    try:
        with open(path, "rb") as f:
            data = f.read()
    except OSError as exc:
        raise CheckpointError(f"{path}: cannot read: {exc.strerror or exc}") from exc
    if len(data) < len(MAGIC) + 4 + 4:
        raise CheckpointTruncatedError(f"{path}: {len(data)} bytes is shorter than "
                                       "the fixed framing")
    if data[:len(MAGIC_PREFIX)] != MAGIC_PREFIX:
        raise CheckpointFormatError(f"{path}: bad magic bytes")
    version = data[len(MAGIC_PREFIX)]
    if version != VERSION:
        raise CheckpointVersionError(f"{path}: format version {version}, "
                                     f"this reader supports {VERSION}")
    head_len = int.from_bytes(data[8:12], "little")
    if len(data) < 12 + head_len + 4:
        raise CheckpointTruncatedError(f"{path}: header declares {head_len} bytes "
                                       "but the file ends early")
    stored_crc = int.from_bytes(data[-4:], "little")
    actual_crc = zlib.crc32(memoryview(data)[:-4])
    if stored_crc != actual_crc:
        raise CheckpointChecksumError(f"{path}: CRC32 {actual_crc:08x} != "
                                      f"stored {stored_crc:08x}")
    try:
        header = json.loads(data[12:12 + head_len].decode("utf-8"))
    except ValueError as exc:  # bad UTF-8 or JSON, or an int past the digit limit
        raise CheckpointFormatError(f"{path}: unreadable header: {exc}") from exc

    _require_keys(path, "header", header, HEADER_KEYS)
    problems = config_problems(header["config"], where="config")
    if problems:
        raise CheckpointFormatError(f"{path}: bad header config: " + "; ".join(problems))
    cfg = ForecasterConfig(**header["config"])
    payload = memoryview(data)[12 + head_len:-4]
    size = 8 * cfg.param_count
    if len(payload) != size:
        raise CheckpointFormatError(f"{path}: the payload holds {len(payload)} bytes, "
                                    f"not the {size} its config's tensors take")
    model = Forecaster(cfg, seed=None)
    index = tensor_index(model)
    if _canonical(header["tensors"]) != _canonical(index):
        got = header["tensors"] if isinstance(header["tensors"], list) else []
        i = next((i for i, (a, b) in enumerate(zip(got, index))
                  if _canonical(a) != _canonical(b)), min(len(got), len(index)))
        want = index[i]["name"] if i < len(index) else f"absent, the config has {i} tensors"
        raise CheckpointFormatError(f"{path}: tensors: entry {i} must be {want}")
    # copied, not viewed: the payload starts at byte 12 + head_len, and numpy
    # would copy an unaligned view before every matmul
    for (_, arr), spec in zip(model.named_params(), index):
        arr[...] = np.frombuffer(payload, "<f8", arr.size, spec["offset"]).reshape(arr.shape)

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
