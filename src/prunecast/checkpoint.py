"""Single-file checkpoint format.

Layout: 8-byte magic ("PCKPT\\0\\0" + version byte), 4-byte little-endian
header length, canonical-JSON UTF-8 header (config, per-layer mask bit
arrays, EMA ledger state, per-tensor byte offsets),
concatenated little-endian f64 tensor payloads, and a trailing CRC32 of
everything preceding it. Round-trips are byte-exact.
"""

from __future__ import annotations

import json
import math
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


def checkpoint_bytes(model: Forecaster) -> bytes:
    tensors = []
    payload = bytearray()
    for name, arr in model.named_params():
        tensors.append({"name": name, "shape": list(arr.shape),
                        "offset": len(payload)})
        payload.extend(np.ascontiguousarray(arr, dtype="<f8").tobytes())
    for l in model.linears():
        require_binary(l)
    header = {
        "config": model.cfg.to_dict(),
        "layers": [{"id": l.layer_id,
                    "m_in": l.m_in.astype(int).tolist(),
                    "m_out": l.m_out.astype(int).tolist()}
                   for l in model.linears()],
        "ema": None if model.ledger is None else model.ledger.to_dict(),
        "tensors": tensors,
    }
    head = json.dumps(header, sort_keys=True, separators=(",", ":")).encode("utf-8")
    blob = MAGIC + len(head).to_bytes(4, "little") + head + bytes(payload)
    return blob + (zlib.crc32(blob) & 0xFFFFFFFF).to_bytes(4, "little")


def save_checkpoint(model: Forecaster, path: str) -> None:
    blob = checkpoint_bytes(model)
    with open(path, "wb") as f:
        f.write(blob)


HEADER_KEYS = ("config", "layers", "ema", "tensors")
TENSOR_KEYS = ("name", "shape", "offset")
LAYER_KEYS = ("id", "m_in", "m_out")
LEDGER_KEYS = ("alpha", "batch_count", "refs", "ema", "last_raw", "alive")


def _require_keys(path: str, where: str, spec, keys: tuple[str, ...]) -> None:
    if not isinstance(spec, dict):
        raise CheckpointFormatError(f"{path}: {where} must be an object, "
                                    f"got {type(spec).__name__}")
    missing = [k for k in keys if k not in spec]
    if missing:
        raise CheckpointFormatError(f"{path}: {where} lacks {', '.join(missing)}")


def _check_shape(path: str, name, shape) -> None:
    if not (isinstance(shape, list)
            and all(isinstance(d, int) and not isinstance(d, bool) and d >= 0
                    for d in shape)):
        raise CheckpointFormatError(f"{path}: tensor {name!r} has a bad shape {shape!r}")


def load_checkpoint(path: str) -> Forecaster:
    """Rebuild the model (and its ledger, when present) from a checkpoint.

    Fails closed: a path that cannot be read raises ``CheckpointError``; a
    header that lacks a key, names an unknown, duplicate or missing tensor or
    layer, carries a bad config (``model.config_problems``), or holds a ledger
    that does not fit the model's channels and masks raises
    ``CheckpointFormatError``.
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
    actual_crc = zlib.crc32(data[:-4]) & 0xFFFFFFFF
    if stored_crc != actual_crc:
        raise CheckpointChecksumError(f"{path}: CRC32 {actual_crc:08x} != "
                                      f"stored {stored_crc:08x}")
    try:
        header = json.loads(data[12:12 + head_len].decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise CheckpointFormatError(f"{path}: unreadable header: {exc}") from exc

    _require_keys(path, "header", header, HEADER_KEYS)
    problems = config_problems(header["config"], where="config")
    if problems:
        raise CheckpointFormatError(f"{path}: bad header config: " + "; ".join(problems))
    cfg = ForecasterConfig(**header["config"])
    payload = data[12 + head_len:-4]
    # checked before the model is built, so a config far larger than the
    # file allocates nothing
    weights = cfg.d_model * (cfg.patch_len + cfg.horizon
                             + cfg.layers * (4 * cfg.d_model + 2 * cfg.d_ffn))
    if 8 * weights > len(payload):
        raise CheckpointFormatError(f"{path}: config needs {weights} weights, the "
                                    f"payload holds {len(payload) // 8} values")
    model = Forecaster(cfg, seed=0)
    named = dict(model.named_params())
    if not isinstance(header["tensors"], list):
        raise CheckpointFormatError(f"{path}: header tensors must be a list")
    seen: set[str] = set()
    for i, spec in enumerate(header["tensors"]):
        _require_keys(path, f"tensor entry {i}", spec, TENSOR_KEYS)
        arr = named.get(spec["name"]) if isinstance(spec["name"], str) else None
        if arr is None:
            raise CheckpointFormatError(f"{path}: unknown tensor {spec['name']!r}")
        if spec["name"] in seen:
            raise CheckpointFormatError(f"{path}: tensor {spec['name']!r} appears twice")
        seen.add(spec["name"])
        _check_shape(path, spec["name"], spec["shape"])
        n = math.prod(spec["shape"])
        lo = spec["offset"]
        if not isinstance(lo, int) or isinstance(lo, bool) or lo < 0:
            raise CheckpointFormatError(f"{path}: tensor {spec['name']!r} has a bad "
                                        f"offset {lo!r}")
        hi = lo + n * 8
        if hi > len(payload):
            raise CheckpointTruncatedError(f"{path}: tensor {spec['name']!r} "
                                           "extends past the payload")
        vals = np.frombuffer(payload[lo:hi], dtype="<f8").reshape(spec["shape"])
        if arr.shape != vals.shape:
            raise CheckpointFormatError(f"{path}: tensor {spec['name']!r} has shape "
                                        f"{vals.shape}, model expects {arr.shape}")
        arr[...] = vals
    missing = [name for name in named if name not in seen]
    if missing:
        raise CheckpointFormatError(f"{path}: header lacks tensor(s) {', '.join(missing)}")

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
