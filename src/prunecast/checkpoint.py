"""Single-file checkpoint format.

Layout: 8-byte magic ("PCKPT\\0\\0" + version byte), 4-byte little-endian
header length, canonical-JSON UTF-8 header (config, per-layer mask bit
arrays, EMA ledger state, derived index maps, per-tensor byte offsets),
concatenated little-endian f64 tensor payloads, and a trailing CRC32 of
everything preceding it. Round-trips are byte-exact.
"""

from __future__ import annotations

import json
import zlib

import numpy as np

from .errors import (CheckpointChecksumError, CheckpointFormatError,
                     CheckpointTruncatedError, CheckpointVersionError)
from .model import Forecaster, ForecasterConfig
from .pruning import ImportanceLedger
from .slicing import index_maps

MAGIC_PREFIX = b"PCKPT\x00\x00"
VERSION = 1
MAGIC = MAGIC_PREFIX + bytes([VERSION])


def checkpoint_bytes(model: Forecaster, ledger: ImportanceLedger | None = None) -> bytes:
    if ledger is None:
        ledger = model.ledger
    tensors = []
    payload = bytearray()
    for name, arr in model.named_params():
        tensors.append({"name": name, "shape": list(arr.shape),
                        "offset": len(payload)})
        payload.extend(np.ascontiguousarray(arr, dtype="<f8").tobytes())
    header = {
        "config": model.cfg.to_dict(),
        "layers": [{"id": l.layer_id,
                    "d_in": l.d_in, "d_out": l.d_out,
                    "has_bias": l.b is not None,
                    "m_in": l.m_in.astype(int).tolist(),
                    "m_out": l.m_out.astype(int).tolist()}
                   for l in model.linears()],
        "ema": None if ledger is None else ledger.to_dict(),
        "index_maps": index_maps(model),
        "tensors": tensors,
    }
    head = json.dumps(header, sort_keys=True, separators=(",", ":")).encode("utf-8")
    blob = MAGIC + len(head).to_bytes(4, "little") + head + bytes(payload)
    return blob + (zlib.crc32(blob) & 0xFFFFFFFF).to_bytes(4, "little")


def save_checkpoint(model: Forecaster, path: str,
                    ledger: ImportanceLedger | None = None) -> None:
    blob = checkpoint_bytes(model, ledger)
    with open(path, "wb") as f:
        f.write(blob)


def load_checkpoint(path: str) -> Forecaster:
    """Rebuild the model (and its ledger, when present) from a checkpoint."""
    with open(path, "rb") as f:
        data = f.read()
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

    model = Forecaster(ForecasterConfig.from_dict(header["config"]), seed=0)
    payload = data[12 + head_len:-4]
    named = dict(model.named_params())
    for spec in header["tensors"]:
        arr = named.get(spec["name"])
        if arr is None:
            raise CheckpointFormatError(f"{path}: unknown tensor {spec['name']!r}")
        n = int(np.prod(spec["shape"])) if spec["shape"] else 1
        lo = spec["offset"]
        hi = lo + n * 8
        if hi > len(payload):
            raise CheckpointTruncatedError(f"{path}: tensor {spec['name']!r} "
                                           "extends past the payload")
        vals = np.frombuffer(payload[lo:hi], dtype="<f8").reshape(spec["shape"])
        if arr.shape != vals.shape:
            raise CheckpointFormatError(f"{path}: tensor {spec['name']!r} has shape "
                                        f"{vals.shape}, model expects {arr.shape}")
        arr[...] = vals

    for layer, spec in zip(model.linears(), header["layers"]):
        if layer.layer_id != spec["id"]:
            raise CheckpointFormatError(f"{path}: layer order mismatch at {spec['id']!r}")
        layer.m_in[...] = np.asarray(spec["m_in"], dtype=np.float64)
        layer.m_out[...] = np.asarray(spec["m_out"], dtype=np.float64)

    if header["ema"] is not None:
        model.ledger = ImportanceLedger.from_dict(header["ema"])
    return model
