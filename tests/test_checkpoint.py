"""Checkpoint round-trips and corruption handling."""

import json
import zlib

import numpy as np
import pytest

from prunecast.checkpoint import (MAGIC, checkpoint_bytes, load_checkpoint,
                                  save_checkpoint)
from prunecast.errors import (CheckpointChecksumError, CheckpointFormatError,
                              CheckpointTruncatedError, CheckpointVersionError)
from prunecast.model import Forecaster
from prunecast.pruning import ImportanceLedger, PruneSchedule, progressive_prune

from test_model import tiny_config
from test_pruning import training_windows


@pytest.fixture
def pruned_model():
    model = Forecaster(tiny_config(), seed=3)
    ws = training_windows()
    schedule = PruneSchedule(ratio_per_epoch=0.05, epochs=1, batch_size=64, seed=0)
    progressive_prune(model, ws, schedule, alpha=0.5)
    return model


class TestRoundTrip:
    def test_save_load_save_is_byte_identical(self, tmp_path, pruned_model):
        p1 = tmp_path / "a.ckpt"
        p2 = tmp_path / "b.ckpt"
        save_checkpoint(pruned_model, str(p1))
        loaded = load_checkpoint(str(p1))
        save_checkpoint(loaded, str(p2))
        assert p1.read_bytes() == p2.read_bytes()

    def test_loaded_model_forwards_bitwise(self, tmp_path, pruned_model, rng):
        path = tmp_path / "m.ckpt"
        save_checkpoint(pruned_model, str(path))
        loaded = load_checkpoint(str(path))
        windows = rng.normal(0, 1, (5, pruned_model.cfg.context_len))
        np.testing.assert_array_equal(loaded.predict(windows),
                                      pruned_model.predict(windows))

    def test_masks_and_ledger_survive(self, tmp_path, pruned_model):
        path = tmp_path / "m.ckpt"
        save_checkpoint(pruned_model, str(path))
        loaded = load_checkpoint(str(path))
        for a, b in zip(pruned_model.linears(), loaded.linears()):
            np.testing.assert_array_equal(a.m_in, b.m_in)
            np.testing.assert_array_equal(a.m_out, b.m_out)
        assert isinstance(loaded.ledger, ImportanceLedger)
        np.testing.assert_array_equal(loaded.ledger.ema, pruned_model.ledger.ema)
        np.testing.assert_array_equal(loaded.ledger.alive, pruned_model.ledger.alive)
        assert loaded.ledger.alpha == pruned_model.ledger.alpha
        assert loaded.ledger.batch_count == pruned_model.ledger.batch_count

    def test_model_without_ledger(self, tmp_path):
        model = Forecaster(tiny_config(), seed=1)
        path = tmp_path / "m.ckpt"
        save_checkpoint(model, str(path))
        assert load_checkpoint(str(path)).ledger is None


class TestCorruption:
    def test_bad_magic_rejected(self, tmp_path, pruned_model):
        blob = bytearray(checkpoint_bytes(pruned_model))
        blob[0] = ord("X")
        path = tmp_path / "bad.ckpt"
        path.write_bytes(bytes(blob))
        with pytest.raises(CheckpointFormatError, match="magic"):
            load_checkpoint(str(path))

    def test_future_version_rejected(self, tmp_path, pruned_model):
        blob = bytearray(checkpoint_bytes(pruned_model))
        blob[len(MAGIC) - 1] = 2
        body = bytes(blob[:-4])
        fixed = body + (zlib.crc32(body) & 0xFFFFFFFF).to_bytes(4, "little")
        path = tmp_path / "v2.ckpt"
        path.write_bytes(fixed)
        with pytest.raises(CheckpointVersionError, match="version 2"):
            load_checkpoint(str(path))

    def test_truncation_rejected(self, tmp_path, pruned_model):
        blob = checkpoint_bytes(pruned_model)
        path = tmp_path / "cut.ckpt"
        path.write_bytes(blob[: len(blob) // 2])
        with pytest.raises(CheckpointTruncatedError):
            load_checkpoint(str(path))

    def test_flipped_payload_byte_fails_checksum(self, tmp_path, pruned_model):
        blob = bytearray(checkpoint_bytes(pruned_model))
        blob[-100] ^= 0xFF
        path = tmp_path / "flip.ckpt"
        path.write_bytes(bytes(blob))
        with pytest.raises(CheckpointChecksumError, match="CRC32"):
            load_checkpoint(str(path))


def rewrite_header(blob: bytes, edit) -> bytes:
    """Apply ``edit`` to the parsed header, re-frame it and recompute the CRC."""
    head_len = int.from_bytes(blob[8:12], "little")
    header = json.loads(blob[12:12 + head_len])
    edit(header)
    head = json.dumps(header, sort_keys=True, separators=(",", ":")).encode("utf-8")
    body = blob[:8] + len(head).to_bytes(4, "little") + head + blob[12 + head_len:-4]
    return body + (zlib.crc32(body) & 0xFFFFFFFF).to_bytes(4, "little")


def _set(path, value):
    def edit(header):
        node = header
        for key in path[:-1]:
            node = node[key]
        node[path[-1]] = value
    return edit


def _drop(path):
    def edit(header):
        node = header
        for key in path[:-1]:
            node = node[key]
        del node[path[-1]]
    return edit


def _drop_tensor(name):
    def edit(header):
        header["tensors"] = [t for t in header["tensors"] if t["name"] != name]
    return edit


HEADER_EDITS = {
    "config-out-of-range": (_set(["config", "context_len"], 25),
                            "context_len: 25 is not divisible by patch_len=4"),
    "config-non-positive": (_set(["config", "heads"], 0), "heads: must be positive"),
    "config-mistyped": (_set(["config", "d_model"], "8"), "d_model: expected int, got str"),
    "config-bool": (_set(["config", "layers"], True), "layers: expected int, got bool"),
    "config-unknown-key": (_set(["config", "width"], 3), "width: unknown key"),
    "config-missing-key": (_drop(["config", "horizon"]), "horizon: missing"),
    "config-not-object": (_set(["config"], [1, 2]), "config must be an object"),
    "no-config": (_drop(["config"]), "header lacks config"),
    "no-tensors": (_drop(["tensors"]), "header lacks tensors"),
    "no-layers": (_drop(["layers"]), "header lacks layers"),
    "no-ema": (_drop(["ema"]), "header lacks ema"),
    "tensor-no-name": (_drop(["tensors", 0, "name"]), "tensor entry 0 lacks name"),
    "tensor-no-shape": (_drop(["tensors", 1, "shape"]), "tensor entry 1 lacks shape"),
    "tensor-no-offset": (_drop(["tensors", 2, "offset"]), "tensor entry 2 lacks offset"),
    "tensor-bad-offset": (_set(["tensors", 2, "offset"], "0"), "bad offset"),
    "tensor-bad-shape": (_set(["tensors", 0, "shape"], [4, -8]), "bad shape"),
    "tensor-dropped": (_drop_tensor("embed.w"), "lacks tensor(s) embed.w"),
    "layer-dropped": (_drop(["layers", 3]), "must list"),
    "layer-no-mask": (_drop(["layers", 0, "m_out"]), "layer entry 0 lacks m_out"),
    "mask-too-short": (_set(["layers", 0, "m_in"], [1]), "embed.m_in must be 4 bits"),
    "mask-not-binary": (_set(["layers", 1, "m_in"], [2] * 8), "must be 8 bits of 0 or 1"),
    "ledger-no-refs": (_drop(["ema", "refs"]), "header ema lacks refs"),
    "ledger-bad-ref": (_set(["ema", "refs", 0], "embed"), "bad ledger"),
    "ledger-short-ema": (_set(["ema", "ema"], [0.5]), "ledger arrays do not match"),
}


class TestHeaderEdits:
    """A header edited after saving, with its CRC recomputed, fails closed."""

    def test_unedited_rewrite_loads(self, tmp_path, pruned_model):
        path = tmp_path / "same.ckpt"
        blob = checkpoint_bytes(pruned_model)
        path.write_bytes(rewrite_header(blob, lambda header: None))
        assert path.read_bytes() == blob
        load_checkpoint(str(path))

    @pytest.mark.parametrize("name", sorted(HEADER_EDITS))
    def test_bad_header_raises_format_error(self, tmp_path, pruned_model, name):
        edit, needle = HEADER_EDITS[name]
        path = tmp_path / "edited.ckpt"
        path.write_bytes(rewrite_header(checkpoint_bytes(pruned_model), edit))
        with pytest.raises(CheckpointFormatError) as err:
            load_checkpoint(str(path))
        assert needle in str(err.value)
