"""Checkpoint round-trips and corruption handling."""

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
