"""Checkpoint round-trips and corruption handling."""

import json
import os
import tracemalloc
import zlib

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from prunecast.checkpoint import (MAGIC, checkpoint_bytes, load_checkpoint,
                                  save_checkpoint, tensor_index)
from prunecast.errors import (CheckpointChecksumError, CheckpointError,
                              CheckpointFormatError, CheckpointTruncatedError,
                              CheckpointVersionError, PrunecastError)
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

    def test_load_draws_no_weights(self, tmp_path, pruned_model, rng, monkeypatch):
        path = tmp_path / "m.ckpt"
        save_checkpoint(pruned_model, str(path))
        windows = rng.normal(0, 1, (5, pruned_model.cfg.context_len))

        class NoDraws:
            def normal(self, *args, **kwargs):
                raise AssertionError("a weight was drawn")

        monkeypatch.setattr("prunecast.model.np.random.default_rng", lambda *a, **k: NoDraws())
        loaded = load_checkpoint(str(path))
        np.testing.assert_array_equal(loaded.predict(windows), pruned_model.predict(windows))
        blank = Forecaster(tiny_config(), seed=None)
        assert not any(layer.w.any() for layer in blank.linears())

    def test_non_binary_mask_is_not_saved(self, pruned_model):
        pruned_model.blocks[0].ffn_up.m_out[0] = 0.5  # would be written as 0
        with pytest.raises(ValueError, match="not binary"):
            checkpoint_bytes(pruned_model)

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

    def test_header_int_past_the_digit_limit_fails_closed(self, tmp_path):
        head = b'{"config":' + b"1" * 5000 + b"}"
        body = MAGIC + len(head).to_bytes(4, "little") + head
        path = tmp_path / "huge.ckpt"
        path.write_bytes(body + zlib.crc32(body).to_bytes(4, "little"))
        with pytest.raises(CheckpointFormatError, match="unreadable header: Exceeds the limit"):
            load_checkpoint(str(path))

    def test_flipped_payload_byte_fails_checksum(self, tmp_path, pruned_model):
        blob = bytearray(checkpoint_bytes(pruned_model))
        blob[-100] ^= 0xFF
        path = tmp_path / "flip.ckpt"
        path.write_bytes(bytes(blob))
        with pytest.raises(CheckpointChecksumError, match="CRC32"):
            load_checkpoint(str(path))


def rewrite_header(blob: bytes, edit, payload=lambda p: p) -> bytes:
    """Apply ``edit`` to the parsed header and ``payload`` to the tensor
    bytes, re-frame them and recompute the CRC."""
    head_len = int.from_bytes(blob[8:12], "little")
    header = json.loads(blob[12:12 + head_len])
    edit(header)
    head = json.dumps(header, sort_keys=True, separators=(",", ":")).encode("utf-8")
    body = (blob[:8] + len(head).to_bytes(4, "little") + head
            + payload(blob[12 + head_len:-4]))
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


def _reverse(path):
    def edit(header):
        node = header
        for key in path:
            node = node[key]
        node.reverse()
    return edit


def _drop_tensor(name):
    def edit(header):
        header["tensors"] = [t for t in header["tensors"] if t["name"] != name]
    return edit


HEADER_EDITS = {
    "config-out-of-range": (_set(["config", "context_len"], 25),
                            "context_len: 25 is not divisible by patch_len=4"),
    "config-non-positive": (_set(["config", "heads"], 0), "heads: must be an int >= 1, got 0"),
    "config-mistyped": (_set(["config", "d_model"], "8"), "d_model: expected an int, got str"),
    "config-bool": (_set(["config", "layers"], True), "layers: expected an int, got bool"),
    "config-unknown-key": (_set(["config", "width"], 3), "width: unknown key"),
    "config-missing-key": (_drop(["config", "horizon"]), "horizon: missing"),
    "config-not-object": (_set(["config"], [1, 2]), "config: expected an object, got list"),
    "no-config": (_drop(["config"]), "header lacks config"),
    "no-tensors": (_drop(["tensors"]), "header lacks tensors"),
    "no-layers": (_drop(["layers"]), "header lacks layers"),
    "no-ema": (_drop(["ema"]), "header lacks ema"),
    "tensor-no-name": (_drop(["tensors", 0, "name"]), "tensors: entry 0 must be embed.w"),
    "tensor-no-shape": (_drop(["tensors", 1, "shape"]), "tensors: entry 1 must be embed.b"),
    "tensor-no-offset": (_drop(["tensors", 2, "offset"]),
                         "tensors: entry 2 must be block0.attn.q.w"),
    "tensor-bad-offset": (_set(["tensors", 2, "offset"], "0"),
                          "tensors: entry 2 must be block0.attn.q.w"),
    "tensor-bad-shape": (_set(["tensors", 0, "shape"], [4, -8]),
                         "tensors: entry 0 must be embed.w"),
    "tensor-dropped": (_drop_tensor("embed.w"), "tensors: entry 0 must be embed.w"),
    "layer-dropped": (_drop(["layers", 3]), "must list"),
    "layer-no-mask": (_drop(["layers", 0, "m_out"]), "layer entry 0 lacks m_out"),
    "mask-too-short": (_set(["layers", 0, "m_in"], [1]), "embed.m_in must be 4 bits"),
    "mask-not-binary": (_set(["layers", 1, "m_in"], [2] * 8), "must be 8 bits of 0 or 1"),
    "ledger-no-refs": (_drop(["ema", "refs"]), "header ema lacks refs"),
    "ledger-bad-ref": (_set(["ema", "refs", 0], "embed"), "bad ledger"),
    "ledger-short-ema": (_set(["ema", "ema"], [0.5]), "ema: must be 250 finite numbers >= 0"),
    # a stored ledger must be the model's channel layout and masks
    "ledger-unknown-layer": (_set(["ema", "refs", 5], "block7.attn.q:input:0"),
                             "refs: must name the model's 250 channels in order"),
    "ledger-refs-reversed": (_reverse(["ema", "refs"]), "refs: must name"),
    "ledger-alive-vs-masks": (_set(["ema", "alive", 0], 0),
                              "alive: must be the masks, as 250 ints of 0 or 1"),
    "ledger-alive-not-list": (_set(["ema", "alive"], 7), "alive: must be the masks"),
    "ledger-alive-bool": (_set(["ema", "alive", 0], True), "alive: must be the masks"),
    "ledger-alive-two": (_set(["ema", "alive", 0], 2), "alive: must be the masks"),
    "ledger-ema-null": (_set(["ema", "ema", 3], None), "ema: must be 250 finite numbers >= 0"),
    "ledger-ema-negative": (_set(["ema", "ema", 3], -0.5), "ema: must be 250 finite"),
    "ledger-ema-nan": (_set(["ema", "ema", 3], float("nan")), "ema: must be 250 finite"),
    "ledger-ema-huge-int": (_set(["ema", "ema", 3], 10 ** 400), "ema: must be 250 finite"),
    "ledger-last-raw-null": (_set(["ema", "last_raw", 3], None),
                             "last_raw: must be 250 finite"),
    "ledger-last-raw-inf": (_set(["ema", "last_raw", 3], float("inf")),
                            "last_raw: must be 250 finite"),
    "ledger-count-str": (_set(["ema", "batch_count"], "abc"), "batch_count: must be an int"),
    "ledger-count-negative": (_set(["ema", "batch_count"], -5), "batch_count: must be an int"),
    "ledger-count-bool": (_set(["ema", "batch_count"], True), "batch_count: must be an int"),
    "ledger-alpha-bool": (_set(["ema", "alpha"], True), "alpha: must be a number in (0, 1]"),
    "ledger-alpha-zero": (_set(["ema", "alpha"], 0.0), "alpha: must be a number"),
    "ledger-alpha-str": (_set(["ema", "alpha"], "0.5"), "alpha: must be a number"),
    "config-beyond-payload": (_set(["config", "d_model"], 4096),
                              "the payload holds 10096 bytes, not the 1076658480 its "
                              "config's tensors take"),
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

    def test_shape_product_beyond_int64_fails_closed(self, tmp_path, pruned_model):
        path = tmp_path / "edited.ckpt"
        edit = _set(["tensors", 0, "shape"], [4096] * 10)  # 2**120 wraps to 0 in int64
        path.write_bytes(rewrite_header(checkpoint_bytes(pruned_model), edit))
        with pytest.raises(CheckpointError, match="embed.w"):
            load_checkpoint(str(path))


class TestExactLayout:
    """The reader accepts only the tensor layout the writer derives from the
    config: every parameter in ``named_params`` order at consecutive offsets,
    and a payload exactly that long."""

    def test_tensor_at_another_offset_fails_closed(self, tmp_path, pruned_model):
        # embed.b would be filled from embed.w's bytes
        path = tmp_path / "m.ckpt"
        path.write_bytes(rewrite_header(checkpoint_bytes(pruned_model),
                                        _set(["tensors", 1, "offset"], 0)))
        with pytest.raises(CheckpointFormatError, match="tensors: entry 1 must be embed.b"):
            load_checkpoint(str(path))

    def test_trailing_payload_bytes_fail_closed(self, tmp_path, pruned_model):
        path = tmp_path / "m.ckpt"
        path.write_bytes(rewrite_header(checkpoint_bytes(pruned_model), lambda header: None,
                                        lambda payload: payload + bytes(8)))
        with pytest.raises(CheckpointFormatError, match="the payload holds"):
            load_checkpoint(str(path))

    def test_consistent_swap_fails_closed(self, tmp_path, pruned_model):
        # q and k (same shape, adjacent) trade places in the payload and in
        # the index, so each entry still points at its own bytes
        q, k = (spec["offset"] for spec in tensor_index(pruned_model)[2:4])

        def swap_offsets(header):
            header["tensors"][2]["offset"], header["tensors"][3]["offset"] = k, q

        def swap_bytes(p):
            return p[:q] + p[k:2 * k - q] + p[q:k] + p[2 * k - q:]

        path = tmp_path / "m.ckpt"
        path.write_bytes(rewrite_header(checkpoint_bytes(pruned_model), swap_offsets,
                                        swap_bytes))
        with pytest.raises(CheckpointFormatError,
                           match="tensors: entry 2 must be block0.attn.q.w"):
            load_checkpoint(str(path))

    def test_legacy_keys_are_ignored(self, tmp_path, pruned_model, rng):
        """Older writers also stored ``index_maps`` and per-layer ``d_in``,
        ``d_out`` and ``has_bias``."""
        biased = {l.layer_id: l.b is not None for l in pruned_model.linears()}

        def add_legacy_keys(header):
            header["index_maps"] = {
                l["id"]: {side: [i for i, bit in enumerate(l[f"m_{side}"]) if bit]
                          for side in ("in", "out")} for l in header["layers"]}
            for l in header["layers"]:
                l.update(d_in=len(l["m_in"]), d_out=len(l["m_out"]), has_bias=biased[l["id"]])

        blob = checkpoint_bytes(pruned_model)
        path = tmp_path / "m.ckpt"
        path.write_bytes(rewrite_header(blob, add_legacy_keys))
        loaded = load_checkpoint(str(path))
        windows = rng.normal(0, 1, (5, pruned_model.cfg.context_len))
        np.testing.assert_array_equal(loaded.predict(windows), pruned_model.predict(windows))
        assert checkpoint_bytes(loaded) == blob


# Integers stay small enough that any model a header can describe within its
# payload is cheap to build and run; text uses a fixed alphabet.
KEY_TEXT = st.text("abeimnoqtu.:_019", max_size=12)


def json_containers(inner):
    return st.lists(inner, max_size=3) | st.dictionaries(KEY_TEXT, inner, max_size=3)


json_values = st.recursive(st.none() | st.booleans() | st.integers(-2 ** 12, 2 ** 12)
                           | st.floats() | KEY_TEXT, json_containers, max_leaves=6)


@st.composite
def header_edits(draw, header):
    """A path from one header section down to a drawn depth, and a new value."""
    path = [draw(st.sampled_from(["ema", "layers", "tensors", "config"]))]
    node = header[path[0]]
    while isinstance(node, (dict, list)) and node and draw(st.booleans()):
        key = draw(st.sampled_from(sorted(node) if isinstance(node, dict)
                                   else range(len(node))))
        path.append(key)
        node = node[key]
    return path, draw(json_values)


@pytest.fixture(scope="module")
def saved(tmp_path_factory):
    model = Forecaster(tiny_config(layers=1), seed=3)
    schedule = PruneSchedule(ratio_per_epoch=0.05, epochs=1, batch_size=64, seed=0)
    progressive_prune(model, training_windows(), schedule, alpha=0.5)
    blob = checkpoint_bytes(model)
    head_len = int.from_bytes(blob[8:12], "little")
    return blob, json.loads(blob[12:12 + head_len]), tmp_path_factory.mktemp("prop")


def _fails_closed_or_round_trips(path, resaved):
    """A load either raises a package error or gives a model whose re-save
    loads to the same bytes and identical predictions."""
    try:
        model = load_checkpoint(str(path))
    except PrunecastError:
        return
    save_checkpoint(model, str(resaved))
    again = load_checkpoint(str(resaved))
    assert checkpoint_bytes(again) == resaved.read_bytes()
    windows = np.random.default_rng(0).normal(0, 1, (2, model.cfg.context_len))
    assert np.array_equal(again.predict(windows), model.predict(windows))


class TestHeaderProperty:
    @given(data=st.data())
    def test_edited_header_fails_closed_or_round_trips(self, saved, data):
        blob, header, root = saved
        keys, value = data.draw(header_edits(header))
        path = root / "edited.ckpt"
        path.write_bytes(rewrite_header(blob, _set(keys, value)))
        _fails_closed_or_round_trips(path, root / "resaved.ckpt")

    @given(data=st.data())
    def test_truncated_file_fails_closed(self, saved, data):
        blob, _, root = saved
        path = root / "cut.ckpt"
        path.write_bytes(blob[:data.draw(st.integers(0, len(blob) - 1))])
        with pytest.raises(CheckpointError):
            load_checkpoint(str(path))


class TestStreaming:
    """Tensors stream between the file and the model's own arrays, and the
    CRC32 is still checked before any header problem is reported."""

    def test_peak_memory_stays_near_one_copy_of_the_payload(self, tmp_path):
        model = Forecaster(tiny_config(layers=3, heads=4, d_model=128, d_ffn=512), seed=1)
        payload = 8 * model.cfg.param_count
        assert payload > 4_000_000
        path = str(tmp_path / "m.ckpt")
        tracemalloc.start()
        try:
            save_checkpoint(model, path)
            saved = tracemalloc.get_traced_memory()[1]
            tracemalloc.reset_peak()
            before = tracemalloc.get_traced_memory()[0]
            loaded = load_checkpoint(path)
            loading = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        assert saved < 0.5 * payload
        assert loading < 1.5 * payload  # the model itself is one payload
        assert checkpoint_bytes(loaded) == checkpoint_bytes(model)

    def test_unreadable_header_with_bad_crc_fails_checksum(self, tmp_path):
        head = b'{"config":' + b"1" * 5000 + b"}"
        body = MAGIC + len(head).to_bytes(4, "little") + head + bytes(16)
        path = tmp_path / "bad.ckpt"
        path.write_bytes(body + (zlib.crc32(body) ^ 1).to_bytes(4, "little"))
        with pytest.raises(CheckpointChecksumError, match="CRC32"):
            load_checkpoint(str(path))

    @pytest.mark.parametrize("name", sorted(HEADER_EDITS))
    def test_bad_crc_outranks_every_header_problem(self, tmp_path, pruned_model, name):
        """Read before the CRC32, the header problem waits until the rest of
        the file has streamed through it. A file shorter than the payload
        its config declares was cut."""
        blob = bytearray(rewrite_header(checkpoint_bytes(pruned_model), HEADER_EDITS[name][0]))
        blob[-5] ^= 0xFF  # the last payload byte
        path = tmp_path / "edited.ckpt"
        path.write_bytes(bytes(blob))
        error = (CheckpointTruncatedError if name == "config-beyond-payload"
                 else CheckpointChecksumError)
        with pytest.raises(error):
            load_checkpoint(str(path))

    @pytest.mark.parametrize("cut", [1, 4, 5, 8, 5000])
    def test_payload_shorter_than_its_header_declares_is_truncated(self, tmp_path,
                                                                   pruned_model, cut):
        blob = checkpoint_bytes(pruned_model)
        assert cut < 8 * pruned_model.cfg.param_count
        path = tmp_path / "cut.ckpt"
        path.write_bytes(blob[:-cut])
        with pytest.raises(CheckpointTruncatedError, match="ends before the payload"):
            load_checkpoint(str(path))

    def test_pipe_fails_closed(self, pruned_model):
        """A pipe has no size to check the payload length against up front."""
        blob = checkpoint_bytes(pruned_model)
        read, write = os.pipe()
        try:
            os.write(write, blob[:4096])
            os.close(write)
            with pytest.raises(CheckpointError, match="cannot read: not a regular file"):
                load_checkpoint(f"/dev/fd/{read}")
        finally:
            os.close(read)
