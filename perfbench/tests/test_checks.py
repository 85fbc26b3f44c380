"""Output checks feed the failure count."""

import types

import numpy as np

from workloads import Recorder, forward_pair


def test_raising_and_failed_checks_count_as_failures():
    rec = Recorder()
    assert rec.timed("ok", lambda: 1, lambda r: None)[0] == 1
    assert rec.timed("raises", lambda: 1 / 0) == (None, None)
    assert rec.timed("bad output", lambda: 2, lambda r: "wrong", steps=3) == (None, None)
    assert (rec.attempted, rec.failed) == (5, 4)
    assert len(rec.errors) == 2


class _Fake:
    def __init__(self, out):
        self.out = np.asarray(out, dtype=float)

    def forward_batch(self, batch):
        return types.SimpleNamespace(pred_norm=types.SimpleNamespace(data=self.out))


def test_forward_pair_checks_agreement_and_finiteness():
    rec = Recorder()
    forward_pair(rec, _Fake([1.0, 2.0]), _Fake([1.0, 2.0 + 1e-12]), None)
    assert (rec.attempted, rec.failed) == (2, 0)
    assert len(rec.samples["dense_fwd_s"]) == len(rec.samples["sliced_fwd_s"]) == 1
    forward_pair(rec, _Fake([1.0, 2.0]), _Fake([1.0, 2.1]), None)
    assert (rec.attempted, rec.failed) == (4, 2)
    forward_pair(rec, _Fake([np.nan]), _Fake([np.nan]), None, keep=False)
    assert (rec.attempted, rec.failed) == (6, 4)
    assert len(rec.samples["dense_fwd_s"]) == 2


def test_page_faults_are_counted_for_step_operations_only():
    def touch():  # 64 MiB, above malloc's largest mmap threshold, so fresh pages
        return np.ones(1 << 23)

    rec = Recorder()
    rec.timed("dense_fwd", touch)
    assert (rec.step_faults, rec.steps) == (0, 0)
    rec.count_faults = True
    rec.timed("checkpoint_roundtrip", touch)
    assert rec.steps == 0
    rec.timed("prune", touch, steps=4)
    rec.timed("dense_fwd", lambda: 1 / 0)
    assert rec.steps == 4 and rec.step_faults > 0
