"""Sparsity diagnostics: streaming stats vs brute-force recomputation."""

import csv

import numpy as np
import pytest

from prunecast.analysis import (ActivationStats, HeadNormStats,
                                collect_activation_probs, collect_head_norms,
                                magnitude_cdf, magnitude_values,
                                sparse_channel_fraction, write_ffn_probs_csv,
                                write_head_norms_csv, write_magnitude_cdf_csv)
from prunecast.errors import ConfigError
from prunecast.model import Forecaster

from oracles import plant_dead_head
from test_model import tiny_config


class TestHeadNorms:
    def test_zero_value_projection_gives_zero_ratio(self, rng):
        model = Forecaster(tiny_config(layers=1, heads=2), seed=3)
        block = model.blocks[0]
        block.wv.w[...] = 0.0
        block.wv.b[...] = 0.0
        windows = rng.normal(0, 1, (4, model.cfg.context_len))
        stats = collect_head_norms(model, windows)
        np.testing.assert_array_equal(stats[0].means(), np.zeros(2))

    def test_head_output_equal_to_residual_means_one(self, rng):
        stats = HeadNormStats(1)
        x = rng.normal(0, 1, (2, 5, 8))
        stats.update(x, x[None, ...])
        np.testing.assert_allclose(stats.means(), [1.0])

    def test_zero_norm_tokens_skipped_and_counted(self, rng):
        stats = HeadNormStats(1)
        x = rng.normal(0, 1, (1, 4, 3))
        x[0, 2, :] = 0.0
        o = rng.normal(0, 1, (1, 1, 4, 3))
        stats.update(x, o)
        assert stats.tokens == 3
        assert stats.skipped == 1
        expected = np.mean([np.linalg.norm(o[0, 0, t]) / np.linalg.norm(x[0, t])
                            for t in (0, 1, 3)])
        np.testing.assert_allclose(stats.means(), [expected])

    def test_streaming_equals_two_pass(self, rng):
        model = Forecaster(tiny_config(layers=2, heads=2), seed=5)
        windows = rng.normal(0, 1, (10, model.cfg.context_len))
        streaming = collect_head_norms(model, windows, batch_size=3)

        fp = model.forward_batch(windows, analysis=True)
        for li in range(model.cfg.layers):
            x_norm = np.linalg.norm(fp.analysis.residuals[li], axis=-1)
            o_norm = np.linalg.norm(fp.analysis.head_outputs[li], axis=-1)
            two_pass = (o_norm / x_norm).mean(axis=(1, 2))
            assert np.abs(streaming[li].means() - two_pass).max() <= 1e-12

    def test_order_independence(self, rng):
        model = Forecaster(tiny_config(layers=1), seed=8)
        windows = rng.normal(0, 1, (12, model.cfg.context_len))
        a = collect_head_norms(model, windows, batch_size=5)
        b = collect_head_norms(model, windows[::-1].copy(), batch_size=4)
        assert np.abs(a[0].means() - b[0].means()).max() <= 1e-12


class TestActivationProbs:
    def test_hugely_negative_bias_never_activates(self, rng):
        model = Forecaster(tiny_config(layers=1, activation="relu"), seed=2)
        model.blocks[0].ffn_up.w[:, 3] *= 1e-3
        model.blocks[0].ffn_up.b[3] = -1e6
        windows = rng.normal(0, 1, (6, model.cfg.context_len))
        stats = collect_activation_probs(model, windows)
        assert stats[0].probabilities()[3] == 0.0

    def test_counting_three_of_eight(self):
        stats = ActivationStats(1)
        vals = np.array([1.0, -1.0, 2.0, 0.0, -3.0, 0.5, -0.2, -0.9]).reshape(1, 8, 1)
        stats.update(vals)
        assert stats.probabilities()[0] == 0.375

    def test_counts_equal_brute_force_recount(self, rng):
        model = Forecaster(tiny_config(layers=2, activation="relu"), seed=6)
        windows = rng.normal(0, 1, (9, model.cfg.context_len))
        stats = collect_activation_probs(model, windows, batch_size=4)
        fp = model.forward_batch(windows, analysis=True)
        for li in range(2):
            brute = (fp.analysis.activations[li] > 0).sum(axis=(0, 1))
            np.testing.assert_array_equal(stats[li].positives, brute)

    def test_relu_sanity_band_for_symmetric_init(self, rng):
        model = Forecaster(tiny_config(layers=2, activation="relu"), seed=9)
        windows = rng.normal(0, 1, (16, model.cfg.context_len))
        stats = collect_activation_probs(model, windows)
        mean_prob = np.mean([s.probabilities().mean() for s in stats])
        assert 0.3 <= mean_prob <= 0.7


class TestThresholdsAndCdf:
    def test_strict_threshold_zero_selects_nothing(self, rng):
        model = Forecaster(tiny_config(layers=1), seed=1)
        windows = rng.normal(0, 1, (4, model.cfg.context_len))
        stats = collect_activation_probs(model, windows)
        assert sparse_channel_fraction(stats, 0.0) == [0.0]

    def test_empty_stats_rejected(self):
        with pytest.raises(ConfigError, match="empty"):
            sparse_channel_fraction([], 0.05)

    def test_identical_magnitudes_jump_at_one(self):
        model = Forecaster(tiny_config(layers=1), seed=0)
        for layer in model.linears():
            layer.w[...] = np.where(layer.w >= 0, 0.7, -0.7)
        t, f = magnitude_cdf(model, "element")
        assert f[-1] == 1.0          # at threshold 1.0 everything is included
        assert (f[:-1] == 0.0).all() # nothing falls strictly below the max

    def test_cdf_matches_brute_force_count(self, rng):
        model = Forecaster(tiny_config(), seed=7)
        for granularity in ("element", "row", "column"):
            vals = magnitude_values(model, granularity)
            normed = vals / vals.max()
            t, f = magnitude_cdf(model, granularity)
            k = np.searchsorted(t, 0.5)  # threshold grid point nearest 0.5
            brute_lt = (normed < t[k]).mean()
            brute_le = (normed <= t[k]).mean()
            assert brute_lt <= f[k] <= brute_le
            assert f[k] == brute_le

    def test_dead_head_shows_zero_norm(self, rng):
        model = Forecaster(tiny_config(layers=1, heads=2), seed=4)
        plant_dead_head(model, 0, 1)
        windows = rng.normal(0, 1, (5, model.cfg.context_len))
        stats = collect_head_norms(model, windows)
        means = stats[0].means()
        assert means[1] == 0.0 and means[0] > 0.0


class TestCsvOutputs:
    def test_writers_produce_parseable_csv(self, tmp_path, rng):
        model = Forecaster(tiny_config(layers=1), seed=3)
        windows = rng.normal(0, 1, (4, model.cfg.context_len))
        head_stats = collect_head_norms(model, windows)
        act_stats = collect_activation_probs(model, windows)

        p1 = tmp_path / "head_norms.csv"
        p2 = tmp_path / "ffn_probs.csv"
        p3 = tmp_path / "magnitude_cdf.csv"
        write_head_norms_csv(str(p1), head_stats)
        write_ffn_probs_csv(str(p2), act_stats)
        write_magnitude_cdf_csv(str(p3), model, "row")

        rows = list(csv.reader(p1.read_text().splitlines()))
        assert rows[0] == ["layer", "head", "mean_ratio", "tokens", "skipped"]
        assert len(rows) == 1 + model.cfg.heads
        rows = list(csv.reader(p2.read_text().splitlines()))
        assert len(rows) == 1 + model.cfg.d_ffn
        rows = list(csv.reader(p3.read_text().splitlines()))
        assert len(rows) == 1 + 1000
        assert float(rows[-1][2]) == 1.0
