"""Forecaster tests: mask identity, attention oracle, causality, regression."""

import contextlib
import math

import numpy as np
import pytest

from prunecast import autodiff as ad
from prunecast import model as model_module
from prunecast.errors import ShapeError
from prunecast.model import (ACTIVATIONS, ATTENTION_STYLES, NEG_INF, NORM_KINDS, Forecaster,
                             ForecasterConfig, ForwardContext, MaskedLinear)
from prunecast.slicing import SlicedLinear, slice_pruned

from oracles import assert_grads_close


def tiny_config(**overrides):
    base = dict(layers=2, heads=2, d_model=8, d_ffn=16, patch_len=4,
                context_len=24, horizon=6, norm="layernorm",
                activation="gelu", attention="bidirectional")
    base.update(overrides)
    return ForecasterConfig(**base)


def random_masked_linear(rng, d_in, d_out, mask_prob=0.3, bias=True):
    layer = MaskedLinear("t", rng.normal(0, 1, (d_in, d_out)),
                         rng.normal(0, 1, d_out) if bias else None)
    layer.m_in = (rng.random(d_in) >= mask_prob).astype(np.float64)
    layer.m_out = (rng.random(d_out) >= mask_prob).astype(np.float64)
    return layer


class TestMaskedLinear:
    def test_all_ones_masks_is_plain_affine(self, rng):
        layer = random_masked_linear(rng, 5, 3, mask_prob=0.0)
        x = rng.normal(0, 1, (4, 5))
        out = layer.forward(ad.constant(x), ForwardContext())
        np.testing.assert_array_equal(out.data, x @ layer.w + layer.b)

    def test_pruned_output_column_is_exactly_zero_despite_bias(self, rng):
        layer = MaskedLinear("t", rng.normal(0, 1, (4, 3)), np.array([1.0, 5.0, 2.0]))
        layer.m_out[1] = 0.0
        out = layer.forward(ad.constant(rng.normal(0, 1, (6, 4))), ForwardContext())
        assert (out.data[:, 1] == 0.0).all()

    def test_two_mask_formulations_agree(self, rng):
        layer = random_masked_linear(rng, 4, 3)
        x = rng.normal(0, 1, (5, 4))
        masked = layer.forward(ad.constant(x), ForwardContext()).data
        folded = layer.folded_forward(x)
        assert np.abs(masked - folded).max() <= 1e-12

    def test_mask_identity_property(self, rng):
        """Mask identity holds across random layers, masks and inputs."""
        for _ in range(50):
            d_in, d_out = rng.integers(1, 9, 2)
            layer = random_masked_linear(rng, d_in, d_out, bias=bool(rng.integers(2)))
            x = rng.normal(0, 2, (3, d_in))
            tape = ad.Tape()
            ctx = ForwardContext(tape)
            masked = layer.forward(tape.watch(x), ctx).data
            assert np.abs(masked - layer.folded_forward(x)).max() <= 1e-12

    def test_dimension_mismatch(self, rng):
        layer = random_masked_linear(rng, 4, 3)
        with pytest.raises(ShapeError, match="width 5"):
            layer.forward(ad.constant(np.zeros((2, 5))), ForwardContext())


def reference_mha(xn, block, heads, d_h):
    """Independent step-by-step multi-head attention, plain numpy."""
    out = np.zeros_like(xn)
    for i in range(heads):
        g = slice(i * d_h, (i + 1) * d_h)
        q = xn @ block.wq.w[:, g]
        k = xn @ block.wk.w[:, g]
        v = xn @ block.wv.w[:, g] + block.wv.b[g]
        scores = q @ k.T / np.sqrt(d_h)
        scores = scores - scores.max(axis=-1, keepdims=True)
        e = np.exp(scores)
        attn = e / e.sum(axis=-1, keepdims=True)
        out = out + (attn @ v) @ block.wo.w[g, :]
    return out + block.wo.b


def per_head_mha(model, block, x, ctx, causal):
    """The per-head loop the batched attention replaced, as tape ops."""
    cfg = model.cfg
    q, k, v = (layer.forward(x, ctx) for layer in (block.wq, block.wk, block.wv))
    contexts = []
    for i in range(cfg.heads):
        g = model.head_group(i)
        qi, ki, vi = (ad.slice_last(p, g.start, g.stop) for p in (q, k, v))
        scores = ad.scale(ad.matmul(qi, ad.transpose_last2(ki)), 1.0 / np.sqrt(cfg.head_dim))
        if causal is not None:
            scores = ad.add(scores, ad.constant(causal))
        contexts.append(ad.matmul(ad.softmax_rows(scores), vi))
    return block.wo.forward(ad.concat_last(contexts), ctx), contexts


def mask_attention_randomly(block, rng):
    for layer in (block.wq, block.wk, block.wv, block.wo):
        layer.m_in[...] = (rng.random(layer.d_in) >= 0.25).astype(np.float64)
        layer.m_out[...] = (rng.random(layer.d_out) >= 0.25).astype(np.float64)


class TestAttention:
    @pytest.mark.parametrize("style", ["bidirectional", "causal"])
    def test_batched_heads_match_per_head_reference(self, rng, style):
        cfg = tiny_config(layers=1, heads=4, d_model=16, attention=style)
        model = Forecaster(cfg, seed=6)
        block = model.blocks[0]
        mask_attention_randomly(block, rng)
        t = cfg.tokens
        causal = np.triu(np.full((t, t), -1e30), k=1) if style == "causal" else None
        x = rng.normal(0, 1, (3, t, cfg.d_model))
        target = rng.normal(0, 1, (3, t, cfg.d_model))

        def run(forward):
            tape = ad.Tape()
            ctx = ForwardContext(tape)
            xt = tape.watch(x)
            out = forward(xt, ctx)
            tape.backward(ad.mse_loss(out, ad.constant(target)))
            grads = {name: tape.grad(leaf) for name, leaf in ctx.param_leaves.items()}
            for lid, (m_in, m_out) in ctx.mask_leaves.items():
                grads[f"{lid}.m_in"], grads[f"{lid}.m_out"] = tape.grad(m_in), tape.grad(m_out)
            grads["x"] = tape.grad(xt)
            return out.data, grads

        out, grads = run(lambda xt, ctx: model.mha_forward(block, xt, ctx, causal))
        ref_out, ref_grads = run(lambda xt, ctx: per_head_mha(model, block, xt, ctx, causal)[0])
        assert np.abs(out - ref_out).max() <= 1e-12
        assert grads.keys() == ref_grads.keys()
        for name, g in grads.items():
            assert np.abs(g - ref_grads[name]).max() <= 1e-12, name

    def test_analysis_head_outputs_per_head(self, rng):
        cfg = tiny_config(layers=2, heads=4, d_model=16, attention="causal")
        model = Forecaster(cfg, seed=8)
        for block in model.blocks:
            mask_attention_randomly(block, rng)
        windows = rng.normal(0, 1, (3, cfg.context_len))
        fp = model.forward_batch(windows, analysis=True)
        t = cfg.tokens
        causal = np.triu(np.full((t, t), NEG_INF), k=1)
        for li, block in enumerate(model.blocks):
            got = fp.analysis.head_outputs[li]
            assert got.shape == (cfg.heads, 3, t, cfg.d_model)
            ctx = ForwardContext()
            xn = block.norm1.forward(ad.constant(fp.analysis.residuals[li]), ctx)
            _, contexts = per_head_mha(model, block, xn, ctx, causal)
            for i, ctx_i in enumerate(contexts):
                g = model.head_group(i)
                expected = ((ctx_i.data * block.wo.m_in[g]) @ block.wo.w[g, :]) * block.wo.m_out
                assert np.abs(got[i] - expected).max() <= 1e-12


    def test_uniform_attention_averages_value_rows(self):
        cfg = tiny_config(layers=1, heads=1)
        model = Forecaster(cfg, seed=1)
        block = model.blocks[0]
        block.wq.w[...] = 0.0
        block.wk.w[...] = 0.0
        block.wv.w[...] = np.eye(cfg.d_model)
        block.wv.b[...] = 0.0
        block.wo.w[...] = np.eye(cfg.d_model)
        block.wo.b[...] = 0.0

        rng = np.random.default_rng(3)
        x = rng.normal(0, 1, (1, cfg.tokens, cfg.d_model))
        out = model.mha_forward(block, ad.constant(x)).data
        expected = np.broadcast_to(x.mean(axis=1, keepdims=True), out.shape)
        np.testing.assert_allclose(out, expected, atol=1e-12)

    def test_against_handrolled_oracle(self, rng):
        cfg = tiny_config(layers=1, heads=2)
        model = Forecaster(cfg, seed=7)
        block = model.blocks[0]
        x = rng.normal(0, 1, (1, cfg.tokens, cfg.d_model))
        out = model.mha_forward(block, ad.constant(x)).data
        expected = reference_mha(x[0], block, cfg.heads, cfg.head_dim)
        assert np.abs(out[0] - expected).max() <= 1e-10

    def test_causal_tokens_ignore_the_future(self, rng):
        cfg = tiny_config(layers=1, attention="causal")
        model = Forecaster(cfg, seed=5)
        block = model.blocks[0]
        t, d = cfg.tokens, cfg.d_model
        causal = np.triu(np.full((t, t), -1e30), k=1)

        x = rng.normal(0, 1, (1, t, d))
        y = x.copy()
        y[0, 4:, :] += rng.normal(0, 1, (t - 4, d))

        def run(inp):
            ctx = ForwardContext()
            x = ad.constant(inp)
            h = ad.add(x, model.mha_forward(block, block.norm1.forward(x, ctx), ctx, causal))
            return ad.add(h, model.ffn_forward(block, block.norm2.forward(h, ctx),
                                               ctx, None)).data

        np.testing.assert_array_equal(run(x)[0, :4], run(y)[0, :4])

    def test_head_sum_decomposition(self, rng):
        cfg = tiny_config(layers=2, heads=4, d_model=16, d_ffn=8)
        model = Forecaster(cfg, seed=9)
        windows = rng.normal(0, 1, (3, cfg.context_len))
        fp = model.forward_batch(windows, analysis=True)
        assert fp.analysis is not None
        for layer in range(cfg.layers):
            block, ctx = model.blocks[layer], ForwardContext()
            xn = block.norm1.forward(ad.constant(fp.analysis.residuals[layer]), ctx)
            delta = model.mha_forward(block, xn, ctx).data
            total = fp.analysis.head_outputs[layer].sum(axis=0)
            total = total + model.blocks[layer].wo.b * model.blocks[layer].wo.m_out
            assert np.abs(delta - total).max() <= 1e-10


class TestForecasterForward:
    def test_zero_head_predicts_bias(self, rng):
        model = Forecaster(tiny_config(), seed=2)
        model.head.w[...] = 0.0
        model.head.b[...] = 0.0
        window = rng.normal(0, 1, model.cfg.context_len)
        fp = model.forward_batch(window)
        np.testing.assert_array_equal(fp.pred_norm.data, np.zeros((1, model.cfg.horizon)))
        np.testing.assert_allclose(model.forward_window(window),
                                   np.full(model.cfg.horizon, window.mean()))

    def test_all_ones_masks_match_maskfree_twin_bitwise(self, rng):
        # the no-tape path skips the identity mask multiplies entirely,
        # so it doubles as the mask-free twin
        model = Forecaster(tiny_config(norm="rmsnorm", activation="relu"), seed=4)
        window = rng.normal(0, 1, (2, model.cfg.context_len))
        tape = ad.Tape()
        masked = model.forward_batch(window, tape=tape).pred_norm.data
        plain = model.forward_batch(window).pred_norm.data
        np.testing.assert_array_equal(masked, plain)

    def test_rmsnorm_gradients_vs_finite_differences(self, rng):
        cfg = tiny_config(layers=1, norm="rmsnorm", attention="causal")
        model = Forecaster(cfg, seed=12)
        windows = rng.normal(0, 1, (2, cfg.context_len))
        targets = rng.normal(0, 1, (2, cfg.horizon))
        tape = ad.Tape()
        fp = model.forward_batch(windows, tape=tape)
        tape.backward(ad.mse_loss(fp.pred_norm, ad.constant(fp.normalized_targets(targets))))

        def loss_value():
            f = model.forward_batch(windows)
            return float(((f.pred_norm.data - f.normalized_targets(targets)) ** 2).mean())

        h = 1e-5
        for name, arr in model.named_params():
            numeric = np.zeros_like(arr)
            for idx in np.ndindex(arr.shape):
                orig = arr[idx]
                arr[idx] = orig + h
                up = loss_value()
                arr[idx] = orig - h
                numeric[idx] = (up - loss_value()) / (2 * h)
                arr[idx] = orig
            assert_grads_close(tape.grad(fp.ctx.param_leaves[name]), numeric, label=name)

    def test_wrong_window_length_rejected(self):
        model = Forecaster(tiny_config(), seed=0)
        with pytest.raises(ShapeError, match="window length"):
            model.forward_window(np.zeros(model.cfg.context_len + 1))

    @pytest.mark.parametrize("norm", NORM_KINDS)
    @pytest.mark.parametrize("seed", [0, 7])
    def test_seeded_weights_follow_the_draw_order(self, norm, seed):
        """embed; per block Q, K, V, O, FFN up, FFN down; head, each N(0, 1/√d_in)."""
        cfg = tiny_config(norm=norm, d_ffn=12)
        d, f = cfg.d_model, cfg.d_ffn
        rng = np.random.default_rng(seed)
        expected = [rng.normal(0, 1.0 / math.sqrt(cfg.patch_len), (cfg.patch_len, d))]
        for _ in range(cfg.layers):
            std = 1.0 / math.sqrt(d)
            expected += [rng.normal(0, std, (d, d)) for _ in "qkvo"]
            expected += [rng.normal(0, std, (d, f)), rng.normal(0, 1.0 / math.sqrt(f), (f, d))]
        expected.append(rng.normal(0, 1.0 / math.sqrt(d), (d, cfg.horizon)))
        model = Forecaster(cfg, seed=seed)
        assert len(model.linears()) == len(expected)
        for layer, w in zip(model.linears(), expected):
            np.testing.assert_array_equal(layer.w, w, err_msg=layer.layer_id)
        for name, arr in model.named_params():
            if not name.endswith(".w"):
                assert (arr == (1.0 if name.endswith(".gain") else 0.0)).all(), name

    def test_deterministic_construction_and_forward(self, rng):
        window = rng.normal(0, 1, (2, 24))
        a = Forecaster(tiny_config(), seed=11).predict(window)
        b = Forecaster(tiny_config(), seed=11).predict(window)
        np.testing.assert_array_equal(a, b)

    def test_clone_copies_parameters_and_masks_without_the_ledger(self, rng):
        model = Forecaster(tiny_config(), seed=3)
        model.named_params()[0][1][0, 0] = 7.0
        model.linears()[2].m_out[1] = 0.0
        model.ledger = object()
        twin = model.clone()
        assert twin.ledger is None and twin.cfg == model.cfg
        for (name, a), (_, b) in zip(model.named_params(), twin.named_params()):
            np.testing.assert_array_equal(a, b, err_msg=name)
            assert not np.shares_memory(a, b), name
        for a, b in zip(model.linears(), twin.linears()):
            np.testing.assert_array_equal(a.m_in, b.m_in)
            np.testing.assert_array_equal(a.m_out, b.m_out)
            assert not np.shares_memory(a.m_out, b.m_out)
        window = rng.normal(0, 1, (2, 24))
        np.testing.assert_array_equal(model.predict(window), twin.predict(window))

    def test_golden_regression_vector(self):
        """Frozen at first build; guards against silent forward drift."""
        model = Forecaster(tiny_config(), seed=42)
        window = np.sin(np.arange(24) * 0.37) + 0.1 * np.cos(np.arange(24) * 1.9)
        got = model.forward_window(window)
        golden = GOLDEN_FORWARD
        np.testing.assert_allclose(got, golden, rtol=1e-12, atol=0)


GOLDEN_FORWARD = np.array([
    1.0337639833901517, 0.6257692158834811, 0.28557323559292186,
    2.1811810729964076, 1.6769132467523218, 0.9812383538263412,
])


# ---------------------------------------------------------------- inference buffers

KINDS = ("masked", "sliced")
POOLED_BATCH = 64


def pooled_config(**overrides):
    """At ``POOLED_BATCH`` windows every residual, FFN and prediction array
    is at least ``ad.POOL_MIN`` elements, and the FFN weights are too, also
    after slicing away 30% of their inputs and outputs: their products run
    as one GEMM."""
    base = dict(layers=1, heads=2, d_model=64, d_ffn=2048, patch_len=4, context_len=32,
                horizon=512)
    base.update(overrides)
    return tiny_config(**base)


def demo_config(**overrides):
    """The model section of demos/06_cli_pipeline.sh."""
    base = dict(layers=2, heads=4, d_model=32, d_ffn=64, patch_len=8, context_len=96,
                horizon=24)
    base.update(overrides)
    return tiny_config(**base)


def mask_randomly(model, rng, p=0.3):
    for layer in model.linears():
        layer.m_in[rng.random(layer.d_in) < p] = 0.0
        layer.m_out[rng.random(layer.d_out) < p] = 0.0


def mask_alike(model):
    """Head 0 and the even FFN channels of every block: all blocks keep the same widths."""
    g, half = model.head_group(0), np.arange(0, model.cfg.d_ffn, 2)
    for block in model.blocks:
        for layer in (block.wq, block.wk, block.wv):
            layer.m_out[g] = 0.0
        block.wo.m_in[g] = 0.0
        block.ffn_up.m_out[half] = 0.0
        block.ffn_down.m_in[half] = 0.0


def build(cfg, kind, mask):
    model = Forecaster(cfg, seed=5)
    mask(model)
    return model if kind == "masked" else slice_pruned(model)


@pytest.fixture
def scopes(monkeypatch):
    """The pool of every reuse scope opened while the test runs."""
    opened = []
    inner = ad.reuse_scope

    @contextlib.contextmanager
    def recording():
        with inner() as pool:
            opened.append(pool)
            yield pool

    monkeypatch.setattr(ad, "reuse_scope", recording)
    return opened


def no_scope_open() -> bool:
    return ad.empty((ad.POOL_MIN,)).base is None


class TestInferenceBuffers:
    """A forward with no tape and no analysis capture reuses its own buffers."""

    @pytest.mark.parametrize("kind", KINDS)
    def test_pool_never_hands_out_what_a_caller_holds(self, rng, kind):
        cfg = pooled_config(layers=2)
        model = build(cfg, kind, lambda m: mask_randomly(m, rng))
        x = rng.normal(0, 1, (POOLED_BATCH, cfg.context_len))
        first = model.forward_batch(x)
        pred = first.pred_norm.data
        assert pred.size >= ad.POOL_MIN and pred.base is not None  # a pooled buffer
        held = pred[::3, 1::2]
        bits = pred.copy(), held.copy(), first.mu.copy(), first.sigma.copy()
        for _ in range(3):
            model.forward_batch(rng.normal(0, 1, x.shape))
        for now, then in zip((first.pred_norm.data, held, first.mu, first.sigma), bits):
            np.testing.assert_array_equal(now, then)
        taped = model.forward_batch(x, tape=ad.Tape()).pred_norm.data
        assert np.abs(pred - taped).max() <= 1e-12

    @pytest.mark.parametrize("kind", KINDS)
    def test_scope_closes_on_return_and_on_raise(self, rng, kind, scopes, monkeypatch):
        cfg = pooled_config()
        model = build(cfg, kind, lambda m: mask_randomly(m, rng))
        x = rng.normal(0, 1, (POOLED_BATCH, cfg.context_len))
        model.forward_batch(x)
        assert len(scopes) == 1 and scopes[0] and no_scope_open()

        with pytest.raises(ShapeError, match="window length"):
            model.forward_batch(x[:, 1:])
        assert len(scopes) == 2 and no_scope_open()

        def fail(*args):
            raise ShapeError("raised inside the last block")

        with monkeypatch.context() as m:
            m.setattr(ad, "take_token", fail)
            with pytest.raises(ShapeError, match="inside the last block"):
                model.forward_batch(x)
        assert len(scopes) == 3 and scopes[2] and no_scope_open()

        # the next tape step opens no scope and allocates as it always did
        fp = model.forward_batch(x, tape=ad.Tape())
        assert len(scopes) == 3 and fp.pred_norm.data.base is None

    @pytest.mark.parametrize("kind", KINDS)
    def test_later_layers_reuse_the_buffers_of_earlier_ones(self, rng, kind, scopes):
        # both models end in one one-token block
        for layers in (2, 7):
            cfg = pooled_config(layers=layers, heads=4)
            build(cfg, kind, mask_alike).forward_batch(
                rng.normal(0, 1, (POOLED_BATCH, cfg.context_len)))
        two, seven = (len(pool) for pool in scopes)
        assert two == seven > 0

    @pytest.mark.parametrize("kind", KINDS)
    def test_scope_opens_only_where_something_can_be_pooled(self, rng, kind, scopes,
                                                             monkeypatch):
        """At the demos/06 shape, 4 windows (as ``bench`` forwards them) make
        no array or weight of ``POOL_MIN`` elements: no scope opens, and the
        predictions are those of a forward in one, which pools nothing. At
        the ``infer_wide`` shape (d_model 256, d_ffn 1024, 64 tokens) a
        scope opens. With 48 tokens the (batch, 4, 48, 48) scores are the
        widest arrays, and they reach ``POOL_MIN`` at 4 windows, not 3."""
        scores = tiny_config(heads=4, patch_len=2, context_len=96)
        wide = tiny_config(layers=1, heads=8, d_model=256, d_ffn=1024, patch_len=8,
                           context_len=512, horizon=96)
        for cfg, batch, pooled in ((demo_config(), 4, False), (scores, 3, False),
                                   (scores, 4, True), (wide, 4, True)):
            net = build(cfg, kind, lambda m: mask_randomly(m, rng))
            x = rng.normal(0, 1, (batch, cfg.context_len))
            pred = net.forward_batch(x).pred_norm.data
            assert len(scopes) == pooled and (not pooled or scopes.pop())
            if not pooled:
                with monkeypatch.context() as m:
                    m.setattr(model_module, "pools", lambda cfg, batch: True)
                    np.testing.assert_array_equal(net.forward_batch(x).pred_norm.data, pred)
                assert scopes.pop() == []

    def test_tape_and_analysis_forwards_open_no_scope(self, rng, scopes):
        cfg = pooled_config()
        model = Forecaster(cfg, seed=5)
        x = rng.normal(0, 1, (POOLED_BATCH, cfg.context_len))
        model.forward_batch(x, tape=ad.Tape())
        model.forward_batch(x, tape=ad.Tape(), capture_grads=True)
        model.forward_batch(x, analysis=True)
        assert scopes == []

    @pytest.mark.parametrize("kind", KINDS)
    @pytest.mark.parametrize("norm", NORM_KINDS)
    @pytest.mark.parametrize("activation", ACTIVATIONS)
    @pytest.mark.parametrize("attention", ATTENTION_STYLES)
    def test_inference_forward_equals_tape_forward(self, rng, kind, norm, activation,
                                                   attention):
        cfg = pooled_config(layers=2, norm=norm, activation=activation, attention=attention)
        model = build(cfg, kind, lambda m: mask_randomly(m, rng))
        assert max(layer.w.size for layer in model.linears()) >= ad.POOL_MIN
        x = rng.normal(0, 1, (POOLED_BATCH, cfg.context_len))
        plain = model.forward_batch(x).pred_norm.data
        taped = model.forward_batch(x, tape=ad.Tape()).pred_norm.data
        assert np.abs(plain - taped).max() <= 1e-12

    @pytest.mark.parametrize("kind", KINDS)
    @pytest.mark.parametrize("norm", NORM_KINDS)
    @pytest.mark.parametrize("activation", ACTIVATIONS)
    def test_inference_forward_is_bitwise_at_the_demo_shape(self, rng, kind, norm, activation):
        """256 windows, as ``evaluate`` forwards them: the activations are pooled."""
        cfg = demo_config(norm=norm, activation=activation)
        model = build(cfg, kind, lambda m: mask_randomly(m, rng))
        x = rng.normal(0, 1, (256, cfg.context_len))
        np.testing.assert_array_equal(model.forward_batch(x).pred_norm.data,
                                      model.forward_batch(x, tape=ad.Tape()).pred_norm.data)


# ---------------------------------------------------------------- one-token last block

def every_token_prediction(model, windows):
    """The forward with every block, the last one too, run at every token,
    then the last token's row read by the head."""
    cfg, ctx = model.cfg, ForwardContext()
    norm_w, _, _ = model.normalize_windows(windows)
    x = model.embed.forward(
        ad.constant(norm_w.reshape(len(windows), cfg.tokens, cfg.patch_len)), ctx)
    t = cfg.tokens
    causal = np.triu(np.full((t, t), NEG_INF), k=1) if cfg.attention == "causal" else None
    for block in model.blocks:
        x = ad.add(x, model.mha_forward(block, block.norm1.forward(x, ctx), ctx, causal))
        x = ad.add(x, model.ffn_forward(block, block.norm2.forward(x, ctx), ctx))
    return model.head.forward(ad.take_token(x, t - 1), ctx).data


def record_inputs(monkeypatch):
    """Every linear layer's input shapes, by layer id, as forwards run; the
    capture pass's narrowed copies record under their layer's id."""
    seen = {}
    for cls in (MaskedLinear, SlicedLinear):
        def recording(layer, x, ctx, forward=cls.forward):
            seen.setdefault(layer.layer_id, []).append(x.shape)
            return forward(layer, x, ctx)
        monkeypatch.setattr(cls, "forward", recording)
    return seen


class TestOneTokenBlock:
    """Only the last token reaches the head: the last block runs Q, attention,
    O, the residual, norm2 and the FFN for that token alone."""

    @pytest.mark.parametrize("kind", KINDS)
    @pytest.mark.parametrize("norm", NORM_KINDS)
    @pytest.mark.parametrize("activation", ACTIVATIONS)
    @pytest.mark.parametrize("attention", ATTENTION_STYLES)
    def test_predictions_equal_the_every_token_forward(self, rng, kind, norm, activation,
                                                       attention):
        cfg = tiny_config(layers=2, heads=4, d_model=16, d_ffn=24, norm=norm,
                          activation=activation, attention=attention)
        model = build(cfg, kind, lambda m: mask_randomly(m, rng))
        x = rng.normal(0, 1, (5, cfg.context_len))
        ref = every_token_prediction(model, x)
        got = [model.forward_batch(x).pred_norm.data,
               model.forward_batch(x, tape=ad.Tape()).pred_norm.data]
        if kind == "masked":
            got += [model.forward_batch(x, tape=ad.Tape(), capture_grads=True).pred_norm.data,
                    model.forward_batch(x, analysis=True).pred_norm.data]
        for pred in got:
            assert pred.shape == ref.shape == (5, cfg.horizon)
            assert np.abs(pred - ref).max() <= 1e-12

    @pytest.mark.parametrize("kind", KINDS)
    def test_last_block_layers_see_one_token(self, rng, kind, monkeypatch):
        cfg = tiny_config(layers=2, heads=4, d_model=16, attention="causal")
        model = build(cfg, kind, lambda m: mask_randomly(m, rng))
        seen = record_inputs(monkeypatch)
        n, t = 3, cfg.tokens
        x = rng.normal(0, 1, (n, cfg.context_len))
        runs = [{}, {"tape": ad.Tape()}]
        if kind == "masked":
            runs.append({"tape": ad.Tape(), "capture_grads": True})
        one_token = {layer.layer_id for layer in (model.blocks[-1].linears[0],
                                                  *model.blocks[-1].linears[3:])}
        for kwargs in runs:
            seen.clear()
            model.forward_batch(x, **kwargs)
            for layer in model.linears():
                (shape,) = seen[layer.layer_id]
                lead = (n,) if layer is model.head or layer.layer_id in one_token else (n, t)
                assert shape[:-1] == lead, (kwargs, layer.layer_id, shape)
        if kind == "masked":  # the analysis capture keeps every token
            seen.clear()
            model.forward_batch(x, analysis=True)
            for layer in model.linears():
                (shape,) = seen[layer.layer_id]
                assert shape[:-1] == ((n,) if layer is model.head else (n, t)), layer.layer_id
