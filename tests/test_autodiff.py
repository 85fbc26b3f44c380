"""Tape and operator tests, gradients checked against central differences."""

import weakref

import numpy as np
import pytest

from prunecast import autodiff as ad
from prunecast.errors import ShapeError, TapeError

from oracles import assert_grads_close, central_diff


def _tape_grads(build, arrays):
    """Run build() on watched leaves, backward, return (value, per-leaf grads)."""
    tape = ad.Tape()
    leaves = [tape.watch(a) for a in arrays]
    loss = build(*leaves)
    tape.backward(loss)
    return loss.item(), [tape.grad(leaf) for leaf in leaves]


def _check_op(build, arrays, rtol=1e-4, h=1e-5, label=""):
    """Compare tape gradients of a scalar-valued build against central differences."""
    _, grads = _tape_grads(build, arrays)

    def f(work):
        return build(*[ad.constant(w) for w in work]).item()

    for i, g in enumerate(grads):
        numeric = central_diff(f, arrays, i, h=h)
        assert_grads_close(g, numeric, rtol=rtol, label=f"{label}[{i}]")


class TestMatmul:
    def test_identity(self):
        out = ad.matmul(np.eye(2), np.array([[3.0, 4.0], [5.0, 6.0]]))
        np.testing.assert_array_equal(out.data, [[3.0, 4.0], [5.0, 6.0]])

    def test_row_times_column(self):
        out = ad.matmul(np.array([[1.0, 2.0]]), np.array([[3.0], [4.0]]))
        assert out.item() == 11.0

    def test_shape_mismatch_names_both(self):
        with pytest.raises(ShapeError, match=r"\(2, 3\).*\(2, 2\)"):
            ad.matmul(np.zeros((2, 3)), np.zeros((2, 2)))

    def test_gradients_vs_finite_differences(self, rng):
        a = rng.uniform(-2, 2, (3, 4))
        b = rng.uniform(-2, 2, (4, 2))
        target = rng.uniform(-1, 1, (3, 2))
        _check_op(lambda x, y: ad.mse_loss(ad.matmul(x, y), ad.constant(target)),
                  [a, b], rtol=1e-6, label="matmul")

    def test_batched_and_shared_rhs_gradients(self, rng):
        a = rng.uniform(-2, 2, (2, 3, 4))
        b = rng.uniform(-2, 2, (4, 3))
        c = rng.uniform(-2, 2, (2, 4, 3))
        t = rng.uniform(-1, 1, (2, 3, 3))
        _check_op(lambda x, y: ad.mse_loss(ad.matmul(x, y), ad.constant(t)),
                  [a, b], rtol=1e-6, label="matmul shared rhs")
        _check_op(lambda x, y: ad.mse_loss(ad.matmul(x, y), ad.constant(t)),
                  [a, c], rtol=1e-6, label="matmul batched")

    @pytest.mark.parametrize("op, shapes", [(ad.matmul, [(2, 3, 4), (4, 5)]),
                                            (ad.matmul, [(2, 3, 4), (2, 4, 5)]),
                                            (ad.mul, [(3, 4), (4,)])])
    def test_closure_keeps_only_what_its_backward_reads(self, rng, op, shapes):
        """With the weight a constant, the input's gradient needs only the
        weight: the input is freed once its caller drops it. With the weight
        on the tape, its gradient needs the input, which the closure keeps."""
        for weight_on_tape in (False, True):
            tape = ad.Tape()
            x, w = rng.normal(size=shapes[0]), rng.normal(size=shapes[1])
            alive = weakref.ref(x)
            out = op(tape.watch(x), tape.watch(w) if weight_on_tape else ad.constant(w))
            del x
            assert (alive() is not None) == weight_on_tape
            assert tape.nodes[out.node_id].backward is not None


class TestSoftmax:
    def test_symmetry(self):
        out = ad.softmax_rows(np.array([[0.0, 0.0]]))
        np.testing.assert_allclose(out.data, [[0.5, 0.5]])

    def test_stabilized_no_overflow(self):
        out = ad.softmax_rows(np.array([[1000.0, 0.0]]))
        assert np.isfinite(out.data).all()
        np.testing.assert_allclose(out.data, [[1.0, 0.0]], atol=1e-300)

    def test_rows_sum_to_one(self, rng):
        out = ad.softmax_rows(rng.uniform(-5, 5, (7, 9)))
        np.testing.assert_allclose(out.data.sum(axis=-1), np.ones(7), atol=1e-12)

    def test_gradient_vs_finite_differences(self, rng):
        a = rng.uniform(-2, 2, (2, 3))
        t = rng.uniform(0, 1, (2, 3))
        _check_op(lambda x: ad.mse_loss(ad.softmax_rows(x), ad.constant(t)),
                  [a], rtol=1e-6, label="softmax")


class TestElementwise:
    def test_relu_values(self):
        out = ad.relu(np.array([-2.0, 3.0]))
        np.testing.assert_array_equal(out.data, [0.0, 3.0])

    def test_gelu_gradient_at_0p7(self):
        x = np.array([0.7])
        _, grads = _tape_grads(lambda t: ad.mse_loss(ad.gelu(t), ad.constant(np.zeros(1))), [x])
        numeric = central_diff(
            lambda w: ad.mse_loss(ad.gelu(ad.constant(w[0])), ad.constant(np.zeros(1))).item(),
            [x], 0)
        assert_grads_close(grads[0], numeric, rtol=1e-5, label="gelu")

    def test_gelu_forward_matches_reference_formula(self):
        x = np.concatenate([np.linspace(-30.0, 30.0, 60001), [-1e3, 1e3]])
        c = np.sqrt(2.0 / np.pi)
        reference = 0.5 * x * (1.0 + np.tanh(c * (x + 0.044715 * x ** 3)))
        err = np.abs(ad.gelu(x).data - reference)
        # Where tanh nears -1, 1 + tanh cancels: x³ rounded another way can
        # move tanh by one ulp, which the output sees as 0.5|x|·ulp, a large
        # relative change of a tiny value. Elsewhere the bound is rtol 1e-14.
        tail = 0.5 * np.abs(x) * np.finfo(np.float64).eps
        assert (err <= 1e-14 * np.abs(reference) + tail).all()
        assert (err[x > -1.0] <= 1e-14 * np.abs(reference[x > -1.0])).all()

    def test_gelu_gradient_vs_finite_differences(self, rng):
        x = rng.uniform(-6, 6, (3, 5, 7))
        t = rng.uniform(-1, 1, (3, 5, 7))
        _check_op(lambda a: ad.mse_loss(ad.gelu(a), ad.constant(t)), [x],
                  rtol=1e-6, label="gelu")

    def test_gelu_scalar_keeps_shape(self):
        tape = ad.Tape()
        x = tape.watch(np.array(0.7))
        y = ad.gelu(x)
        tape.backward(y)
        assert y.shape == () and tape.grad(x).shape == ()
        np.testing.assert_allclose(y.data, ad.gelu(np.array([0.7])).data[0], rtol=0)

    def test_mse_identity_zero_loss_zero_grad(self, rng):
        x = rng.uniform(-2, 2, (3, 4))
        val, grads = _tape_grads(lambda t: ad.mse_loss(t, ad.constant(x.copy())), [x])
        assert val == 0.0
        np.testing.assert_array_equal(grads[0], np.zeros_like(x))

    def test_broadcast_add_mul_gradients(self, rng):
        a = rng.uniform(-2, 2, (2, 3, 4))
        b = rng.uniform(-2, 2, (4,))
        t = rng.uniform(-1, 1, (2, 3, 4))
        _check_op(lambda x, y: ad.mse_loss(ad.add(x, y), ad.constant(t)), [a, b],
                  rtol=1e-6, label="add broadcast")
        _check_op(lambda x, y: ad.mse_loss(ad.mul(x, y), ad.constant(t)), [a, b],
                  rtol=1e-6, label="mul broadcast")

    def test_broadcast_restricted_to_leading(self):
        with pytest.raises(ShapeError):
            ad.add(np.zeros((3, 1)), np.zeros((3, 4)))


class TestNorms:
    def test_layer_norm_statistics(self, rng):
        # eps small enough not to bias the unit-variance property
        x = rng.uniform(-2, 2, (5, 16))
        out = ad.layer_norm(x, np.ones(16), np.zeros(16), eps=1e-12)
        assert np.abs(out.data.mean(axis=-1)).max() <= 1e-10
        np.testing.assert_allclose(out.data.var(axis=-1), np.ones(5), atol=1e-8)

    def test_layer_norm_gradients(self, rng):
        x = rng.uniform(-2, 2, (2, 3, 6))
        gain = rng.uniform(0.5, 1.5, (6,))
        off = rng.uniform(-0.5, 0.5, (6,))
        t = rng.uniform(-1, 1, (2, 3, 6))
        _check_op(lambda a, g, o: ad.mse_loss(ad.layer_norm(a, g, o, 1e-5), ad.constant(t)),
                  [x, gain, off], label="layer_norm")

    def test_rms_norm_gradients(self, rng):
        x = rng.uniform(-2, 2, (2, 3, 6))
        gain = rng.uniform(0.5, 1.5, (6,))
        t = rng.uniform(-1, 1, (2, 3, 6))
        _check_op(lambda a, g: ad.mse_loss(ad.rms_norm(a, g, 1e-8), ad.constant(t)),
                  [x, gain], label="rms_norm")


class TestStructuralOps:
    def test_slice_concat_roundtrip(self, rng):
        x = rng.uniform(-2, 2, (2, 4, 6))
        parts = [ad.slice_last(ad.constant(x), i * 2, (i + 1) * 2) for i in range(3)]
        back = ad.concat_last(parts)
        np.testing.assert_array_equal(back.data, x)

    def test_gather_scatter_gradients(self, rng):
        x = rng.uniform(-2, 2, (3, 5))
        idx = np.array([4, 1, 2])
        t = rng.uniform(-1, 1, (3, 8))
        _check_op(lambda a: ad.mse_loss(
            ad.scatter_last(ad.gather_last(a, idx), np.array([0, 3, 7]), 8),
            ad.constant(t)), [x], rtol=1e-6, label="gather/scatter")

    def test_duplicate_indices_rejected_sorted_or_not(self, rng):
        x = rng.uniform(-2, 2, (2, 5))
        for idx in (np.array([0, 2, 2, 4]), np.array([3, 1, 3])):
            with pytest.raises(ValueError, match="gather_last indices must be unique"):
                ad.gather_last(x, idx)
            with pytest.raises(ValueError, match="scatter_last indices must be unique"):
                ad.scatter_last(x[:, :idx.size], idx, 5)

    def test_unsorted_unique_indices_accepted(self, rng):
        x = rng.uniform(-2, 2, (2, 5))
        idx = np.array([4, 0, 2])
        np.testing.assert_array_equal(ad.gather_last(x, idx).data, x[:, idx])
        placed = ad.scatter_last(x[:, :3], idx, 5).data
        np.testing.assert_array_equal(placed[:, idx], x[:, :3])
        np.testing.assert_array_equal(placed[:, [1, 3]], np.zeros((2, 2)))

    def test_swap_axes_gradient(self, rng):
        x = rng.uniform(-2, 2, (2, 3, 4, 5))
        t = rng.uniform(-1, 1, (2, 4, 3, 5))
        out = ad.swap_axes(x, -3, -2)
        np.testing.assert_array_equal(out.data, x.swapaxes(1, 2))
        # a product, so the gradient depends on where each entry went
        w = rng.uniform(-1, 1, (5, 5))
        _check_op(lambda a: ad.mse_loss(ad.matmul(ad.swap_axes(a, -3, -2), ad.constant(w)),
                                        ad.constant(t)),
                  [x], rtol=1e-6, label="swap_axes")

    def test_take_token_and_transpose_gradients(self, rng):
        x = rng.uniform(-2, 2, (2, 4, 3))
        t = rng.uniform(-1, 1, (2, 3, 4))
        _check_op(lambda a: ad.mse_loss(ad.transpose_last2(a), ad.constant(t)),
                  [x], rtol=1e-6, label="transpose")
        t2 = rng.uniform(-1, 1, (2, 3))
        _check_op(lambda a: ad.mse_loss(ad.take_token(a, 2), ad.constant(t2)),
                  [x], rtol=1e-6, label="take_token")

    def test_reshape_gradient(self, rng):
        x = rng.uniform(-2, 2, (2, 6))
        t = rng.uniform(-1, 1, (2, 3, 2))
        _check_op(lambda a: ad.mse_loss(ad.reshape(a, (2, 3, 2)), ad.constant(t)),
                  [x], rtol=1e-6, label="reshape")


class TestTape:
    def test_square_gradient(self):
        tape = ad.Tape()
        x = tape.watch(np.array(3.0))
        loss = ad.mul(x, x)
        tape.backward(loss)
        assert tape.grad(x) == pytest.approx(6.0)

    def test_unused_leaf_gets_zero_gradient(self):
        tape = ad.Tape()
        x = tape.watch(np.array(2.0))
        y = tape.watch(np.array(5.0))
        tape.backward(ad.mul(x, x))
        assert tape.grad(y) == 0.0

    def test_non_scalar_loss_rejected(self):
        tape = ad.Tape()
        x = tape.watch(np.ones(3))
        with pytest.raises(TapeError, match="scalar"):
            tape.backward(ad.mul(x, x))

    def test_second_backward_rejected(self):
        tape = ad.Tape()
        x = tape.watch(np.array(2.0))
        loss = ad.mul(x, x)
        tape.backward(loss)
        with pytest.raises(TapeError, match="already"):
            tape.backward(loss)

    def test_mixing_tapes_rejected(self):
        t1, t2 = ad.Tape(), ad.Tape()
        a = t1.watch(np.ones(2))
        b = t2.watch(np.ones(2))
        with pytest.raises(TapeError, match="different tapes"):
            ad.add(a, b)

    def test_determinism_bit_identical(self, rng):
        a = rng.uniform(-2, 2, (4, 4))
        b = rng.uniform(-2, 2, (4, 4))

        def run():
            tape = ad.Tape()
            x, y = tape.watch(a), tape.watch(b)
            loss = ad.mse_loss(ad.gelu(ad.matmul(x, ad.softmax_rows(y))),
                               ad.constant(np.zeros((4, 4))))
            tape.backward(loss)
            return loss.item(), tape.grad(x).copy(), tape.grad(y).copy()

        l1, gx1, gy1 = run()
        l2, gx2, gy2 = run()
        assert l1 == l2
        assert (gx1 == gx2).all() and (gy1 == gy2).all()

    def test_backward_drops_every_closure_and_keeps_the_record(self):
        tape = ad.Tape()
        x = tape.watch(np.array([1.0, 2.0]))
        y = ad.mul(x, x)
        loss = ad.mse_loss(y, ad.constant(np.zeros(2)))
        after = ad.scale(y, 2.0)  # recorded after the loss, never reached
        n = len(tape.nodes)
        tape.backward(loss)
        assert len(tape.nodes) == n and after.node_id < n
        assert all(node.backward is None for node in tape.nodes)
        np.testing.assert_array_equal(tape.grad(x), [2.0, 16.0])  # d mean(x⁴)/dx = 2x³

    def test_backward_keeps_leaf_gradients_only(self, rng):
        a, b = rng.normal(size=(3, 4)), rng.normal(size=(4, 2))
        tape = ad.Tape()
        x, w = tape.watch(a), tape.watch(b)
        h = ad.matmul(x, w)
        loss = ad.mse_loss(ad.gelu(h), ad.constant(np.zeros((3, 2))))
        tape.backward(loss)
        assert set(tape.grads) == {x.node_id, w.node_id}
        # the leaves get the chain rule through h's gradient, taken on its own tape
        gh = _tape_grads(lambda t: ad.mse_loss(ad.gelu(t), ad.constant(np.zeros((3, 2)))),
                         [a @ b])[1][0]
        np.testing.assert_allclose(tape.grad(x), gh @ b.T, rtol=1e-12)
        np.testing.assert_allclose(tape.grad(w), a.T @ gh, rtol=1e-12)
        for interior in (h, loss):
            with pytest.raises(TapeError, match="interior"):
                tape.grad(interior)


MIXED_OPS = {
    "add": (lambda a, b: ad.add(a, b), [(3, 4), (4,)]),
    "mul": (lambda a, b: ad.mul(a, b), [(3, 4), (3, 4)]),
    "matmul": (lambda a, b: ad.matmul(a, b), [(2, 3, 4), (4, 5)]),
    "matmul_batched": (lambda a, b: ad.matmul(a, b), [(2, 3, 4), (2, 4, 5)]),
    "layer_norm": (lambda a, g, o: ad.layer_norm(a, g, o, 1e-5), [(3, 4), (4,), (4,)]),
    "rms_norm": (lambda a, g: ad.rms_norm(a, g, 1e-5), [(3, 4), (4,)]),
    "mse_loss": (lambda a, b: ad.mse_loss(a, b), [(3, 4), (3, 4)]),
    "concat_last": (lambda a, b, c: ad.concat_last([a, b, c]), [(3, 2), (3, 1), (3, 4)]),
}


@pytest.mark.parametrize("name", sorted(MIXED_OPS))
def test_untracked_inputs_get_no_gradient(name, rng):
    """Each backward forms gradients for tracked inputs only: None elsewhere."""
    build, shapes = MIXED_OPS[name]
    for tracked in range(len(shapes)):
        tape = ad.Tape()
        inputs = [tape.watch(rng.normal(size=s)) if i == tracked
                  else ad.constant(rng.normal(size=s)) for i, s in enumerate(shapes)]
        out = build(*inputs)
        node = tape.nodes[out.node_id]
        grads = node.backward(np.ones(out.shape))
        for i, g in enumerate(grads):
            if i == tracked:
                assert g.shape == shapes[i], (name, i)
            else:
                assert g is None, (name, i)


def test_every_op_matches_finite_differences_property(rng):
    """Module invariant: analytic grads match central differences on [-2, 2]."""
    d = 5
    cases = {
        "relu": lambda x: ad.relu(x),
        "gelu": lambda x: ad.gelu(x),
        "softmax": lambda x: ad.softmax_rows(x),
        "scale": lambda x: ad.scale(x, -1.7),
    }
    for trial in range(3):
        x = rng.uniform(-2, 2, (3, d))
        t = rng.uniform(-1, 1, (3, d))
        for name, op in cases.items():
            _check_op(lambda a, _op=op: ad.mse_loss(_op(a), ad.constant(t)), [x],
                      label=f"{name}#{trial}")
