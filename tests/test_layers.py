import numpy as np
import pytest

from lanecast.errors import ShapeError
from lanecast.gradcheck import gradient_check
from lanecast.layers import (
    DenseParams,
    FilterBank,
    conv2d_backward,
    conv2d_valid,
    dense_backward,
    dense_forward,
    dropout_backward,
    dropout_forward,
    relu,
    relu_backward,
)


def naive_conv(x, bank):
    """Scalar reference: triple loop over output positions, accumulate over
    (filter row, filter col, channel), then add the bias."""
    rows, cols, channels = x.shape
    out_rows = rows - bank.filter_rows + 1
    out_cols = cols - bank.filter_cols + 1
    out = np.zeros((out_rows, out_cols, bank.num_filters))
    for i in range(out_rows):
        for j in range(out_cols):
            for f in range(bank.num_filters):
                acc = 0.0
                for a in range(bank.filter_rows):
                    for b in range(bank.filter_cols):
                        for ch in range(channels):
                            acc += x[i + a, j + b, ch] * bank.weights[f, a, b, ch]
                out[i, j, f] = acc + bank.biases[f]
    return out


def tap_loop_conv_forward(x, bank):
    """Batched loop reference for conv2d_valid: one broadcast step per
    (filter row, filter col, channel) tap, then the bias, so every element
    sees naive_conv's operation sequence."""
    _, rows, cols, channels = x.shape
    out_rows = rows - bank.filter_rows + 1
    out_cols = cols - bank.filter_cols + 1
    out = np.zeros((x.shape[0], out_rows, out_cols, bank.num_filters))
    for a in range(bank.filter_rows):
        for b in range(bank.filter_cols):
            for ch in range(channels):
                out += x[:, a:a + out_rows, b:b + out_cols, ch, np.newaxis] * bank.weights[:, a, b, ch]
    out += bank.biases
    return out


def naive_conv_backward(x, bank, grad_out, input_grad=True):
    """Loop reference for conv2d_backward on a batched input: one step per
    (filter row, filter col, channel) tap. Returns (grad_x, grad_w, grad_b)."""
    _, out_rows, out_cols, _ = grad_out.shape
    grad_w = np.zeros_like(bank.weights)
    grad_b = grad_out.sum(axis=(0, 1, 2))
    grad_x = np.zeros_like(x) if input_grad else None
    for a in range(bank.filter_rows):
        for b in range(bank.filter_cols):
            for ch in range(x.shape[3]):
                window = x[:, a:a + out_rows, b:b + out_cols, ch]
                grad_w[:, a, b, ch] = np.tensordot(grad_out, window, axes=([0, 1, 2], [0, 1, 2]))
                if input_grad:
                    grad_x[:, a:a + out_rows, b:b + out_cols, ch] += grad_out @ bank.weights[:, a, b, ch]
    return grad_x, grad_w, grad_b


def _assert_close_relative(got, want, rtol):
    scale = np.abs(want).max()
    assert np.abs(got - want).max() <= rtol * scale


class TestConvForward:
    def test_zero_input_zero_bias_gives_zero(self):
        rng = np.random.default_rng(0)
        bank = FilterBank(rng.standard_normal((3, 2, 2, 2)), np.zeros(3))
        out = conv2d_valid(np.zeros((5, 6, 2)), bank)
        assert out.shape == (4, 5, 3)
        assert (out == 0.0).all()

    def test_hand_computed_window_sums(self):
        x = np.arange(1.0, 10.0).reshape(3, 3, 1)
        bank = FilterBank(np.ones((1, 2, 2, 1)), np.zeros(1))
        out = conv2d_valid(x, bank)
        assert np.array_equal(out[:, :, 0], [[12.0, 16.0], [24.0, 28.0]])

    def test_1x1_filter_sums_channels(self):
        rng = np.random.default_rng(1)
        x = rng.standard_normal((2, 2, 2))
        bank = FilterBank(np.ones((1, 1, 1, 2)), np.zeros(1))
        out = conv2d_valid(x, bank)
        expected = x[:, :, 0] + x[:, :, 1]
        assert np.allclose(out[:, :, 0], expected, rtol=0, atol=0)

    def test_matches_naive_loop_bitwise(self):
        rng = np.random.default_rng(42)
        for _ in range(50):
            rows = int(rng.integers(2, 8))
            cols = int(rng.integers(2, 8))
            channels = int(rng.integers(1, 5))
            filters = int(rng.integers(1, 5))
            fr = int(rng.integers(1, rows + 1))
            fc = int(rng.integers(1, cols + 1))
            x = rng.standard_normal((rows, cols, channels))
            bank = FilterBank(
                rng.standard_normal((filters, fr, fc, channels)),
                rng.standard_normal(filters),
            )
            got = conv2d_valid(x, bank)
            assert got.shape == (rows - fr + 1, cols - fc + 1, filters)
            assert np.array_equal(got, naive_conv(x, bank))

    def test_linearity_with_zero_bias(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            x = rng.standard_normal((4, 6, 3))
            y = rng.standard_normal((4, 6, 3))
            alpha, beta = rng.standard_normal(2)
            bank = FilterBank(rng.standard_normal((2, 2, 3, 3)), np.zeros(2))
            combined = conv2d_valid(alpha * x + beta * y, bank)
            separate = alpha * conv2d_valid(x, bank) + beta * conv2d_valid(y, bank)
            scale = np.abs(separate).max() + 1.0
            assert np.allclose(combined, separate, rtol=0, atol=1e-12 * scale)

    def test_channel_mismatch_rejected(self):
        bank = FilterBank(np.ones((1, 2, 2, 3)), np.zeros(1))
        with pytest.raises(ShapeError, match="channels"):
            conv2d_valid(np.zeros((4, 4, 2)), bank)

    def test_oversized_filter_rejected(self):
        bank = FilterBank(np.ones((1, 5, 2, 1)), np.zeros(1))
        with pytest.raises(ShapeError, match="does not fit"):
            conv2d_valid(np.zeros((4, 4, 1)), bank)

    # batches on both sides of the forward's 64-window chunks
    @pytest.mark.parametrize("batch", [1, 63, 64, 65, 128, 575])
    @pytest.mark.parametrize("shape", [(10, 8, 4), (9, 7, 32), (8, 6, 32)])
    def test_matches_tap_loop_at_corridor_shapes(self, shape, batch):
        rng = np.random.default_rng(sum(shape) + batch)
        x = rng.standard_normal((batch, *shape))
        bank = FilterBank(rng.standard_normal((32, 2, 2, shape[2])), rng.standard_normal(32))
        got = conv2d_valid(x, bank)
        assert got.flags.c_contiguous
        assert np.array_equal(got, tap_loop_conv_forward(x, bank))

    def test_matches_tap_loop_on_strided_input(self):
        rng = np.random.default_rng(12)
        x = rng.standard_normal((130, 12, 16, 8))[::2, 1:11, ::2, 2:6]
        assert not x.flags.c_contiguous
        bank = FilterBank(rng.standard_normal((32, 2, 2, 4)), rng.standard_normal(32))
        assert np.array_equal(conv2d_valid(x, bank), tap_loop_conv_forward(x, bank))

    def test_matches_tap_loop_on_random_shapes(self):
        # Every third case has a 1x1 filter, every fourth one channel, every
        # fifth more filter rows than columns, and the odd cases a 3-d input.
        rng = np.random.default_rng(47)
        for case in range(40):
            unbatched = case % 2 == 1
            batch = 1 if unbatched else int(rng.integers(2, 140))
            channels = 1 if case % 4 == 0 else int(rng.integers(1, 6))
            rows = int(rng.integers(2, 9))
            cols = int(rng.integers(2, 9))
            if case % 3 == 0:
                fr = fc = 1
            elif case % 5 == 0:
                fr, fc = int(rng.integers(2, rows + 1)), 1
            else:
                fr, fc = int(rng.integers(1, rows + 1)), int(rng.integers(1, cols + 1))
            filters = int(rng.integers(1, 6))
            x = rng.standard_normal((batch, rows, cols, channels))
            bank = FilterBank(
                rng.standard_normal((filters, fr, fc, channels)), rng.standard_normal(filters)
            )
            want = tap_loop_conv_forward(x, bank)
            got = conv2d_valid(x[0], bank)[np.newaxis] if unbatched else conv2d_valid(x, bank)
            assert np.array_equal(got, want), (case, x.shape, bank.weights.shape)

    def test_ufunc_buffer_size_restored(self):
        before = np.getbufsize()
        bank = FilterBank(np.ones((2, 2, 2, 3)), np.zeros(2))
        conv2d_valid(np.ones((70, 4, 4, 3)), bank)
        assert np.getbufsize() == before

    def test_batched_input_matches_per_sample(self):
        rng = np.random.default_rng(9)
        x = rng.standard_normal((3, 4, 5, 2))
        bank = FilterBank(rng.standard_normal((2, 2, 2, 2)), rng.standard_normal(2))
        batched = conv2d_valid(x, bank)
        for i in range(3):
            assert np.array_equal(batched[i], conv2d_valid(x[i], bank))


class TestConvBackward:
    def test_zero_gradient_in_zero_gradients_out(self):
        rng = np.random.default_rng(2)
        x = rng.standard_normal((4, 4, 2))
        bank = FilterBank(rng.standard_normal((3, 2, 2, 2)), rng.standard_normal(3))
        gx, gbank = conv2d_backward(x, bank, np.zeros((3, 3, 3)))
        assert (gx == 0.0).all()
        assert (gbank.weights == 0.0).all()
        assert (gbank.biases == 0.0).all()

    def test_scalar_chain_rule(self):
        x = np.array([[[2.0]]])
        bank = FilterBank(np.array([[[[3.0]]]]), np.zeros(1))
        grad_out = np.array([[[5.0]]])
        gx, gbank = conv2d_backward(x, bank, grad_out)
        assert gx[0, 0, 0] == 3.0 * 5.0
        assert gbank.weights[0, 0, 0, 0] == 2.0 * 5.0
        assert gbank.biases[0] == 5.0

    def test_bias_gradient_sums_filter_map(self):
        rng = np.random.default_rng(3)
        x = rng.standard_normal((5, 5, 2))
        bank = FilterBank(rng.standard_normal((2, 2, 2, 2)), np.zeros(2))
        grad_out = rng.standard_normal((4, 4, 2))
        _, gbank = conv2d_backward(x, bank, grad_out)
        assert np.allclose(gbank.biases, grad_out.sum(axis=(0, 1)))

    def test_matches_finite_differences(self):
        rng = np.random.default_rng(4)
        x = rng.standard_normal((4, 4, 2))
        bank = FilterBank(rng.standard_normal((3, 2, 2, 2)), rng.standard_normal(3))
        probe = rng.standard_normal((3, 3, 3))

        def loss_fn():
            return float(np.sum(conv2d_valid(x, bank) * probe))

        gx, gbank = conv2d_backward(x, bank, probe)
        params = {"x": x, "weights": bank.weights, "biases": bank.biases}
        grads = {"x": gx, "weights": gbank.weights, "biases": gbank.biases}
        report = gradient_check(loss_fn, params, grads, step=1e-6, tolerance=1e-6)
        assert report.passed, report.summary()

    def test_gradient_shape_mismatch_rejected(self):
        x = np.zeros((4, 4, 1))
        bank = FilterBank(np.ones((1, 2, 2, 1)), np.zeros(1))
        with pytest.raises(ShapeError):
            conv2d_backward(x, bank, np.zeros((4, 4, 1)))

    @pytest.mark.parametrize("shape", [(64, 10, 8, 4), (64, 9, 7, 32), (64, 8, 6, 32)])
    def test_matches_loop_at_corridor_shapes(self, shape):
        rng = np.random.default_rng(sum(shape))
        x = rng.standard_normal(shape)
        bank = FilterBank(rng.standard_normal((32, 2, 2, shape[3])), rng.standard_normal(32))
        grad_out = rng.standard_normal((shape[0], shape[1] - 1, shape[2] - 1, 32))
        gx, gbank = conv2d_backward(x, bank, grad_out)
        want_x, want_w, want_b = naive_conv_backward(x, bank, grad_out)
        _assert_close_relative(gx, want_x, 1e-12)
        _assert_close_relative(gbank.weights, want_w, 1e-12)
        assert np.array_equal(gbank.biases, want_b)

    def test_matches_loop_on_random_shapes(self):
        # Every fifth case has batch 1, every seventh one channel, every sixth
        # a 1x1 filter, every fourth skips the input gradient, and the odd
        # cases pass a 3-d (unbatched) input.
        rng = np.random.default_rng(46)
        for case in range(50):
            unbatched = case % 2 == 1
            batch = 1 if unbatched or case % 5 == 0 else int(rng.integers(2, 9))
            channels = 1 if case % 7 == 0 else int(rng.integers(1, 6))
            rows = int(rng.integers(1, 9))
            cols = int(rng.integers(1, 9))
            fr = 1 if case % 6 == 0 else int(rng.integers(1, rows + 1))
            fc = 1 if case % 6 == 0 else int(rng.integers(1, cols + 1))
            filters = int(rng.integers(1, 6))
            input_grad = case % 4 != 3
            x = rng.standard_normal((batch, rows, cols, channels))
            bank = FilterBank(
                rng.standard_normal((filters, fr, fc, channels)), rng.standard_normal(filters)
            )
            grad_out = rng.standard_normal((batch, rows - fr + 1, cols - fc + 1, filters))
            want_x, want_w, want_b = naive_conv_backward(x, bank, grad_out, input_grad)
            if unbatched:
                gx, gbank = conv2d_backward(x[0], bank, grad_out[0], input_grad=input_grad)
                gx = None if gx is None else gx[np.newaxis]
            else:
                gx, gbank = conv2d_backward(x, bank, grad_out, input_grad=input_grad)
            if input_grad:
                assert gx.shape == x.shape
                _assert_close_relative(gx, want_x, 1e-12)
            else:
                assert gx is None
            _assert_close_relative(gbank.weights, want_w, 1e-12)
            assert np.array_equal(gbank.biases, want_b)

    def test_input_grad_can_be_skipped(self):
        x = np.ones((3, 3, 1))
        bank = FilterBank(np.ones((1, 2, 2, 1)), np.zeros(1))
        gx, gbank = conv2d_backward(x, bank, np.ones((2, 2, 1)), input_grad=False)
        assert gx is None
        assert gbank.weights.shape == bank.weights.shape


class TestRelu:
    def test_elementwise_max(self):
        assert np.array_equal(relu(np.array([-1.0, 0.0, 2.0])), [0.0, 0.0, 2.0])

    def test_all_negative(self):
        x = -np.ones((2, 2, 2))
        assert (relu(x) == 0.0).all()
        assert (relu_backward(x, np.ones_like(x)) == 0.0).all()

    def test_gate_semantics(self):
        grad = relu_backward(np.array([3.0, -3.0]), np.array([5.0, 5.0]))
        assert np.array_equal(grad, [5.0, 0.0])

    def test_zero_input_gets_zero_subgradient(self):
        grad = relu_backward(np.array([0.0]), np.array([7.0]))
        assert grad[0] == 0.0


class TestDense:
    def test_identity_weights(self):
        params = DenseParams(np.eye(3), np.zeros(3))
        x = np.array([1.0, -2.0, 3.0])
        assert np.array_equal(dense_forward(x, params), x)

    def test_hand_dot_product(self):
        params = DenseParams(np.array([[1.0, 2.0]]), np.array([3.0]))
        assert dense_forward(np.array([4.0, 5.0]), params)[0] == 17.0

    def test_matches_finite_differences(self):
        rng = np.random.default_rng(7)
        params = DenseParams(rng.standard_normal((5, 7)), rng.standard_normal(5))
        x = rng.standard_normal(7)
        probe = rng.standard_normal(5)

        def loss_fn():
            return float(np.sum(dense_forward(x, params) * probe))

        gx, gw, gb = dense_backward(x, params, probe)
        report = gradient_check(
            loss_fn,
            {"x": x, "weights": params.weights, "biases": params.biases},
            {"x": gx, "weights": gw, "biases": gb},
            step=1e-6,
            tolerance=1e-6,
        )
        assert report.passed, report.summary()

    def test_batched_matches_per_row(self):
        rng = np.random.default_rng(8)
        params = DenseParams(rng.standard_normal((4, 6)), rng.standard_normal(4))
        x = rng.standard_normal((3, 6))
        batched = dense_forward(x, params)
        for i in range(3):
            assert np.allclose(batched[i], dense_forward(x[i], params))

    def test_dimension_mismatch_rejected(self):
        params = DenseParams(np.ones((2, 3)), np.zeros(2))
        with pytest.raises(ShapeError):
            dense_forward(np.zeros(4), params)
        with pytest.raises(ShapeError):
            dense_backward(np.zeros(3), params, np.zeros(3))


class TestDropout:
    def test_ratio_zero_is_identity(self):
        x = np.arange(6.0)
        out, mask = dropout_forward(x, 0.0, "train", np.random.default_rng(0))
        assert out is x
        assert mask is None

    def test_infer_mode_is_identity(self):
        x = np.arange(6.0)
        out, mask = dropout_forward(x, 0.7, "infer")
        assert out is x
        assert mask is None

    def test_expectation_preserved(self):
        # inverted dropout: E[output] = input; check a scalar over 1e5 draws
        rng = np.random.default_rng(123)
        draws = np.array([
            dropout_forward(np.array([1.0]), 0.5, "train", rng)[0][0]
            for _ in range(100_000)
        ])
        se = draws.std() / np.sqrt(draws.size)
        assert abs(draws.mean() - 1.0) < 3.0 * se + 1e-9

    def test_survivors_scaled(self):
        rng = np.random.default_rng(11)
        x = np.ones(1000)
        out, mask = dropout_forward(x, 0.25, "train", rng)
        survivors = out[out != 0.0]
        assert np.allclose(survivors, 1.0 / 0.75)
        assert np.array_equal(out, x * mask)

    def test_backward_applies_same_mask(self):
        rng = np.random.default_rng(12)
        x = np.ones(100)
        out, mask = dropout_forward(x, 0.5, "train", rng)
        grad = dropout_backward(np.ones(100), mask)
        assert np.array_equal(grad, mask)
        assert np.array_equal((grad == 0.0), (out == 0.0))

    def test_mask_replay(self):
        rng = np.random.default_rng(13)
        x = np.arange(50.0)
        out1, mask = dropout_forward(x, 0.4, "train", rng)
        out2, mask2 = dropout_forward(x, 0.4, "train", mask=mask)
        assert np.array_equal(out1, out2)
        assert mask2 is mask

    def test_invalid_ratio_rejected(self):
        with pytest.raises(ValueError):
            dropout_forward(np.zeros(3), 1.0, "train", np.random.default_rng(0))
        with pytest.raises(ValueError):
            dropout_forward(np.zeros(3), -0.1, "train", np.random.default_rng(0))
