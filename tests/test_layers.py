import os
import subprocess
import sys
import threading
import time
import warnings

import numpy as np
import pytest

import lanecast.lanes
import lanecast.layers
from lanecast import fileio
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
from lanecast.optim import _STEP_CHUNK, RmsProp


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

    # batches on both sides of a 64-window chunk at the corridor input
    @pytest.mark.parametrize("batch", [1, 63, 64, 65, 128, 575])
    @pytest.mark.parametrize("shape", [(10, 8, 4), (9, 7, 32), (8, 6, 32)])
    def test_matches_tap_loop_at_corridor_shapes(self, shape, batch):
        rng = np.random.default_rng(sum(shape) + batch)
        x = rng.standard_normal((batch, *shape))
        bank = FilterBank(rng.standard_normal((32, 2, 2, shape[2])), rng.standard_normal(32))
        got = conv2d_valid(x, bank)
        assert got.flags.c_contiguous
        assert np.array_equal(got, tap_loop_conv_forward(x, bank))

    # Chunks hold at most 2048 // (out_rows * out_cols) whole windows, in an
    # even count whose sizes differ by one: 6 chunks of 21-22 windows of the
    # corridor input, 14 of 41-42 and 6 of 50 of the deeper layers' inputs,
    # 4 and 6 of 2-3 wide 64-window blocks, 3 (an odd count) of an input
    # wider than a chunk, and 6 of 166-167 one-column windows.
    @pytest.mark.parametrize(
        "shape, batch",
        [((10, 8, 4), 130), ((9, 7, 32), 575), ((8, 6, 32), 300), ((10, 71, 4), 9),
         ((9, 70, 32), 13), ((70, 70, 2), 3), ((10, 2, 4), 1000)],
    )
    def test_position_chunks_split_batches_unevenly(self, shape, batch):
        rng = np.random.default_rng(sum(shape) * batch)
        x = rng.standard_normal((batch, *shape))
        bank = FilterBank(rng.standard_normal((5, 2, 2, shape[2])), rng.standard_normal(5))
        assert np.array_equal(conv2d_valid(x, bank), tap_loop_conv_forward(x, bank))

    def test_chunk_bound_in_positions(self, monkeypatch):
        # 7 positions per window and a 20-position bound: 2 windows a chunk
        # would give 3 chunks, so the plan takes an even 4 of near-equal sizes
        seen = []
        taps = lanecast.layers._taps
        monkeypatch.setattr(lanecast.layers, "_CONV_POSITIONS", 20)
        monkeypatch.setattr(lanecast.lanes, "_LANES", 1)
        monkeypatch.setattr(lanecast.layers, "_taps", lambda x, bank: seen.append(len(x)) or taps(x, bank))
        rng = np.random.default_rng(3)
        x = rng.standard_normal((5, 2, 8, 3))
        bank = FilterBank(rng.standard_normal((4, 2, 2, 3)), rng.standard_normal(4))
        assert np.array_equal(conv2d_valid(x, bank), tap_loop_conv_forward(x, bank))
        assert seen == [1, 1, 1, 2]

    def test_train_batch_is_one_chunk_per_lane_at_every_corridor_layer(self, monkeypatch):
        # 64 x 9 x 7, 64 x 8 x 6 and 64 x 7 x 5 positions: two 32-window chunks each
        seen = []
        taps = lanecast.layers._taps
        monkeypatch.setattr(lanecast.lanes, "_LANES", 2)
        monkeypatch.setattr(lanecast.layers, "_taps", lambda x, bank: seen.append(len(x)) or taps(x, bank))
        rng = np.random.default_rng(4)
        for shape in ((10, 8, 4), (9, 7, 32), (8, 6, 32)):
            x = rng.standard_normal((64, *shape))
            bank = FilterBank(rng.standard_normal((32, 2, 2, shape[2])), rng.standard_normal(32))
            assert np.array_equal(conv2d_valid(x, bank), tap_loop_conv_forward(x, bank))
        assert seen == [32] * 6

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

    def test_empty_batch_gives_empty_output(self):
        bank = FilterBank(np.ones((3, 2, 2, 4)), np.zeros(3))
        assert conv2d_valid(np.zeros((0, 10, 8, 4)), bank).shape == (0, 9, 7, 3)

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


def _chunk_log(monkeypatch):
    """Patch the chunk kernel to log (thread, windows) of every chunk it runs."""
    log = []
    chunk = lanecast.layers._conv_chunk

    def logged(x, *args):
        log.append((threading.get_ident(), len(x)))
        chunk(x, *args)

    monkeypatch.setattr(lanecast.layers, "_conv_chunk", logged)
    return log


def _same_bits(a, b):
    return a.shape == b.shape and np.ascontiguousarray(a).tobytes() == np.ascontiguousarray(b).tobytes()


class TestConvLanes:
    """The chunk plan and the second lane move no output bit: every element
    gets the tap loop's operations whichever chunk and lane it falls in."""

    @pytest.mark.parametrize("bound", [2048, 100])
    @pytest.mark.parametrize(
        "case",
        ["one-window", "odd-chunks", "strided", "3-d", "corridor-1", "corridor-2", "corridor-3",
         "column-tail-1", "column-tail-2", "wide-block-1", "wide-block-2"],
    )
    def test_one_and_two_lanes_match_tap_loop(self, case, bound, monkeypatch):
        rng = np.random.default_rng(len(case) * bound)
        shape, channels = {
            "one-window": ((1, 10, 8, 4), 4),
            # 4,761 positions a window, wider than either bound: 3 one-window chunks
            "odd-chunks": ((3, 70, 70, 2), 2),
            "strided": ((130, 12, 16, 8), 4),
            "3-d": ((10, 71, 4), 4),
            # a 64-window train batch at each corridor layer
            "corridor-1": ((64, 10, 8, 4), 4),
            "corridor-2": ((64, 9, 7, 32), 32),
            "corridor-3": ((64, 8, 6, 32), 32),
            # a rollout column step over 575 windows
            "column-tail-1": ((575, 10, 2, 4), 4),
            "column-tail-2": ((575, 9, 2, 32), 32),
            # _block_acts: 10 blocks of 64 windows, 8 + 63 grid rows wide
            "wide-block-1": ((10, 10, 71, 4), 4),
            "wide-block-2": ((10, 9, 70, 32), 32),
        }[case]
        x = rng.standard_normal(shape)
        if case == "strided":
            x = x[::2, 1:11, ::2, 2:6]
            assert not x.flags.c_contiguous
        bank = FilterBank(rng.standard_normal((32, 2, 2, channels)), rng.standard_normal(32))
        batched = x[np.newaxis] if x.ndim == 3 else x
        want = tap_loop_conv_forward(batched, bank)
        if x.ndim == 3:
            want = want[0]
        monkeypatch.setattr(lanecast.layers, "_CONV_POSITIONS", bound)
        log = _chunk_log(monkeypatch)
        got = {}
        for lanes in (1, 2):
            monkeypatch.setattr(lanecast.lanes, "_LANES", lanes)
            log.clear()
            got[lanes] = conv2d_valid(x, bank)
            assert _same_bits(got[lanes], want), lanes
            threads = {thread for thread, _ in log}
            # the worker runs its chunks on any machine once the lane count is 2
            assert len(threads) == (2 if lanes == 2 and len(log) > 1 else 1)
            assert threading.get_ident() in threads
        assert _same_bits(got[1], got[2])

    def test_worker_runs_with_the_callers_numpy_settings(self, monkeypatch):
        monkeypatch.setattr(lanecast.lanes, "_LANES", 2)
        seen = []
        chunk = lanecast.layers._conv_chunk

        def logged(x, *args):
            seen.append((threading.get_ident(), np.getbufsize(), np.geterr()["under"]))
            chunk(x, *args)

        monkeypatch.setattr(lanecast.layers, "_conv_chunk", logged)
        rng = np.random.default_rng(6)
        bank = FilterBank(rng.standard_normal((32, 2, 2, 4)), rng.standard_normal(32))
        with np.errstate(under="raise"):
            conv2d_valid(rng.standard_normal((64, 10, 8, 4)), bank)
        assert len({thread for thread, _, _ in seen}) == 2
        assert {(size, under) for _, size, under in seen} == {(16, "raise")}

    def test_concurrent_callers_share_the_worker(self, monkeypatch):
        # More calling threads than cores, each conv forward in 16 chunks that
        # its two lanes claim from one iterator: every window is convolved
        # exactly once. Each thread's backward and optimizer step queue their
        # worker halves behind the other threads' and still match one lane,
        # and so do its CSV rows, formatted in 6 chunks and read in 8 blocks.
        monkeypatch.setattr(lanecast.lanes, "_LANES", 2)
        monkeypatch.setattr(lanecast.layers, "_CONV_POSITIONS", 14)
        monkeypatch.setattr(fileio, "_CHUNK", 50)
        monkeypatch.setattr(fileio, "_BLOCK", 1024)
        log = _chunk_log(monkeypatch)
        rng = np.random.default_rng(10)
        bank = FilterBank(rng.standard_normal((4, 2, 2, 3)), rng.standard_normal(4))
        inputs = [rng.standard_normal((30, 2, 8, 3)) for _ in range(4)]
        grad_outs = [rng.standard_normal((30, 1, 7, 4)) for _ in range(4)]
        params = [{"w": rng.standard_normal(2 * _STEP_CHUNK + 5)} for _ in range(4)]
        grads = [{"w": rng.standard_normal(2 * _STEP_CHUNK + 5)} for _ in range(4)]
        want_backward = [single_product_conv_backward(x, bank, g) for x, g in zip(inputs, grad_outs)]
        want_params = []
        for p, g in zip(params, grads):
            value, acc = p["w"].copy(), np.zeros_like(p["w"])
            for _ in range(5):
                acc *= 0.9
                acc += (1.0 - 0.9) * np.square(g["w"])
                value -= 1e-3 * g["w"] / (np.sqrt(acc) + 1e-8)
            want_params.append(value)
        tables = [[rng.integers(-10**6, 10**6, 300), rng.uniform(0, 100, 300)] for _ in range(4)]
        want_rows = [
            "".join(f"{a},{b!r}\n" for a, b in zip(*(c.tolist() for c in table))).encode()
            for table in tables
        ]
        wrong = []

        def call(i):
            x, opt = inputs[i], RmsProp(1e-3)
            for _ in range(5):
                if not _same_bits(conv2d_valid(x, bank), tap_loop_conv_forward(x, bank)):
                    wrong.append(("forward", i))
                gx, gbank = conv2d_backward(x, bank, grad_outs[i])
                if not all(map(_same_bits, (gx, gbank.weights, gbank.biases), want_backward[i])):
                    wrong.append(("backward", i))
                opt.step(params[i], grads[i])
                rows = fileio.format_rows(tables[i], b",", b"\n")
                if rows != want_rows[i]:
                    wrong.append(("format", i))
                columns = fileio.parse_rows(rows, [np.int64, np.float64])
                if columns is None or not all(map(_same_bits, columns, tables[i])):
                    wrong.append(("parse", i))
            if not _same_bits(params[i]["w"], want_params[i]):
                wrong.append(("step", i))

        switch = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            callers = [threading.Thread(target=call, args=(i,)) for i in range(4)]
            for caller in callers:
                caller.start()
            for caller in callers:
                caller.join(timeout=60)
        finally:
            sys.setswitchinterval(switch)
        assert not any(caller.is_alive() for caller in callers)
        assert not wrong
        assert sum(windows for _, windows in log) == 4 * 5 * 30


class TestConvLaneErrors:
    """An error in either lane reaches the caller, and only after both lanes
    have stopped writing the call's buffers."""

    @staticmethod
    def _overflow_in_second_chunk(monkeypatch):
        # 7 positions a window and a 14-position bound: chunks of windows 0-1
        # (the caller's) and 2-3 (the worker's); only window 3 overflows
        monkeypatch.setattr(lanecast.lanes, "_LANES", 2)
        monkeypatch.setattr(lanecast.layers, "_CONV_POSITIONS", 14)
        rng = np.random.default_rng(8)
        x = rng.standard_normal((4, 2, 8, 3))
        x[3] *= 1e300
        bank = FilterBank(rng.standard_normal((4, 2, 2, 3)) * 1e10, rng.standard_normal(4))
        return x, bank

    def test_overflow_in_worker_chunk_raises(self, monkeypatch):
        x, bank = self._overflow_in_second_chunk(monkeypatch)
        log = _chunk_log(monkeypatch)
        with np.errstate(over="raise"), pytest.raises(FloatingPointError, match="overflow"):
            conv2d_valid(x, bank)
        # the caller's chunk is finite, so the error is the worker's
        assert len({thread for thread, _ in log}) == 2

    def test_overflow_ignored_in_worker_chunk_warns_nothing(self, monkeypatch):
        x, bank = self._overflow_in_second_chunk(monkeypatch)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with np.errstate(all="ignore"):
                got = conv2d_valid(x, bank)
                want = tap_loop_conv_forward(x, bank)
        assert not np.isfinite(got[3]).all() and np.isfinite(got[:3]).all()
        assert _same_bits(got, want)

    def test_caller_error_waits_for_the_worker_chunk(self, monkeypatch):
        monkeypatch.setattr(lanecast.lanes, "_LANES", 2)
        monkeypatch.setattr(lanecast.layers, "_CONV_POSITIONS", 14)
        caller = threading.get_ident()
        finished = []
        chunk = lanecast.layers._conv_chunk

        def failing(x, *args):
            if threading.get_ident() == caller:
                raise ValueError("the caller's chunk failed")
            time.sleep(0.2)
            chunk(x, *args)
            finished.append(len(x))

        monkeypatch.setattr(lanecast.layers, "_conv_chunk", failing)
        rng = np.random.default_rng(9)
        bank = FilterBank(rng.standard_normal((4, 2, 2, 3)), rng.standard_normal(4))
        with pytest.raises(ValueError, match="the caller's chunk failed"):
            conv2d_valid(rng.standard_normal((4, 2, 8, 3)), bank)
        assert finished == [2]

    def test_forked_child_convolves_on_its_own_lane(self, tmp_path):
        # In a subprocess: this process's numpy settings and warning filters
        # stay out of it, and a hang fails by the timeout. The child also
        # writes and reads a CSV of several chunks.
        script = tmp_path / "fork_conv.py"
        script.write_text(
            "import os, signal, time\n"
            "import numpy as np\n"
            "import lanecast.lanes as lanes\n"
            "import lanecast.layers as layers\n"
            "from lanecast import fileio\n"
            "from lanecast.pipeline import CorridorShape, read_records, write_records\n"
            "from lanecast.synth import SynthConfig, generate\n"
            "lanes._LANES = 2\n"
            "rng = np.random.default_rng(0)\n"
            "bank = layers.FilterBank(rng.standard_normal((8, 2, 2, 4)), rng.standard_normal(8))\n"
            "x = rng.standard_normal((64, 10, 8, 4))\n"
            "g = rng.standard_normal((64, 9, 7, 8))\n"
            "want = layers.conv2d_valid(x, bank)\n"
            "want_gx, want_gbank = layers.conv2d_backward(x, bank, g)\n"
            "# a CSV of 4 row chunks and 5 line blocks, written and read on both lanes\n"
            "records = generate(SynthConfig(shape=CorridorShape(4, 4, 2), days=3, seed=1))\n"
            "fileio._CHUNK, fileio._BLOCK = 2000, 1 << 16\n"
            f"path = {str(tmp_path / 'records.csv')!r}\n"
            "write_records(path, records)\n"
            "with open(path, 'rb') as fh:\n"
            "    want_csv = fh.read()\n"
            "pid = os.fork()\n"
            "if pid == 0:\n"
            "    gx, gbank = layers.conv2d_backward(x, bank, g)\n"
            "    same = np.array_equal(gx, want_gx) and np.array_equal(gbank.weights, want_gbank.weights)\n"
            "    same = same and np.array_equal(layers.conv2d_valid(x, bank), want)\n"
            "    write_records(path, records)\n"
            "    with open(path, 'rb') as fh:\n"
            "        same = same and fh.read() == want_csv\n"
            "    same = same and read_records(path) == records\n"
            "    os._exit(0 if same else 1)\n"
            "for _ in range(300):\n"
            "    done, status = os.waitpid(pid, os.WNOHANG)\n"
            "    if done:\n"
            "        raise SystemExit(os.waitstatus_to_exitcode(status))\n"
            "    time.sleep(0.1)\n"
            "os.kill(pid, signal.SIGKILL)\n"
            "raise SystemExit('the forked child hung')\n"
        )
        src = os.path.dirname(os.path.dirname(lanecast.layers.__file__))
        env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
        run = subprocess.run([sys.executable, str(script)], env=env, timeout=120, capture_output=True)
        assert run.returncode == 0, run.stderr.decode()


def single_product_conv_backward(x, bank, grad_out, input_grad=True):
    """conv2d_backward as whole-batch expressions on one thread: the im2col
    products g.T @ patches and g @ W, the col2im overlap-add and the bias sum.
    Returns (grad_x, grad_w, grad_b)."""
    out_rows, out_cols = grad_out.shape[1:3]
    fr, fc = bank.filter_rows, bank.filter_cols
    g = grad_out.reshape(-1, bank.num_filters)
    patches = np.lib.stride_tricks.sliding_window_view(x, (fr, fc), axis=(1, 2))
    patches = patches.transpose(0, 1, 2, 4, 5, 3).reshape(g.shape[0], -1)
    grad_w = (g.T @ patches).reshape(bank.weights.shape)
    grad_b = grad_out.sum(axis=(0, 1, 2))
    if not input_grad:
        return None, grad_w, grad_b
    cols = (g @ bank.weights.reshape(bank.num_filters, -1)).reshape(
        x.shape[0], out_rows, out_cols, fr, fc, x.shape[3]
    )
    grad_x = np.zeros_like(x)
    for a in range(fr):
        for b in range(fc):
            grad_x[:, a:a + out_rows, b:b + out_cols] += cols[:, :, :, a, b]
    return grad_x, grad_w, grad_b


class TestBackwardLanes:
    """The weight gradient's product on the worker moves no bit: one and two
    lanes give the bytes of the whole-batch expressions."""

    @pytest.mark.parametrize(
        "case",
        ["input-grad", "no-input-grad", "3-d", "corridor-2", "corridor-3",
         "corridor-2-partial", "corridor-3-partial"],
    )
    def test_conv_backward_one_and_two_lanes_match_products(self, case, monkeypatch, worker_log):
        rng = np.random.default_rng(len(case))
        shape = {
            "input-grad": (5, 6, 7, 3),
            "no-input-grad": (64, 10, 8, 4),
            "3-d": (10, 71, 4),
            # the train batch at corridor layers 2 and 3, and an epoch's last
            # partial batch
            "corridor-2": (64, 9, 7, 32),
            "corridor-3": (64, 8, 6, 32),
            "corridor-2-partial": (45, 9, 7, 32),
            "corridor-3-partial": (45, 8, 6, 32),
        }[case]
        input_grad = case != "no-input-grad"
        x = rng.standard_normal(shape)
        bank = FilterBank(rng.standard_normal((32, 2, 2, shape[-1])), rng.standard_normal(32))
        grad_out = rng.standard_normal((*shape[:-3], shape[-3] - 1, shape[-2] - 1, 32))
        if x.ndim == 3:
            want = single_product_conv_backward(x[np.newaxis], bank, grad_out[np.newaxis])
            want = (want[0][0], *want[1:])
        else:
            want = single_product_conv_backward(x, bank, grad_out, input_grad)
        got = {}
        for lanes in (1, 2):
            monkeypatch.setattr(lanecast.lanes, "_LANES", lanes)
            worker_log.clear()
            gx, gbank = conv2d_backward(x, bank, grad_out, input_grad=input_grad)
            got[lanes] = (gx, gbank.weights, gbank.biases)
            if input_grad:
                assert _same_bits(gx, want[0]), lanes
            else:
                assert gx is None
            assert _same_bits(gbank.weights, want[1]), lanes
            assert _same_bits(gbank.biases, want[2]), lanes
            # a first layer's backward has one product, and runs inline
            assert len(worker_log) == (1 if lanes == 2 and input_grad else 0)
            assert threading.get_ident() not in worker_log
        for one, two in zip(got[1], got[2]):
            assert one is two is None or _same_bits(one, two)

    @pytest.mark.parametrize("dims", [(2240, 256), (256, 80)])
    @pytest.mark.parametrize("batch", [64, 45])
    def test_dense_backward_one_and_two_lanes_match_products(self, dims, batch, monkeypatch, worker_log):
        rng = np.random.default_rng(dims[1] + batch)
        in_dim, out_dim = dims
        params = DenseParams(rng.standard_normal((out_dim, in_dim)), rng.standard_normal(out_dim))
        x = rng.standard_normal((batch, in_dim))
        grad_out = rng.standard_normal((batch, out_dim))
        want = (grad_out @ params.weights, grad_out.T @ x, grad_out.sum(axis=0))
        for lanes in (1, 2):
            monkeypatch.setattr(lanecast.lanes, "_LANES", lanes)
            worker_log.clear()
            got = dense_backward(x, params, grad_out)
            for a, b in zip(got, want):
                assert _same_bits(a, b), lanes
            assert len(worker_log) == (1 if lanes == 2 else 0)
            assert threading.get_ident() not in worker_log

    def test_worker_error_reaches_the_caller_after_both_lanes(self, monkeypatch, worker_log):
        # only the weight gradient, the worker's product, overflows
        monkeypatch.setattr(lanecast.lanes, "_LANES", 2)
        rng = np.random.default_rng(12)
        params = DenseParams(rng.standard_normal((8, 6)), rng.standard_normal(8))
        x = rng.standard_normal((5, 6)) * 1e300
        grad_out = rng.standard_normal((5, 8)) * 1e10
        with np.errstate(over="raise"), pytest.raises(FloatingPointError, match="overflow"):
            dense_backward(x, params, grad_out)
        assert len(worker_log) == 1 and all(future.done() for future in worker_log.futures)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with np.errstate(all="ignore"):
                got = dense_backward(x, params, grad_out)
                want = grad_out.T @ x
        assert not np.isfinite(got[1]).all() and np.isfinite(got[0]).all()
        assert _same_bits(got[1], want)


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
        out, mask = dropout_forward(x, 0.0, np.random.default_rng(0))
        assert out is x
        assert mask is None

    def test_infer_mode_is_identity(self):
        # no generator is the identity, whatever the ratio
        x = np.arange(6.0)
        for ratio in (0.5, 0.7):
            out, mask = dropout_forward(x, ratio)
            assert out is x
            assert mask is None

    def test_expectation_preserved(self):
        # inverted dropout: E[output] = input; check a scalar over 1e5 draws
        rng = np.random.default_rng(123)
        draws = np.array([
            dropout_forward(np.array([1.0]), 0.5, rng)[0][0]
            for _ in range(100_000)
        ])
        se = draws.std() / np.sqrt(draws.size)
        assert abs(draws.mean() - 1.0) < 3.0 * se + 1e-9

    def test_survivors_scaled(self):
        rng = np.random.default_rng(11)
        x = np.ones(1000)
        out, mask = dropout_forward(x, 0.25, rng)
        survivors = out[out != 0.0]
        assert np.allclose(survivors, 1.0 / 0.75)
        assert np.array_equal(out, x * mask)

    def test_backward_applies_same_mask(self):
        rng = np.random.default_rng(12)
        x = np.ones(100)
        out, mask = dropout_forward(x, 0.5, rng)
        grad = dropout_backward(np.ones(100), mask)
        assert np.array_equal(grad, mask)
        assert np.array_equal((grad == 0.0), (out == 0.0))

    def test_invalid_ratio_rejected(self):
        with pytest.raises(ValueError):
            dropout_forward(np.zeros(3), 1.0, np.random.default_rng(0))
        with pytest.raises(ValueError):
            dropout_forward(np.zeros(3), -0.1, np.random.default_rng(0))
