import time
import warnings

import numpy as np
import pytest

import lanecast.lanes
from lanecast.errors import ConfigError, ShapeError
from lanecast.lanes import even_chunks
from lanecast.optim import _STEP_CHUNK, RmsProp


def test_zero_gradient_leaves_params_but_decays_accumulator():
    opt = RmsProp(learning_rate=0.01, rho=0.9)
    params = {"w": np.array([1.0, -2.0])}
    opt.step(params, {"w": np.array([3.0, 4.0])})
    acc_before = opt.accumulators["w"].copy()
    values_before = params["w"].copy()
    opt.step(params, {"w": np.zeros(2)})
    assert np.array_equal(params["w"], values_before)
    assert np.allclose(opt.accumulators["w"], 0.9 * acc_before)


def test_closed_form_single_step():
    # v = 0, g = 1, rho = 0.9  ->  v = 0.1, step = -lr / (sqrt(0.1) + eps)
    opt = RmsProp(learning_rate=0.001, rho=0.9, epsilon=1e-8)
    params = {"w": np.array([0.0])}
    opt.step(params, {"w": np.array([1.0])})
    assert opt.accumulators["w"][0] == pytest.approx(0.1, rel=1e-15)
    assert params["w"][0] == pytest.approx(-0.0031623, abs=1e-7)


def test_accumulator_recurrence_identity():
    rho = 0.8
    opt = RmsProp(learning_rate=0.01, rho=rho)
    g = np.array([0.5, -1.5, 2.0])
    params = {"w": np.zeros(3)}
    opt.step(params, {"w": g})
    v1 = opt.accumulators["w"].copy()
    opt.step(params, {"w": g})
    expected = rho * v1 + (1.0 - rho) * np.square(g)
    assert np.array_equal(opt.accumulators["w"], expected)


def test_shape_mismatch_rejected():
    opt = RmsProp(learning_rate=0.01)
    with pytest.raises(ShapeError):
        opt.step({"w": np.zeros(3)}, {"w": np.zeros(4)})
    with pytest.raises(ShapeError):
        opt.step({"w": np.zeros(3)}, {})


@pytest.mark.parametrize("bad_grad", [None, np.ones(4)], ids=["missing", "misshaped"])
def test_refused_step_updates_no_array(bad_grad):
    # "a" comes first and is well formed: a step that checks "b" only when it
    # reaches it has already updated "a" and its accumulator
    opt = RmsProp(learning_rate=0.1)
    params = {"a": np.ones(3), "b": np.ones(3)}
    opt.step(params, {"a": np.full(3, 2.0), "b": np.full(3, 3.0)})
    before = {name: (value.tobytes(), opt.accumulators[name].tobytes()) for name, value in params.items()}
    grads = {"a": np.full(3, 5.0)}
    if bad_grad is not None:
        grads["b"] = bad_grad
    with pytest.raises(ShapeError):
        opt.step(params, grads)
    after = {name: (value.tobytes(), opt.accumulators[name].tobytes()) for name, value in params.items()}
    assert after == before


def test_invalid_constants_rejected():
    with pytest.raises(ConfigError):
        RmsProp(learning_rate=0.0)
    with pytest.raises(ConfigError):
        RmsProp(learning_rate=0.1, rho=1.0)
    with pytest.raises(ConfigError):
        RmsProp(learning_rate=0.1, epsilon=0.0)


def test_deterministic_across_instances():
    g = np.array([0.3, -0.7])
    runs = []
    for _ in range(2):
        opt = RmsProp(learning_rate=0.05, rho=0.9)
        params = {"w": np.array([1.0, 1.0])}
        for _ in range(5):
            opt.step(params, {"w": g})
        runs.append(params["w"].copy())
    assert np.array_equal(runs[0], runs[1])


def whole_array_step(opt, params, grads):
    """The step as whole-array numpy expressions, with their temporaries:
    the oracle of RmsProp.step."""
    for name, value in params.items():
        grad = grads[name]
        acc = opt.accumulators.setdefault(name, np.zeros_like(value))
        acc *= opt.rho
        acc += (1.0 - opt.rho) * np.square(grad)
        value -= opt.learning_rate * grad / (np.sqrt(acc) + opt.epsilon)


def test_matches_whole_array_step_bitwise(monkeypatch):
    # at one and two lanes: arrays below, at and across the chunk length, one
    # just under two chunks, one just over (three near-equal chunks, rounded
    # up to four), the corridor's fusion weights, a transposed (non-contiguous) parameter and
    # a 0-d one, over several steps
    shapes = {"a": (40_000,), "b": (3, _STEP_CHUNK), "c": (5,), "d": (256, 70), "e": (),
              "f": (_STEP_CHUNK,), "g": (2 * _STEP_CHUNK - 1,), "h": (2 * _STEP_CHUNK + 1,),
              "fusion": (256, 2240)}
    for lanes in (1, 2):
        monkeypatch.setattr(lanecast.lanes, "_LANES", lanes)
        rng = np.random.default_rng(7)
        params = {name: rng.standard_normal(shape) for name, shape in shapes.items()}
        params["t"] = rng.standard_normal((90, 300)).T
        expected = {name: value.copy() for name, value in params.items()}
        opt, oracle = RmsProp(1e-3, rho=0.9, epsilon=1e-8), RmsProp(1e-3, rho=0.9, epsilon=1e-8)
        for _ in range(6):
            grads = {name: rng.standard_normal(value.shape) * 10.0 ** rng.integers(-8, 3)
                     for name, value in params.items()}
            grads["d"][3, :5] = 0.0
            opt.step(params, grads)
            whole_array_step(oracle, expected, grads)
            for name in params:
                assert params[name].tobytes() == expected[name].tobytes(), (lanes, name)
                assert opt.accumulators[name].tobytes() == oracle.accumulators[name].tobytes(), (lanes, name)


def _overflow_in_worker_chunk():
    # four chunks: the caller takes chunk 0 and the worker chunk 1 first, and
    # only chunk 1's gradient squares past the largest float
    rng = np.random.default_rng(9)
    params = {"w": rng.standard_normal(3 * _STEP_CHUNK)}
    grads = {"w": rng.standard_normal(3 * _STEP_CHUNK)}
    worker_start = even_chunks(3 * _STEP_CHUNK, _STEP_CHUNK)[1][0]
    grads["w"][worker_start + 10] = 1e200
    return params, grads


@pytest.mark.parametrize("halves", ["worker", "both"])
def test_overflow_raises_once_both_lanes_stopped(halves, monkeypatch):
    # The worker starts late, so a caller whose own chunk overflows first must
    # still wait for it before the error leaves the step.
    monkeypatch.setattr(lanecast.lanes, "_LANES", 2)
    futures = []
    submit = lanecast.lanes._WORKER.submit

    def delayed(fn, *args):
        def late():
            time.sleep(0.2)
            return fn(*args)

        futures.append(submit(late))
        return futures[-1]

    monkeypatch.setattr(lanecast.lanes._WORKER, "submit", delayed)
    params, grads = _overflow_in_worker_chunk()
    if halves == "both":
        grads["w"][10] = 1e200
    with np.errstate(over="raise"), pytest.raises(FloatingPointError, match="overflow"):
        RmsProp(1e-3).step(params, grads)
    assert len(futures) == 1 and futures[0].done()


def test_overflow_ignored_in_worker_half_warns_nothing(monkeypatch):
    monkeypatch.setattr(lanecast.lanes, "_LANES", 2)
    params, grads = _overflow_in_worker_chunk()
    expected = {"w": params["w"].copy()}
    opt, oracle = RmsProp(1e-3), RmsProp(1e-3)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with np.errstate(all="ignore"):
            opt.step(params, grads)
            whole_array_step(oracle, expected, grads)
    assert not np.isfinite(opt.accumulators["w"]).all()
    assert params["w"].tobytes() == expected["w"].tobytes()
    assert opt.accumulators["w"].tobytes() == oracle.accumulators["w"].tobytes()
