import numpy as np
import pytest

from lanecast.errors import ConfigError
from lanecast.pipeline import CorridorShape
from lanecast.synth import SynthConfig, generate


def small_shape():
    return CorridorShape(detectors=4, steps=4, lanes=3, interval=300)


def test_record_count_and_ordering():
    config = SynthConfig(shape=small_shape(), days=2, seed=1)
    records = generate(config)
    assert len(records) == 2 * 288 * 4 * 3
    timestamps = [r.timestamp for r in records]
    assert timestamps == sorted(timestamps)
    assert records[0].timestamp == 0
    assert records[-1].timestamp == 2 * 86400 - 300


def test_no_congestion_no_noise_gives_lane_constants():
    config = SynthConfig(
        shape=small_shape(), days=1, peaks=(), noise_sd=0.0, volume_noise_sd=0.0,
        lane_bias=(0.9, 1.0, 1.05), seed=2,
    )
    for record in generate(config):
        expected = 60.0 * (0.9, 1.0, 1.05)[record.lane - 1]
        assert record.speed == pytest.approx(expected, abs=1e-12)


def test_greenshields_closed_form():
    # half the free-flow speed (30 mph) at the peak center -> hourly flow
    # 200 * 30 * 0.5 = 3000, i.e. 250 vehicles per 5-minute interval
    config = SynthConfig(
        shape=CorridorShape(detectors=2, steps=2, lanes=1, interval=300),
        days=1,
        peaks=((0.0, 24.0, 0.5),),  # sin^2 reaches 1 at hour 12
        lane_bias=(1.0,),
        noise_sd=0.0,
        volume_noise_sd=0.0,
        wave_speed=1000.0,  # effectively no spatial lag
        seed=3,
    )
    records = generate(config)
    noon = [r for r in records if r.timestamp == 12 * 3600]
    assert noon
    for r in noon:
        assert r.speed == pytest.approx(30.0, abs=1e-6)
        assert r.volume == pytest.approx(250.0, abs=1e-3)


def test_same_seed_is_bit_identical():
    config = SynthConfig(shape=small_shape(), days=2, seed=9)
    assert generate(config) == generate(config)


def test_different_seeds_differ():
    a = generate(SynthConfig(shape=small_shape(), days=1, seed=1))
    b = generate(SynthConfig(shape=small_shape(), days=1, seed=2))
    assert any(x.speed != y.speed for x, y in zip(a, b))


def test_bounds():
    config = SynthConfig(shape=small_shape(), days=1, seed=4)
    cap = 60.0 * max(config.lane_bias) + 5.0 * config.noise_sd
    for r in generate(config):
        assert 0.0 < r.speed <= cap
        assert r.volume >= 0.0


def test_cross_lane_speed_correlation_on_default_config():
    shape = CorridorShape(detectors=10, steps=8, lanes=4, interval=300)
    records = generate(SynthConfig(shape=shape, days=1, seed=5))
    # per-detector lane time series over the day
    series = np.zeros((288, shape.detectors, shape.lanes))
    for r in records:
        series[r.timestamp // 300, r.detector_index - 1, r.lane - 1] = r.speed
    worst = 1.0
    for detector in range(shape.detectors):
        grid = series[:, detector, :]
        corr = np.corrcoef(grid.T)
        worst = min(worst, corr[np.triu_indices(shape.lanes, k=1)].min())
    assert worst > 0.8


def test_congestion_wave_moves_upstream():
    shape = CorridorShape(detectors=10, steps=8, lanes=1, interval=300)
    config = SynthConfig(
        shape=shape, days=1, peaks=((7.0, 9.0, 0.8),), lane_bias=(1.0,),
        noise_sd=0.0, volume_noise_sd=0.0, seed=6,
    )
    records = generate(config)
    series = np.zeros((288, shape.detectors))
    for r in records:
        series[r.timestamp // 300, r.detector_index - 1] = r.speed
    # the downstream (last) detector reaches its minimum before the first one
    assert series[:, -1].argmin() < series[:, 0].argmin()


def test_invalid_configs_rejected():
    with pytest.raises(ConfigError):
        SynthConfig(shape=small_shape(), days=0)
    with pytest.raises(ConfigError):
        SynthConfig(shape=small_shape(), peaks=((5.0, 4.0, 0.5),))
    with pytest.raises(ConfigError):
        SynthConfig(shape=small_shape(), peaks=((5.0, 6.0, 1.5),))
    with pytest.raises(ConfigError):
        SynthConfig(shape=small_shape(), lane_bias=(1.0,))
    # a NaN multiplier once passed `b <= 0` and generated all-NaN speeds
    with pytest.raises(ConfigError, match="lane_bias"):
        SynthConfig(shape=small_shape(), lane_bias=(1.0, 1.0, float("nan")))
    with pytest.raises(ConfigError):
        SynthConfig(shape=CorridorShape(2, 2, 1, interval=7), days=1)
    # malformed entries once escaped as a bare TypeError or ValueError
    for peaks in ([5], [[1, 2]], [["a", 2, 0.5]], [[7, 9, True]], [[7, float("inf"), 0.5]]):
        with pytest.raises(ConfigError, match="peaks"):
            SynthConfig(shape=small_shape(), peaks=peaks)
    for bias in ([1, "x", 1], [1, True, 1], [1, float("inf"), 1]):
        with pytest.raises(ConfigError, match="lane_bias"):
            SynthConfig(shape=small_shape(), lane_bias=bias)
