import tracemalloc

import numpy as np
import pytest

import lanecast.training
from lanecast.errors import ConfigError, DataError, MetricError, NumericError
from lanecast.lanes import even_chunks
from lanecast.losses import composite_loss
from lanecast.model import (
    ArchitectureConfig,
    ConvForecaster,
    PersistenceModel,
)
from lanecast.pipeline import (
    CorridorShape,
    NormalizationParams,
    fit_normalization,
    grid_windows,
    group_records,
    prepare_dataset,
)
from lanecast.synth import SynthConfig, generate
from lanecast.training import (
    TrainConfig,
    accuracy,
    dataset_loss,
    evaluate,
    predict_multistep,
    sweep,
    train,
)
from sample_sets import sample_set


def small_shape():
    return CorridorShape(detectors=4, steps=5, lanes=2)


def small_config(seed=0):
    return ArchitectureConfig(
        shape=small_shape(), filters_per_layer=(4, 4, 4), fc_hidden=16,
        dropout_conv=0.0, dropout_fc=0.0, seed=seed,
    )


def make_samples(shape, count, seed=0, constant=None):
    rng = np.random.default_rng(seed)
    windows = []
    for _ in range(count):
        if constant is None:
            xu = rng.random((shape.detectors, shape.steps, shape.lanes))
            xq = rng.random((shape.detectors, shape.steps, shape.lanes))
            yu = rng.random(shape.detectors * shape.lanes)
            yq = rng.random(shape.detectors * shape.lanes)
        else:
            xu = np.full((shape.detectors, shape.steps, shape.lanes), constant)
            xq = np.full((shape.detectors, shape.steps, shape.lanes), constant)
            yu = np.full(shape.detectors * shape.lanes, constant)
            yq = np.full(shape.detectors * shape.lanes, constant)
        windows.append((xu, xq, yu, yq))
    fields = [np.stack(column) for column in zip(*windows)]
    return sample_set(*fields, np.arange(count, dtype=np.int64) * shape.interval)


NORM = NormalizationParams(0.0, 60.0, 0.0, 240.0)


class TestAccuracy:
    def test_perfect(self):
        assert accuracy(np.array([50.0, 40.0]), np.array([50.0, 40.0])) == 100.0

    def test_hand_values(self):
        assert accuracy(np.array([60.0, 40.0]), np.array([50.0, 50.0])) == pytest.approx(80.0)
        assert accuracy(np.array([55.0]), np.array([50.0])) == pytest.approx(90.0)

    def test_scale_invariance(self):
        rng = np.random.default_rng(61)
        pred = 30.0 + 20.0 * rng.random(50)
        target = 30.0 + 20.0 * rng.random(50)
        assert accuracy(3.0 * pred, 3.0 * target) == pytest.approx(accuracy(pred, target))

    def test_slow_targets_excluded(self):
        pred = np.array([10.0, 99.0])
        target = np.array([10.0, 0.5])  # second entry below the 1 mph floor
        assert accuracy(pred, target) == 100.0

    def test_all_excluded_is_undefined(self):
        with pytest.raises(MetricError):
            accuracy(np.array([1.0]), np.array([0.2]))

    def test_rmse_variant(self):
        pred = np.array([55.0, 45.0])
        target = np.array([50.0, 50.0])
        # rmse 5, mean target 50 -> 90%
        assert accuracy(pred, target, metric="rmse_complement") == pytest.approx(90.0)

    def test_unknown_metric_rejected(self):
        with pytest.raises(ConfigError):
            accuracy(np.array([1.0]), np.array([2.0]), metric="nope")


class _PoisonedGradient(ConvForecaster):
    """Puts a NaN into one gradient array of the second batch."""

    batches = 0

    def backward_batch(self, cache, grad_speed, grad_volume=None):
        grads = super().backward_batch(cache, grad_speed, grad_volume)
        self.batches += 1
        if self.batches == 2:
            grads["fusion.biases"][0] = np.nan
        return grads


class _CountingPersistence(PersistenceModel):
    """Persistence forecasts that count the forward passes."""

    calls = 0

    def predict_batch(self, samples):
        self.calls += 1
        return super().predict_batch(samples)


class _PoisonedPredictions(PersistenceModel):
    """Persistence forecasts with one quantity replaced by a non-finite value."""

    def __init__(self, quantity, value):
        self.quantity, self.value = quantity, value

    def predict_batch(self, samples):
        preds = dict(zip(("speed", "volume"), super().predict_batch(samples)))
        preds[self.quantity] = np.full_like(preds[self.quantity], self.value)
        return preds["speed"], preds["volume"]


@pytest.mark.parametrize("quantity, value", [("speed", np.nan), ("volume", np.inf)])
class TestNonFinitePredictions:
    def test_dataset_loss_refuses(self, quantity, value):
        samples = make_samples(small_shape(), 6, seed=18)
        with pytest.raises(NumericError, match=f"non-finite {quantity}"):
            dataset_loss(_PoisonedPredictions(quantity, value), samples, 0.1)

    def test_evaluate_refuses(self, quantity, value):
        samples = make_samples(small_shape(), 6, seed=18)
        with pytest.raises(NumericError, match=f"non-finite {quantity}"):
            evaluate(_PoisonedPredictions(quantity, value), samples, [1], NORM, small_shape())

    def test_predict_multistep_refuses(self, quantity, value):
        samples = make_samples(small_shape(), 6, seed=18)
        with pytest.raises(NumericError, match=f"forecast step 1: .*non-finite {quantity}"):
            predict_multistep(_PoisonedPredictions(quantity, value), samples, 2)


class TestTrain:
    def test_zero_epochs_leaves_params(self):
        model = ConvForecaster(small_config(seed=1))
        before = {k: v.copy() for k, v in model.param_arrays().items()}
        curve = train(model, make_samples(small_shape(), 8, seed=1), TrainConfig(epochs=0))
        assert curve == []
        for name, value in model.param_arrays().items():
            assert np.array_equal(value, before[name])

    def test_identical_seeds_identical_curves(self):
        samples = make_samples(small_shape(), 16, seed=2)
        config = TrainConfig(epochs=3, seed=7, batch_size=4, learning_rate=1e-3)
        curves = []
        for _ in range(2):
            model = ConvForecaster(small_config(seed=2))
            curves.append(train(model, samples, config))
        assert [s.train_loss for s in curves[0]] == [s.train_loss for s in curves[1]]

    def test_loss_decreases_on_small_corpus(self):
        samples = make_samples(small_shape(), 16, seed=3)
        model = ConvForecaster(small_config(seed=3))
        curve = train(model, samples, TrainConfig(epochs=30, seed=3, batch_size=4, learning_rate=1e-3))
        assert curve[-1].train_loss < curve[0].train_loss * 0.5

    def test_untrainable_model_rejected(self):
        with pytest.raises(ConfigError):
            train(PersistenceModel(), make_samples(small_shape(), 4), TrainConfig(epochs=1))

    def test_empty_samples_rejected(self):
        with pytest.raises(DataError):
            train(ConvForecaster(small_config()), make_samples(small_shape(), 2)[:0], TrainConfig(epochs=1))

    def test_non_finite_gradient_rejected(self):
        model = _PoisonedGradient(small_config(seed=5))
        with pytest.raises(NumericError, match=r"fusion\.biases at epoch 1, batch 2"):
            train(model, make_samples(small_shape(), 8, seed=5), TrainConfig(epochs=1, batch_size=4))
        # the poisoned gradient never reached the optimizer
        assert np.isfinite(model.param_arrays()["fusion.biases"]).all()

    def test_eval_loss_recorded(self):
        samples = make_samples(small_shape(), 12, seed=4)
        model = ConvForecaster(small_config(seed=4))
        curve = train(model, samples[:8], TrainConfig(epochs=2, seed=4), eval_samples=samples[8:])
        assert all(s.test_loss is not None for s in curve)
        final = dataset_loss(model, samples[8:], 0.1)
        assert curve[-1].test_loss == final

    def test_non_finite_test_loss_names_the_epoch(self, monkeypatch):
        samples = make_samples(small_shape(), 12, seed=4)
        model = ConvForecaster(small_config(seed=4))
        rollout = model.rollout
        monkeypatch.setattr(model, "rollout", lambda part, horizon: (
            (np.full_like(pred_u, np.nan), pred_q) for pred_u, pred_q in rollout(part, horizon)))
        with pytest.raises(NumericError, match="^test loss at epoch 1: forecast step 1: .*non-finite speed"):
            train(model, samples[:8], TrainConfig(epochs=2, seed=4), eval_samples=samples[8:])


class TestTestLoss:
    """The epoch-end test loss is the training loss, computed by the one loss function."""

    def test_dataset_loss_calls_composite_loss(self, monkeypatch):
        calls = []
        monkeypatch.setattr(lanecast.training, "composite_loss",
                            lambda *args: calls.append(args) or composite_loss(*args))
        loss = dataset_loss(ConvForecaster(small_config(seed=6)), make_samples(small_shape(), 4, seed=6), 0.1)
        assert len(calls) == 1 and loss == composite_loss(*calls[0])[0]

    @pytest.mark.parametrize("kind", ["two_stream", "single_stream"])
    def test_bitwise_composite_loss_of_step_one(self, three_days, kind):
        test_set, _ = three_days
        model = three_day_model(3, kind)
        [(pred_u, pred_q)] = predict_multistep(model, test_set, 1)
        expected = composite_loss(pred_u, pred_q, test_set.speed_target, test_set.volume_target, 0.3)[0]
        assert dataset_loss(model, test_set, 0.3).hex() == expected.hex()


class TestMultistep:
    def test_horizon_one_equals_forward(self):
        config = small_config(seed=5)
        model = ConvForecaster(config)
        sample = make_samples(small_shape(), 1, seed=5)[0]
        steps = predict_multistep(model, sample, 1)
        assert len(steps) == 1
        direct = model.predict_batch(sample)
        assert np.array_equal(steps[0].speed, direct[0])
        assert np.array_equal(steps[0].volume, direct[1])

    def test_three_step_shapes_at_corridor_scale(self):
        shape = CorridorShape(detectors=10, steps=8, lanes=4)
        config = ArchitectureConfig(shape=shape, seed=6)
        model = ConvForecaster(config)
        sample = make_samples(shape, 1, seed=6)[0]
        steps = predict_multistep(model, sample, 3)
        assert len(steps) == 3
        for pair in steps:
            assert pair.speed.shape == (1, 40)
            assert pair.volume.shape == (1, 40)

    def test_shift_preserves_remaining_columns(self):
        # a model that reproduces the last column exactly: persistence
        model = PersistenceModel()
        shape = small_shape()
        sample = make_samples(shape, 1, seed=7)[0]
        steps = predict_multistep(model, sample, 2)
        # fed-back column equals the first prediction, and the shifted window
        # means step 2 sees original columns 2..n then the prediction;
        # persistence then repeats that same column
        assert np.array_equal(steps[0].speed, steps[1].speed)

    def test_constant_rollout_for_idempotent_model(self):
        model = PersistenceModel()
        sample = make_samples(small_shape(), 1, seed=8, constant=0.4)[0]
        steps = predict_multistep(model, sample, 4)
        for pair in steps:
            assert (pair.speed == 0.4).all()
            assert (pair.volume == 0.4).all()

    def test_invalid_horizon(self):
        with pytest.raises(ConfigError):
            predict_multistep(PersistenceModel(), make_samples(small_shape(), 1)[0], 0)

    @pytest.mark.parametrize("model", [ConvForecaster(small_config()), PersistenceModel()],
                             ids=["conv", "persistence"])
    def test_empty_set_is_data_error(self, model):
        with pytest.raises(DataError, match="empty sample set"):
            predict_multistep(model, make_samples(small_shape(), 3)[:0], 2)

    def test_set_rows_are_those_of_one_window_sets(self):
        # persistence has no dense layer, so its rows do not depend on the batch
        samples = make_samples(small_shape(), 5, seed=10)
        steps = predict_multistep(PersistenceModel(), samples, 3)
        for i in range(len(samples)):
            for pair, one in zip(steps, predict_multistep(PersistenceModel(), samples[i], 3)):
                assert pair.speed[i].tobytes() == one.speed[0].tobytes()
                assert pair.volume[i].tobytes() == one.volume[0].tobytes()


def _concatenate_rollout(model, speed_x, volume_x, horizon):
    """The rollout's oracle: `predict_batch` on every shifted window, rebuilt
    in full with np.concatenate at each step."""
    batch, detectors, _, lanes = speed_x.shape
    targets = np.zeros((batch, detectors * lanes))
    steps = []
    for _ in range(horizon):
        windows = sample_set(speed_x, volume_x, targets, targets, np.arange(batch))
        pred_u, pred_q = model.predict_batch(windows)
        steps.append((pred_u, pred_q))
        fed_u = np.clip(pred_u, 0.0, 1.0).reshape(batch, detectors, 1, lanes)
        speed_x = np.concatenate([speed_x[:, :, 1:, :], fed_u], axis=2)
        if pred_q is not None:
            fed_q = np.clip(pred_q, 0.0, 1.0).reshape(batch, detectors, 1, lanes)
            volume_x = np.concatenate([volume_x[:, :, 1:, :], fed_q], axis=2)
    return steps


def _biased_model(shape, filters, filter_size, kind, seed):
    """A fresh model whose biases are non-zero, so every bias add shows;
    persistence has no parameters."""
    if kind == "persistence":
        return PersistenceModel()
    config = ArchitectureConfig(
        shape=shape, filters_per_layer=filters, filter_size=filter_size, fc_hidden=16, seed=seed
    )
    model = ConvForecaster(config, kind)
    rng = np.random.default_rng(seed)
    for name, array in model.param_arrays().items():
        if name.endswith(".biases"):
            array[...] = rng.normal(0.0, 0.2, array.shape)
    return model


@pytest.mark.parametrize("kind", ["two_stream", "single_stream", "persistence"])
@pytest.mark.parametrize(
    "shape, filters, filter_size, batch, horizon, constant",
    [
        (small_shape(), (4, 4, 4), (2, 2), 1, 12, None),
        (small_shape(), (4, 4, 4), (2, 1), 65, 12, None),  # filter_cols 1
        (CorridorShape(4, 4, 2), (4, 4, 4), (2, 2), 64, 12, None),  # conv3 has one column
        (CorridorShape(3, 7, 2), (4, 3, 5), (1, 3), 130, 12, None),  # filter_cols 3, one column
        (CorridorShape(10, 8, 4), (32, 32, 32), (2, 2), 130, 12, None),  # the paper's corridor
        (CorridorShape(10, 8, 4), (32, 32, 32), (1, 3), 65, 4, None),
        # histories outside [0, 1]: persistence's later steps match the
        # oracle only if the rollout clips the column it feeds back
        (small_shape(), (4, 4, 4), (2, 2), 3, 4, 1.5),
    ],
    ids=["toy-batch1", "filter-cols1", "one-column", "filter-cols3", "corridor", "corridor-cols3",
         "out-of-range"],
)
def test_incremental_rollout_matches_concatenate_oracle(kind, shape, filters, filter_size, batch,
                                                        horizon, constant):
    # batches 64, 65 and 130 straddle the conv forward's 64-window chunks
    model = _biased_model(shape, filters, filter_size, kind, seed=batch)
    samples = make_samples(shape, batch, seed=horizon, constant=constant)
    expected = _concatenate_rollout(model, samples.speed_history, samples.volume_history, horizon)
    # the set's windows each have their own grid rows, so each block holds a few
    steps = list(model.rollout(samples, horizon))
    assert len(steps) == horizon
    for (pred_u, pred_q), (want_u, want_q) in zip(steps, expected):
        assert pred_u.tobytes() == want_u.tobytes()
        if kind == "single_stream":
            assert pred_q is None and want_q is None
        else:
            assert pred_q.tobytes() == want_q.tobytes()


@pytest.mark.parametrize("kind", ["two_stream", "single_stream"])
@pytest.mark.parametrize(
    "shape, filters, filter_size",
    [(CorridorShape(4, 8, 2), (3, 4, 5), (1, 3)), (CorridorShape(10, 8, 4), (32, 32, 32), (2, 2))],
    ids=["filter-cols3", "corridor"],
)
def test_rollout_on_chronological_windows_matches_concatenate_oracle(kind, shape, filters, filter_size):
    # The full pass convolves the set's grid in blocks, whose activations the
    # later steps then shift in place. The oracle gets the histories as
    # arrays, so every window is convolved on its own.
    records = generate(SynthConfig(shape=shape, days=1, seed=5))
    samples = grid_windows(group_records(records, shape), shape, fit_normalization(records))
    samples = samples[np.r_[0:150, 152:230]]  # runs of 150 and 78 windows
    model = _biased_model(shape, filters, filter_size, kind, seed=6)
    expected = _concatenate_rollout(model, samples.speed_history, samples.volume_history, 5)
    steps = list(model.rollout(samples, 5))
    assert len(steps) == 5
    for (pred_u, pred_q), (want_u, want_q) in zip(steps, expected):
        assert pred_u.tobytes() == want_u.tobytes()
        if kind == "single_stream":
            assert pred_q is None and want_q is None
        else:
            assert pred_q.tobytes() == want_q.tobytes()


def test_rollout_leaves_the_samples_untouched():
    # the incremental rollout shifts its activations in place, on its own copies
    shape = small_shape()
    samples = make_samples(shape, 30, seed=19)
    model = _biased_model(shape, (4, 4, 4), (2, 2), "two_stream", seed=19)
    fields = ("speed_history", "volume_history", "speed_target", "volume_target", "origin_timestamps")
    before = {name: getattr(samples, name).tobytes() for name in fields}
    evaluate(model, samples, [1, 2, 5], NORM, shape)
    predict_multistep(model, samples[3], 6)
    assert {name: getattr(samples, name).tobytes() for name in fields} == before


class TestEvaluate:
    def test_oracle_scores_100_everywhere(self):
        # constant data: persistence reproduces the targets exactly
        samples = make_samples(small_shape(), 10, seed=10, constant=0.5)
        report = evaluate(PersistenceModel(), samples, [1, 2, 3], NORM, small_shape())
        for h in (1, 2, 3):
            assert report.accuracy[h] == pytest.approx(100.0)
            for lane_acc in report.per_lane[h]:
                assert lane_acc == pytest.approx(100.0)

    def test_lookahead_bookkeeping(self):
        samples = make_samples(small_shape(), 10, seed=11)
        report = evaluate(PersistenceModel(), samples, [1, 3], NORM, small_shape())
        assert report.evaluated[1] == 10
        assert report.skipped[1] == 0
        # the last two samples have no horizon-3 alignment
        assert report.evaluated[3] == 8
        assert report.skipped[3] == 2

    def test_gap_breaks_alignment(self):
        samples = make_samples(small_shape(), 6, seed=12)
        samples = samples[[0, 1, 2, 4, 5]]
        report = evaluate(PersistenceModel(), samples, [2], NORM, small_shape())
        # origins 0..5 minus 3; horizon-2 targets exist for 1,3(->missing),...
        assert report.evaluated[2] == 3
        assert report.skipped[2] == 2

    def test_horizon_beyond_data_rejected(self):
        # refused before the rollout runs a single forward pass
        samples = make_samples(small_shape(), 3, seed=13)
        probe = _CountingPersistence()
        with pytest.raises(DataError, match="horizon-5"):
            evaluate(probe, samples, [1, 5], NORM, small_shape())
        assert probe.calls == 0

    def test_memory_does_not_grow_with_horizon(self):
        # the rollout keeps no finished step: at horizon 200 the 240 windows'
        # 199 earlier steps would hold 6 MB of predictions
        shape = small_shape()
        samples = make_samples(shape, 240, seed=15)
        model = ConvForecaster(small_config(seed=15))

        def peak(horizon):
            tracemalloc.start()
            try:
                evaluate(model, samples, [horizon], NORM, shape)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        near, far = peak(1), peak(200)
        assert far <= near + 512 * 1024, (near, far)

    @pytest.mark.parametrize("kind", ["two_stream", "single_stream"])
    def test_memory_does_not_grow_with_window_count(self, monkeypatch, kind):
        # the set is rolled out in chunks, each holding only its rollout
        # state; the chunk constant is scaled down 8x to keep this fast.
        # One rollout of the whole set peaks at 4.0x here; chunks at 1.07-1.11x.
        monkeypatch.setattr(lanecast.training, "_FORECAST_CHUNK", 128)
        shape = CorridorShape(6, 6, 3)
        records = generate(SynthConfig(shape=shape, days=2, seed=21))
        norm = fit_normalization(records)
        samples = grid_windows(group_records(records, shape), shape, norm)
        model = ConvForecaster(ArchitectureConfig(shape=shape, seed=22), kind)

        def peak(windows):
            tracemalloc.start()
            try:
                evaluate(model, samples[:windows], [1, 2, 3], norm, shape)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        one, four = peak(128), peak(4 * 128)
        assert four <= 1.5 * one, (one, four)

    @pytest.mark.parametrize("count", [1, 548, 1024, 1025, 2049, 8632])
    def test_forecast_chunks_cover_the_set_evenly(self, monkeypatch, count):
        # the windows of each rollout evaluate runs: the shared plan
        # (tests/test_lanes.py) at 1,024, none longer, nor shorter than 512 in
        # a split set
        model = PersistenceModel()
        sizes = []
        rollout = model.rollout
        monkeypatch.setattr(model, "rollout", lambda part, horizon: sizes.append(len(part)) or rollout(part, horizon))
        evaluate(model, make_samples(small_shape(), count, seed=16), [1], NORM, small_shape())
        assert sizes == [b - a for a, b in even_chunks(count, 1024)]
        assert max(sizes) <= 1024 and (len(sizes) == 1 or min(sizes) >= 512)

    def test_breakdown_shapes(self):
        shape = small_shape()
        samples = make_samples(shape, 8, seed=14)
        report = evaluate(PersistenceModel(), samples, [1], NORM, shape)
        assert len(report.per_lane[1]) == shape.lanes
        assert len(report.per_detector[1]) == shape.detectors


THREE_DAY_SHAPE = CorridorShape(4, 4, 2)


def three_day_model(seed, kind="two_stream"):
    return ConvForecaster(ArchitectureConfig(shape=THREE_DAY_SHAPE, filters_per_layer=(4, 4, 4),
                                             fc_hidden=16, seed=seed), kind)


@pytest.fixture(scope="module")
def three_days():
    """(430 test windows, all 860 windows) of a 3-day corpus split in half."""
    records = generate(SynthConfig(shape=THREE_DAY_SHAPE, days=3, seed=5))
    norm, _, test_set = prepare_dataset(records, THREE_DAY_SHAPE, 0.5)
    return test_set, grid_windows(group_records(records, THREE_DAY_SHAPE), THREE_DAY_SHAPE, norm)


class TestChunkPlans:
    """Every forecast over a set runs through one chunked loop, and what it
    returns does not depend on the chunks: at 96 windows the 430 test windows
    are rolled out in six chunks of 71-72, and all 860 in ten of 86."""

    def test_dataset_loss_does_not_depend_on_the_plan(self, three_days, monkeypatch):
        # a sum per chunk into a Python float moves 1 of these 10 losses
        test_set, _ = three_days

        def losses(chunk):
            monkeypatch.setattr(lanecast.training, "_FORECAST_CHUNK", chunk)
            return [dataset_loss(three_day_model(seed), test_set, 0.1).hex() for seed in range(10)]

        assert losses(96) == losses(1024)

    @pytest.mark.parametrize("kind", ["two_stream", "single_stream", "persistence"])
    def test_predict_multistep_does_not_depend_on_the_plan(self, three_days, monkeypatch, kind):
        _, samples = three_days
        model = PersistenceModel() if kind == "persistence" else three_day_model(7, kind)
        sizes = []  # the windows of each rollout
        rollout = model.rollout
        monkeypatch.setattr(model, "rollout", lambda part, horizon: sizes.append(len(part)) or rollout(part, horizon))

        def steps(chunk):
            monkeypatch.setattr(lanecast.training, "_FORECAST_CHUNK", chunk)
            pairs = predict_multistep(model, samples, 3)
            return [[p.tobytes() for p in pair if p is not None] for pair in pairs]

        assert steps(96) == steps(1024)
        assert sizes == [86] * 10 + [860]

    def test_predict_multistep_memory_is_its_result_and_one_chunk(self, three_days, monkeypatch):
        # measured 0.54 MiB, 0.31 MiB of it the three steps' predictions; in
        # one chunk of all 860 windows it peaks at 1.68 MiB
        _, samples = three_days
        model = three_day_model(8)
        monkeypatch.setattr(lanecast.training, "_FORECAST_CHUNK", 96)
        tracemalloc.start()
        try:
            predict_multistep(model, samples, 3)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2**20, peak


class TestSweep:
    def test_single_value_equals_direct_run(self):
        shape = small_shape()
        samples = make_samples(shape, 20, seed=15)
        train_set, test_set = samples[:16], samples[16:]
        base = TrainConfig(epochs=2, seed=15, batch_size=4)

        rows = sweep(
            "lambda", [0.3], lambda: ConvForecaster(small_config(seed=15)),
            train_set, test_set, base, NORM, shape,
        )
        assert len(rows) == 1
        row = rows[0]

        from dataclasses import replace

        model = ConvForecaster(small_config(seed=15))
        curve = train(model, train_set, replace(base, volume_weight=0.3))
        report = evaluate(model, test_set, [1], NORM, shape)
        assert row.accuracy_h1 == report.accuracy[1]
        assert row.final_train_loss == curve[-1].train_loss
        assert row.status == "ok"

    def test_lambda_grid_row_count(self):
        shape = small_shape()
        samples = make_samples(shape, 12, seed=16)
        rows = sweep(
            "lambda", [round(0.1 * i, 1) for i in range(10)],
            lambda: ConvForecaster(small_config(seed=16)),
            samples[:10], samples[10:], TrainConfig(epochs=1, seed=16, batch_size=4),
            NORM, shape,
        )
        assert len(rows) == 10
        assert [r.value for r in rows] == [round(0.1 * i, 1) for i in range(10)]

    @pytest.mark.filterwarnings("ignore:overflow")
    def test_divergence_recorded_and_continues(self):
        shape = small_shape()
        samples = make_samples(shape, 12, seed=17)
        # an absurd learning rate drives the loss to overflow
        rows = sweep(
            "lr", [1e30, 1e-3], lambda: ConvForecaster(small_config(seed=17)),
            samples[:10], samples[10:], TrainConfig(epochs=8, seed=17, batch_size=2),
            NORM, shape,
        )
        assert rows[0].status == "diverged"
        assert np.isnan(rows[0].accuracy_h1)
        assert rows[1].status == "ok"

    def test_rejects_bad_axis_and_empty_values(self):
        with pytest.raises(ConfigError):
            sweep("gamma", [1.0], None, [], [], TrainConfig(), NORM, small_shape())
        with pytest.raises(ConfigError):
            sweep("lambda", [], None, [], [], TrainConfig(), NORM, small_shape())
