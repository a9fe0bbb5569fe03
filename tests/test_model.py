import hashlib
import json
import re
from dataclasses import asdict, replace

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import lanecast.layers
import lanecast.model
from lanecast.errors import ConfigError, DataError, ShapeError
from lanecast.gradcheck import gradient_check
from lanecast.layers import conv2d_valid
from lanecast.losses import composite_loss
from lanecast.model import (
    BUNDLE_FORMAT,
    BUNDLE_SCHEMA_VERSION,
    ArchitectureConfig,
    ConvForecaster,
    PersistenceModel,
    load_bundle,
    param_shapes,
    save_bundle,
)
from lanecast.pipeline import (
    CorridorShape,
    NormalizationParams,
    Records,
    SampleSet,
    fit_normalization,
    grid_windows,
    group_records,
)
from lanecast.synth import SynthConfig, generate
from lanecast.training import TrainConfig, train
from sample_sets import sample_set


def toy_config(seed=0, **overrides):
    shape = CorridorShape(detectors=4, steps=5, lanes=2)
    defaults = dict(filters_per_layer=(4, 4, 4), fc_hidden=16, seed=seed)
    defaults.update(overrides)
    return ArchitectureConfig(shape=shape, **defaults)


def corridor_config(seed=0):
    shape = CorridorShape(detectors=10, steps=8, lanes=4)
    return ArchitectureConfig(shape=shape, seed=seed)


def random_set(shape, batch=3, seed=1):
    """A set of `batch` windows of random histories and zero targets."""
    rng = np.random.default_rng(seed)
    k, n, c = shape.detectors, shape.steps, shape.lanes
    targets = np.zeros((batch, k * c))
    return sample_set(rng.random((batch, k, n, c)), rng.random((batch, k, n, c)),
                      targets, targets, np.arange(batch) * shape.interval)


class TestArchitecture:
    def test_shape_chain_at_corridor_scale(self):
        config = corridor_config()
        assert config.conv_map_shapes() == [(9, 7), (8, 6), (7, 5)]
        assert config.flat_size == 7 * 5 * 32
        assert config.targets_per_quantity == 40

    def test_conv_stack_must_fit(self):
        shape = CorridorShape(detectors=3, steps=8, lanes=1)
        with pytest.raises(ConfigError, match="does not fit"):
            ArchitectureConfig(shape=shape)

    def test_invalid_dropout_rejected(self):
        with pytest.raises(ConfigError):
            toy_config(dropout_conv=1.0)

    def test_stream_initializers_share_distribution(self):
        params = ConvForecaster(toy_config(seed=3)).param_arrays()
        fr, fc = 2, 2
        in_channels = 2
        for idx in range(1, 4):
            bound = np.sqrt(6.0 / (fr * fc * in_channels))
            weights = [params[f"{stream}_conv{idx}.weights"] for stream in ("speed", "volume")]
            assert weights[0].shape == weights[1].shape
            for stream in ("speed", "volume"):
                assert np.abs(params[f"{stream}_conv{idx}.weights"]).max() <= bound
                assert (params[f"{stream}_conv{idx}.biases"] == 0.0).all()
            in_channels = weights[0].shape[0]

    # sha256 of the concatenated param_arrays() bytes, recorded before the two
    # model classes were merged: pins the draw order of initialization
    @pytest.mark.parametrize(
        "size, kind, digest",
        [
            ("toy", "two_stream", "7473987087baa760dcfc640e8430312b2e7e13f39554dbc6c40209a73a7b0648"),
            ("toy", "single_stream", "30b543d50d2ad0a52cddff110560ba6fb00a6ad6c6916059c2e47a1bb99bda66"),
            ("corridor", "two_stream", "c28d12f3a353b36bb230a7d8547a0163e8af6cc852147c70d52b1314b153015d"),
            ("corridor", "single_stream", "c733dcd8ff38ebc5da5e4c27d7c065d30ca59020614ad6bf4a1417730374409b"),
        ],
    )
    def test_initialization_is_pinned(self, size, kind, digest):
        config = toy_config(seed=3) if size == "toy" else corridor_config(seed=2024)
        sha = hashlib.sha256()
        for array in ConvForecaster(config, kind).param_arrays().values():
            sha.update(array.tobytes())
        assert sha.hexdigest() == digest

    @pytest.mark.parametrize("kind", ["two_stream", "single_stream"])
    def test_param_arrays_follow_the_shape_table(self, kind):
        config = toy_config()
        arrays = ConvForecaster(config, kind).param_arrays()
        shapes = [(name, array.shape) for name, array in arrays.items()]
        assert shapes == list(param_shapes(config, kind).items())

    def test_unknown_kind_rejected(self):
        with pytest.raises(ConfigError, match="kind"):
            ConvForecaster(toy_config(), "three_stream")


class TestForward:
    def test_zero_params_zero_output(self):
        config = toy_config()
        model = ConvForecaster(config)
        for array in model.param_arrays().values():
            array[...] = 0.0
        pred_u, pred_q = model.predict_batch(random_set(config.shape))
        assert (pred_u == 0.0).all() and (pred_q == 0.0).all()

    def test_output_lengths(self):
        config = corridor_config()
        model = ConvForecaster(config)
        pred_u, pred_q = model.predict_batch(random_set(config.shape, batch=2))
        assert pred_u.shape == (2, 40)
        assert pred_q.shape == (2, 40)

    def test_infer_mode_deterministic(self):
        config = toy_config(seed=5)
        model = ConvForecaster(config)
        samples = random_set(config.shape)
        first = model.predict_batch(samples)
        second = model.predict_batch(samples)
        assert np.array_equal(first[0], second[0])
        assert np.array_equal(first[1], second[1])

    def test_wrong_shape_rejected(self):
        config = toy_config()
        for kind in ("two_stream", "single_stream"):
            model = ConvForecaster(config, kind)
            # other detectors, then the same detectors and lanes but other steps
            for other in (dict(detectors=3), dict(steps=6)):
                samples = random_set(replace(config.shape, **other))
                with pytest.raises(ShapeError, match=r"windows must be 5 steps of \(4, 2\) grid rows"):
                    model.predict_batch(samples)

    @pytest.mark.parametrize("model", [ConvForecaster(toy_config()), PersistenceModel()],
                             ids=["conv", "persistence"])
    def test_empty_set_is_data_error(self, model):
        with pytest.raises(DataError, match="empty sample set"):
            model.predict_batch(random_set(toy_config().shape)[:0])

    def test_train_mode_needs_rng_for_dropout(self):
        config = toy_config()
        model = ConvForecaster(config)
        with pytest.raises(ValueError):
            model.forward_batch(random_set(config.shape), mode="train")


SEGMENT = 64  # lanecast.model._SEGMENT: windows per block of grid rows


def biased_model(config, kind="two_stream", seed=0):
    """A fresh model whose biases are non-zero, so every bias add shows."""
    model = ConvForecaster(config, kind)
    rng = np.random.default_rng(seed)
    for name, array in model.param_arrays().items():
        if name.endswith(".biases"):
            array[...] = rng.normal(0.0, 0.2, array.shape)
    return model


def per_window_pass(model, speed_x, volume_x):
    """The oracle of the infer-mode forward: every window's history arrays
    convolved on their own, as a train pass does. Returns
    (pred_speed, pred_volume, {stream: [input, relu outputs...]})."""
    given = {"speed": speed_x, "volume": volume_x}
    acts = {}
    for stream in model.streams:
        stream_acts = [given[stream]]
        for bank in model._banks[stream]:
            stream_acts.append(np.maximum(conv2d_valid(stream_acts[-1], bank), 0.0))
        acts[stream] = stream_acts
    flats = [acts[s][-1].reshape(len(speed_x), -1) for s in model.streams]
    pred_u, pred_q, _ = model._head(flats, {})
    return pred_u, pred_q, acts


def assert_matches_per_window(model, samples):
    # the infer cache is the rollout state: the input's and each lower
    # layer's newest filter_cols columns, then the top layer in full
    pred_u, pred_q, cache = model.forward_batch(samples)
    want_u, want_q, want_acts = per_window_pass(model, samples.speed_history, samples.volume_history)
    assert pred_u.tobytes() == want_u.tobytes()
    assert (pred_q is None and want_q is None) or pred_q.tobytes() == want_q.tobytes()
    for stream, want in want_acts.items():
        keeps = [bank.filter_cols for bank in model._banks[stream]]
        tails = [a[:, :, -keep:] for a, keep in zip(want, keeps)] + want[-1:]
        got = cache.streams[stream].acts
        assert [a.shape for a in got] == [a.shape for a in tails]
        assert all(a.flags.c_contiguous for a in got)
        assert [a.tobytes() for a in got] == [a.tobytes() for a in tails]


def run_lengths(samples):
    """Lengths of the batch's runs of windows one interval apart."""
    steps = np.diff(samples.origin_timestamps)
    breaks = np.flatnonzero(steps != steps.min()) + 1
    return np.diff(np.concatenate(([0], breaks, [len(samples)]))).tolist()


def chronological_windows(shape, seed):
    """Windows from grid_windows on a two-day synth corpus with one
    timestamp's records removed, picked in order so that the batch holds runs
    of 2S+3, 1, S-1, S+1, S and 5 windows: skipped windows end the first
    three, the removed timestamp ends the fourth, one skipped window the fifth."""
    records = generate(SynthConfig(shape=shape, days=2, seed=seed))
    keep = records.timestamp != 300 * shape.interval
    records = Records(*(getattr(records, name)[keep] for name in
                        ("timestamp", "detector_index", "lane", "speed", "volume")))
    samples = grid_windows(group_records(records, shape), shape, fit_normalization(records))
    gap = int(np.flatnonzero(np.diff(samples.origin_timestamps) != shape.interval)[0]) + 1
    picks = [range(0, 2 * SEGMENT + 3), range(2 * SEGMENT + 5, 2 * SEGMENT + 6),
             range(2 * SEGMENT + 8, 3 * SEGMENT + 7), range(gap - SEGMENT - 1, gap + SEGMENT),
             range(gap + SEGMENT + 1, gap + SEGMENT + 6)]
    batch = samples[np.concatenate([np.arange(r.start, r.stop) for r in picks])]
    assert run_lengths(batch) == [2 * SEGMENT + 3, 1, SEGMENT - 1, SEGMENT + 1, SEGMENT, 5]
    return batch


SHARED_COLUMN_CASES = [
    (CorridorShape(4, 8, 2), (3, 4, 5), (2, 1)),
    (CorridorShape(4, 8, 2), (3, 4, 5), (1, 3)),
    (CorridorShape(4, 8, 2), (3, 4, 5), (2, 2)),
    (CorridorShape(10, 8, 4), (32, 32, 32), (2, 2)),  # the paper's corridor
]


class TestSharedColumns:
    @pytest.mark.parametrize("order", ["chronological", "shuffled", "reversed", "gapped"])
    @pytest.mark.parametrize("kind", ["two_stream", "single_stream"])
    @pytest.mark.parametrize("shape, filters, filter_size", SHARED_COLUMN_CASES,
                             ids=["filter-2x1", "filter-1x3", "filter-2x2", "corridor"])
    def test_matches_per_window_pass(self, shape, filters, filter_size, kind, order):
        config = ArchitectureConfig(shape=shape, filters_per_layer=filters,
                                    filter_size=filter_size, fc_hidden=16, seed=40)
        model = biased_model(config, kind, seed=41)
        batch = chronological_windows(shape, seed=42)
        if order == "shuffled":
            batch = batch[np.random.default_rng(43).permutation(len(batch))]
        elif order == "reversed":
            batch = batch[::-1]
        elif order == "gapped":
            # no window starts in the second and third blocks of the span
            batch = batch[np.r_[0:SEGMENT // 2, 3 * SEGMENT:len(batch)]]
        assert_matches_per_window(model, batch)

    def test_shuffled_batch_convolves_window_by_window(self, monkeypatch):
        calls = []

        def recorder(route, conv):
            def record(x, bank):
                calls.append((route, x.shape))
                return conv(x, bank)
            return record

        monkeypatch.setattr(lanecast.model, "conv2d_valid", recorder("model", conv2d_valid))
        monkeypatch.setattr(lanecast.layers, "conv2d_valid", recorder("layers", conv2d_valid))
        batch = chronological_windows(CorridorShape(10, 8, 4), seed=48)[:SEGMENT * 2]
        order = np.random.default_rng(49).permutation(len(batch))[:SEGMENT]
        batch = batch[order]
        model = ConvForecaster(corridor_config(seed=50))
        model.forward_batch(batch, mode="train", rng=np.random.default_rng(51))
        per_stream = [("model", (64, 10, 8, 4)), ("model", (64, 9, 7, 32)), ("model", (64, 8, 6, 32))]
        assert calls == per_stream * 2

    def test_chronological_batch_convolves_segments(self, monkeypatch):
        # every infer-mode call goes through `lanecast.layers`: perfbench's
        # hook on `lanecast.model.conv2d_valid` looks a layer up by its
        # per-window input shape, which blocks and column slices lack
        calls = []

        def recorder(route):
            def record(x, bank):
                calls.append((route, x.shape))
                return conv2d_valid(x, bank)
            return record

        monkeypatch.setattr(lanecast.model, "conv2d_valid", recorder("model"))
        monkeypatch.setattr(lanecast.layers, "conv2d_valid", recorder("layers"))
        samples = chronological_windows(CorridorShape(10, 8, 4), seed=52)
        model = ConvForecaster(corridor_config(seed=53))
        wide = SEGMENT + 7  # steps + S - 1 columns
        per_stream = [(2, 10, wide, 4), (2, 9, wide - 1, 32), (2, 8, wide - 2, 32)]
        # S + 1 windows in a row fill two blocks; so do two windows 2S + 1
        # rows apart, whose span's middle block holds none of them
        for batch in (samples[:SEGMENT + 1], samples[[0, 2 * SEGMENT + 1]]):
            calls.clear()
            model.predict_batch(batch)
            assert calls == [("layers", x) for x in per_stream * 2]
        # a 3-step rollout: the blocks, then at each later step every layer's
        # newest filter_cols input columns
        calls.clear()
        list(model.rollout(samples[:SEGMENT + 1], 3))
        columns = [(SEGMENT + 1, 10, 2, 4), (SEGMENT + 1, 9, 2, 32), (SEGMENT + 1, 8, 2, 32)]
        assert calls == [("layers", x) for x in per_stream * 2 + columns * 4]


class TestBackward:
    def test_zero_upstream_gradient(self):
        config = toy_config(seed=7)
        model = ConvForecaster(config)
        rng = np.random.default_rng(0)
        _, _, cache = model.forward_batch(random_set(config.shape), mode="train", rng=rng)
        zeros = np.zeros((3, config.targets_per_quantity))
        grads = model.backward_batch(cache, zeros, zeros)
        assert all((g == 0.0).all() for g in grads.values())

    # toy cases use the seeds of the two tests this one replaced; the
    # corridor cases run at the production shape (default filters and fc
    # width) on a sampled subset of each array's entries
    @pytest.mark.parametrize(
        "kind, size, seed, data_seed",
        [
            ("two_stream", "toy", 8, 2),
            ("two_stream", "corridor", 2024, 2),
            ("single_stream", "toy", 13, 4),
            ("single_stream", "corridor", 2024, 4),
        ],
        ids=["two_stream-toy", "two_stream-corridor", "single_stream-toy", "single_stream-corridor"],
    )
    def test_full_model_gradient_check(self, kind, size, seed, data_seed):
        config = toy_config(seed=seed) if size == "toy" else corridor_config(seed=seed)
        model = ConvForecaster(config, kind)
        shape = config.shape
        rng = np.random.default_rng(data_seed)
        xu, xq = rng.random((2, 1, shape.detectors, shape.steps, shape.lanes))
        yu, yq = rng.random((2, 1, config.targets_per_quantity))
        samples = sample_set(xu, xq, yu, yq, [0])

        pred_u, pred_q, cache = model.forward_batch(samples, mode="train", rng=rng)
        # an all-zero fused vector would put every hidden unit on the Relu
        # kink, where central differences are undefined
        assert (cache.fused != 0.0).any()
        masks = cache.masks
        _, grad_u, grad_q = composite_loss(pred_u, pred_q, yu, yq, 0.1)
        grads = model.backward_batch(cache, grad_u, grad_q)

        def loss_fn():
            pu, pq, _ = model.forward_batch(samples, mode="train", masks=masks)
            return composite_loss(pu, pq, yu, yq, 0.1)[0]

        report = gradient_check(
            loss_fn, model.param_arrays(), grads,
            step=1e-6, tolerance=1e-5,
            rng=np.random.default_rng(data_seed + 1), max_entries=40 if size == "toy" else 12,
        )
        assert report.passed, report.summary()

    def test_zero_weight_detaches_volume_gradient(self):
        config = toy_config(seed=9)
        model = ConvForecaster(config)
        samples = random_set(config.shape, batch=2)
        rng = np.random.default_rng(1)
        yu = rng.random((2, 8))
        yq = rng.random((2, 8))
        pred_u, pred_q, cache = model.forward_batch(samples, mode="train", rng=rng)
        _, grad_u, grad_q = composite_loss(pred_u, pred_q, yu, yq, 0.0)
        assert (grad_q == 0.0).all()
        # volume half of the head's weight rows receives gradient only
        # through the volume loss, so it must be exactly zero here
        grads = model.backward_batch(cache, grad_u, grad_q)
        n = config.targets_per_quantity
        assert (grads["output.weights"][n:, :] == 0.0).all()
        assert (grads["output.biases"][n:] == 0.0).all()
        assert not (grads["output.weights"][:n, :] == 0.0).all()

    def test_backward_without_cache_rejected(self):
        model = ConvForecaster(toy_config())
        with pytest.raises(ShapeError):
            model.backward_batch(None, np.zeros((1, 8)), np.zeros((1, 8)))

    def test_backward_from_infer_cache_rejected(self):
        # an infer pass caches only the rollout state, not every activation
        model = ConvForecaster(toy_config())
        pred_u, pred_q, cache = model.forward_batch(random_set(toy_config().shape))
        with pytest.raises(ShapeError, match="train-mode forward"):
            model.backward_batch(cache, np.zeros_like(pred_u), np.zeros_like(pred_q))


class TestSingleStream:
    def test_output_length_and_zero_params(self):
        config = toy_config(seed=10)
        model = ConvForecaster(config, "single_stream")
        for array in model.param_arrays().values():
            array[...] = 0.0
        pred_u, pred_q = model.predict_batch(random_set(config.shape))
        assert pred_u.shape == (3, config.targets_per_quantity)
        assert pred_q is None
        assert (pred_u == 0.0).all()

    def test_parameter_count_difference(self):
        config = toy_config(seed=11)
        two = ConvForecaster(config, "two_stream")
        one = ConvForecaster(config, "single_stream")
        flat = config.flat_size
        n = config.targets_per_quantity
        volume_stream = sum(
            a.size for name, a in two.param_arrays().items() if name.startswith("volume_")
        )
        fusion_widening = config.fc_hidden * flat
        head_widening = n * config.fc_hidden + n
        expected_diff = volume_stream + fusion_widening + head_widening
        assert two.param_count() - one.param_count() == expected_diff

    def test_analytic_parameter_count(self):
        config = toy_config(seed=12)
        model = ConvForecaster(config, "single_stream")
        fr, fc = config.filter_size
        counts = 0
        in_channels = config.shape.lanes
        for f in config.filters_per_layer:
            counts += f * fr * fc * in_channels + f
            in_channels = f
        counts += config.fc_hidden * config.flat_size + config.fc_hidden
        n = config.targets_per_quantity
        counts += n * config.fc_hidden + n
        assert model.param_count() == counts

class TestPersistence:
    def test_constant_sample(self):
        window = np.full((1, 3, 4, 2), 0.7)
        samples = sample_set(window, window, np.zeros((1, 6)), np.zeros((1, 6)), [0])
        pred_u, pred_q = PersistenceModel().predict_batch(samples)
        assert pred_u.shape == pred_q.shape == (1, 6)
        assert (pred_u == 0.7).all() and (pred_q == 0.7).all()

    def test_equals_last_column_layout(self):
        # overlapping windows of one pair of grids: each one's newest history row
        rng = np.random.default_rng(14)
        speed, volume = rng.random((2, 8, 3, 2))
        samples = SampleSet(speed, volume, np.arange(8) * 300, np.array([0, 1, 3]), 4)
        pred_u, pred_q = PersistenceModel().predict_batch(samples)
        assert np.array_equal(pred_u, samples.speed_history[:, :, -1, :].reshape(3, -1))
        assert np.array_equal(pred_q, samples.volume_history[:, :, -1, :].reshape(3, -1))

    def test_model_wrapper(self):
        rng = np.random.default_rng(15)
        xu = rng.random((2, 3, 4, 2))
        xq = rng.random((2, 3, 4, 2))
        samples = sample_set(xu, xq, np.zeros((2, 6)), np.zeros((2, 6)), [0, 300])
        pred_u, pred_q = PersistenceModel().predict_batch(samples)
        assert np.array_equal(pred_u, xu[:, :, -1, :].reshape(2, -1))
        assert np.array_equal(pred_q, xq[:, :, -1, :].reshape(2, -1))


def json_bundle(model, norm) -> bytes:
    """The bundle as save_bundle wrote it with one json.dumps of the document."""
    doc = {
        "format": BUNDLE_FORMAT,
        "schema_version": BUNDLE_SCHEMA_VERSION,
        "kind": model.kind,
        "corridor": asdict(model.config.shape),
        "architecture": {k: v for k, v in asdict(model.config).items() if k != "shape"},
        "normalization": asdict(norm),
        "params": {
            name: {"shape": list(array.shape), "data": array.reshape(-1).tolist()}
            for name, array in model.param_arrays().items()
        },
    }
    return json.dumps(doc, sort_keys=True).encode()


# every finite double, and the ones a decimal writer gets wrong most easily
PARAMETER = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from([0.0, -0.0, 5e-324, -2.5e-323, 2.2250738585072014e-308, 1e-300, -1e300,
                     1e300, 1.7976931348623157e308, 2.0**-1022, 2.0**-30, 2.0**52, -2.0**60]),
)


class TestBundle:
    def norm(self):
        return NormalizationParams(0.5, 75.0, 0.0, 260.0)

    @pytest.mark.parametrize("kind", ["two_stream", "single_stream"])
    def test_bytes_match_json_dumps_at_corridor_shape(self, tmp_path, kind):
        model = ConvForecaster(corridor_config(seed=30), kind)
        path = tmp_path / "model.json"
        save_bundle(path, model, self.norm())
        assert path.read_bytes() == json_bundle(model, self.norm())

    # 280 values are the toy fusion layer's weights: its last piece is full
    @pytest.mark.parametrize("piece", [1, 7, 280])
    def test_bytes_match_json_dumps_when_written_in_pieces(self, tmp_path, monkeypatch, piece):
        monkeypatch.setattr(lanecast.model, "_SAVE_VALUES", piece)
        model = ConvForecaster(toy_config(seed=33))
        path = tmp_path / "model.json"
        save_bundle(path, model, self.norm())
        assert path.read_bytes() == json_bundle(model, self.norm())

    def test_non_finite_parameter_refused_before_writing(self, tmp_path):
        model = ConvForecaster(toy_config(seed=31))
        model.param_arrays()["fusion.weights"][2, 3] = np.nan
        path = tmp_path / "model.json"
        with pytest.raises(DataError, match="parameter 'fusion.weights' has non-finite values"):
            save_bundle(path, model, self.norm())
        assert not path.exists()

    def test_unwritable_path_is_data_error(self, tmp_path):
        path = tmp_path / "missing" / "model.json"
        with pytest.raises(DataError, match=re.escape(f"cannot write {path}: ")):
            save_bundle(path, ConvForecaster(toy_config(seed=34)), self.norm())
        assert list(tmp_path.iterdir()) == []

    @settings(max_examples=600, derandomize=True, database=None, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(values=arrays(np.float64, 280, elements=PARAMETER))
    def test_save_load_round_trip_is_exact(self, tmp_path, values):
        # toy_config has 280 parameters in the fusion layer's weights alone
        model = ConvForecaster(toy_config(seed=32))
        for array in model.param_arrays().values():
            array.reshape(-1)[:] = np.resize(values, array.size)
        path = tmp_path / "model.json"
        save_bundle(path, model, self.norm())
        assert path.read_bytes() == json_bundle(model, self.norm())
        loaded, _ = load_bundle(path)
        for name, array in model.param_arrays().items():
            restored = loaded.param_arrays()[name]
            assert restored.view(np.uint64).tolist() == array.view(np.uint64).tolist()

    def test_saved_bytes_are_pinned(self, tmp_path):
        # digest recorded before the architecture block was built from the
        # dataclass fields; the int-valued dropout_conv must stay a JSON 0
        path = tmp_path / "model.json"
        save_bundle(path, ConvForecaster(toy_config(seed=25, dropout_conv=0)), self.norm())
        digest = hashlib.sha256(path.read_bytes()).hexdigest()
        assert digest == "6c1c045abf63b6d06b57d5aaa5b3954c22e247e92b5efa9e2b7ce88e9e26f9dd"

    # digests recorded before the train step became one path for both kinds
    @pytest.mark.parametrize(
        "kind, digest",
        [
            ("two_stream", "f1a5907a185b55e82ae166dbce2721e86664e24a46be7ead65c11b84885c55ae"),
            ("single_stream", "2320d5c036efcb321135a325a847be1d8be2910f57dc0f50428fd93079417b55"),
        ],
    )
    def test_trained_bytes_are_pinned(self, tmp_path, kind, digest):
        # two epochs with dropout on: pins loss, backward, dropout draws and optimizer
        config = toy_config(seed=27)
        k, n, c = config.shape.detectors, config.shape.steps, config.shape.lanes
        rng = np.random.default_rng(28)
        samples = sample_set(
            rng.random((12, k, n, c)), rng.random((12, k, n, c)),
            rng.random((12, k * c)), rng.random((12, k * c)),
            np.arange(12, dtype=np.int64) * config.shape.interval,
        )
        model = ConvForecaster(config, kind)
        train(model, samples, TrainConfig(epochs=2, seed=29, batch_size=4, learning_rate=1e-3))
        path = tmp_path / "model.json"
        save_bundle(path, model, self.norm())
        assert hashlib.sha256(path.read_bytes()).hexdigest() == digest

    def test_round_trip_forward_bit_exact(self, tmp_path):
        config = toy_config(seed=16)
        model = ConvForecaster(config)
        path = tmp_path / "model.json"
        save_bundle(path, model, self.norm())
        loaded, norm = load_bundle(path)
        assert norm == self.norm()
        samples = random_set(config.shape)
        original = model.predict_batch(samples)
        restored = loaded.predict_batch(samples)
        assert np.array_equal(original[0], restored[0])
        assert np.array_equal(original[1], restored[1])

    def test_single_stream_round_trip(self, tmp_path):
        config = toy_config(seed=17)
        model = ConvForecaster(config, "single_stream")
        path = tmp_path / "model.json"
        save_bundle(path, model, self.norm())
        loaded, _ = load_bundle(path)
        assert loaded.kind == "single_stream"
        samples = random_set(config.shape)
        assert np.array_equal(model.predict_batch(samples)[0], loaded.predict_batch(samples)[0])

    def test_repeated_save_is_byte_identical(self, tmp_path):
        model = ConvForecaster(toy_config(seed=18))
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        save_bundle(a, model, self.norm())
        save_bundle(b, model, self.norm())
        assert a.read_bytes() == b.read_bytes()

    def test_truncated_file_rejected(self, tmp_path):
        model = ConvForecaster(toy_config(seed=19))
        path = tmp_path / "model.json"
        save_bundle(path, model, self.norm())
        path.write_text(path.read_text()[:1000])
        with pytest.raises(DataError, match="corrupt"):
            load_bundle(path)

    def test_missing_normalization_rejected(self, tmp_path):
        model = ConvForecaster(toy_config(seed=20))
        path = tmp_path / "model.json"
        save_bundle(path, model, self.norm())
        doc = json.loads(path.read_text())
        del doc["normalization"]
        path.write_text(json.dumps(doc))
        with pytest.raises(DataError, match="normalization"):
            load_bundle(path)

    def test_wrong_parameter_shape_rejected(self, tmp_path):
        model = ConvForecaster(toy_config(seed=21))
        path = tmp_path / "model.json"
        save_bundle(path, model, self.norm())
        doc = json.loads(path.read_text())
        doc["params"]["fusion.biases"]["shape"] = [7]
        path.write_text(json.dumps(doc))
        with pytest.raises(DataError, match="shape"):
            load_bundle(path)

    def test_missing_file_rejected(self, tmp_path):
        with pytest.raises(DataError, match="cannot read"):
            load_bundle(tmp_path / "absent.json")

    def test_parameter_entry_without_data_rejected(self, tmp_path):
        model = ConvForecaster(toy_config(seed=23))
        path = tmp_path / "model.json"
        save_bundle(path, model, self.norm())
        doc = json.loads(path.read_text())
        del doc["params"]["fusion.biases"]["data"]
        path.write_text(json.dumps(doc))
        with pytest.raises(DataError, match="'shape' and 'data'"):
            load_bundle(path)

    def test_wrong_schema_version_rejected(self, tmp_path):
        model = ConvForecaster(toy_config(seed=22))
        path = tmp_path / "model.json"
        save_bundle(path, model, self.norm())
        doc = json.loads(path.read_text())
        doc["schema_version"] = 99
        path.write_text(json.dumps(doc))
        with pytest.raises(DataError, match="schema"):
            load_bundle(path)

    @pytest.mark.parametrize(
        "value, match",
        [
            (10**400, "out of range"),
            (True, "flat list of numbers"),
            ([0.5], "flat list of numbers"),
            ("1.5", "flat list of numbers"),
        ],
        ids=["400-digit-int", "true", "nested", "string"],
    )
    def test_data_that_is_not_a_flat_list_of_numbers_rejected(self, tmp_path, value, match):
        model = ConvForecaster(toy_config(seed=25))
        path = tmp_path / "model.json"
        save_bundle(path, model, self.norm())
        doc = json.loads(path.read_text())
        data = doc["params"]["fusion.weights"]["data"]
        if isinstance(value, list):  # every value its own one-element list
            doc["params"]["fusion.weights"]["data"] = [[v] for v in data]
        else:
            data[7] = value
        path.write_text(json.dumps(doc))
        with pytest.raises(DataError, match=match):
            load_bundle(path)

    @pytest.mark.parametrize("text", ["[" * 100_000, '{"format": ' + "1" * 5000 + "}"],
                             ids=["deeply-nested", "5000-digit-int"])
    def test_json_the_parser_refuses_rejected(self, tmp_path, text):
        path = tmp_path / "model.json"
        path.write_text(text)
        with pytest.raises(DataError, match="corrupt bundle"):
            load_bundle(path)

    def test_non_utf8_bundle_rejected(self, tmp_path):
        path = tmp_path / "model.json"
        save_bundle(path, ConvForecaster(toy_config(seed=26)), self.norm())
        text = path.read_bytes()
        path.write_bytes(text[:40] + b"\xff" + text[40:])
        with pytest.raises(DataError, match="not UTF-8"):
            load_bundle(path)

    def test_huge_layer_rejected_before_allocation(self, tmp_path):
        # a model of these filter counts would need 116 TiB of parameters
        path = tmp_path / "model.json"
        save_bundle(path, ConvForecaster(toy_config(seed=33)), self.norm())
        doc = json.loads(path.read_text())
        doc["architecture"]["filters_per_layer"] = [4, 4, 10**12]
        path.write_text(json.dumps(doc))
        with pytest.raises(DataError, match=r"'speed_conv3.weights' has shape \[4, 2, 2, 4\]"):
            load_bundle(path)

    @pytest.mark.parametrize(
        "poison, match",
        [
            ("nan_weight", "non-finite"),
            ("infinite_bound", "finite"),
            ("string_bounds", "number"),
            ("params_list", "params must be an object"),
            ("params_null", "params must be an object"),
            ("shape_number", "shape"),
            ("fractional_detectors", "integer"),
            ("filter_string", "invalid configuration"),
            ("negative_seed", "seed must be >= 0"),
            ("interval_beyond_int64", "interval must be positive seconds below 2"),
            ("bound_beyond_double", "speed_max must be a finite number"),
            ("dropout_beyond_double", "dropout_fc must be a finite number"),
            ("overflowing_width", "invalid configuration: speed range"),
        ],
    )
    def test_poisoned_values_rejected(self, tmp_path, poison, match):
        model = ConvForecaster(toy_config(seed=24))
        path = tmp_path / "model.json"
        save_bundle(path, model, self.norm())
        doc = json.loads(path.read_text())
        if poison == "nan_weight":
            doc["params"]["fusion.weights"]["data"][5] = float("nan")
        elif poison == "infinite_bound":
            doc["normalization"]["speed_max"] = float("inf")
        elif poison == "string_bounds":
            doc["normalization"].update(speed_min="a", speed_max="b")
        elif poison == "params_list":
            doc["params"] = list(doc["params"].values())
        elif poison == "params_null":
            doc["params"] = None
        elif poison == "shape_number":
            doc["params"]["fusion.biases"]["shape"] = 5
        elif poison == "fractional_detectors":
            doc["corridor"]["detectors"] = 4.5
        elif poison == "filter_string":
            doc["architecture"]["filters_per_layer"] = "ab"
        elif poison == "negative_seed":
            doc["architecture"]["seed"] = -1
        elif poison == "interval_beyond_int64":
            doc["corridor"]["interval"] = 2**63
        elif poison == "bound_beyond_double":
            doc["normalization"]["speed_max"] = 10**400
        elif poison == "dropout_beyond_double":
            doc["architecture"]["dropout_fc"] = 10**400
        else:
            doc["normalization"].update(speed_min=-1e308, speed_max=1e308)
        path.write_text(json.dumps(doc))
        with pytest.raises(DataError, match=match):
            load_bundle(path)
