import hashlib
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from lanecast.errors import ConfigError, DataError, ShapeError
from lanecast.fileio import parse_rows
from lanecast import pipeline
from lanecast.pipeline import (
    CSV_HEADER,
    CorridorShape,
    NormalizationParams,
    Records,
    SampleSet,
    build_samples,
    denormalize,
    fit_normalization,
    group_records,
    normalize,
    prepare_dataset,
    read_records,
    split_dataset,
    train_count,
    window_origins,
    write_records,
)
from lanecast.synth import SynthConfig, generate
from sample_sets import sample_set

HEADER = "timestamp,detector_index,lane,speed,volume\n"


def as_records(rows) -> Records:
    """Records from (timestamp, detector_index, lane, speed, volume) tuples."""
    table = np.array(rows, dtype=pipeline._ROW)
    return Records(*(table[name].copy() for name in CSV_HEADER))


def take(records, key) -> Records:
    """The rows of `records` that a numpy index array or mask picks."""
    return Records(*(getattr(records, name)[key] for name in CSV_HEADER))


def join(*parts) -> Records:
    """The rows of every part, in order."""
    return Records(*(np.concatenate([getattr(part, name) for part in parts]) for name in CSV_HEADER))


def make_records(shape, values, base_ts=0):
    """values: dict timestamp-step -> (detectors, lanes) speed array; volume = speed + 100."""
    rows = []
    for step, grid in values.items():
        ts = base_ts + step * shape.interval
        for i in range(shape.detectors):
            for l in range(shape.lanes):
                speed = float(grid[i][l])
                rows.append((ts, i + 1, l + 1, speed, speed + 100.0))
    return as_records(rows)


def dense_corpus(shape, num_steps, seed=0):
    rng = np.random.default_rng(seed)
    values = {t: 20.0 + 40.0 * rng.random((shape.detectors, shape.lanes)) for t in range(num_steps)}
    return make_records(shape, values), values


class TestNormalize:
    def test_endpoints(self):
        assert normalize(20.0, 20.0, 60.0) == 0.0
        assert normalize(60.0, 20.0, 60.0) == 1.0

    def test_midpoint(self):
        assert normalize(30.0, 0.0, 60.0) == 0.5

    def test_round_trip(self):
        rng = np.random.default_rng(41)
        for _ in range(100):
            lo, width = rng.uniform(0, 50), rng.uniform(1, 80)
            value = lo + rng.random() * width
            back = denormalize(normalize(value, lo, lo + width), lo, lo + width)
            assert back == pytest.approx(value, abs=1e-12 * max(1.0, abs(value)))

    def test_out_of_range_clamps(self):
        assert normalize(100.0, 0.0, 60.0) == 1.0
        assert normalize(-5.0, 0.0, 60.0) == 0.0

    def test_degenerate_range_rejected(self):
        with pytest.raises(DataError):
            normalize(1.0, 5.0, 5.0)
        with pytest.raises(DataError):
            NormalizationParams(10.0, 10.0, 0.0, 1.0)


class TestFitNormalization:
    def test_min_max_over_records(self):
        shape = CorridorShape(2, 2, 1)
        records = make_records(shape, {0: [[20.0], [60.0]], 1: [[40.0], [40.0]]})
        norm = fit_normalization(records)
        assert norm.speed_min == 20.0
        assert norm.speed_max == 60.0

    def test_range_restriction(self):
        shape = CorridorShape(2, 2, 1)
        records = make_records(shape, {0: [[20.0], [30.0]], 1: [[90.0], [90.0]]})
        norm = fit_normalization(records, end=0)
        assert norm.speed_max == 30.0
        # later value above the fitted max clamps to 1.0
        assert norm.normalize_speed(90.0) == 1.0

    def test_single_value_degenerate(self):
        shape = CorridorShape(2, 2, 1)
        records = make_records(shape, {0: [[30.0], [30.0]]})
        with pytest.raises(DataError, match="degenerate"):
            fit_normalization(records)

    def test_empty_range(self):
        shape = CorridorShape(2, 2, 1)
        records = make_records(shape, {0: [[30.0], [40.0]]})
        with pytest.raises(DataError, match="no records"):
            fit_normalization(records, start=10_000)


class TestBuildSamples:
    def test_hand_built_window(self):
        shape = CorridorShape(detectors=2, steps=2, lanes=1, interval=300)
        values = {0: [[10.0], [40.0]], 1: [[20.0], [50.0]], 2: [[30.0], [60.0]]}
        records = make_records(shape, values)
        norm = fit_normalization(records)
        samples = build_samples(records, shape, norm)
        assert len(samples) == 1
        s = samples[0]
        assert s.origin_timestamps[0] == 300
        # columns in time order, rows in milepost order, channel = lane
        assert s.speed_history[0, 0, 0, 0] == norm.normalize_speed(10.0)
        assert s.speed_history[0, 0, 1, 0] == norm.normalize_speed(20.0)
        assert s.speed_history[0, 1, 0, 0] == norm.normalize_speed(40.0)
        assert s.speed_history[0, 1, 1, 0] == norm.normalize_speed(50.0)
        assert np.array_equal(
            s.speed_target[0], [norm.normalize_speed(30.0), norm.normalize_speed(60.0)]
        )

    def test_constant_field_normalizes_uniformly(self):
        shape = CorridorShape(2, 2, 2)
        grid = [[25.0, 25.0], [25.0, 25.0]]
        records = make_records(shape, {t: grid for t in range(4)})
        norm = NormalizationParams(0.0, 50.0, 0.0, 200.0)
        samples = build_samples(records, shape, norm)
        for s in samples:
            assert (s.speed_history == 0.5).all()
            assert (s.speed_target == 0.5).all()

    def test_window_count_gap_free(self):
        shape = CorridorShape(2, 3, 1)
        for total in (4, 7, 11):
            records, _ = dense_corpus(shape, total, seed=total)
            norm = fit_normalization(records)
            assert len(build_samples(records, shape, norm)) == total - shape.steps

    def test_too_short_corpus_gives_empty_set(self):
        shape = CorridorShape(2, 2, 1)
        records, _ = dense_corpus(shape, 2, seed=2)
        samples = build_samples(records, shape, fit_normalization(records))
        assert len(samples) == 0
        assert samples.speed_history.shape == (0, 2, 2, 1)
        assert samples.volume_target.shape == (0, 2)
        assert window_origins(records, shape) == ([], 0)

    def test_missing_record_drops_overlapping_windows(self):
        shape = CorridorShape(2, 2, 1)
        records, _ = dense_corpus(shape, 4, seed=3)
        norm = fit_normalization(records)
        assert len(build_samples(records, shape, norm)) == 2

        # removing one cell at step 1 invalidates every window touching it
        broken = take(records, ~((records.timestamp == 300) & (records.detector_index == 1)))
        origins, dropped = window_origins(broken, shape)
        assert origins == []
        assert dropped == 2

        # a gap at the end only kills the last window
        broken_tail = take(records, ~((records.timestamp == 900) & (records.detector_index == 2)))
        samples = build_samples(broken_tail, shape, norm)
        assert [s.origin_timestamps[0] for s in samples] == [300]

    def test_layout_fidelity_round_trip(self):
        rng = np.random.default_rng(55)
        shape = CorridorShape(detectors=3, steps=4, lanes=2, interval=300)
        records, values = dense_corpus(shape, 9, seed=9)
        norm = fit_normalization(records)
        samples = build_samples(records, shape, norm)
        assert len(samples) == 5
        for n in rng.choice(len(samples), size=3, replace=False):
            s = samples[n]
            origin_step = s.origin_timestamps[0] // shape.interval
            for i in range(shape.detectors):
                for t in range(shape.steps):
                    for l in range(shape.lanes):
                        raw = values[origin_step - (shape.steps - 1 - t)][i][l]
                        back = norm.denormalize_speed(s.speed_history[0, i, t, l])
                        assert back == pytest.approx(raw, abs=1e-12 * max(1.0, raw))

    def test_values_stay_in_unit_interval(self):
        shape = CorridorShape(2, 2, 1)
        records, _ = dense_corpus(shape, 6, seed=4)
        # normalization fitted on a sub-range: later values must clamp
        norm = fit_normalization(records, end=600)
        for s in build_samples(records, shape, norm):
            for arr in (s.speed_history, s.volume_history, s.speed_target, s.volume_target):
                assert (arr >= 0.0).all() and (arr <= 1.0).all()

    def test_misaligned_timestamp_rejected(self):
        shape = CorridorShape(2, 2, 1)
        records, _ = dense_corpus(shape, 3)
        records = join(records, as_records([(301, 1, 1, 10.0, 20.0)]))
        with pytest.raises(DataError, match="aligned"):
            build_samples(records, shape, fit_normalization(records))

    def test_duplicate_record_rejected(self):
        shape = CorridorShape(2, 2, 1)
        records, _ = dense_corpus(shape, 3)
        records = join(records, take(records, [0]))
        with pytest.raises(DataError, match="duplicate"):
            build_samples(records, shape, fit_normalization(records))

    def test_out_of_range_indices_rejected(self):
        shape = CorridorShape(2, 2, 1)
        records, _ = dense_corpus(shape, 3)
        records = join(records, as_records([(0, 5, 1, 10.0, 20.0)]))
        with pytest.raises(DataError, match="detector"):
            build_samples(records, shape, fit_normalization(records))


class TestWindows:
    # sha256 of each window array (and the origins) built by the
    # per-window implementation this one replaced, on a 2-day synthetic
    # corpus with three records removed
    GOLDEN = {
        "speed_history": "e84377f232a5f01d228d3ceccd3f936c73445ecc3241e39278635c478098b3a9",
        "volume_history": "289e06277c9efe8972f3f1e07188198db3a919b9297971d6a495d610336a26c2",
        "speed_target": "6fa3dbf6e28d8803973d72937ea36fe928f2705e1b25b7d90fe1cde937bff75f",
        "volume_target": "103cfcee609f2f96732d85e8c854efdac887708a5b7d5f2d838245b9bb104ed6",
        "origin_timestamps": "9468babdad407b70203532d187f9315722b936a92358c72d2e2a77b607a4d3fc",
    }

    def test_golden_windows(self):
        shape = CorridorShape(10, 8, 4, 300)
        records = generate(SynthConfig(shape=shape, days=2, seed=2024))
        # one cell at each of three timestamps
        records = take(records, np.delete(np.arange(len(records)), [23000, 12345, 3000]))
        norm = fit_normalization(records)
        samples = build_samples(records, shape, norm)
        assert len(samples) == 549
        for name, digest in self.GOLDEN.items():
            array = getattr(samples, name)
            assert array.flags.c_contiguous
            assert array.dtype == (np.int64 if name == "origin_timestamps" else np.float64)
            assert hashlib.sha256(array.tobytes()).hexdigest() == digest, name
        origins, dropped = window_origins(records, shape)
        assert origins == samples.origin_timestamps.tolist()
        assert dropped == 19

    def test_sparse_timestamps_return_at_once(self):
        # two 5-step blocks 10**9 intervals apart, e.g. one stray
        # millisecond timestamp: no work may scale with the gap
        shape = CorridorShape(2, 2, 1)
        far = 300 * 10**9
        block = {t: [[20.0 + t], [30.0 + t]] for t in range(5)}
        records = join(make_records(shape, block), make_records(shape, block, base_ts=far))
        origins, dropped = window_origins(records, shape)
        assert origins == [300, 600, 900, far + 300, far + 600, far + 900]
        candidates = (far + 4 * 300) // 300 - shape.steps + 1
        assert dropped == candidates - 6 == 999_999_997
        samples = build_samples(records, shape, fit_normalization(records))
        assert samples.origin_timestamps.tolist() == origins

    def test_indexing_applies_to_every_field(self):
        shape = CorridorShape(2, 2, 1)
        records, _ = dense_corpus(shape, 6, seed=6)
        samples = build_samples(records, shape, fit_normalization(records))
        window = samples[2]
        assert window.origin_timestamps[0] == samples.origin_timestamps[2] == 900
        assert np.array_equal(window.volume_history[0], samples.volume_history[2])
        assert np.array_equal(window.speed_target[0], samples.speed_target[2])
        picked = samples[np.array([3, 0])]
        assert isinstance(picked, SampleSet) and len(picked) == 2
        assert picked.origin_timestamps.tolist() == [1200, 300]
        assert np.array_equal(picked.speed_history[0], samples.speed_history[3])
        assert [s.origin_timestamps[0] for s in samples] == [300, 600, 900, 1200]

    @pytest.mark.parametrize("index", [2, np.int64(2), np.int32(2)])
    def test_integer_index_gives_a_one_window_set(self, index):
        shape = CorridorShape(2, 2, 1)
        records, _ = dense_corpus(shape, 6, seed=6)
        samples = build_samples(records, shape, fit_normalization(records))
        window, picked = samples[index], samples[[2]]
        assert isinstance(window, SampleSet) and len(window) == 1
        assert window.speed is samples.speed and window.volume is samples.volume
        assert window.timestamps is samples.timestamps
        for name in ("starts", "speed_history", "volume_history", "speed_target",
                     "volume_target", "origin_timestamps"):
            assert np.array_equal(getattr(window, name), getattr(picked, name)), name
        with pytest.raises(IndexError):
            samples[len(samples)]

    def test_equality_is_identity(self):
        shape = CorridorShape(2, 2, 1)
        records, _ = dense_corpus(shape, 6, seed=6)
        samples = build_samples(records, shape, fit_normalization(records))
        assert samples == samples and hash(samples) == hash(samples)
        assert samples[:3] != samples[:3]
        assert len({samples, samples[:3], samples[0]}) == 3

    def test_empty_records_are_data_error(self):
        shape = CorridorShape(2, 2, 1)
        norm = NormalizationParams(0.0, 1.0, 0.0, 1.0)
        for build in (group_records, window_origins, lambda r, s: build_samples(r, s, norm)):
            with pytest.raises(DataError, match="no records"):
                build(as_records([]), shape)


class TestCorridorShape:
    @pytest.mark.parametrize("field", ["detectors", "steps", "lanes", "interval"])
    @pytest.mark.parametrize("value", [4.5, 4.0, True, "4"])
    def test_non_integer_geometry_rejected(self, field, value):
        kwargs = {"detectors": 4, "steps": 4, "lanes": 2, "interval": 300, field: value}
        with pytest.raises(ConfigError, match=f"{field} must be an integer"):
            CorridorShape(**kwargs)

    def test_numpy_integers_accepted(self):
        shape = CorridorShape(np.int64(4), np.int32(3), np.int64(2), np.int64(300))
        assert shape == CorridorShape(4, 3, 2, 300)
        assert all(type(value) is int for value in vars(shape).values())


def origin_samples(origins):
    """A SampleSet whose every field holds each window's origin."""
    origins = np.asarray(origins, dtype=np.int64)
    values = origins.astype(np.float64)
    history = values.reshape(-1, 1, 1, 1)
    return sample_set(history, history, values[:, None], values[:, None], origins)


class TestSplit:
    def test_reference_ratio(self):
        samples = origin_samples(range(105_000))
        train, test = split_dataset(samples, 80_000 / 105_000)
        assert len(train) == 80_000
        assert len(test) == 25_000

    def test_small_split_is_chronological(self):
        samples = origin_samples([i * 300 for i in range(10)])
        train, test = split_dataset(samples, 0.8)
        assert len(train) == 8 and len(test) == 2
        assert (max(s.origin_timestamps[0] for s in train)
                < min(s.origin_timestamps[0] for s in test))

    def test_unordered_input_is_sorted_first(self):
        samples = origin_samples([i * 300 for i in (3, 0, 4, 1, 2)])
        train, test = split_dataset(samples, 0.6)
        assert [s.origin_timestamps[0] for s in train] == [0, 300, 600]
        # every field moves with its origin
        assert train.speed_history.reshape(-1).tolist() == [0.0, 300.0, 600.0]

    def test_ordered_input_is_not_copied(self):
        samples = origin_samples([i * 300 for i in range(10)])
        train, test = split_dataset(samples, 0.8)
        for part in (train, test):
            assert part.speed is samples.speed and part.timestamps is samples.timestamps
            assert np.shares_memory(part.starts, samples.starts)

    def test_empty_side_rejected(self):
        samples = origin_samples(range(10))
        with pytest.raises(DataError):
            split_dataset(samples, 0.999)
        with pytest.raises(DataError):
            split_dataset(samples, 0.001)

    def test_invalid_fraction_rejected(self):
        with pytest.raises(ConfigError):
            train_count(10, 1.0)
        with pytest.raises(ConfigError):
            train_count(10, 0.0)


def reference_prepare(records, shape, fraction):
    """The split as derived from `window_origins`, before `prepare_dataset`."""
    origins, _ = window_origins(records, shape)
    n_train = train_count(len(origins), fraction)
    norm = fit_normalization(records, end=origins[n_train - 1] + shape.interval)
    samples = build_samples(records, shape, norm)
    train_set, test_set = split_dataset(samples, fraction)
    return norm, train_set, test_set


class TestPrepareDataset:
    @pytest.mark.parametrize("fraction", [0.5, 0.8])
    def test_matches_reference_derivation(self, fraction):
        shape = CorridorShape(3, 3, 2)
        rng = np.random.default_rng(21)
        # speeds rise with time, so the fitted maximum pins the boundary
        records = make_records(shape, {t: 20.0 + t + rng.random((3, 2)) for t in range(40)})
        # step 9 is dropped and step 25 is incomplete, so the boundary is
        # not the n-th timestamp
        records = take(records, (records.timestamp != 9 * 300)
                       & ~((records.timestamp == 25 * 300) & (records.lane == 2)))
        assert window_origins(records, shape)[1] > 0
        norm, train_set, test_set = prepare_dataset(records, shape, fraction)
        want_norm, want_train, want_test = reference_prepare(records, shape, fraction)
        assert norm == want_norm
        assert norm != fit_normalization(records)
        for got, want in ((train_set, want_train), (test_set, want_test)):
            for field in ("speed_history", "volume_history", "speed_target",
                          "volume_target", "origin_timestamps"):
                assert np.array_equal(getattr(got, field), getattr(want, field))

    def test_no_complete_windows_is_data_error(self):
        shape = CorridorShape(2, 2, 1)
        records, _ = dense_corpus(shape, 2, seed=2)
        with pytest.raises(DataError, match="no complete windows"):
            prepare_dataset(records, shape, 0.8)

    def test_peak_memory_is_that_of_the_records(self):
        # the sets hold the two normalized grids, not a copy of each window's
        # history: 30 days of the default corridor, 13.8 MB of records
        shape = CorridorShape(10, 8, 4)
        records = generate(SynthConfig(shape=shape, days=30, seed=0))
        size = sum(getattr(records, name).nbytes for name in CSV_HEADER)
        tracemalloc.start()
        try:
            _, train_set, test_set = prepare_dataset(records, shape, 0.8)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(train_set) + len(test_set) == 30 * 288 - shape.steps
        assert peak < 2 * size, (peak, size)


class TestRecords:
    def small(self):
        return generate(SynthConfig(shape=CorridorShape(2, 2, 2), days=1, seed=3))

    def test_length(self):
        assert len(self.small()) == 288 * 2 * 2

    def test_equality_with_records_is_exact(self):
        a, b = self.small(), self.small()
        assert a == b and not a != b
        speed = b.speed.copy()
        speed[7] = np.nextafter(speed[7], np.inf)
        changed = Records(b.timestamp, b.detector_index, b.lane, speed, b.volume)
        assert a != changed
        assert a != Records(*(getattr(b, name)[:-1] for name in CSV_HEADER))

    def test_columns_must_align(self):
        records = self.small()
        columns = {name: getattr(records, name) for name in CSV_HEADER}
        for name, bad in (("speed", records.speed[:-1]), ("lane", records.lane.astype(np.float64)),
                          ("volume", records.volume.tolist()), ("timestamp", records.timestamp[:, None])):
            with pytest.raises(ShapeError, match=name):
                Records(**{**columns, name: bad})


def fstring_csv(records) -> bytes:
    """The record CSV as write_records wrote it with one f-string per row."""
    columns = (getattr(records, name).tolist() for name in CSV_HEADER)
    lines = [f"{t},{d},{l},{s!r},{v!r}" for t, d, l, s, v in zip(*columns)]
    return ("\n".join([",".join(CSV_HEADER), *lines]) + "\n").encode()


def outcome(parse, *args):
    """What parse(*args) gives: its columns as int64 views, or its DataError's text."""
    try:
        records = parse(*args)
    except DataError as exc:
        return str(exc)
    return [getattr(records, name).view(np.int64).tolist() for name in CSV_HEADER]


def mutation_corpus() -> bytes:
    """A small synth corpus as write_records writes it, with cells in
    repr's exponent form and a negative zero."""
    records = generate(SynthConfig(shape=CorridorShape(2, 2, 2), days=1, seed=4))
    records = Records(*(getattr(records, name)[:96] for name in CSV_HEADER))
    records.speed[[3, 50, 61]] = [5.324195449348997e-05, 1e16, -0.0]
    records.volume[7] = 2.5e-300
    return fstring_csv(records)


INT64 = st.integers(np.iinfo(np.int64).min, np.iinfo(np.int64).max)
INDEX = st.integers(1, np.iinfo(np.int64).max)
READING = st.one_of(
    st.floats(min_value=0.0, allow_nan=False, allow_infinity=False),
    st.sampled_from([0.0, -0.0, 5e-324, 1e-300, 1e300, 0.5, 2.0**-30, 2.0**60, 1e16, 1e-4]),
)


class TestCsvWriter:
    def test_bytes_match_fstring_writer_at_corridor_shape(self, tmp_path):
        records = generate(SynthConfig(shape=CorridorShape(10, 8, 4), days=3, seed=12))
        path = tmp_path / "corridor.csv"
        write_records(path, records)
        assert path.read_bytes() == fstring_csv(records)

    def test_bytes_match_fstring_writer_for_odd_values(self, tmp_path):
        records = Records(
            np.array([-5, 0, 2**62, np.iinfo(np.int64).min], np.int64),
            np.array([1, 10, np.iinfo(np.int64).max, 3], np.int64),
            np.array([1, 2, 3, 10000], np.int64),
            np.array([0.0, -0.0, 1e-7, 1.7976931348623157e308]),
            np.array([5e-324, 2.0**-1074 * 3, 1e16, 123.456]),
        )
        path = tmp_path / "odd.csv"
        write_records(path, records)
        assert path.read_bytes() == fstring_csv(records)
        assert read_records(path) == records

    @pytest.mark.parametrize(
        "field, value",
        [("speed", np.nan), ("speed", -0.5), ("speed", np.inf), ("volume", -np.inf),
         ("volume", -1e-9), ("volume", np.nan), ("detector_index", 0), ("lane", -3)],
    )
    def test_unreadable_record_refused_before_writing(self, tmp_path, field, value):
        records = generate(SynthConfig(shape=CorridorShape(2, 2, 2), days=1, seed=4))
        getattr(records, field)[5] = value
        path = tmp_path / "bad.csv"
        named = rf"record 5 \(timestamp=300, .*\b{field}={re.escape(str(value))}[,)].* cannot be read back"
        with pytest.raises(DataError, match=named):
            write_records(path, records)
        assert not path.exists()

    def test_no_records_refused_before_writing(self, tmp_path):
        path = tmp_path / "empty.csv"
        with pytest.raises(DataError, match="no records to write"):
            write_records(path, as_records([]))
        assert not path.exists()

    @settings(max_examples=1000, derandomize=True, database=None, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(rows=st.lists(st.tuples(INT64, INDEX, INDEX, READING, READING), min_size=1, max_size=40))
    def test_write_read_round_trip_is_exact(self, tmp_path, rows):
        records = as_records(rows)
        path = tmp_path / "records.csv"
        write_records(path, records)
        back = read_records(path)
        for name in CSV_HEADER:
            column = getattr(back, name)
            assert column.dtype == pipeline._ROW[name]
            assert column.view(np.uint64).tolist() == getattr(records, name).view(np.uint64).tolist()


class TestCsv:
    def test_round_trip_exact(self, tmp_path):
        shape = CorridorShape(2, 2, 2)
        records, _ = dense_corpus(shape, 3, seed=8)
        path = tmp_path / "records.csv"
        write_records(path, records)
        back = read_records(path)
        assert back == records

    def test_header_required(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("a,b,c\n1,2,3\n")
        with pytest.raises(DataError, match="header"):
            read_records(path)

    def test_parse_error_reports_line(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("timestamp,detector_index,lane,speed,volume\n0,1,1,fast,3\n")
        with pytest.raises(DataError, match="line 2"):
            read_records(path)

    def test_negative_speed_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("timestamp,detector_index,lane,speed,volume\n0,1,1,-4.0,3\n")
        with pytest.raises(DataError, match="speed"):
            read_records(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(DataError):
            read_records(tmp_path / "absent.csv")

    # read_records parses the body as columns and hands whatever that parse
    # rejects to the csv line loop; both must agree with the loop alone
    VALID = {
        "plus_signs": ("+5,+1,1,+3.5,4\n", [(5, 1, 1, 3.5, 4.0)]),
        "padded_fields": (" 5 , 1,1 , 3.5 ,4 \n", [(5, 1, 1, 3.5, 4.0)]),
        "underscores": ("1_000,1,1,1_0.5,4\n", [(1000, 1, 1, 10.5, 4.0)]),
        "quoted_fields": ('"5","1",1,"3.5",4\n', [(5, 1, 1, 3.5, 4.0)]),
        "blank_lines": ("\n0,1,1,3.5,4\n\n\n300,1,1,3.5,4\n\n",
                        [(0, 1, 1, 3.5, 4.0), (300, 1, 1, 3.5, 4.0)]),
        "no_final_newline": ("0,1,1,3.5,4", [(0, 1, 1, 3.5, 4.0)]),
    }

    @pytest.mark.parametrize("crlf", [False, True])
    @pytest.mark.parametrize("name", sorted(VALID))
    def test_odd_valid_input_matches_line_loop(self, tmp_path, name, crlf):
        body, rows = self.VALID[name]
        text = HEADER + body
        if crlf:
            text = text.replace("\n", "\r\n")
        path = tmp_path / "odd.csv"
        path.write_bytes(text.encode())
        records = read_records(path)
        assert records == as_records(rows)
        assert records == pipeline._parse_lines(path, text.encode())
        assert all(getattr(records, n).dtype == pipeline._ROW[n] for n in CSV_HEADER)

    @pytest.mark.parametrize("crlf", [False, True])
    @pytest.mark.parametrize("name", sorted(VALID))
    def test_mixed_body_matches_line_loop(self, tmp_path, name, crlf):
        # each case between plain lines and quoted lines, first and last:
        # one odd line sends the whole file to the line loop
        body, rows = self.VALID[name]
        text = HEADER + '"7",1,2,"3.5",4\n' + self.GOOD + body + "\n" + self.GOOD + '900,1,1,"2.5",1'
        if crlf:
            text = text.replace("\n", "\r\n")
        path = tmp_path / "mixed.csv"
        path.write_bytes(text.encode())
        good = [(0, 1, 1, 3.5, 4.0), (300, 1, 2, 4.25, 5.0)]
        records = read_records(path)
        assert records == as_records([(7, 1, 2, 3.5, 4.0), *good, *rows, *good, (900, 1, 1, 2.5, 1.0)])
        assert records == pipeline._parse_lines(path, text.encode())
        assert all(getattr(records, n).dtype == pipeline._ROW[n] for n in CSV_HEADER)

    # a line the csv loop reads on into the next, or splits in two
    SPANNING = {
        "quoted_newline": ('0,1,1,3.5,"4\n"\n300,1,1,3.5,4\n', [(0, 1, 1, 3.5, 4.0), (300, 1, 1, 3.5, 4.0)]),
        "lone_cr": ('"0",1,1,3.5,4\n60,1,1,3.5,4\r300,1,1,3.5,4\n',
                    [(0, 1, 1, 3.5, 4.0), (60, 1, 1, 3.5, 4.0), (300, 1, 1, 3.5, 4.0)]),
        # two rows from one plain line, then a quoted line, then a line of CRs
        "lone_cr_before_blank": ('60,1,1,3.5,4\r300,1,1,3.5,4\n"7",1,1,3.5,4\n\r\r\n',
                                 [(60, 1, 1, 3.5, 4.0), (300, 1, 1, 3.5, 4.0), (7, 1, 1, 3.5, 4.0)]),
    }

    @pytest.mark.parametrize("name", sorted(SPANNING))
    def test_spanning_line_read_as_by_line_loop(self, tmp_path, name):
        body, rows = self.SPANNING[name]
        path = tmp_path / "span.csv"
        path.write_bytes((HEADER + self.GOOD + body).encode())
        records = read_records(path)
        good = [(0, 1, 1, 3.5, 4.0), (300, 1, 2, 4.25, 5.0)]
        assert records == as_records([*good, *rows])
        assert records == pipeline._parse_lines(path, path.read_bytes())

    def test_canonical_file_skips_line_loop(self, tmp_path, monkeypatch):
        records = generate(SynthConfig(shape=CorridorShape(2, 2, 2), days=1, seed=4))
        path = tmp_path / "records.csv"
        write_records(path, records)

        def line_loop(path, raw):
            raise AssertionError("the columnar parse fell back to the line loop")

        monkeypatch.setattr(pipeline, "_parse_lines", line_loop)
        back = read_records(path)
        assert back == records
        assert all(getattr(back, n).flags.c_contiguous for n in CSV_HEADER)

    def test_exponent_and_negative_zero_cells_skip_line_loop(self, tmp_path, monkeypatch):
        # one exponent-form value must not send the whole file to the line loop
        records = generate(SynthConfig(shape=CorridorShape(2, 2, 2), days=1, seed=4))
        records.speed[[3, 70, 500]] = [5.324195449348997e-05, 1e16, -0.0]
        records.volume[[4, 900]] = [1.0055973119660206e-06, 2.5e-300]
        path = tmp_path / "records.csv"
        write_records(path, records)
        text = path.read_text()
        assert all(cell in text for cell in (",5.324195449348997e-05,", ",1e+16,", ",-0.0,",
                                             ",1.0055973119660206e-06\n", ",2.5e-300\n"))

        def refuse(*args, **kwargs):
            raise AssertionError("read_records fell back from the column parser")

        monkeypatch.setattr(pipeline, "_parse_lines", refuse)
        back = read_records(path)
        for name in CSV_HEADER:
            assert getattr(back, name).view(np.int64).tolist() == getattr(records, name).view(np.int64).tolist()

    # bodies of only digits, commas, newlines, signs and points that are
    # not write_records' form: the column parser refuses them, and
    # read_records gives what the line loop gives
    FAST_BYTES_MALFORMED = {
        "empty_cell": "0,1,1,,4.0\n",
        "two_points": "0,1,1,1.2.3,4.0\n",
        "inner_minus": "0,1,1,1-2,4.0\n",
        "point_in_int": "0,1.0,1,3.5,4.0\n",
        "four_fields": "0,1,1,3.5\n",
        "six_fields": "0,1,1,3.5,4.0,5.0\n",
        "bare_fraction": "0,1,1,.5,4.0\n",
        "bare_point": "0,1,1,5.,4.0\n",
        "integral_float": "0,1,1,5,4.0\n",
        "no_final_newline": "600,1,1,3.5,4.0",
        "int_beyond_int64": "9223372036854775808,1,1,3.5,4.0\n",
        "negative_speed": "0,1,1,-3.5,4.0\n",
    }

    @pytest.mark.parametrize("name", sorted(FAST_BYTES_MALFORMED))
    def test_fast_bytes_malformed_match_line_loop(self, tmp_path, name):
        body = self.GOOD + self.FAST_BYTES_MALFORMED[name]
        path = tmp_path / "bad.csv"
        path.write_text(HEADER + body)
        if name != "negative_speed":
            assert parse_rows(body.encode(), [pipeline._ROW[n] for n in CSV_HEADER]) is None
        assert outcome(read_records, path) == outcome(pipeline._parse_lines, path, path.read_bytes())

    MUTATION_CORPUS = mutation_corpus()
    CELLS = ["nan", "inf", "abc", "", "9223372036854775808"]

    @settings(max_examples=1500, derandomize=True, database=None, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(kind=st.sampled_from(["drop", "duplicate", "cell", "truncate", "xff", "crlf", "quote", "pad"]),
           line=st.integers(0, 96), field=st.integers(0, 4), cell=st.sampled_from(CELLS),
           at=st.integers(0, len(MUTATION_CORPUS)))
    def test_mutated_file_matches_line_loop(self, tmp_path, kind, line, field, cell, at):
        # parse_rows must take no file that the line loop reads differently
        raw = self.MUTATION_CORPUS
        if kind == "truncate":
            raw = raw[:at]
        elif kind == "xff":
            raw = raw[:at] + b"\xff" + raw[at:]
        elif kind == "crlf":
            raw = raw.replace(b"\n", b"\r\n")
        else:
            lines = raw.decode().split("\n")
            cells = lines[line].split(",")
            cells[field:field + 1] = {
                "drop": [], "duplicate": [cells[field]] * 2, "cell": [cell],
                "quote": [f'"{cells[field]}"'], "pad": [f" {cells[field]} "],
            }[kind]
            lines[line] = ",".join(cells)
            raw = "\n".join(lines).encode()
        path = tmp_path / "mutated.csv"
        path.write_bytes(raw)
        assert outcome(read_records, path) == outcome(pipeline._parse_lines, path, raw)

    # each message and line number as the line loop alone reported them
    GOOD = "0,1,1,3.5,4.0\n300,1,2,4.25,5.0\n"
    MALFORMED = {
        "float_in_int": ("1.5,1,1,3.5,4\n", "line 4: invalid literal for int() with base 10: '1.5'"),
        "exponent_in_int": ("0,1e3,1,3.5,4\n", "line 4: invalid literal for int() with base 10: '1e3'"),
        "empty_field": ("0,1,,3.5,4\n", "line 4: invalid literal for int() with base 10: ''"),
        "four_fields": ("0,1,1,3.5\n", "line 4: expected 5 fields, got 4"),
        "six_fields": ("0,1,1,3.5,4,5\n", "line 4: expected 5 fields, got 6"),
        "trailing_comma": ("0,1,1,3.5,4,\n", "line 4: expected 5 fields, got 6"),
        "leading_hash": ("#0,1,1,3.5,4\n", "line 4: invalid literal for int() with base 10: '#0'"),
        "whitespace_line": ("   \n", "line 4: expected 5 fields, got 1"),
        "nan_speed": ("0,1,1,nan,4\n", "line 4: speed must be finite and >= 0"),
        "negative_speed": ("0,1,1,-3.5,4\n", "line 4: speed must be finite and >= 0"),
        "inf_volume": ("0,1,1,3.5,inf\n", "line 4: volume must be finite and >= 0"),
        "index_zero": ("0,0,1,3.5,4\n", "line 4: detector and lane indices are 1-based"),
        "lane_zero": ("0,1,0,3.5,4\n", "line 4: detector and lane indices are 1-based"),
    }

    @pytest.mark.parametrize("name", sorted(MALFORMED))
    def test_malformed_line_message_unchanged(self, tmp_path, name):
        line, message = self.MALFORMED[name]
        path = tmp_path / "bad.csv"
        path.write_text(HEADER + self.GOOD + line)
        with pytest.raises(DataError) as info:
            read_records(path)
        assert str(info.value) == f"{path} {message}"

    def test_header_only_file(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text(HEADER)
        with pytest.raises(DataError) as info:
            read_records(path)
        assert str(info.value) == f"{path}: no records"

    def test_timestamp_beyond_64_bits(self, tmp_path):
        path = tmp_path / "big.csv"
        path.write_text(HEADER + self.GOOD + "9223372036854775808,1,1,3.5,4\n")
        with pytest.raises(DataError, match="line 4: .*64-bit"):
            read_records(path)

    def test_non_utf8_byte(self, tmp_path):
        path = tmp_path / "latin1.csv"
        path.write_bytes((HEADER + self.GOOD).encode() + b"600,1,1,3.\xff5,4\n")
        with pytest.raises(DataError, match="line 4: not UTF-8") as info:
            read_records(path)
        assert str(path) in str(info.value)

    def test_line_loop_peak_memory_is_bounded(self, tmp_path):
        # CRLF line ends send a 2-day corridor file (about 1 MB) to the line
        # loop; its peak stays a fixed multiple of the file size, with no
        # Python object per row
        path = tmp_path / "crlf.csv"
        write_records(path, generate(SynthConfig(shape=CorridorShape(10, 8, 4), days=2, seed=0)))
        path.write_bytes(path.read_bytes().replace(b"\n", b"\r\n"))
        tracemalloc.start()
        try:
            records = read_records(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(records) == 2 * 288 * 10 * 4
        assert peak < 4 * path.stat().st_size

    def test_over_long_field(self, tmp_path):
        path = tmp_path / "long.csv"
        path.write_text(HEADER + self.GOOD + "600,1,1," + "9" * 140_000 + ",4\n")
        with pytest.raises(DataError, match="line 4: field larger than field limit") as info:
            read_records(path)
        assert str(path) in str(info.value)

    def test_padded_over_long_field_is_not_parsed_as_columns(self, tmp_path):
        # int() and float() strip the padding, but csv refuses the field first
        path = tmp_path / "long.csv"
        path.write_text(HEADER + self.GOOD + "600,1,1," + " " * 140_000 + "3.5,4\n")
        with pytest.raises(DataError, match="line 4: field larger than field limit"):
            read_records(path)

    def test_separator_float_fails_with_line_loop_message(self, tmp_path):
        # float() strips spaces around a number but not \x1f
        path = tmp_path / "unit_sep.csv"
        path.write_text(HEADER + self.GOOD + "600,1,1,\x1f3.5,4\n")
        with pytest.raises(DataError, match="line 4: could not convert string to float"):
            read_records(path)
