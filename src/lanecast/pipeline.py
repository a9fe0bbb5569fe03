"""Loop-detector record ingestion and sliding-window sample construction.

Raw per-lane records are gridded into one (timestamps, detectors, lanes)
array per quantity, min-max normalized, and cut into windows: `steps`
consecutive columns of history as input, the following step as the
prediction target. A window that touches a missing or incomplete timestamp
is dropped (and counted) rather than imputed.
"""

from __future__ import annotations

import array
import csv
import io
import logging
import math
import numbers
import sys
from dataclasses import dataclass, fields, replace

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import ConfigError, DataError, ShapeError
from .fileio import atomic_write_text, format_rows, parse_rows

logger = logging.getLogger(__name__)

CSV_HEADER = ["timestamp", "detector_index", "lane", "speed", "volume"]
# one CSV row, and the dtype of each Records column
_ROW = np.dtype([("timestamp", np.int64), ("detector_index", np.int64), ("lane", np.int64),
                 ("speed", np.float64), ("volume", np.float64)])


def _is_integer(value) -> bool:
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


def is_finite_number(value) -> bool:
    # compared, not converted: an integer beyond the double range is False, not an OverflowError
    return (isinstance(value, numbers.Real) and not isinstance(value, bool)
            and -sys.float_info.max <= value <= sys.float_info.max)


# annotation -> (what it must be, test, conversion applied to the stored value)
_FIELD_RULES = {
    "int": ("an integer", _is_integer, int),  # numpy integers then serialize
    "float": ("a finite number", is_finite_number, None),  # a JSON 0 stays 0 in bundles
    "bool": ("true or false", lambda v: isinstance(v, bool), None),
    "str": ("a string", lambda v: isinstance(v, str), None),
    "tuple[int, ...]": (
        "a list of integers",
        lambda v: isinstance(v, (list, tuple)) and all(map(_is_integer, v)),
        lambda v: tuple(map(int, v)),
    ),
}


def check_fields(obj, where: str, error=ConfigError) -> None:
    """Check every field of a config dataclass against its annotation.

    The rules cover `int`, `float`, `bool`, `str` and `tuple[int, ...]`;
    `X | None` also takes None. Any other annotation is left to the class.
    """
    for f in fields(obj):
        kind, value = f.type.removesuffix(" | None"), getattr(obj, f.name)
        if kind not in _FIELD_RULES or (value is None and kind != f.type):
            continue
        what, accepts, convert = _FIELD_RULES[kind]
        if not accepts(value):
            raise error(f"{where} {f.name} must be {what}, got {value!r}")
        if convert is not None:
            object.__setattr__(obj, f.name, convert(value))


@dataclass(frozen=True)
class CorridorShape:
    """Corridor geometry: detector count, history length, lanes, step size."""

    detectors: int
    steps: int
    lanes: int
    interval: int = 300

    def __post_init__(self):
        check_fields(self, "corridor")
        if self.detectors < 2:
            raise ConfigError(f"need at least 2 detectors, got {self.detectors}")
        if self.steps < 2:
            raise ConfigError(f"need at least 2 history steps, got {self.steps}")
        if self.lanes < 1:
            raise ConfigError(f"need at least 1 lane, got {self.lanes}")
        if not 0 < self.interval <= np.iinfo(np.int64).max:  # timestamps are int64
            raise ConfigError(f"interval must be positive seconds below 2**63, got {self.interval}")


@dataclass(frozen=True, eq=False)
class Records:
    """Loop-detector readings as five aligned columns, one row per reading.

    timestamp, detector_index (1-based, milepost order) and lane (1-based,
    1 = shoulder) are int64 arrays, speed (mph) and volume (vehicles per
    interval) float64, all of one length. `==` compares the columns exactly.
    """

    timestamp: np.ndarray
    detector_index: np.ndarray
    lane: np.ndarray
    speed: np.ndarray
    volume: np.ndarray

    def __post_init__(self):
        shape = np.shape(self.timestamp)[:1]
        for name in _ROW.names:
            column = getattr(self, name)
            if not (isinstance(column, np.ndarray) and column.dtype == _ROW[name] and column.shape == shape):
                raise ShapeError(
                    f"Records.{name} must be a {_ROW[name]} array of shape {shape}, got "
                    f"{getattr(column, 'dtype', type(column).__name__)} of shape {np.shape(column)}"
                )

    def __len__(self) -> int:
        return len(self.timestamp)

    def __eq__(self, other):
        if isinstance(other, Records):
            return all(np.array_equal(getattr(self, f.name), getattr(other, f.name))
                       for f in fields(self))
        return NotImplemented


@dataclass(frozen=True)
class NormalizationParams:
    """Per-quantity min/max mapping raw units onto [0, 1]."""

    speed_min: float
    speed_max: float
    volume_min: float
    volume_max: float

    def __post_init__(self):
        check_fields(self, "normalization bound", DataError)
        for quantity, lo, hi in (("speed", self.speed_min, self.speed_max),
                                 ("volume", self.volume_min, self.volume_max)):
            if not hi > lo:
                raise DataError(f"degenerate {quantity} range [{lo}, {hi}]")
            # finite bounds can still be further apart than a float holds
            if not math.isfinite(hi - lo):
                raise DataError(f"{quantity} range [{lo}, {hi}] has a width that overflows")

    def normalize_speed(self, value):
        return normalize(value, self.speed_min, self.speed_max)

    def normalize_volume(self, value):
        return normalize(value, self.volume_min, self.volume_max)

    def denormalize_speed(self, value):
        return denormalize(value, self.speed_min, self.speed_max)


@dataclass(frozen=True, eq=False)
class SampleSet:
    """Windows in normalized units: rows of two (T, detectors, lanes) grids.

    speed / volume: the normalized grids, a row per timestamp of `timestamps`
    (T,) int64. starts: (N,) each window's first history row; its `steps`
    history rows are followed by its target row.

    The window fields are gathered on access into new arrays, stacked along
    a leading window axis: speed_history / volume_history (N, detectors,
    steps, lanes), columns in time order ending at the window's origin
    timestamp; speed_target / volume_target (N, detectors*lanes),
    detector-major lane-minor, one interval after the origin;
    origin_timestamps (N,) int64. Indexing selects windows and shares the
    grids: a slice or index array gives a SampleSet of those windows, an
    int `i` the one-window set `samples[[i]]`. `==` is identity.
    """

    speed: np.ndarray
    volume: np.ndarray
    timestamps: np.ndarray
    starts: np.ndarray
    steps: int

    def __len__(self) -> int:
        return len(self.starts)

    def __getitem__(self, key):
        if isinstance(key, numbers.Integral):
            key = [key]
        return replace(self, starts=self.starts[key])

    def history(self, quantity: str) -> np.ndarray:
        """The windows' "speed" or "volume" history, one column at a time."""
        grid = getattr(self, quantity)
        out = np.empty((len(self), grid.shape[1], self.steps, grid.shape[2]))
        for col in range(self.steps):
            out[:, :, col] = grid[self.starts + col]
        return out

    def _target(self, quantity: str) -> np.ndarray:
        grid = getattr(self, quantity)
        return grid[self.starts + self.steps].reshape(len(self), grid.shape[1] * grid.shape[2])

    speed_history = property(lambda self: self.history("speed"))
    volume_history = property(lambda self: self.history("volume"))
    speed_target = property(lambda self: self._target("speed"))
    volume_target = property(lambda self: self._target("volume"))
    origin_timestamps = property(lambda self: self.timestamps[self.starts + self.steps - 1])


# -- normalization -------------------------------------------------------------


def normalize(value, lo: float, hi: float):
    """(value - lo) / (hi - lo), clamped to [0, 1] for out-of-range values."""
    if not hi > lo:
        raise DataError(f"degenerate normalization range [{lo}, {hi}]")
    result = np.clip((np.asarray(value, dtype=np.float64) - lo) / (hi - lo), 0.0, 1.0)
    return result if isinstance(value, np.ndarray) else float(result)


def denormalize(value, lo: float, hi: float):
    """Inverse of :func:`normalize` for in-range values."""
    if not hi > lo:
        raise DataError(f"degenerate normalization range [{lo}, {hi}]")
    result = np.asarray(value, dtype=np.float64) * (hi - lo) + lo
    return result if isinstance(value, np.ndarray) else float(result)


def fit_normalization(records, end: int | None = None) -> NormalizationParams:
    """Min/max over the records up to timestamp `end` (inclusive), or over
    all of them.

    Fit this on the training range only so no test-time information leaks
    into the scaling; later out-of-range values clamp to [0, 1].
    """
    kept = np.ones(len(records), dtype=bool) if end is None else records.timestamp <= end
    if not kept.any():
        raise DataError("no records in the normalization range")
    speeds, volumes = records.speed[kept], records.volume[kept]
    return NormalizationParams(
        float(speeds.min()), float(speeds.max()), float(volumes.min()), float(volumes.max())
    )


# -- CSV ------------------------------------------------------------------------


def read_records(path) -> Records:
    """Parse the record CSV; malformed lines raise with their line number.

    A file in write_records' own form (the exact header line, then rows as
    `fileio.format_rows` writes them) is parsed as columns by `parse_rows`.
    Any other file, valid or not, is read by the csv line loop, which gives
    the same records for every file both take, and names the line of an
    error.
    """
    try:
        with open(path, "rb") as fh:
            header, body = fh.readline(), fh.read()
    except OSError as exc:
        raise DataError(f"cannot read {path}: {exc}") from exc
    records = _parse_columns(header, body)
    return records if records is not None else _parse_lines(path, header + body)


def _parse_columns(header: bytes, body: bytes) -> Records | None:
    """The records of a file in write_records' form, or None to parse by lines."""
    if header != ",".join(CSV_HEADER).encode() + b"\n":
        return None
    columns = parse_rows(body, [_ROW[name] for name in _ROW.names])
    if columns is None:
        return None
    records = Records(*columns)
    return records if _readable(records).all() else None


def _readable(records: Records) -> np.ndarray:
    """Per row, whether read_records accepts it: 1-based detector and lane
    indices, finite non-negative speed and volume."""
    return ((records.detector_index >= 1) & (records.lane >= 1)
            & np.isfinite(records.speed) & (records.speed >= 0.0)
            & np.isfinite(records.volume) & (records.volume >= 0.0))


def _parse_lines(path, raw: bytes) -> Records:
    """Parse every row with the csv module into typed columns; a malformed
    row raises with its line number."""
    try:
        if not raw.isascii():
            raw.decode("utf-8")  # checked before any row is read, not kept
    except UnicodeDecodeError as exc:
        line = raw.count(b"\n", 0, exc.start) + 1
        raise DataError(f"{path} line {line}: not UTF-8 text: {exc}") from exc
    columns = [array.array("q"), array.array("q"), array.array("q"), array.array("d"), array.array("d")]
    timestamps, detectors, lanes, speeds, volumes = columns
    # decoded a chunk at a time: the whole text as a str takes up to 4 bytes a character
    reader = csv.reader(io.TextIOWrapper(io.BytesIO(raw), encoding="utf-8", newline=""))
    try:
        header = next(reader, None)
        if header is None or [h.strip() for h in header] != CSV_HEADER:
            raise DataError(
                f"{path}: expected header {','.join(CSV_HEADER)!r}, got {header!r}"
            )
        for lineno, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != 5:
                raise DataError(f"{path} line {lineno}: expected 5 fields, got {len(row)}")
            try:
                timestamp, detector, lane = int(row[0]), int(row[1]), int(row[2])
                speed, volume = float(row[3]), float(row[4])
            except ValueError as exc:
                raise DataError(f"{path} line {lineno}: {exc}") from exc
            try:
                timestamps.append(timestamp)
                detectors.append(detector)
                lanes.append(lane)
            except OverflowError as exc:
                raise DataError(
                    f"{path} line {lineno}: timestamp or index outside the 64-bit range"
                ) from exc
            if detector < 1 or lane < 1:
                raise DataError(f"{path} line {lineno}: detector and lane indices are 1-based")
            if not (math.isfinite(speed) and speed >= 0.0):
                raise DataError(f"{path} line {lineno}: speed must be finite and >= 0")
            if not (math.isfinite(volume) and volume >= 0.0):
                raise DataError(f"{path} line {lineno}: volume must be finite and >= 0")
            speeds.append(speed)
            volumes.append(volume)
    except csv.Error as exc:
        raise DataError(f"{path} line {reader.line_num}: {exc}") from exc
    if not timestamps:
        raise DataError(f"{path}: no records")
    return Records(*(np.frombuffer(column, _ROW[name]) for column, name in zip(columns, _ROW.names)))


def write_records(path, records) -> None:
    """Write the record CSV that read_records reads back exactly.

    No records, or a record read_records would reject, raises DataError,
    and nothing is written.
    """
    if not len(records):
        raise DataError(f"no records to write to {path}: read_records refuses a file without any")
    bad = np.flatnonzero(~_readable(records))
    if bad.size:
        row = ", ".join(f"{name}={getattr(records, name)[bad[0]]}" for name in _ROW.names)
        raise DataError(
            f"record {bad[0]} ({row}) cannot be read back: detector and lane "
            "indices are 1-based, speed and volume must be finite and >= 0"
        )
    # integers as `str` writes them, speed and volume as `repr`, which reads back exactly
    rows = format_rows([getattr(records, name) for name in _ROW.names], b",", b"\n")
    atomic_write_text(path, (",".join(CSV_HEADER).encode() + b"\n", rows))


# -- window construction ---------------------------------------------------------


def group_records(records, shape: CorridorShape):
    """Grid the records by timestamp: (timestamps, speed, volume, complete).

    timestamps: (T,) int64, ascending, only those present in the records.
    speed / volume: (T, detectors, lanes), zero where a cell has no record.
    complete: (T,) bool, every detector/lane cell present.
    """
    if not len(records):
        raise DataError("no records to window")
    ts, det, lane = records.timestamp, records.detector_index, records.lane
    for values, what, top in ((det, "detector index", shape.detectors), (lane, "lane", shape.lanes)):
        bad = np.flatnonzero((values < 1) | (values > top))
        if bad.size:
            raise DataError(f"{what} {values[bad[0]]} outside 1..{top} at timestamp {ts[bad[0]]}")
    timestamps, row = np.unique(ts, return_inverse=True)
    grid_shape = (len(timestamps), shape.detectors, shape.lanes)
    cell = np.ravel_multi_index((row, det - 1, lane - 1), grid_shape)
    counts = np.bincount(cell, minlength=math.prod(grid_shape))
    duplicates = np.flatnonzero(counts > 1)
    if duplicates.size:
        t, i, l = np.unravel_index(duplicates[0], grid_shape)
        raise DataError(
            f"duplicate record for timestamp {timestamps[t]}, detector {i + 1}, lane {l + 1}"
        )
    # (a - b) % n == 0 without forming a - b, which could overflow int64
    misaligned = np.flatnonzero(timestamps % shape.interval != timestamps[0] % shape.interval)
    if misaligned.size:
        raise DataError(
            f"timestamp {timestamps[misaligned[0]]} is not aligned to the {shape.interval}s "
            f"grid starting at {timestamps[0]}"
        )
    speed, volume = np.zeros(grid_shape), np.zeros(grid_shape)
    speed.reshape(-1)[cell] = records.speed
    volume.reshape(-1)[cell] = records.volume
    complete = counts.reshape(len(timestamps), -1).all(axis=1)
    return timestamps, speed, volume, complete


def _valid_starts(timestamps, complete, shape: CorridorShape):
    """(first rows, dropped): a window of history rows j..j+steps-1 and
    target row j+steps is valid when those rows are complete and exactly
    steps intervals apart; dropped counts every other window the span
    from the first to the last timestamp could hold."""
    span = (int(timestamps[-1]) - int(timestamps[0])) // shape.interval
    candidates = max(span - shape.steps + 1, 0)
    if len(timestamps) <= shape.steps:
        return np.arange(0), candidates
    ok = sliding_window_view(complete, shape.steps + 1).all(axis=-1)
    ok &= timestamps[shape.steps:] - timestamps[:-shape.steps] == shape.steps * shape.interval
    starts = np.flatnonzero(ok)
    return starts, candidates - len(starts)


def window_origins(records, shape: CorridorShape) -> tuple[list[int], int]:
    """Origins (newest history column) of every buildable window, plus the
    number of candidate windows dropped because of gaps."""
    timestamps, _, _, complete = group_records(records, shape)
    starts, dropped = _valid_starts(timestamps, complete, shape)
    return timestamps[starts + shape.steps - 1].tolist(), dropped


def grid_windows(grid, shape: CorridorShape, norm: NormalizationParams) -> SampleSet:
    """Every buildable window of a `group_records` grid, normalized."""
    timestamps, speed, volume, complete = grid
    starts, dropped = _valid_starts(timestamps, complete, shape)
    if dropped:
        logger.info("dropped %d of %d candidate windows (data gaps)", dropped, dropped + len(starts))
    return SampleSet(norm.normalize_speed(speed), norm.normalize_volume(volume), timestamps,
                     starts, shape.steps)


def build_samples(records, shape: CorridorShape, norm: NormalizationParams) -> SampleSet:
    """Slide a (steps + 1)-wide window over the record grid, one step at a time."""
    return grid_windows(group_records(records, shape), shape, norm)


# -- splitting --------------------------------------------------------------------


def train_count(num_samples: int, train_fraction: float) -> int:
    if not 0.0 < train_fraction < 1.0:
        raise ConfigError(f"train fraction must be in (0, 1), got {train_fraction}")
    n = int(round(num_samples * train_fraction))
    if n < 1 or n >= num_samples:
        raise DataError(
            f"splitting {num_samples} samples at fraction {train_fraction} "
            "leaves an empty train or test side"
        )
    return n


def split_dataset(samples, train_fraction: float):
    """Chronological split: earlier windows train, later windows test.

    No shuffling across the boundary; overlapping windows would otherwise
    leak near-duplicates of training rows into the test set.
    """
    origins = samples.origin_timestamps
    if (origins[1:] < origins[:-1]).any():
        samples = samples[np.argsort(origins, kind="stable")]
    n = train_count(len(samples), train_fraction)
    return samples[:n], samples[n:]


def prepare_dataset(records, shape: CorridorShape, split_fraction: float):
    """(norm, train_set, test_set) of the records' windows, split
    chronologically, with the normalization fitted on the training range
    only: up to one interval past the newest history column of the last
    training window."""
    grid = group_records(records, shape)
    timestamps, _, _, complete = grid
    starts, _ = _valid_starts(timestamps, complete, shape)
    if not len(starts):
        raise DataError("no complete windows in the input data")
    n_train = train_count(len(starts), split_fraction)
    boundary = int(timestamps[starts[n_train - 1] + shape.steps - 1]) + shape.interval
    norm = fit_normalization(records, end=boundary)
    train_set, test_set = split_dataset(grid_windows(grid, shape, norm), split_fraction)
    return norm, train_set, test_set
