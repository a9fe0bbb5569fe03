"""Loop-detector record ingestion and sliding-window sample construction.

Raw per-lane records are gridded into one (timestamps, detectors, lanes)
array per quantity, min-max normalized, and cut into windows: `steps`
consecutive columns of history as input, the following step as the
prediction target. A window that touches a missing or incomplete timestamp
is dropped (and counted) rather than imputed.
"""

from __future__ import annotations

import csv
import io
import logging
import math
import numbers
import warnings
from dataclasses import dataclass, fields
from operator import attrgetter
from typing import NamedTuple

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import ConfigError, DataError, ShapeError
from .fileio import atomic_write_text, format_rows

logger = logging.getLogger(__name__)

CSV_HEADER = ["timestamp", "detector_index", "lane", "speed", "volume"]
# one CSV row, and the dtype of each Records column
_ROW = np.dtype([("timestamp", np.int64), ("detector_index", np.int64), ("lane", np.int64),
                 ("speed", np.float64), ("volume", np.float64)])
# the int64 values; `in` tests a Python int against a range in constant time
_INT64 = range(np.iinfo(np.int64).min, np.iinfo(np.int64).max + 1)
# the bytes a body may hold to be parsed as columns: loadtxt strips more
# kinds of whitespace than int() and float() do
_COLUMN_BYTES = b"0123456789+-.eE, \r\n"
# a bytes.translate table: 1 for a byte outside _COLUMN_BYTES, else 0
_ODD_BYTES = bytes(b not in _COLUMN_BYTES for b in range(256))


def _is_integer(value) -> bool:
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


def is_finite_number(value) -> bool:
    return isinstance(value, numbers.Real) and not isinstance(value, bool) and math.isfinite(value)


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
        if self.interval <= 0:
            raise ConfigError(f"interval must be positive seconds, got {self.interval}")


@dataclass(frozen=True)
class LoopRecord:
    """One detector reading: per-lane speed (mph) and vehicle count per interval."""

    timestamp: int
    detector_index: int  # 1-based, milepost order
    lane: int            # 1-based, 1 = shoulder
    speed: float
    volume: float


@dataclass(frozen=True, eq=False)
class Records:
    """Loop-detector readings as five aligned columns, one row per reading.

    timestamp, detector_index and lane are int64 arrays, speed and volume
    float64, all of one length. Indexing with an int gives that row as a
    `LoopRecord` (negative indices count from the end), so iteration yields
    LoopRecords. `==` against Records compares the columns exactly, against
    a list of LoopRecords row by row.
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

    def __getitem__(self, index: int) -> LoopRecord:
        n = len(self)
        if not -n <= index < n:
            raise IndexError(f"record {index} out of range for {n} records")
        return LoopRecord(
            int(self.timestamp[index]), int(self.detector_index[index]), int(self.lane[index]),
            float(self.speed[index]), float(self.volume[index]),
        )

    def __eq__(self, other):
        if isinstance(other, Records):
            return all(np.array_equal(getattr(self, f.name), getattr(other, f.name))
                       for f in fields(self))
        if isinstance(other, list):
            return len(self) == len(other) and all(a == b for a, b in zip(self, other))
        return NotImplemented


def _as_records(records) -> Records:
    """`records` as columns: Records pass through, a LoopRecord list is copied."""
    if isinstance(records, Records):
        return records
    n = len(records)
    try:
        columns = [np.fromiter(map(attrgetter(name), records), _ROW[name], n) for name in _ROW.names]
    except OverflowError as exc:
        raise DataError(f"record index or timestamp outside the 64-bit range: {exc}") from exc
    return Records(*columns)


@dataclass(frozen=True)
class NormalizationParams:
    """Per-quantity min/max mapping raw units onto [0, 1]."""

    speed_min: float
    speed_max: float
    volume_min: float
    volume_max: float

    def __post_init__(self):
        check_fields(self, "normalization bound", DataError)
        if not self.speed_max > self.speed_min:
            raise DataError(
                f"degenerate speed range [{self.speed_min}, {self.speed_max}]"
            )
        if not self.volume_max > self.volume_min:
            raise DataError(
                f"degenerate volume range [{self.volume_min}, {self.volume_max}]"
            )

    def normalize_speed(self, value):
        return normalize(value, self.speed_min, self.speed_max)

    def normalize_volume(self, value):
        return normalize(value, self.volume_min, self.volume_max)

    def denormalize_speed(self, value):
        return denormalize(value, self.speed_min, self.speed_max)

    def denormalize_volume(self, value):
        return denormalize(value, self.volume_min, self.volume_max)


class Window(NamedTuple):
    """One window of a SampleSet, fields without the leading window axis."""

    speed_history: np.ndarray
    volume_history: np.ndarray
    speed_target: np.ndarray
    volume_target: np.ndarray
    origin_timestamp: np.int64


@dataclass(frozen=True)
class SampleSet:
    """Windows in normalized units, stacked along a leading window axis.

    speed_history / volume_history: (N, detectors, steps, lanes), columns in
    time order ending at the window's origin timestamp. speed_target /
    volume_target: (N, detectors*lanes), detector-major lane-minor, one
    interval after the origin. origin_timestamps: (N,) int64.

    Indexing applies one key to every field: an int gives that window as a
    `Window`, a slice or index array gives a SampleSet of those windows.
    """

    speed_history: np.ndarray
    volume_history: np.ndarray
    speed_target: np.ndarray
    volume_target: np.ndarray
    origin_timestamps: np.ndarray

    def __len__(self) -> int:
        return len(self.origin_timestamps)

    def __getitem__(self, key):
        parts = [getattr(self, f.name)[key] for f in fields(self)]
        return Window(*parts) if isinstance(key, numbers.Integral) else SampleSet(*parts)


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


def fit_normalization(records, start: int | None = None, end: int | None = None) -> NormalizationParams:
    """Min/max over the records within [start, end] (inclusive, timestamps).

    Fit this on the training range only so no test-time information leaks
    into the scaling; later out-of-range values clamp to [0, 1].
    """
    records = _as_records(records)
    kept = np.ones(len(records), dtype=bool)
    if start is not None:
        kept &= records.timestamp >= start
    if end is not None:
        kept &= records.timestamp <= end
    if not kept.any():
        raise DataError("no records in the normalization range")
    speeds, volumes = records.speed[kept], records.volume[kept]
    return NormalizationParams(
        float(speeds.min()), float(speeds.max()), float(volumes.min()), float(volumes.max())
    )


# -- CSV ------------------------------------------------------------------------


def read_records(path) -> Records:
    """Parse the record CSV; malformed lines raise with their line number.

    The body is parsed as columns in one pass, after any line of other than
    plain numeric bytes is read with the line loop's rules and written back
    plainly. Whatever that cannot take, or takes but breaks a rule, is parsed
    again as a whole file with the csv line loop, which gives the error and
    its line.
    """
    try:
        with open(path, "rb") as fh:
            raw = fh.read()
    except OSError as exc:
        raise DataError(f"cannot read {path}: {exc}") from exc
    records = _parse_columns(path, raw)
    return records if records is not None else _parse_lines(path, raw)


def _parse_columns(path, raw: bytes) -> Records | None:
    """The records of a file with the exact header, or None to parse by lines."""
    header, newline, body = raw.partition(b"\n")
    if header.removesuffix(b"\r") != ",".join(CSV_HEADER).encode() or not newline:
        return None
    # csv rejects a field longer than its limit, which loadtxt would parse
    breaks = np.flatnonzero(np.frombuffer(body, np.uint8) == ord("\n"))
    if np.diff(breaks, prepend=-1, append=len(body)).max() > csv.field_size_limit():
        return None
    if body.translate(None, _COLUMN_BYTES):
        body = _plain_body(path, body)
    return _load_columns(body) if body is not None else None


def _plain_body(path, body: bytes) -> bytes | None:
    """The body with each line outside _COLUMN_BYTES written plainly, or None.

    Those lines are read by one csv reader with the line loop's rules, and
    each is replaced by its record as write_records writes it, which loadtxt
    reads back exactly. None when one breaks a rule or is not one csv row of
    its own: strict mode fails a line that leaves a quoted field open, which
    the line loop reads on into the next line.
    """
    lines = body.count(b"\n") + 1
    marks = body.translate(_ODD_BYTES)
    spans, at = [], marks.find(1)
    while at >= 0:
        if 2 * len(spans) > lines:  # mostly odd lines: the line loop is faster
            return None
        end = body.find(b"\n", at)
        end = len(body) if end < 0 else end
        spans.append((body.rfind(b"\n", 0, at) + 1, end))
        at = marks.find(1, end)
    rows, lineno, done = [], 2, 0
    try:
        odd_lines = b"\n".join(body[a:b] for a, b in spans).decode("utf-8").split("\n")
        reader = csv.reader(odd_lines, strict=True)
        for n, ((start, end), row) in enumerate(zip(spans, reader, strict=True), start=1):
            if reader.line_num != n:
                return None
            lineno += body.count(b"\n", done, start)
            rows.append(_parse_row(path, lineno, row))
            done = end
    except (csv.Error, DataError, ValueError):  # ValueError: not UTF-8, or fewer rows than lines
        return None
    pieces, done = [], 0
    for (start, end), line in zip(spans, _csv_rows(_as_records(rows)).split(b"\n")):
        pieces += [body[done:start], line]
        done = end
    return b"".join([*pieces, body[done:]])


def _load_columns(body: bytes) -> Records | None:
    """A body of plain numeric lines as columns, or None if any line fails."""
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # an empty body only warns
            rows = np.loadtxt(io.BytesIO(body), dtype=_ROW, delimiter=",", comments=None,
                              ndmin=1, encoding="ascii")
    except (ValueError, Warning):
        return None
    records = Records(*(np.ascontiguousarray(rows[name]) for name in _ROW.names))
    return records if _readable(records).all() else None


def _readable(records: Records) -> np.ndarray:
    """Per row, whether read_records accepts it: 1-based detector and lane
    indices, finite non-negative speed and volume."""
    return ((records.detector_index >= 1) & (records.lane >= 1)
            & np.isfinite(records.speed) & (records.speed >= 0.0)
            & np.isfinite(records.volume) & (records.volume >= 0.0))


def _parse_lines(path, raw: bytes) -> Records:
    try:
        text = raw.decode("utf-8")
    except UnicodeDecodeError as exc:
        line = raw.count(b"\n", 0, exc.start) + 1
        raise DataError(f"{path} line {line}: not UTF-8 text: {exc}") from exc
    rows = []
    reader = csv.reader(io.StringIO(text, newline=""))
    try:
        header = next(reader, None)
        if header is None or [h.strip() for h in header] != CSV_HEADER:
            raise DataError(
                f"{path}: expected header {','.join(CSV_HEADER)!r}, got {header!r}"
            )
        for lineno, row in enumerate(reader, start=2):
            if row:
                rows.append(_parse_row(path, lineno, row))
    except csv.Error as exc:
        raise DataError(f"{path} line {reader.line_num}: {exc}") from exc
    if not rows:
        raise DataError(f"{path}: no records")
    return _as_records(rows)


def _parse_row(path, lineno: int, row: list[str]) -> LoopRecord:
    """One csv row as a record; a malformed row raises with its line."""
    if len(row) != 5:
        raise DataError(f"{path} line {lineno}: expected 5 fields, got {len(row)}")
    try:
        record = LoopRecord(
            timestamp=int(row[0]),
            detector_index=int(row[1]),
            lane=int(row[2]),
            speed=float(row[3]),
            volume=float(row[4]),
        )
    except ValueError as exc:
        raise DataError(f"{path} line {lineno}: {exc}") from exc
    if not (record.timestamp in _INT64 and record.detector_index in _INT64
            and record.lane in _INT64):
        raise DataError(f"{path} line {lineno}: timestamp or index outside the 64-bit range")
    if record.detector_index < 1 or record.lane < 1:
        raise DataError(f"{path} line {lineno}: detector and lane indices are 1-based")
    if not (math.isfinite(record.speed) and record.speed >= 0.0):
        raise DataError(f"{path} line {lineno}: speed must be finite and >= 0")
    if not (math.isfinite(record.volume) and record.volume >= 0.0):
        raise DataError(f"{path} line {lineno}: volume must be finite and >= 0")
    return record


def write_records(path, records) -> None:
    """Write the record CSV that read_records reads back exactly.

    A record read_records would reject raises DataError, and nothing is
    written.
    """
    records = _as_records(records)
    bad = np.flatnonzero(~_readable(records))
    if bad.size:
        raise DataError(
            f"record {bad[0]} ({records[bad[0]]}) cannot be read back: detector and lane "
            "indices are 1-based, speed and volume must be finite and >= 0"
        )
    atomic_write_text(path, ",".join(CSV_HEADER).encode() + b"\n" + _csv_rows(records))


def _csv_rows(records: Records) -> bytes:
    """The records as CSV lines, each ending in a newline: integers as
    `str` writes them, speed and volume as `repr`, which reads back exactly."""
    return format_rows([getattr(records, name) for name in _ROW.names], b",", b"\n")


# -- window construction ---------------------------------------------------------


def group_records(records, shape: CorridorShape):
    """Grid the records by timestamp: (timestamps, speed, volume, complete).

    timestamps: (T,) int64, ascending, only those present in the records.
    speed / volume: (T, detectors, lanes), zero where a cell has no record.
    complete: (T,) bool, every detector/lane cell present.
    """
    records = _as_records(records)
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
    speed, volume = norm.normalize_speed(speed), norm.normalize_volume(volume)
    # one history column at a time: no second window-sized array is allocated
    history = np.empty((2, len(starts), shape.detectors, shape.steps, shape.lanes))
    for col in range(shape.steps):
        history[0, :, :, col, :] = speed[starts + col]
        history[1, :, :, col, :] = volume[starts + col]
    target = starts + shape.steps
    flat = (len(starts), shape.detectors * shape.lanes)
    return SampleSet(history[0], history[1], speed[target].reshape(flat),
                     volume[target].reshape(flat), timestamps[target - 1])


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
