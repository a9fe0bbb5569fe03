"""Loop-detector record ingestion and sliding-window sample construction.

Raw per-lane records are gridded into one (timestamps, detectors, lanes)
array per quantity, min-max normalized, and cut into windows: `steps`
consecutive columns of history as input, the following step as the
prediction target. A window that touches a missing or incomplete timestamp
is dropped (and counted) rather than imputed.
"""

from __future__ import annotations

import csv
import logging
import math
import numbers
from dataclasses import dataclass, fields
from operator import attrgetter
from typing import NamedTuple

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import ConfigError, DataError
from .fileio import atomic_write_text

logger = logging.getLogger(__name__)

CSV_HEADER = ["timestamp", "detector_index", "lane", "speed", "volume"]


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
    kept = [r for r in records
            if (start is None or r.timestamp >= start) and (end is None or r.timestamp <= end)]
    if not kept:
        raise DataError("no records in the normalization range")
    speeds, volumes = [r.speed for r in kept], [r.volume for r in kept]
    return NormalizationParams(min(speeds), max(speeds), min(volumes), max(volumes))


# -- CSV ------------------------------------------------------------------------


def read_records(path) -> list[LoopRecord]:
    """Parse the record CSV; malformed lines raise with their line number."""
    records = []
    try:
        fh = open(path, newline="", encoding="utf-8")
    except OSError as exc:
        raise DataError(f"cannot read {path}: {exc}") from exc
    with fh:
        reader = csv.reader(fh)
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
                record = LoopRecord(
                    timestamp=int(row[0]),
                    detector_index=int(row[1]),
                    lane=int(row[2]),
                    speed=float(row[3]),
                    volume=float(row[4]),
                )
            except ValueError as exc:
                raise DataError(f"{path} line {lineno}: {exc}") from exc
            if record.detector_index < 1 or record.lane < 1:
                raise DataError(f"{path} line {lineno}: detector and lane indices are 1-based")
            if not (math.isfinite(record.speed) and record.speed >= 0.0):
                raise DataError(f"{path} line {lineno}: speed must be finite and >= 0")
            if not (math.isfinite(record.volume) and record.volume >= 0.0):
                raise DataError(f"{path} line {lineno}: volume must be finite and >= 0")
            records.append(record)
    if not records:
        raise DataError(f"{path}: no records")
    return records


def write_records(path, records) -> None:
    lines = [",".join(CSV_HEADER)]
    for r in records:
        lines.append(f"{r.timestamp},{r.detector_index},{r.lane},{r.speed!r},{r.volume!r}")
    atomic_write_text(path, "\n".join(lines) + "\n")


# -- window construction ---------------------------------------------------------


def group_records(records, shape: CorridorShape):
    """Grid the records by timestamp: (timestamps, speed, volume, complete).

    timestamps: (T,) int64, ascending, only those present in the records.
    speed / volume: (T, detectors, lanes), zero where a cell has no record.
    complete: (T,) bool, every detector/lane cell present.
    """
    n = len(records)
    if not n:
        raise DataError("no records to window")
    try:
        ts, det, lane = (
            np.fromiter(map(attrgetter(name), records), np.int64, n)
            for name in ("timestamp", "detector_index", "lane")
        )
    except OverflowError as exc:
        raise DataError(f"record index or timestamp outside the 64-bit range: {exc}") from exc
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
    speed.reshape(-1)[cell] = np.fromiter(map(attrgetter("speed"), records), np.float64, n)
    volume.reshape(-1)[cell] = np.fromiter(map(attrgetter("volume"), records), np.float64, n)
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
