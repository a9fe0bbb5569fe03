"""Loop-detector record ingestion and sliding-window sample construction.

Raw per-lane records are grouped into dense (detectors x lanes) grids per
timestamp, min-max normalized, and cut into windows: `steps` consecutive
columns of history as input, the following step as the prediction target.
A window that touches a missing or incomplete timestamp is dropped (and
counted) rather than imputed.
"""

from __future__ import annotations

import csv
import logging
import math
import numbers
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DataError
from .fileio import atomic_write_text

logger = logging.getLogger(__name__)

CSV_HEADER = ["timestamp", "detector_index", "lane", "speed", "volume"]


@dataclass(frozen=True)
class CorridorShape:
    """Corridor geometry: detector count, history length, lanes, step size."""

    detectors: int
    steps: int
    lanes: int
    interval: int = 300

    def __post_init__(self):
        if self.detectors < 2:
            raise ConfigError(f"need at least 2 detectors, got {self.detectors}")
        if self.steps < 2:
            raise ConfigError(f"need at least 2 history steps, got {self.steps}")
        if self.lanes < 1:
            raise ConfigError(f"need at least 1 lane, got {self.lanes}")
        if self.interval <= 0:
            raise ConfigError(f"interval must be positive seconds, got {self.interval}")

    @property
    def cells(self) -> int:
        return self.detectors * self.lanes


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
        for name, value in vars(self).items():
            if isinstance(value, bool) or not isinstance(value, numbers.Real):
                raise DataError(f"normalization bound {name} must be a number, got {value!r}")
            if not math.isfinite(value):
                raise DataError(f"normalization bound {name} must be finite, got {value}")
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


@dataclass
class Sample:
    """One training example in normalized units.

    speed_history / volume_history: (detectors, steps, lanes), columns in
    time order ending at origin_timestamp. speed_target / volume_target:
    length detectors*lanes, detector-major lane-minor, one interval after
    the origin.
    """

    speed_history: np.ndarray
    volume_history: np.ndarray
    speed_target: np.ndarray
    volume_target: np.ndarray
    origin_timestamp: int


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
    speeds = []
    volumes = []
    for r in records:
        if start is not None and r.timestamp < start:
            continue
        if end is not None and r.timestamp > end:
            continue
        speeds.append(r.speed)
        volumes.append(r.volume)
    if not speeds:
        raise DataError("no records in the normalization range")
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
    """Group records into per-timestamp (detectors, lanes) grids.

    Returns (sorted timestamps, speed grids, volume grids, complete-timestamp
    set). A timestamp is complete when every detector/lane cell is present
    exactly once.
    """
    speed: dict[int, np.ndarray] = {}
    volume: dict[int, np.ndarray] = {}
    filled: dict[int, np.ndarray] = {}
    for r in records:
        if not 1 <= r.detector_index <= shape.detectors:
            raise DataError(
                f"detector index {r.detector_index} outside 1..{shape.detectors} "
                f"at timestamp {r.timestamp}"
            )
        if not 1 <= r.lane <= shape.lanes:
            raise DataError(
                f"lane {r.lane} outside 1..{shape.lanes} at timestamp {r.timestamp}"
            )
        ts = r.timestamp
        if ts not in filled:
            speed[ts] = np.zeros((shape.detectors, shape.lanes))
            volume[ts] = np.zeros((shape.detectors, shape.lanes))
            filled[ts] = np.zeros((shape.detectors, shape.lanes), dtype=bool)
        i, l = r.detector_index - 1, r.lane - 1
        if filled[ts][i, l]:
            raise DataError(
                f"duplicate record for timestamp {ts}, detector {r.detector_index}, lane {r.lane}"
            )
        speed[ts][i, l] = r.speed
        volume[ts][i, l] = r.volume
        filled[ts][i, l] = True
    timestamps = sorted(filled)
    base = timestamps[0]
    for ts in timestamps:
        if (ts - base) % shape.interval:
            raise DataError(
                f"timestamp {ts} is not aligned to the {shape.interval}s grid starting at {base}"
            )
    complete = {ts for ts in timestamps if filled[ts].all()}
    return timestamps, speed, volume, complete


def _candidate_origins(timestamps, shape: CorridorShape):
    dt = shape.interval
    first = timestamps[0] + (shape.steps - 1) * dt
    last = timestamps[-1] - dt
    return range(first, last + 1, dt)


def _window_ok(origin: int, shape: CorridorShape, complete) -> bool:
    dt = shape.interval
    if (origin + dt) not in complete:
        return False
    return all((origin - j * dt) in complete for j in range(shape.steps))


def window_origins(records, shape: CorridorShape) -> tuple[list[int], int]:
    """Origins (newest history column) of every buildable window, plus the
    number of candidate windows dropped because of gaps."""
    timestamps, _, _, complete = group_records(records, shape)
    origins = [t for t in _candidate_origins(timestamps, shape) if _window_ok(t, shape, complete)]
    dropped = len(_candidate_origins(timestamps, shape)) - len(origins)
    return origins, dropped


def build_samples(records, shape: CorridorShape, norm: NormalizationParams) -> list[Sample]:
    """Slide a (steps + 1)-wide window over the record grid, one step at a time."""
    timestamps, speed, volume, complete = group_records(records, shape)
    dt = shape.interval
    samples = []
    dropped = 0
    for origin in _candidate_origins(timestamps, shape):
        if not _window_ok(origin, shape, complete):
            dropped += 1
            continue
        history = [origin - (shape.steps - 1 - j) * dt for j in range(shape.steps)]
        samples.append(
            Sample(
                speed_history=np.stack([norm.normalize_speed(speed[t]) for t in history], axis=1),
                volume_history=np.stack([norm.normalize_volume(volume[t]) for t in history], axis=1),
                speed_target=norm.normalize_speed(speed[origin + dt]).reshape(-1),
                volume_target=norm.normalize_volume(volume[origin + dt]).reshape(-1),
                origin_timestamp=origin,
            )
        )
    if dropped:
        logger.info("dropped %d of %d candidate windows (data gaps)", dropped, dropped + len(samples))
    return samples


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
    ordered = sorted(samples, key=lambda s: s.origin_timestamp)
    n = train_count(len(ordered), train_fraction)
    return ordered[:n], ordered[n:]
