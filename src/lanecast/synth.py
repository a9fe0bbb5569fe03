"""Deterministic synthetic corridor generator.

Produces lane-correlated speed and volume records with rush-hour slowdowns
that propagate upstream as a wave, so sliding windows carry learnable
spatial-temporal structure. Volume is coupled to speed through the
Greenshields relation q = jam_density * u * (1 - u / free_flow_speed),
which makes the volume channel genuinely informative about upcoming speed
changes: a volume surge at a downstream detector precedes the speed drop
arriving upstream.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError
from .pipeline import CorridorShape, Records, check_fields, is_finite_number

DAY_SECONDS = 86400

DEFAULT_PEAKS = ((7.0, 9.5, 0.65), (16.0, 19.0, 0.75))


def _peak(peak) -> tuple:
    if not isinstance(peak, (list, tuple)) or len(peak) != 3 or not all(
        map(is_finite_number, peak)
    ):
        raise ConfigError(f"peaks entries must be [start, end, severity] numbers, got {peak!r}")
    return tuple(peak)


@dataclass(frozen=True)
class SynthConfig:
    """Corridor simulation parameters; everything derives from `seed`."""

    shape: CorridorShape
    days: int = 30
    free_flow_speed: float = 60.0      # mph
    jam_density: float = 200.0         # vehicles per mile
    peaks: tuple = DEFAULT_PEAKS       # (start hour, end hour, severity in (0, 1])
    lane_bias: tuple | None = None     # per-lane speed multipliers, shoulder -> median
    noise_sd: float = 4.0              # mph
    volume_noise_sd: float = 3.0       # vehicles per interval
    wave_speed: float = 12.0           # mph, upstream congestion propagation
    detector_spacing: float = 0.5      # miles
    seed: int = 0

    def __post_init__(self):
        check_fields(self, "synth")
        if self.days < 1:
            raise ConfigError(f"days must be >= 1, got {self.days}")
        if self.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.seed}")
        if DAY_SECONDS % self.shape.interval:
            raise ConfigError(
                f"interval {self.shape.interval}s must divide a day evenly"
            )
        if self.free_flow_speed <= 0 or self.jam_density <= 0:
            raise ConfigError("free_flow_speed and jam_density must be positive")
        if not isinstance(self.peaks, (list, tuple)):
            raise ConfigError(f"peaks must be a list of [start, end, severity], got {self.peaks!r}")
        object.__setattr__(self, "peaks", tuple(map(_peak, self.peaks)))
        for peak in self.peaks:
            start, end, severity = peak
            if not 0.0 <= start < end <= 24.0:
                raise ConfigError(f"peak window {peak} must satisfy 0 <= start < end <= 24")
            if not 0.0 < severity <= 1.0:
                raise ConfigError(f"peak severity must be in (0, 1], got {severity}")
        if self.noise_sd < 0 or self.volume_noise_sd < 0:
            raise ConfigError("noise standard deviations must be >= 0")
        if self.wave_speed <= 0 or self.detector_spacing <= 0:
            raise ConfigError("wave_speed and detector_spacing must be positive")
        bias = self.lane_bias
        if bias is None:
            lanes = self.shape.lanes
            bias = (1.0,) if lanes == 1 else tuple(np.linspace(0.9, 1.05, lanes))
        if not isinstance(bias, (list, tuple)) or not all(map(is_finite_number, bias)):
            raise ConfigError(f"lane_bias must be a list of finite multipliers, got {bias!r}")
        object.__setattr__(self, "lane_bias", tuple(bias))
        if len(self.lane_bias) != self.shape.lanes:
            raise ConfigError(
                f"lane_bias has {len(self.lane_bias)} entries for {self.shape.lanes} lanes"
            )
        if any(b <= 0 for b in self.lane_bias):
            raise ConfigError(f"lane_bias multipliers must be positive, got {self.lane_bias}")

def _slowdown_field(config: SynthConfig, hours: np.ndarray) -> np.ndarray:
    """Fraction of free-flow speed lost, per (step, detector), in [0, 1).

    Each peak is a raised-cosine pulse in time; the congestion front starts
    at the downstream end of the corridor and reaches detector i after
    (detectors-1-i) * spacing / wave_speed hours, so the field forms a
    diagonal band in the space-time plane. Overlapping peaks compose as
    1 - prod(1 - pulse) to stay below 1.
    """
    k = config.shape.detectors
    delays = (k - 1 - np.arange(k)) * config.detector_spacing / config.wave_speed
    keep = np.ones((hours.size, k))
    local = hours[:, None] - delays[None, :]
    for start, end, severity in config.peaks:
        phase = (local - start) / (end - start)
        pulse = np.where(
            (phase >= 0.0) & (phase <= 1.0),
            np.sin(np.pi * np.clip(phase, 0.0, 1.0)) ** 2,
            0.0,
        )
        keep *= 1.0 - severity * pulse
    return 1.0 - keep


def generate(config: SynthConfig) -> Records:
    """One record per (day, step, detector, lane) in that order, timestamps from 0.

    Fully deterministic: each day draws from its own child of the config
    seed, so days could be generated independently and still agree with a
    sequential run.
    """
    shape = config.shape
    steps = DAY_SECONDS // shape.interval
    hours = np.arange(steps) * (shape.interval / 3600.0)
    slowdown = _slowdown_field(config, hours)
    bias = np.asarray(config.lane_bias, dtype=np.float64)
    base = config.free_flow_speed * bias[None, None, :] * (1.0 - slowdown[:, :, None])
    speed_cap = config.free_flow_speed * float(bias.max()) + 5.0 * config.noise_sd
    interval_fraction = shape.interval / 3600.0

    speed = np.empty((config.days, *base.shape))
    volume = np.empty_like(speed)
    children = np.random.SeedSequence(config.seed).spawn(config.days)
    for day, child in enumerate(children):
        rng = np.random.default_rng(child)
        u = base + config.noise_sd * rng.standard_normal(base.shape)
        np.clip(u, 0.5, speed_cap, out=u)
        hourly_flow = config.jam_density * u * (1.0 - u / config.free_flow_speed)
        q = np.maximum(hourly_flow, 0.0) * interval_fraction
        q += config.volume_noise_sd * rng.standard_normal(q.shape)
        np.maximum(q, 0.0, out=q)
        speed[day], volume[day] = u, q
    cells = shape.detectors * shape.lanes
    times = config.days * steps
    return Records(
        timestamp=np.repeat(np.arange(times, dtype=np.int64) * shape.interval, cells),
        detector_index=np.tile(np.repeat(np.arange(1, shape.detectors + 1), shape.lanes), times),
        lane=np.tile(np.arange(1, shape.lanes + 1), times * shape.detectors),
        speed=speed.reshape(-1),
        volume=volume.reshape(-1),
    )
