"""Run configuration: one versioned JSON document drives every command.

All state lives in the file (plus explicit flag overrides); there are no
environment variables, so a command line plus a config file pins a run
exactly. Unknown keys are rejected rather than ignored.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, replace

from .errors import ConfigError, DataError
from .model import STREAMS_BY_KIND, ArchitectureConfig
from .pipeline import CorridorShape
from .synth import SynthConfig
from .training import TrainConfig

SCHEMA_VERSION = 1

_TOP_KEYS = {
    "schema_version", "corridor", "architecture", "training", "synth",
    "split_fraction", "model", "paths",
}
_CORRIDOR_KEYS = {"detectors", "steps", "lanes", "interval"}
_ARCH_KEYS = {"filters_per_layer", "filter_size", "fc_hidden", "dropout_conv", "dropout_fc", "seed"}
_TRAIN_KEYS = {
    "volume_weight", "learning_rate", "rho", "epsilon", "batch_size", "epochs", "seed", "shuffle",
}
_SYNTH_KEYS = {
    "days", "free_flow_speed", "jam_density", "peaks", "lane_bias", "noise_sd",
    "volume_noise_sd", "wave_speed", "detector_spacing", "seed",
}
_PATH_KEYS = {"data", "bundle", "out"}


@dataclass(frozen=True)
class RunConfig:
    corridor: CorridorShape
    architecture: ArchitectureConfig
    training: TrainConfig
    synth: SynthConfig
    split_fraction: float = 0.8
    model: str = "two_stream"
    data: str | None = None
    bundle: str | None = None
    out: str | None = None

    def __post_init__(self):
        if not 0.0 < self.split_fraction < 1.0:
            raise ConfigError(f"split_fraction must be in (0, 1), got {self.split_fraction}")
        if self.model not in STREAMS_BY_KIND:
            raise ConfigError(f"model must be one of {tuple(STREAMS_BY_KIND)}, got {self.model!r}")

    def with_seed(self, seed: int) -> "RunConfig":
        """Override every seed (initialization, training, synthesis) at once."""
        return replace(
            self,
            architecture=replace(self.architecture, seed=seed),
            training=replace(self.training, seed=seed),
            synth=replace(self.synth, seed=seed),
        )


def _check_keys(section: dict, allowed: set, where: str) -> None:
    if not isinstance(section, dict):
        raise ConfigError(f"{where} must be a JSON object, got {type(section).__name__}")
    unknown = sorted(set(section) - allowed)
    if unknown:
        raise ConfigError(f"{where}: unknown keys {unknown}")


def _build(factory, section: dict, where: str, **extra):
    try:
        return factory(**section, **extra)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"{where}: {exc}") from exc


def default_run_config() -> RunConfig:
    corridor = CorridorShape(detectors=10, steps=8, lanes=4, interval=300)
    return RunConfig(
        corridor=corridor,
        architecture=ArchitectureConfig(shape=corridor),
        training=TrainConfig(),
        synth=SynthConfig(shape=corridor),
    )


def parse_run_config(doc: dict, source: str = "config") -> RunConfig:
    _check_keys(doc, _TOP_KEYS, source)
    version = doc.get("schema_version")
    if version != SCHEMA_VERSION:
        raise ConfigError(
            f"{source}: schema_version {version!r} is not the supported {SCHEMA_VERSION}"
        )
    corridor_doc = doc.get("corridor", {})
    _check_keys(corridor_doc, _CORRIDOR_KEYS, f"{source}.corridor")
    # unspecified geometry falls back to the default 10-detector, 8-step,
    # 4-lane corridor at 5-minute resolution
    corridor_doc = {"detectors": 10, "steps": 8, "lanes": 4, "interval": 300, **corridor_doc}
    corridor = _build(CorridorShape, corridor_doc, f"{source}.corridor")

    arch_doc = dict(doc.get("architecture", {}))
    _check_keys(arch_doc, _ARCH_KEYS, f"{source}.architecture")
    if "filters_per_layer" in arch_doc:
        arch_doc["filters_per_layer"] = tuple(arch_doc["filters_per_layer"])
    if "filter_size" in arch_doc:
        arch_doc["filter_size"] = tuple(arch_doc["filter_size"])
    architecture = _build(ArchitectureConfig, arch_doc, f"{source}.architecture", shape=corridor)

    train_doc = doc.get("training", {})
    _check_keys(train_doc, _TRAIN_KEYS, f"{source}.training")
    training = _build(TrainConfig, train_doc, f"{source}.training")

    synth_doc = dict(doc.get("synth", {}))
    _check_keys(synth_doc, _SYNTH_KEYS, f"{source}.synth")
    if "peaks" in synth_doc:
        synth_doc["peaks"] = tuple(tuple(p) for p in synth_doc["peaks"])
    if synth_doc.get("lane_bias") is not None:
        synth_doc["lane_bias"] = tuple(synth_doc["lane_bias"])
    synth = _build(SynthConfig, synth_doc, f"{source}.synth", shape=corridor)

    paths = doc.get("paths", {})
    _check_keys(paths, _PATH_KEYS, f"{source}.paths")

    try:
        return RunConfig(
            corridor=corridor,
            architecture=architecture,
            training=training,
            synth=synth,
            split_fraction=doc.get("split_fraction", 0.8),
            model=doc.get("model", "two_stream"),
            data=paths.get("data"),
            bundle=paths.get("bundle"),
            out=paths.get("out"),
        )
    except TypeError as exc:
        raise ConfigError(f"{source}: {exc}") from exc


def load_run_config(path: str | None, seed: int | None = None) -> RunConfig:
    """Read a config file (or take all defaults); `seed` overrides every seed."""
    if path is None:
        config = default_run_config()
    else:
        try:
            with open(path, encoding="utf-8") as fh:
                doc = json.load(fh)
        except OSError as exc:
            raise DataError(f"cannot read config {path}: {exc}") from exc
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config {path} is not valid JSON: {exc}") from exc
        config = parse_run_config(doc, source=str(path))
    if seed is not None:
        config = config.with_seed(seed)
    return config
