"""Run configuration: one versioned JSON document drives every command.

All state lives in the file (plus explicit flag overrides); there are no
environment variables, so a command line plus a config file pins a run
exactly. Unknown keys are rejected rather than ignored.
"""

from __future__ import annotations

from dataclasses import dataclass, fields, replace

from .errors import ConfigError
from .fileio import read_json
from .model import STREAMS_BY_KIND, ArchitectureConfig
from .pipeline import CorridorShape, check_fields
from .synth import SynthConfig
from .training import TrainConfig

SCHEMA_VERSION = 1

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
        check_fields(self, "config")
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


# the document's top level: the RunConfig fields, with the paths in their own section
_TOP_KEYS = {f.name for f in fields(RunConfig)} - _PATH_KEYS | {"schema_version", "paths"}


def _check_keys(section: dict, allowed: set, where: str) -> None:
    if not isinstance(section, dict):
        raise ConfigError(f"{where} must be a JSON object, got {type(section).__name__}")
    unknown = sorted(set(section) - allowed)
    if unknown:
        raise ConfigError(f"{where}: unknown keys {unknown}")


def _section(doc: dict, name: str, cls, source: str, **extra):
    """Build section `name` of the document as `cls`. Its keys are the
    dataclass fields except `shape`, which comes from the corridor; `extra`
    supplies `shape` or defaults that the section's own keys override."""
    where = f"{source}.{name}"
    section = doc.get(name, {})
    _check_keys(section, {f.name for f in fields(cls)} - {"shape"}, where)
    try:
        return cls(**{**extra, **section})
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"{where}: {exc}") from exc


def default_run_config() -> RunConfig:
    return parse_run_config({"schema_version": SCHEMA_VERSION})


def parse_run_config(doc: dict, source: str = "config") -> RunConfig:
    _check_keys(doc, _TOP_KEYS, source)
    version = doc.get("schema_version")
    if version != SCHEMA_VERSION or isinstance(version, bool):  # JSON true == 1
        raise ConfigError(
            f"{source}: schema_version {version!r} is not the supported {SCHEMA_VERSION}"
        )
    # unspecified geometry falls back to the default 10-detector, 8-step,
    # 4-lane corridor at the default 5-minute resolution
    corridor = _section(doc, "corridor", CorridorShape, source, detectors=10, steps=8, lanes=4)
    paths = doc.get("paths", {})
    _check_keys(paths, _PATH_KEYS, f"{source}.paths")
    return RunConfig(
        corridor=corridor,
        architecture=_section(doc, "architecture", ArchitectureConfig, source, shape=corridor),
        training=_section(doc, "training", TrainConfig, source),
        synth=_section(doc, "synth", SynthConfig, source, shape=corridor),
        **{key: doc[key] for key in ("split_fraction", "model") if key in doc},
        **paths,
    )


def load_run_config(path: str | None, seed: int | None = None) -> RunConfig:
    """Read a config file (or take all defaults); `seed` overrides every seed."""
    if path is None:
        config = default_run_config()
    else:
        config = parse_run_config(read_json(path, "config", ConfigError), source=str(path))
    if seed is not None:
        config = config.with_seed(seed)
    return config
