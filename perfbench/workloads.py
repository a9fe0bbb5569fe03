"""The benchmark's three workloads: train, forecast and ingest.

Each workload is a closed loop in one process: `setup` builds its inputs
from the seed, then `round` is called repeatedly, timing one pass over the
code path a `lanecast` command takes and then checking what it produced.
Every lanecast function is looked up on its module at call time so that
the traced run's wrappers see the call.
"""

from __future__ import annotations

import hashlib
import math
import time
from dataclasses import asdict, dataclass, field

import numpy as np

import lanecast.model as model_mod
import lanecast.pipeline as pipeline
import lanecast.synth as synth
import lanecast.training as training
from lanecast.model import ArchitectureConfig, TwoStreamModel
from lanecast.pipeline import CorridorShape
from lanecast.synth import DAY_SECONDS, SynthConfig
from lanecast.training import TrainConfig

SPLIT = 0.8
HORIZONS = (1, 2, 3)
VOLUME_WEIGHT = 0.1


@dataclass(frozen=True)
class Sizes:
    shape: CorridorShape
    filters: tuple[int, int, int]
    fc_hidden: int
    train_days: int     # corpus behind the train workload's samples
    forecast_days: int  # corpus whose held-out windows are the forecast batch
    ingest_days: int    # corpus the ingest workload generates and reads
    fit_samples: int    # training samples of the forecast bundle's short fit


# The paper's corridor and network. The forecast batch is the 575 held-out
# windows of 10 days: conv2's activations are 7 MB there, beyond a 4 MB L2,
# against 0.8 MB at batch 64. One evaluate takes a few seconds, so a run holds
# several rounds. 30 days give 345,600 records.
FULL = Sizes(CorridorShape(10, 8, 4, 300), (32, 32, 32), 256,
             train_days=3, forecast_days=10, ingest_days=30, fit_samples=256)
# Small enough that every workload finishes in about a second.
SMOKE = Sizes(CorridorShape(4, 4, 2, 300), (4, 4, 4), 16,
              train_days=1, forecast_days=1, ingest_days=1, fit_samples=64)


@dataclass
class Round:
    main_s: float   # time of the phase the throughput metric covers
    items: int      # items that phase processed
    figures: dict   # this round's timings under the names a lanecast user knows
    facts: dict     # deterministic outputs, equal in every round
    problems: list[str] = field(default_factory=list)


def prepare(records, shape: CorridorShape):
    """The data half of `lanecast train`: normalize on the training range,
    build every window and split chronologically."""
    origins, _ = pipeline.window_origins(records, shape)
    n_train = pipeline.train_count(len(origins), SPLIT)
    norm = pipeline.fit_normalization(records, end=origins[n_train - 1] + shape.interval)
    samples = pipeline.build_samples(records, shape, norm)
    train_set, test_set = pipeline.split_dataset(samples, SPLIT)
    return norm, samples, train_set, test_set


def window_problems(samples, train_set, test_set, days: int, shape: CorridorShape) -> list[str]:
    """A synthetic corpus has no gaps, so its size fixes the window counts."""
    expected = days * (DAY_SECONDS // shape.interval) - shape.steps
    problems = []
    if len(samples) != expected:
        problems.append(f"{len(samples)} windows built, expected {expected}")
    if len(train_set) + len(test_set) != len(samples):
        problems.append("split lost windows")
    if len(train_set) != pipeline.train_count(len(samples), SPLIT):
        problems.append(f"{len(train_set)} training windows, expected a {SPLIT} split")
    return problems


def _finite(*values) -> bool:
    return all(math.isfinite(v) for v in values)


class Workload:
    name: str

    def __init__(self, seed: int, sizes: Sizes, workdir: str):
        self.seed = seed
        self.sizes = sizes
        self.shape = sizes.shape
        self.workdir = workdir
        self.arch = ArchitectureConfig(
            shape=sizes.shape, filters_per_layer=sizes.filters, fc_hidden=sizes.fc_hidden, seed=seed
        )

    def corpus(self, days: int):
        return synth.generate(SynthConfig(shape=self.shape, days=days, seed=self.seed))


class Train(Workload):
    """`lanecast train` on samples built in set-up: one epoch at batch 64 and
    lr 1e-3 with the epoch-end test loss, then `save_bundle`. Its throughput
    counts training samples of `train`."""

    name = "train"

    def setup(self):
        days = self.sizes.train_days
        self.norm, samples, self.train_set, self.test_set = prepare(self.corpus(days), self.shape)
        problems = window_problems(samples, self.train_set, self.test_set, days, self.shape)
        if problems:
            raise RuntimeError("; ".join(problems))
        self.config = TrainConfig(
            volume_weight=VOLUME_WEIGHT, learning_rate=1e-3, batch_size=64, epochs=1, seed=self.seed
        )
        self.untrained_loss = training.dataset_loss(TwoStreamModel(self.arch), self.test_set, VOLUME_WEIGHT)
        self.bundle = f"{self.workdir}/train_bundle.json"

    def round(self) -> Round:
        model = TwoStreamModel(self.arch)
        t0 = time.perf_counter()
        curve = training.train(model, self.train_set, self.config, eval_samples=self.test_set)
        t1 = time.perf_counter()
        model_mod.save_bundle(self.bundle, model, self.norm)
        t2 = time.perf_counter()
        with open(self.bundle, "rb") as fh:
            digest = hashlib.sha256(fh.read()).hexdigest()
        final = curve[-1]
        problems = []
        if not _finite(final.train_loss, final.test_loss):
            problems.append(f"non-finite loss {final.train_loss}, {final.test_loss}")
        elif not final.test_loss < self.untrained_loss:
            problems.append(f"test loss {final.test_loss} not below untrained {self.untrained_loss}")
        return Round(
            main_s=t1 - t0,
            items=len(self.train_set) * self.config.epochs,
            figures={"train_samples_per_s": len(self.train_set) * self.config.epochs / (t1 - t0),
                     "bundle_save_ms": 1e3 * (t2 - t1)},
            facts={"train_loss_final": final.train_loss, "test_loss_final": final.test_loss,
                   "bundle_sha256": digest},
            problems=problems,
        )


class Forecast(Workload):
    """`lanecast evaluate` without the CSV: `load_bundle`, then a recursive
    rollout scored at horizons 1-3 over every held-out window at once. Its
    throughput counts (window, horizon) predictions of `evaluate`."""

    name = "forecast"

    def setup(self):
        days = self.sizes.forecast_days
        norm, samples, train_set, self.test_set = prepare(self.corpus(days), self.shape)
        problems = window_problems(samples, train_set, self.test_set, days, self.shape)
        if problems:
            raise RuntimeError("; ".join(problems))
        model = TwoStreamModel(self.arch)
        fit = TrainConfig(volume_weight=VOLUME_WEIGHT, learning_rate=1e-3, epochs=1, seed=self.seed)
        training.train(model, train_set[: self.sizes.fit_samples], fit)
        self.bundle = f"{self.workdir}/forecast_bundle.json"
        model_mod.save_bundle(self.bundle, model, norm)
        self.norm = norm
        self.params = {name: array.copy() for name, array in model.param_arrays().items()}

    def round(self) -> Round:
        t0 = time.perf_counter()
        model, norm = model_mod.load_bundle(self.bundle)
        t1 = time.perf_counter()
        report = training.evaluate(model, self.test_set, HORIZONS, norm, self.shape)
        t2 = time.perf_counter()
        problems = []
        loaded = model.param_arrays()
        if norm != self.norm or set(loaded) != set(self.params) or not all(
            np.array_equal(loaded[name], self.params[name]) for name in self.params
        ):
            problems.append("save -> load did not reproduce the parameters bit for bit")
        windows = len(self.test_set)
        for h in HORIZONS:
            if not _finite(report.accuracy[h], *report.per_lane[h]):
                problems.append(f"non-finite accuracy at horizon {h}")
            if report.evaluated[h] + report.skipped[h] != windows or report.skipped[h] != h - 1:
                problems.append(
                    f"horizon {h}: {report.evaluated[h]} evaluated + {report.skipped[h]} skipped "
                    f"for {windows} windows"
                )
        return Round(
            main_s=t2 - t1,
            items=windows * len(HORIZONS),
            figures={"forecast_windows_per_s": windows * len(HORIZONS) / (t2 - t1),
                     "bundle_load_ms": 1e3 * (t1 - t0)},
            facts={f"forecast_accuracy_h{h}_pct": report.accuracy[h] for h in HORIZONS},
            problems=problems,
        )


class Ingest(Workload):
    """`lanecast synth` then the data half of `lanecast train`: generate,
    write and read the record CSV, build, normalize and split the windows.
    Its throughput covers the whole path."""

    name = "ingest"

    def setup(self):
        # the records every round must generate and read back
        self.reference = self.corpus(self.sizes.ingest_days)
        self.csv = f"{self.workdir}/corridor.csv"

    def round(self) -> Round:
        days = self.sizes.ingest_days
        t0 = time.perf_counter()
        records = self.corpus(days)
        pipeline.write_records(self.csv, records)
        t1 = time.perf_counter()
        read = pipeline.read_records(self.csv)
        norm, samples, train_set, test_set = prepare(read, self.shape)
        t2 = time.perf_counter()
        problems = window_problems(samples, train_set, test_set, days, self.shape)
        if records != self.reference:
            problems.append("generate is not deterministic under its seed")
        if read != records:
            problems.append("CSV read back differs from the generated records")
        return Round(
            main_s=t2 - t0,
            items=len(read),
            figures={"synth_records_per_s": len(records) / (t1 - t0),
                     "ingest_records_per_s": len(read) / (t2 - t1)},
            facts={"records": len(read), "windows": len(samples), "train_windows": len(train_set),
                   "normalization": asdict(norm)},
            problems=problems,
        )


WORKLOADS = {w.name: w for w in (Train, Forecast, Ingest)}
