"""Mini-batch training, accuracy metric, recursive multi-step forecasting,
and hyperparameter sweeps."""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import NamedTuple

import numpy as np

from .errors import ConfigError, DataError, MetricError, NumericError, ShapeError
from .lanes import even_chunks
from .losses import composite_loss
from .optim import RmsProp
from .pipeline import CorridorShape, NormalizationParams, SampleSet, check_fields, denormalize

DEFAULT_MIN_TARGET = 1.0  # mph; slower targets are excluded from percentage errors
# most windows per chunk of evaluate's rollouts, the heatmap's predictions
# and dataset_loss's forward passes
_FORECAST_CHUNK = 1024


@dataclass(frozen=True)
class TrainConfig:
    """Loss weighting, optimizer constants and loop bookkeeping for one run."""

    volume_weight: float = 0.1
    learning_rate: float = 1e-4
    rho: float = 0.9
    epsilon: float = 1e-8
    batch_size: int = 64
    epochs: int = 10
    seed: int = 0
    shuffle: bool = True

    def __post_init__(self):
        check_fields(self, "training")
        if self.learning_rate <= 0.0:
            raise ConfigError(f"learning rate must be positive, got {self.learning_rate}")
        if self.batch_size < 1:
            raise ConfigError(f"batch size must be >= 1, got {self.batch_size}")
        if self.epochs < 0:
            raise ConfigError(f"epochs must be >= 0, got {self.epochs}")
        if self.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.seed}")
        if not 0.0 <= self.rho < 1.0:
            raise ConfigError(f"rho must be in [0, 1), got {self.rho}")
        if self.epsilon <= 0.0:
            raise ConfigError(f"epsilon must be positive, got {self.epsilon}")


@dataclass
class EpochStats:
    epoch: int
    train_loss: float
    test_loss: float | None = None


@dataclass
class EvalReport:
    """Accuracy per horizon plus per-lane / per-detector breakdowns.

    Breakdown entries are NaN where every value of that slice was excluded.
    evaluated + skipped equals the test sample count at each horizon.
    """

    horizons: list[int]
    accuracy: dict[int, float]
    per_lane: dict[int, list[float]]
    per_detector: dict[int, list[float]]
    evaluated: dict[int, int]
    skipped: dict[int, int]
    excluded: dict[int, int]


def _loss_and_grads(model, batch, volume_weight, rng):
    pred_u, pred_q, cache = model.forward_batch(batch, mode="train", rng=rng)
    loss, grad_u, grad_q = composite_loss(
        pred_u, pred_q, batch.speed_target, batch.volume_target, volume_weight
    )
    return loss, model.backward_batch(cache, grad_u, grad_q)


def check_predictions(pred_u, pred_q, where):
    """NumericError if a speed or volume prediction is not finite."""
    for name, pred in (("speed", pred_u), ("volume", pred_q)):
        if pred is not None and not np.isfinite(pred).all():
            raise NumericError(f"{where}: the model predicted non-finite {name} values")


def dataset_loss(model, samples, volume_weight) -> float:
    """Deterministic (infer-mode) loss over a SampleSet."""
    if not samples:
        raise DataError("cannot compute the loss of an empty sample set")
    sum_u = sum_q = 0.0
    count_u = count_q = 0
    for a, b in forecast_chunks(len(samples)):
        batch = samples[a:b]
        pred_u, pred_q = model.predict_batch(batch)
        check_predictions(pred_u, pred_q, "dataset loss")
        # finite predictions can still overflow when squared: the loss is then inf
        with np.errstate(over="ignore"):
            du = pred_u - batch.speed_target
            sum_u += float(np.sum(du * du))
            count_u += du.size
            if pred_q is not None:
                dq = pred_q - batch.volume_target
                sum_q += float(np.sum(dq * dq))
                count_q += dq.size
    loss = sum_u / count_u
    if count_q:
        loss += volume_weight * (sum_q / count_q)
    return loss


def train(model, samples, config: TrainConfig, eval_samples=None) -> list[EpochStats]:
    """Epochs of shuffled mini-batches: forward, composite loss, backward,
    optimizer step. Deterministic under config.seed. Aborts with a
    diagnostic if the loss or a gradient stops being finite."""
    if not samples:
        raise DataError("no training samples")
    if not hasattr(model, "backward_batch"):
        raise ConfigError(f"model kind {getattr(model, 'kind', '?')!r} is not trainable")
    rng = np.random.default_rng(config.seed)
    optimizer = RmsProp(config.learning_rate, config.rho, config.epsilon)
    params = model.param_arrays()
    total = len(samples)
    curve: list[EpochStats] = []
    for epoch in range(1, config.epochs + 1):
        order = rng.permutation(total) if config.shuffle else np.arange(total)
        weighted = 0.0
        for batch_num, start in enumerate(range(0, total, config.batch_size), start=1):
            batch = samples[order[start:start + config.batch_size]]
            # an overflow gives a non-finite loss or gradient, refused below
            with np.errstate(over="ignore", invalid="ignore"):
                loss, grads = _loss_and_grads(model, batch, config.volume_weight, rng)
            if not math.isfinite(loss):
                raise NumericError(
                    f"training diverged: non-finite loss at epoch {epoch}, batch {batch_num}"
                )
            for name, grad in grads.items():
                if not np.isfinite(grad).all():
                    raise NumericError(
                        f"training diverged: non-finite gradient of {name} "
                        f"at epoch {epoch}, batch {batch_num}"
                    )
            optimizer.step(params, grads)
            weighted += loss * len(batch)
        stats = EpochStats(epoch=epoch, train_loss=weighted / total)
        if eval_samples:
            stats.test_loss = dataset_loss(model, eval_samples, config.volume_weight)
        curve.append(stats)
    return curve


# -- accuracy ---------------------------------------------------------------------


def _ape_stats(predicted, actual):
    """(accuracy-or-NaN, values used, values excluded)."""
    mask = actual >= DEFAULT_MIN_TARGET
    used = int(mask.sum())
    excluded = actual.size - used
    if used == 0:
        return float("nan"), 0, excluded
    ape = np.abs(predicted[mask] - actual[mask]) / actual[mask]
    return 100.0 * (1.0 - float(np.mean(ape))), used, excluded


def accuracy(predicted, actual, *, metric: str = "mape_complement") -> float:
    """Percent accuracy of denormalized speed predictions.

    mape_complement (default): 100 * (1 - mean(|p - a| / a)), the complement
    of the mean absolute percentage error. rmse_complement:
    100 * (1 - rmse / mean(a)). Targets below DEFAULT_MIN_TARGET (mph) are
    excluded from either mean; if that excludes everything, the metric is
    undefined.
    """
    predicted = np.asarray(predicted, dtype=np.float64).reshape(-1)
    actual = np.asarray(actual, dtype=np.float64).reshape(-1)
    if predicted.shape != actual.shape:
        raise ShapeError(
            f"prediction shape {predicted.shape} != target shape {actual.shape}"
        )
    mask = actual >= DEFAULT_MIN_TARGET
    if not mask.any():
        raise MetricError(
            f"every target is below {DEFAULT_MIN_TARGET}; the percentage metric is undefined"
        )
    if metric == "mape_complement":
        return _ape_stats(predicted, actual)[0]
    if metric == "rmse_complement":
        diff = predicted[mask] - actual[mask]
        return 100.0 * (1.0 - math.sqrt(float(np.mean(diff * diff))) / float(np.mean(actual[mask])))
    raise ConfigError(f"unknown accuracy metric {metric!r}")


# -- multi-step forecasting ---------------------------------------------------------


class PredictionPair(NamedTuple):
    """Normalized next-step predictions; volume is None for speed-only models."""

    speed: np.ndarray
    volume: np.ndarray | None


def predict_multistep(model, samples: SampleSet, horizon: int) -> list[PredictionPair]:
    """Forecast `horizon` steps ahead from every window of a SampleSet, e.g.
    the one-window `samples[i]` (inference mode): one PredictionPair of
    (windows, targets) arrays per step. A window's rows can differ in the
    last bits between a small set and a larger one: OpenBLAS computes a dense
    product of at most 1,200 values (rows x outputs) with another kernel, so
    at the paper's shape a set of 1-15 windows gets other bits (ROADMAP
    item 12)."""
    if horizon < 1:
        raise ConfigError(f"horizon must be >= 1, got {horizon}")
    return [PredictionPair(pu, pq) for pu, pq in model.rollout(samples, horizon)]


# -- evaluation ---------------------------------------------------------------------


def forecast_chunks(count: int) -> list[tuple[int, int]]:
    """(start, stop) bounds of the window chunks that `evaluate`, the
    heatmap and `dataset_loss` predict one at a time, so their memory does
    not grow with the set: `even_chunks` of at most _FORECAST_CHUNK windows.

    A set of more than one chunk so has none shorter than half a chunk, which
    keeps every window's prediction bitwise that of a one-chunk run. OpenBLAS
    computes a dense product of at most 1,200 values (rows x outputs) with
    another kernel, with other bits (ROADMAP item 12); 512 rows clear that
    for every layer of 3 or more outputs."""
    return even_chunks(count, _FORECAST_CHUNK)


def evaluate(model, samples, horizons, norm: NormalizationParams,
             shape: CorridorShape) -> EvalReport:
    """Score step-h rollouts against the true targets h steps ahead.

    The horizon-h truth for a sample is the target of the sample whose
    origin lies h-1 intervals later; samples without that look-ahead are
    skipped and counted. Predictions and targets are denormalized to mph
    before the percentage metric.

    The set is rolled out in chunks (`forecast_chunks`), each through every
    horizon, and the predictions are put back by window index, so the report
    is that of one rollout over the whole set.
    """
    if not samples:
        raise DataError("cannot evaluate an empty sample set")
    horizons = sorted(set(int(h) for h in horizons))
    if not horizons or horizons[0] < 1:
        raise ConfigError(f"horizons must be >= 1, got {horizons}")
    origins = samples.origin_timestamps
    reach = int(origins.max() - origins.min())
    pairs = {}  # horizon -> (source, target) sample indices
    for h in horizons:
        shift = (h - 1) * shape.interval
        # compared as Python integers first: a huge shift overflows int64
        if shift <= reach:
            _, source, target = np.intersect1d(origins + shift, origins, return_indices=True)
        if shift > reach or not source.size:
            raise DataError(f"no sample has a horizon-{h} target; not enough look-ahead")
        pairs[h] = source, target
    # only the requested horizons' source rows are kept, so memory does not
    # grow with the largest horizon; every step is still checked
    # horizon -> speed predictions of its source samples
    kept = {h: np.empty((source.size, shape.detectors * shape.lanes)) for h, (source, _) in pairs.items()}
    for a, b in forecast_chunks(len(samples)):
        steps = model.rollout(samples[a:b], horizons[-1])
        for h, (pred_u, pred_q) in enumerate(steps, start=1):
            check_predictions(pred_u, pred_q, f"evaluate, step {h}")
            if h in pairs:
                source = pairs[h][0]
                inside = np.flatnonzero((source >= a) & (source < b))
                kept[h][inside] = pred_u[source[inside] - a]
    report = EvalReport(
        horizons=horizons, accuracy={}, per_lane={}, per_detector={},
        evaluated={}, skipped={}, excluded={},
    )
    for h, (source, target) in pairs.items():
        pred = denormalize(kept[h], norm.speed_min, norm.speed_max)
        truth = denormalize(samples[target].speed_target, norm.speed_min, norm.speed_max)
        overall, used, excluded = _ape_stats(pred, truth)
        if used == 0:
            raise MetricError(f"horizon {h}: every target is below {DEFAULT_MIN_TARGET} mph")
        pred_grid = pred.reshape(-1, shape.detectors, shape.lanes)
        truth_grid = truth.reshape(-1, shape.detectors, shape.lanes)
        report.accuracy[h] = overall
        report.per_lane[h] = [
            _ape_stats(pred_grid[:, :, l], truth_grid[:, :, l])[0]
            for l in range(shape.lanes)
        ]
        report.per_detector[h] = [
            _ape_stats(pred_grid[:, i, :], truth_grid[:, i, :])[0]
            for i in range(shape.detectors)
        ]
        report.evaluated[h] = source.size
        report.skipped[h] = len(samples) - source.size
        report.excluded[h] = excluded
    return report


# -- hyperparameter sweeps --------------------------------------------------------------


@dataclass
class SweepRow:
    value: float
    accuracy_h1: float
    final_train_loss: float
    status: str


# sweep axis name -> the TrainConfig field it sets
SWEEP_AXES = {"lambda": "volume_weight", "lr": "learning_rate"}


def sweep(axis: str, values, build_model, train_samples, test_samples,
          base_config: TrainConfig, norm: NormalizationParams, shape: CorridorShape) -> list[SweepRow]:
    """One independent training run per value of the swept parameter.

    `build_model` must return a freshly initialized model; with a fixed
    architecture seed every run then starts from identical weights and the
    rows isolate the effect of the swept value. A diverging run is recorded
    and the sweep continues.
    """
    if axis not in SWEEP_AXES:
        raise ConfigError(f"sweep axis must be one of {tuple(SWEEP_AXES)}, got {axis!r}")
    values = list(values)
    if not values:
        raise ConfigError("sweep needs at least one value")
    rows = []
    for value in values:
        config = replace(base_config, **{SWEEP_AXES[axis]: float(value)})
        model = build_model()
        try:
            curve = train(model, train_samples, config)
            report = evaluate(model, test_samples, [1], norm, shape)
            final_loss = curve[-1].train_loss if curve else float("nan")
            rows.append(SweepRow(float(value), report.accuracy[1], final_loss, "ok"))
        except NumericError:
            rows.append(SweepRow(float(value), float("nan"), float("nan"), "diverged"))
    return rows
