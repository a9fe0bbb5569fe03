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
from .pipeline import CorridorShape, NormalizationParams, SampleSet, check_fields

DEFAULT_MIN_TARGET = 1.0  # mph; slower targets are excluded from percentage errors
# most windows per chunk of a set's forecasts (`_rollouts`)
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
    pred_u, pred_q, cache = model.forward_batch(batch, rng=rng)
    loss, grad_u, grad_q = composite_loss(
        pred_u, pred_q, batch.speed_target, batch.volume_target, volume_weight
    )
    return loss, model.backward_batch(cache, grad_u, grad_q)


def dataset_loss(model, samples, volume_weight) -> float:
    """The `composite_loss` of a SampleSet's infer pass: a function of its predictions alone."""
    if not samples:
        raise DataError("cannot compute the loss of an empty sample set")
    [(pred_u, pred_q)] = predict_multistep(model, samples, 1)
    # finite predictions can overflow when squared: the loss is then inf
    with np.errstate(over="ignore"):
        return composite_loss(pred_u, pred_q, samples.speed_target, samples.volume_target, volume_weight)[0]


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
            try:
                stats.test_loss = dataset_loss(model, eval_samples, config.volume_weight)
            except NumericError as err:
                raise NumericError(f"test loss at epoch {epoch}: {err}") from None
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


def _rollouts(model, samples: SampleSet, horizon: int):
    """The one forecast loop over a set: `model.rollout` on each chunk of
    `even_chunks(len(samples), _FORECAST_CHUNK)`, yielding (start, stop, step,
    pred_speed, pred_volume); NumericError if a prediction is not finite. No
    chunk of a split set is under 512 windows: OpenBLAS gives a dense product
    of at most 1,200 values (rows x outputs) other bits (ROADMAP item 12), so
    at 3 or more outputs each window's prediction is bitwise a one-chunk run's."""
    for start, stop in even_chunks(len(samples), _FORECAST_CHUNK):
        steps = model.rollout(samples[start:stop], horizon)
        for step in range(1, horizon + 1):
            # an overflow is refused below; the yield stays outside this error state
            with np.errstate(over="ignore", invalid="ignore"):
                pred_u, pred_q = next(steps)
            for name, pred in (("speed", pred_u), ("volume", pred_q)):
                if pred is not None and not np.isfinite(pred).all():
                    raise NumericError(f"forecast step {step}: the model predicted non-finite {name} values")
            yield start, stop, step, pred_u, pred_q


def predict_multistep(model, samples: SampleSet, horizon: int) -> list[PredictionPair]:
    """Forecast `horizon` steps ahead from every window of a SampleSet, e.g.
    the one-window `samples[i]` (inference mode): one PredictionPair of
    (windows, targets) arrays per step, rolled out in chunks (`_rollouts`);
    NumericError if a value is not finite. At the paper's shape a set of 1-15
    windows gets other last bits than a larger one (ROADMAP item 12)."""
    if horizon < 1:
        raise ConfigError(f"horizon must be >= 1, got {horizon}")
    steps = []
    for start, stop, step, *preds in _rollouts(model, samples, horizon):
        if start == 0:
            steps.append([p if p is None else np.empty((len(samples), p.shape[1])) for p in preds])
        for whole, part in zip(steps[step - 1], preds):
            if part is not None:
                whole[start:stop] = part
    return [PredictionPair(*pair) for pair in steps]


# -- evaluation ---------------------------------------------------------------------


def speeds_in_mph(pred, norm: NormalizationParams) -> np.ndarray:
    """Denormalized speed predictions; NumericError if one overflows."""
    with np.errstate(over="ignore"):
        mph = norm.denormalize_speed(pred)
    if not np.isfinite(mph).all():
        raise NumericError("the model predicted speeds that are non-finite once denormalized to mph")
    return mph


def horizon_pairs(samples, horizons, shape: CorridorShape) -> dict:
    """`evaluate`'s pairs: each distinct horizon h, ascending, mapped to the
    indices of the samples scored at h (source) and of the samples whose
    origins lie h-1 intervals after theirs (target). Checks the horizons."""
    if not samples:
        raise DataError("cannot evaluate an empty sample set")
    horizons = sorted(set(int(h) for h in horizons))
    if not horizons or horizons[0] < 1:
        raise ConfigError(f"horizons must be >= 1, got {horizons}")
    origins = samples.origin_timestamps
    reach = int(origins.max() - origins.min())
    pairs = {}
    for h in horizons:
        shift = (h - 1) * shape.interval
        # compared as Python integers first: a huge shift overflows int64
        if shift <= reach:
            _, source, target = np.intersect1d(origins + shift, origins, return_indices=True)
        if shift > reach or not source.size:
            raise DataError(f"no sample has a horizon-{h} target; not enough look-ahead")
        pairs[h] = source, target
    return pairs


def evaluate(model, samples, horizons, norm: NormalizationParams,
             shape: CorridorShape) -> EvalReport:
    """Score step-h rollouts against the true targets h steps ahead.

    The horizon-h truth for a sample is the target of the sample whose
    origin lies h-1 intervals later; samples without that look-ahead are
    skipped and counted. Predictions and targets are denormalized to mph
    before the percentage metric.

    Chunked rollouts (`_rollouts`), put back by window index, give the report
    of one whole-set rollout; NumericError if a prediction is not finite, even in mph.
    """
    pairs = horizon_pairs(samples, horizons, shape)
    # horizon -> its source samples' speed predictions; no other horizon's are kept
    kept = {h: np.empty((source.size, shape.detectors * shape.lanes)) for h, (source, _) in pairs.items()}
    for a, b, h, pred_u, _ in _rollouts(model, samples, max(pairs)):
        if h in pairs:
            source = pairs[h][0]
            inside = np.flatnonzero((source >= a) & (source < b))
            kept[h][inside] = pred_u[source[inside] - a]
    report = EvalReport(
        horizons=list(pairs), accuracy={}, per_lane={}, per_detector={},
        evaluated={}, skipped={}, excluded={},
    )
    for h, (source, target) in pairs.items():
        pred = speeds_in_mph(kept[h], norm)
        truth = norm.denormalize_speed(samples[target].speed_target)
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
    rows isolate the effect of the swept value. Every value's config is
    built, so a bad value refused, before the first `build_model` call. A
    diverging run is recorded and the sweep continues.
    """
    if axis not in SWEEP_AXES:
        raise ConfigError(f"sweep axis must be one of {tuple(SWEEP_AXES)}, got {axis!r}")
    values = list(values)
    if not values:
        raise ConfigError("sweep needs at least one value")
    configs = [replace(base_config, **{SWEEP_AXES[axis]: float(value)}) for value in values]
    rows = []
    for value, config in zip(values, configs):
        model = build_model()
        try:
            curve = train(model, train_samples, config)
            report = evaluate(model, test_samples, [1], norm, shape)
            final_loss = curve[-1].train_loss if curve else float("nan")
            rows.append(SweepRow(float(value), report.accuracy[1], final_loss, "ok"))
        except NumericError:
            rows.append(SweepRow(float(value), float("nan"), float("nan"), "diverged"))
    return rows
