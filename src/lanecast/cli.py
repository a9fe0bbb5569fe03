"""Command line interface: synthesize data, train, evaluate, sweep, heatmap.

Every command is deterministic given its config, its seed and the BLAS
thread count: `train` at different `OPENBLAS_NUM_THREADS` can give bundles
that differ in their last bits (ROADMAP item 4). Outputs do not depend on
the CPU count or on the lanes that the conv forward, the backward, the
optimizer step and the CSV write and read run on. Exit codes: 0 success,
1 usage/config error, 2 data error, 3 numeric failure.
"""

from __future__ import annotations

import argparse
import sys
import warnings

import numpy as np

from .config import load_run_config
from .errors import ConfigError, DataError, NumericError
from .fileio import atomic_write_text, format_rows
from .model import ConvForecaster, load_bundle, save_bundle
from .pipeline import (
    build_samples,
    grid_windows,
    group_records,
    prepare_dataset,
    read_records,
    write_records,
)
from .synth import DAY_SECONDS, generate
from .training import SWEEP_AXES, evaluate, predict_multistep, speeds_in_mph, sweep, train

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_NUMERIC = 3


class _Parser(argparse.ArgumentParser):
    # Route argparse usage failures through the normal error mapping
    def error(self, message):
        raise ConfigError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="lanecast",
        description="Lane-level traffic speed forecasting with a two-stream convolutional network.",
    )
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    synth = sub.add_parser("synth", help="generate a synthetic corridor CSV")
    synth.add_argument("--config", help="run config JSON")
    synth.add_argument("--seed", type=int, help="override every config seed")
    synth.add_argument("--out", required=True, help="output CSV path")
    synth.set_defaults(func=cmd_synth)

    trainp = sub.add_parser("train", help="fit a model on a record CSV and save the bundle")
    trainp.add_argument("--config", help="run config JSON")
    trainp.add_argument("--seed", type=int, help="override every config seed")
    trainp.add_argument("--data", help="input record CSV")
    trainp.add_argument("--bundle", help="output model bundle path")
    trainp.set_defaults(func=cmd_train)

    evalp = sub.add_parser("evaluate", help="score a bundle on a record CSV")
    evalp.add_argument("--bundle", required=True, help="model bundle path")
    evalp.add_argument("--data", required=True, help="input record CSV")
    evalp.add_argument("--horizons", default="1,2,3", help="comma list of forecast steps")
    evalp.add_argument("--out", help="output prefix for report CSVs (default: <bundle>.eval)")
    evalp.set_defaults(func=cmd_evaluate)

    sweepp = sub.add_parser("sweep", help="train once per value of a hyperparameter")
    sweepp.add_argument("--config", help="run config JSON")
    sweepp.add_argument("--seed", type=int, help="override every config seed")
    sweepp.add_argument("--data", help="input record CSV")
    sweepp.add_argument("--axis", required=True, choices=list(SWEEP_AXES),
                        help="swept parameter: volume loss weight or learning rate")
    sweepp.add_argument("--values", required=True, help="comma list of values")
    sweepp.add_argument("--out", help="output CSV path")
    sweepp.set_defaults(func=cmd_sweep)

    heat = sub.add_parser("heatmap", help="emit truth/prediction grids per lane")
    heat.add_argument("--bundle", required=True, help="model bundle path")
    heat.add_argument("--data", required=True, help="input record CSV")
    heat.add_argument("--days", default="0:1", help="day range start:end relative to the data start")
    heat.add_argument("--out", required=True, help="output file prefix")
    heat.set_defaults(func=cmd_heatmap)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    with warnings.catch_warnings():
        warnings.showwarning = _show_warning
        try:
            args = parser.parse_args(argv)
            return args.func(args)
        except ConfigError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return EXIT_USAGE
        except DataError as exc:
            print(f"data error: {exc}", file=sys.stderr)
            return EXIT_DATA
        except NumericError as exc:
            print(f"numeric failure: {exc}", file=sys.stderr)
            return EXIT_NUMERIC


def _show_warning(message, category, filename, lineno, file=None, line=None):
    # a user sees the message, not the library source line that raised it
    print(f"warning: {message}", file=sys.stderr)


def _required(value, flag):
    if value is None:
        raise ConfigError(f"{flag} is required (flag or config paths entry)")
    return value


def _parse_values(text, flag, kind=float):
    items = [v for v in text.split(",") if v.strip()]
    if not items:
        raise ConfigError(f"{flag} needs at least one value")
    try:
        return [kind(v) for v in items]
    except ValueError as exc:
        raise ConfigError(f"{flag}: {exc}") from exc


def _write_csv(path, header, columns) -> None:
    """The header names, then a row per entry of the aligned columns,
    numbers as `format_rows` writes them and NaN as a blank cell."""
    # format_rows writes "nan" only for a NaN float; no text cell holds it
    body = format_rows(columns, b",", b"\n").replace(b"nan", b"")
    atomic_write_text(path, (",".join(map(str, header)).encode() + b"\n", body))


# -- commands -----------------------------------------------------------------


def cmd_synth(args) -> int:
    config = load_run_config(args.config, seed=args.seed)
    records = generate(config.synth)
    write_records(args.out, records)
    print(f"wrote {len(records)} records to {args.out} (seed {config.synth.seed})")
    return EXIT_OK


def cmd_train(args) -> int:
    config = load_run_config(args.config, seed=args.seed)
    data_path = _required(args.data or config.data, "--data")
    bundle_path = _required(args.bundle or config.bundle, "--bundle")
    records = read_records(data_path)
    norm, train_set, test_set = prepare_dataset(records, config.corridor, config.split_fraction)
    model = ConvForecaster(config.architecture, config.model)
    curve = train(model, train_set, config.training, eval_samples=test_set)
    save_bundle(bundle_path, model, norm)
    loss_path = f"{bundle_path}.loss.csv"
    _write_csv(loss_path, ["epoch", "train_loss", "test_loss"], [
        [row.epoch for row in curve], [row.train_loss for row in curve],
        np.array([row.test_loss for row in curve], float),  # None is NaN, a blank cell
    ])
    final = curve[-1] if curve else None
    summary = (
        f"trained {model.kind} on {len(train_set)} samples ({len(test_set)} held out); "
        f"final train loss {final.train_loss:.6g}, test loss {final.test_loss:.6g}; "
        if final
        else f"trained {model.kind} for 0 epochs; "
    )
    print(summary + f"bundle {bundle_path}, loss curve {loss_path}")
    return EXIT_OK


def cmd_evaluate(args) -> int:
    model, norm = load_bundle(args.bundle)
    shape = model.config.shape
    samples = build_samples(read_records(args.data), shape, norm)
    horizons = _parse_values(args.horizons, "--horizons", kind=int)
    if not samples:
        raise DataError("no complete windows in the input data")
    report = evaluate(model, samples, horizons, norm, shape)
    out_prefix = args.out or f"{args.bundle}.eval"

    hs = report.horizons
    _write_csv(f"{out_prefix}_report.csv",
               ["horizon", "accuracy_percent", "samples_evaluated", "samples_skipped", "values_excluded"],
               [hs] + [[table[h] for h in hs] for table in
                       (report.accuracy, report.evaluated, report.skipped, report.excluded)])
    for name, breakdown, count in (("lane", report.per_lane, shape.lanes),
                                   ("detector", report.per_detector, shape.detectors)):
        _write_csv(f"{out_prefix}_{name}s.csv", ["horizon", name, "accuracy_percent"],
                   [np.repeat(hs, count), np.tile(np.arange(1, count + 1), len(hs)),
                    np.concatenate([breakdown[h] for h in hs])])

    header = "horizon    " + "".join(f"{h:>10d}" for h in hs)
    row = "accuracy % " + "".join(f"{report.accuracy[h]:>10.2f}" for h in hs)
    print(header)
    print(row)
    print(f"reports written with prefix {out_prefix}")
    return EXIT_OK


def cmd_sweep(args) -> int:
    config = load_run_config(args.config, seed=args.seed)
    data_path = _required(args.data or config.data, "--data")
    out_path = _required(args.out or config.out, "--out")
    values = _parse_values(args.values, "--values")
    records = read_records(data_path)
    norm, train_set, test_set = prepare_dataset(records, config.corridor, config.split_fraction)
    rows = sweep(
        args.axis, values, lambda: ConvForecaster(config.architecture, config.model),
        train_set, test_set, config.training, norm, config.corridor,
    )
    for row in rows:
        print(f"{args.axis}={row.value:g}: accuracy_h1={row.accuracy_h1:.3f} "
              f"final_train_loss={row.final_train_loss:.6g} [{row.status}]")
    _write_csv(out_path, ["value", "accuracy_h1", "final_train_loss", "status"], [
        [row.value for row in rows], [row.accuracy_h1 for row in rows],
        [row.final_train_loss for row in rows], np.array([row.status for row in rows], "S"),
    ])
    print(f"sweep table written to {out_path}")
    return EXIT_OK


def _pgm_bytes(grid, vmax: float) -> tuple[bytes, bytes]:
    """P5 grayscale as two pieces: the header, then rows of bytes, values
    scaled over [0, vmax]."""
    scaled = np.rint(255.0 * np.clip(grid, 0.0, vmax) / vmax).astype(np.uint8)
    return f"P5\n{grid.shape[1]} {grid.shape[0]}\n255\n".encode("ascii"), scaled.tobytes()


def _write_grid(path, grid, timestamps) -> None:
    """A row per detector: its index, then its value at each timestamp."""
    # formatted as one flat column, then cut into rows (one column per
    # timestamp costs a format_rows pass per column)
    cells = format_rows([grid.ravel()], b"", b",").split(b",")
    t = grid.shape[1]
    rows = [b",".join(cells[i * t:(i + 1) * t]) for i in range(grid.shape[0])]
    _write_csv(path, ["detector", *timestamps], [np.arange(1, grid.shape[0] + 1), np.array(rows)])


def cmd_heatmap(args) -> int:
    model, norm = load_bundle(args.bundle)
    shape = model.config.shape
    grid = group_records(read_records(args.data), shape)
    timestamps, speed, _, complete = grid
    try:
        start_day, end_day = (int(p) for p in args.days.split(":"))
    except ValueError as exc:
        raise ConfigError(f"--days must be start:end integers, got {args.days!r}") from exc
    if end_day <= start_day:
        raise ConfigError(f"--days range is empty: {args.days}")
    base = int(timestamps[0])
    start, end = base + start_day * DAY_SECONDS, base + end_day * DAY_SECONDS
    # checked in Python integers before np.arange allocates the range
    last = start + (end - start - 1) // shape.interval * shape.interval
    if start < base or last > int(timestamps[-1]):
        raise DataError(
            f"--days {args.days} covers timestamps {start}..{last}, outside the data's "
            f"{base}..{int(timestamps[-1])}"
        )
    grid_ts = np.arange(start, end, shape.interval)
    # the window predicting grid timestamp t has its origin one interval earlier
    origins = grid_ts - shape.interval
    windows = grid_windows(grid, shape, norm)
    missing = grid_ts[~np.isin(origins, windows.origin_timestamps)]
    if missing.size:
        t = missing[0]
        if t not in timestamps[complete]:
            raise DataError(f"heatmap range needs complete data at timestamp {t}")
        raise DataError(
            f"prediction at timestamp {t} needs {shape.steps} complete history "
            f"steps before it; extend the data or shift --days"
        )

    truth = speed[np.searchsorted(timestamps, grid_ts)]  # (time, detectors, lanes)
    windows = windows[np.searchsorted(windows.origin_timestamps, origins)]
    [(pred_n, _)] = predict_multistep(model, windows, 1)
    pred = speeds_in_mph(pred_n, norm).reshape(len(grid_ts), shape.detectors, shape.lanes)

    for lane in range(shape.lanes):
        truth_grid = truth[:, :, lane].T  # (detectors, time)
        pred_grid = pred[:, :, lane].T
        tag = f"{args.out}_lane{lane + 1}"
        _write_grid(f"{tag}_truth.csv", truth_grid, grid_ts)
        _write_grid(f"{tag}_pred.csv", pred_grid, grid_ts)
        atomic_write_text(f"{tag}_truth.pgm", _pgm_bytes(truth_grid, norm.speed_max))
        atomic_write_text(f"{tag}_pred.pgm", _pgm_bytes(pred_grid, norm.speed_max))
        for det in range(shape.detectors):
            _write_csv(f"{tag}_detector{det + 1}.csv", ["timestamp", "truth", "prediction"],
                       [grid_ts, truth_grid[det], pred_grid[det]])

    print(
        f"wrote {shape.lanes} lane grids ({shape.detectors}x{len(grid_ts)}) "
        f"and {shape.lanes * shape.detectors} detector curves with prefix {args.out}"
    )
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
