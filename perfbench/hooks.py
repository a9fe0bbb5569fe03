"""Trace points in lanecast and the per-layer metrics computed from them.

`install` wraps each public function at the name its caller looks up (for
example `lanecast.model.conv2d_valid`, which the model's forward pass calls,
or `lanecast.training.composite_loss`). Metrics ending in `_ms` are self
time per call in milliseconds: span duration minus child spans. The two
exceptions, `model.predict_batch_ms` and `training.dataset_loss_ms`, are
whole-call times. Spans inside `training.dataset_loss` (the test-loss pass
that ends each training epoch) count only towards that metric, so the layer
metrics of the train workload describe training steps alone.

Run this file to print the computed cost of each conv call at the corridor
shape in both batch regimes.
"""

from __future__ import annotations

import os

import numpy as np

FOLDED = "training.dataset_loss"
BYTES_PER_VALUE = 8  # float64

SELF_MS = {
    "layers.conv1.fwd_ms": "layers.conv1.fwd",
    "layers.conv2.fwd_ms": "layers.conv2.fwd",
    "layers.conv3.fwd_ms": "layers.conv3.fwd",
    "layers.conv1.bwd_ms": "layers.conv1.bwd",
    "layers.conv2.bwd_ms": "layers.conv2.bwd",
    "layers.conv3.bwd_ms": "layers.conv3.bwd",
    "layers.dense.fwd_ms": "layers.dense.fwd",
    "layers.dense.bwd_ms": "layers.dense.bwd",
    "layers.dropout_ms": "layers.dropout",
    "layers.relu_ms": "layers.relu",
    "losses.composite_ms": "losses.composite",
    "optim.rmsprop_step_ms": "optim.rmsprop_step",
    "model.forward_self_ms": "model.forward_batch",
    "model.backward_self_ms": "model.backward_batch",
    "model.save_bundle_ms": "model.save_bundle",
    "model.load_bundle_ms": "model.load_bundle",
    "training.train_self_ms": "training.train",
    "training.evaluate_self_ms": "training.evaluate",
    "pipeline.read_records_ms": "pipeline.read_records",
    "pipeline.group_records_ms": "pipeline.group_records",
    "pipeline.window_origins_ms": "pipeline.window_origins",
    "pipeline.fit_normalization_ms": "pipeline.fit_normalization",
    "pipeline.build_samples_ms": "pipeline.build_samples",
    "pipeline.split_dataset_ms": "pipeline.split_dataset",
    "pipeline.write_records_ms": "pipeline.write_records",
    "synth.generate_ms": "synth.generate",
    "fileio.write_ms": "fileio.atomic_write_text",
}
TOTAL_MS = {
    "model.predict_batch_ms": "model.predict_batch",
    "training.dataset_loss_ms": FOLDED,
}
PER_ROUND = (
    "pipeline.group_records_calls",
    "pipeline.windows_built",
    "pipeline.windows_dropped",
    "fileio.bytes_written",
)

# name -> unit, in the order BENCHMARK.json lists them
UNITS = {
    **{name: "ms" for name in SELF_MS},
    **{name: "ms" for name in TOTAL_MS},
    "layers.conv.fwd_calls": "count",
    "layers.conv.bwd_calls": "count",
    "layers.conv.fwd_gflops": "GFLOP/s",
    "layers.conv.bwd_gflops": "GFLOP/s",
    "training.step_ms_p50": "ms",
    "training.step_ms_p90": "ms",
    "training.step_accounted_pct": "%",
    **{name: "count" for name in PER_ROUND},
    "trace.overhead_pct": "%",
}


# -- computed conv cost ---------------------------------------------------------


def conv_cost(x_shape, w_shape, *, backward: bool, input_grad: bool = True):
    """(floating-point operations, compulsory bytes moved) of one conv call.

    Multiply and add count as two operations. Compulsory bytes are each
    operand read once and each result written once, at float64; the loop
    kernels move more than this.
    """
    batch, rows, cols, channels = (1, *x_shape) if len(x_shape) == 3 else x_shape
    filters, fr, fc, _ = w_shape
    outputs = batch * (rows - fr + 1) * (cols - fc + 1) * filters
    taps = fr * fc * channels
    x_size = batch * rows * cols * channels
    w_size = filters * taps
    if not backward:
        flops = 2 * outputs * taps + outputs
        values = x_size + w_size + filters + outputs
    else:
        # weight gradient, bias gradient, then the optional input gradient
        flops = 2 * outputs * taps + outputs
        values = x_size + outputs + w_size + filters
        if input_grad:
            flops += 2 * outputs * taps
            values += w_size + x_size
    return flops, values * BYTES_PER_VALUE


def conv_inputs(shape, filters) -> list[tuple[int, int, int]]:
    """(rows, cols, channels) entering each 2x2 valid conv layer."""
    dims = [(shape.detectors, shape.steps, shape.lanes)]
    for f in filters[:-1]:
        rows, cols, _ = dims[-1]
        dims.append((rows - 1, cols - 1, f))
    return dims


def conv_table(shape, filters, batches) -> list[str]:
    lines = ["layer  input     batch  fwd_MFLOP  fwd_MB  bwd_MFLOP  bwd_MB"]
    for idx, dims in enumerate(conv_inputs(shape, filters), start=1):
        w_shape = (filters[idx - 1], 2, 2, dims[2])
        for batch in batches:
            x_shape = (batch, *dims)
            ff, fb = conv_cost(x_shape, w_shape, backward=False)
            bf, bb = conv_cost(x_shape, w_shape, backward=True, input_grad=idx > 1)
            lines.append(
                f"conv{idx}  {'x'.join(map(str, dims)):8s} {batch:6d} {ff / 1e6:10.2f} "
                f"{fb / 1e6:7.2f} {bf / 1e6:10.2f} {bb / 1e6:7.2f}"
            )
    return lines


# -- trace points -----------------------------------------------------------------


def install(tracer, shape, filters) -> None:
    """Wrap the lanecast call sites; undo with `tracer.restore()`."""
    import lanecast.model as model
    import lanecast.optim as optim
    import lanecast.pipeline as pipeline
    import lanecast.synth as synth
    import lanecast.training as training

    layer_of = {dims: idx for idx, dims in enumerate(conv_inputs(shape, filters), start=1)}

    def conv_fwd_counts(args, kwargs, result):
        flops, moved = conv_cost(np.shape(args[0]), args[1].weights.shape, backward=False)
        return {"layers.conv.fwd_flops": flops, "layers.conv.fwd_bytes": moved}

    def conv_bwd_counts(args, kwargs, result):
        flops, moved = conv_cost(
            np.shape(args[0]), args[1].weights.shape, backward=True,
            input_grad=kwargs.get("input_grad", True),
        )
        return {"layers.conv.bwd_flops": flops, "layers.conv.bwd_bytes": moved}

    def bytes_written(args, kwargs, result):
        return {"fileio.bytes_written": os.path.getsize(args[0])}

    p = tracer.patch
    p(model, "conv2d_valid", lambda a: f"layers.conv{layer_of[np.shape(a[0])[-3:]]}.fwd",
      counts=conv_fwd_counts)
    p(model, "conv2d_backward", lambda a: f"layers.conv{layer_of[np.shape(a[0])[-3:]]}.bwd",
      counts=conv_bwd_counts)
    p(model, "dense_forward", "layers.dense.fwd")
    p(model, "dense_backward", "layers.dense.bwd")
    p(model, "dropout_forward", "layers.dropout")
    p(model, "dropout_backward", "layers.dropout")
    p(model, "relu", "layers.relu")
    p(model.TwoStreamModel, "forward_batch", "model.forward_batch")
    p(model.TwoStreamModel, "backward_batch", "model.backward_batch")
    p(model.TwoStreamModel, "predict_batch", "model.predict_batch")
    p(model, "save_bundle", "model.save_bundle")
    p(model, "load_bundle", "model.load_bundle")
    p(model, "atomic_write_text", "fileio.atomic_write_text", counts=bytes_written)
    p(training, "composite_loss", "losses.composite")
    p(optim.RmsProp, "step", "optim.rmsprop_step")
    p(training, "train", "training.train")
    p(training, "dataset_loss", FOLDED)
    p(training, "evaluate", "training.evaluate")
    p(pipeline, "read_records", "pipeline.read_records")
    p(pipeline, "group_records", "pipeline.group_records",
      counts=lambda a, k, r: {"pipeline.group_records_calls": 1})
    p(pipeline, "window_origins", "pipeline.window_origins",
      counts=lambda a, k, r: {"pipeline.windows_dropped": r[1]})
    p(pipeline, "fit_normalization", "pipeline.fit_normalization")
    p(pipeline, "build_samples", "pipeline.build_samples",
      counts=lambda a, k, r: {"pipeline.windows_built": len(r)})
    p(pipeline, "split_dataset", "pipeline.split_dataset")
    p(pipeline, "write_records", "pipeline.write_records")
    p(pipeline, "atomic_write_text", "fileio.atomic_write_text", counts=bytes_written)
    p(synth, "generate", "synth.generate")


# -- per-layer metrics --------------------------------------------------------------


def _ratio(num, den, scale=1.0) -> float:
    return scale * num / den if den else 0.0


def per_layer(tracer, runs, overhead_pct: float) -> dict[str, float]:
    """Every per-layer metric over the traced rounds `runs`."""
    runs = set(runs)
    spans = tracer.spans
    own = tracer.self_times()
    folded = [False] * len(spans)
    for i, s in enumerate(spans):
        if s.parent >= 0:
            folded[i] = folded[s.parent] or spans[s.parent].name == FOLDED
    calls: dict[str, int] = {}
    self_sum: dict[str, float] = {}
    total_sum: dict[str, float] = {}
    conv_time = {"fwd": 0.0, "bwd": 0.0}
    for i, s in enumerate(spans):
        if s.run not in runs:
            continue
        if s.name.startswith("layers.conv"):
            conv_time[s.name[-3:]] += own[i]
        if folded[i]:
            continue
        calls[s.name] = calls.get(s.name, 0) + 1
        self_sum[s.name] = self_sum.get(s.name, 0.0) + own[i]
        total_sum[s.name] = total_sum.get(s.name, 0.0) + s.duration

    def per_call(table, sums):
        return {m: _ratio(sums.get(n, 0.0), calls.get(n, 0), 1e3) for m, n in table.items()}

    def count(name):
        return sum(v for (run, key), v in tracer.counts.items() if run in runs and key == name)

    out = {**per_call(SELF_MS, self_sum), **per_call(TOTAL_MS, total_sum)}
    conv_calls = {d: sum(calls.get(f"layers.conv{i}.{d}", 0) for i in (1, 2, 3)) for d in ("fwd", "bwd")}
    out["layers.conv.fwd_calls"] = _ratio(conv_calls["fwd"], calls.get("model.forward_batch", 0))
    out["layers.conv.bwd_calls"] = _ratio(conv_calls["bwd"], calls.get("model.backward_batch", 0))
    out["layers.conv.fwd_gflops"] = _ratio(count("layers.conv.fwd_flops"), conv_time["fwd"], 1e-9)
    out["layers.conv.bwd_gflops"] = _ratio(count("layers.conv.bwd_flops"), conv_time["bwd"], 1e-9)
    steps, covered = _steps(spans, own, folded, runs)
    out["training.step_ms_p50"] = float(np.percentile(steps, 50)) * 1e3 if steps else 0.0
    out["training.step_ms_p90"] = float(np.percentile(steps, 90)) * 1e3 if steps else 0.0
    out["training.step_accounted_pct"] = _ratio(covered, sum(steps), 100.0)
    for name in PER_ROUND:
        out[name] = count(name) / len(runs)
    out["trace.overhead_pct"] = overhead_pct
    return {name: out[name] for name in UNITS}


def _steps(spans, own, folded, runs):
    """Training step durations, and the self time of everything in the steps.

    A step runs from the start of one train-mode forward to the start of the
    next; the last one ends with its optimizer update. `covered` adds the
    self time of the training loop and of every span it contains outside
    the epoch-end test-loss pass.
    """
    steps: list[float] = []
    covered = 0.0
    children: dict[int, list[int]] = {}
    for i, s in enumerate(spans):
        if s.parent >= 0 and s.run in runs and not folded[i]:
            children.setdefault(s.parent, []).append(i)
    for t, span in enumerate(spans):
        if span.name != "training.train" or span.run not in runs:
            continue
        kids = children.get(t, [])
        starts = [spans[i].start for i in kids if spans[i].name == "model.forward_batch"]
        updates = [spans[i].end for i in kids if spans[i].name == "optim.rmsprop_step"]
        if not starts or not updates:
            continue
        bounds = starts + [updates[-1]]
        steps.extend(b - a for a, b in zip(bounds, bounds[1:]))
        covered += own[t]
        stack = [i for i in kids if spans[i].name != FOLDED]
        while stack:
            i = stack.pop()
            covered += own[i]
            stack.extend(children.get(i, []))
    return steps, covered


if __name__ == "__main__":
    import sys

    sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src"))
    from lanecast.pipeline import CorridorShape

    print("\n".join(conv_table(CorridorShape(10, 8, 4), (32, 32, 32), (64, 575, 1726))))
