"""Convolutional lane-speed forecaster: the two-stream model and its
single-stream ablation, one class.

Each input quantity (speed, and volume in the two-stream kind) passes
through its own stack of three valid 2x2 convolutions with Relu. The
flattened stream outputs get dropout, are concatenated, pushed through one
hidden dense layer with Relu and dropout, and a linear head emits the
next-step values of every streamed quantity side by side (speeds first).
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass

import numpy as np

from . import layers
from .errors import ConfigError, DataError, ShapeError
from .fileio import atomic_write_text, format_rows, read_json
from .layers import (
    DenseParams,
    FilterBank,
    conv2d_backward,
    conv2d_valid,
    dense_backward,
    dense_forward,
    dropout_backward,
    dropout_forward,
    relu,
    relu_backward,
)
from .pipeline import CorridorShape, NormalizationParams, check_fields

BUNDLE_FORMAT = "lane-speed-model"
BUNDLE_SCHEMA_VERSION = 1

NUM_CONV_LAYERS = 3
# windows per block of grid rows that an infer pass over a SampleSet convolves
_SEGMENT = 64
# parameter values formatted per piece of a saved bundle: the bundle's text
# is written a piece at a time, never held whole
_SAVE_VALUES = 16384


@dataclass(frozen=True)
class ArchitectureConfig:
    """Layer widths, dropout ratios and initialization seed for one model."""

    shape: CorridorShape
    filters_per_layer: tuple[int, ...] = (32, 32, 32)
    filter_size: tuple[int, ...] = (2, 2)
    fc_hidden: int = 256
    dropout_conv: float = 0.5
    dropout_fc: float = 0.25
    seed: int = 0

    def __post_init__(self):
        check_fields(self, "architecture")
        if len(self.filters_per_layer) != NUM_CONV_LAYERS:
            raise ConfigError(
                f"expected {NUM_CONV_LAYERS} filter counts, got {self.filters_per_layer}"
            )
        if any(f < 1 for f in self.filters_per_layer):
            raise ConfigError(f"filter counts must be >= 1, got {self.filters_per_layer}")
        if len(self.filter_size) != 2 or any(f < 1 for f in self.filter_size):
            raise ConfigError(f"filter size must be two positive ints, got {self.filter_size}")
        if self.fc_hidden < 1:
            raise ConfigError(f"fc_hidden must be >= 1, got {self.fc_hidden}")
        if self.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.seed}")
        for name, ratio in (("dropout_conv", self.dropout_conv), ("dropout_fc", self.dropout_fc)):
            if not 0.0 <= ratio < 1.0:
                raise ConfigError(f"{name} must be in [0, 1), got {ratio}")
        rows, cols = self.conv_map_shapes()[-1]
        if rows < 1 or cols < 1:
            raise ConfigError(
                f"conv stack does not fit: {self.shape.detectors}x{self.shape.steps} input "
                f"shrinks to {rows}x{cols} after {NUM_CONV_LAYERS} valid "
                f"{self.filter_size[0]}x{self.filter_size[1]} convolutions"
            )

    def conv_map_shapes(self) -> list[tuple[int, int]]:
        """(rows, cols) of each conv layer's output, via valid-conv shape algebra."""
        fr, fc = self.filter_size
        rows, cols = self.shape.detectors, self.shape.steps
        shapes = []
        for _ in range(NUM_CONV_LAYERS):
            rows, cols = rows - fr + 1, cols - fc + 1
            shapes.append((rows, cols))
        return shapes

    @property
    def flat_size(self) -> int:
        rows, cols = self.conv_map_shapes()[-1]
        return rows * cols * self.filters_per_layer[-1]

    @property
    def targets_per_quantity(self) -> int:
        return self.shape.detectors * self.shape.lanes


# Model kind -> the input streams it convolves, in parameter and fusion
# order. Each stream's quantity is also a head output. Config validation,
# the CLI and the bundle loader all take the kind names from this table.
STREAMS_BY_KIND = {"two_stream": ("speed", "volume"), "single_stream": ("speed",)}


def param_shapes(config: ArchitectureConfig, kind: str) -> dict[str, tuple[int, ...]]:
    """Name and shape of every learnable array, in optimizer, serialization
    and initialization order."""
    streams = STREAMS_BY_KIND[kind]
    fr, fc = config.filter_size
    shapes: dict[str, tuple[int, ...]] = {}
    for stream in streams:
        in_channels = config.shape.lanes
        for idx, num_filters in enumerate(config.filters_per_layer, start=1):
            shapes[f"{stream}_conv{idx}.weights"] = (num_filters, fr, fc, in_channels)
            shapes[f"{stream}_conv{idx}.biases"] = (num_filters,)
            in_channels = num_filters
    fused_in = config.flat_size * len(streams)
    out_dim = config.targets_per_quantity * len(streams)
    shapes["fusion.weights"] = (config.fc_hidden, fused_in)
    shapes["fusion.biases"] = (config.fc_hidden,)
    shapes["output.weights"] = (out_dim, config.fc_hidden)
    shapes["output.biases"] = (out_dim,)
    return shapes


# -- initialization -----------------------------------------------------------


def _uniform(rng, shape, fan):
    """U(-b, b) with b = sqrt(6 / fan): He-uniform when fan is the fan-in,
    Glorot-uniform when it is fan-in plus fan-out."""
    bound = np.sqrt(6.0 / fan)
    return rng.uniform(-bound, bound, size=shape)


def _init_params(config: ArchitectureConfig, kind: str) -> dict[str, np.ndarray]:
    """He-uniform conv and hidden dense weights, Glorot-uniform linear head,
    zero biases; drawn in `param_shapes` order for reproducibility."""
    rng = np.random.default_rng(config.seed)
    params = {}
    for name, shape in param_shapes(config, kind).items():
        if name.endswith(".biases"):
            params[name] = np.zeros(shape)
        elif name == "output.weights":
            params[name] = _uniform(rng, shape, shape[1] + shape[0])
        else:
            params[name] = _uniform(rng, shape, math.prod(shape[1:]))
    return params


# -- forward/backward ---------------------------------------------------------


@dataclass
class _ModelCache:
    # per stream: the input, then each conv layer's Relu output, and the
    # dropout mask of its flattened top layer
    acts: dict[str, list[np.ndarray]]
    masks: dict[str, np.ndarray | None]
    fused: np.ndarray
    fusion_pre: np.ndarray
    fusion_dropped: np.ndarray
    fusion_mask: np.ndarray | None


def _block_acts(banks, grid, starts, steps):
    """The rollout state of the windows of `grid` whose first history rows
    are `starts`: each window's newest `banks[0].filter_cols` input columns,
    the newest `filter_cols` columns of each lower conv layer's Relu output
    (those the layer above reads), then the top layer's output in full.

    The span of the rows is convolved in blocks of _SEGMENT windows, each one
    wide input of the grid rows from the block's first window to past its
    last; blocks that hold none of the windows are skipped. A window's
    columns are its block outputs' columns from its offset on. Every element
    gets the taps, in the same order, and the bias of the per-window pass,
    so the state is bitwise the columns of convolving each window on its own."""
    keeps = [bank.filter_cols for bank in banks]
    lo = starts.min()
    used, block = np.unique((starts - lo) // _SEGMENT, return_inverse=True)
    first = lo + used * _SEGMENT
    offset = starts - first[block]
    tail = grid[starts[:, np.newaxis] + np.arange(steps - keeps[0], steps)]
    acts = [np.ascontiguousarray(tail.transpose(0, 2, 1, 3))]
    # rows past the grid's end only reach columns that no window reads
    rows = np.minimum(first[:, np.newaxis] + np.arange(steps + _SEGMENT - 1), len(grid) - 1)
    wide = grid[rows].transpose(0, 2, 1, 3)
    # one wide layer at a time, each gathered into windows before the next
    for bank, keep in zip(banks, keeps[1:] + [None]):  # None: the top layer, kept whole
        # through `layers`, not this module's traced name: perfbench looks the
        # layer up by its per-window input shape, a KeyError for a block
        z = layers.conv2d_valid(wide, bank)
        wide = np.maximum(z, 0.0, out=z)
        cols = wide.shape[2] - _SEGMENT + 1
        keep = keep or cols
        # (block, first column, rows, keep, channels) views, one gather
        columns = np.lib.stride_tricks.sliding_window_view(wide, keep, axis=2)
        acts.append(np.ascontiguousarray(columns.transpose(0, 2, 1, 4, 3)[block, offset + cols - keep]))
    return acts


def _window_acts(x, banks):
    """x, then each conv layer's Relu output, each window convolved on its own."""
    acts = [x]
    for bank in banks:
        z = conv2d_valid(acts[-1], bank)
        # in place: nothing else reads the pre-activation
        acts.append(np.maximum(z, 0.0, out=z))
    return acts


def _require_windows(samples):
    if not len(samples):
        raise DataError("cannot predict from an empty sample set")


def _shift_left(a):
    """Move each column of a C-contiguous (batch, rows, cols, channels) array
    one place to the left, in place, as one flat overlapping copy. The last
    column is left holding the next row's first column, for the caller to
    overwrite."""
    flat = np.reshape(a, -1, copy=False)
    flat[:-a.shape[-1]] = flat[a.shape[-1]:]


def _stream_backward(acts, mask, banks, grad_flat, stream: str) -> dict[str, np.ndarray]:
    g = dropout_backward(grad_flat, mask)
    g = g.reshape(acts[-1].shape)
    grads = {}
    for idx in range(len(banks) - 1, -1, -1):
        # relu(z) > 0 exactly where z > 0, so the output carries the relu mask
        g = relu_backward(acts[idx + 1], g)
        g, gbank = conv2d_backward(acts[idx], banks[idx], g, input_grad=idx > 0)
        grads[f"{stream}_conv{idx + 1}.weights"] = gbank.weights
        grads[f"{stream}_conv{idx + 1}.biases"] = gbank.biases
    return grads


class ConvForecaster:
    """One conv stream per input quantity, concatenation fusion, one hidden
    dense layer and a linear head.

    kind "two_stream" convolves speed and volume and predicts both;
    "single_stream" is the speed-only ablation with a speed head.
    """

    def __init__(self, config: ArchitectureConfig, kind: str = "two_stream"):
        if kind not in STREAMS_BY_KIND:
            raise ConfigError(f"model kind must be one of {tuple(STREAMS_BY_KIND)}, got {kind!r}")
        self.config = config
        self.kind = kind
        self.streams = STREAMS_BY_KIND[kind]
        self.uses_volume = "volume" in self.streams
        p = self._params = _init_params(config, kind)
        layers = range(1, NUM_CONV_LAYERS + 1)
        # views of the arrays in self._params: in-place updates reach the layers
        self._banks = {
            s: [FilterBank(p[f"{s}_conv{i}.weights"], p[f"{s}_conv{i}.biases"]) for i in layers]
            for s in self.streams
        }
        self._fusion = DenseParams(p["fusion.weights"], p["fusion.biases"])
        self._output = DenseParams(p["output.weights"], p["output.biases"])

    def _check_set(self, samples):
        """ShapeError unless the set's windows have the configured detectors,
        steps and lanes; DataError if it has none."""
        shape = self.config.shape
        for stream in self.streams:
            rows = getattr(samples, stream).shape[1:]
            if rows != (shape.detectors, shape.lanes) or samples.steps != shape.steps:
                raise ShapeError(
                    f"{stream} windows must be {shape.steps} steps of ({shape.detectors}, "
                    f"{shape.lanes}) grid rows, got {samples.steps} steps of {rows}"
                )
        _require_windows(samples)

    def forward_batch(self, samples, *, rng=None):
        """Returns (pred_speed, pred_volume, state) for the windows of a
        SampleSet; pred_volume is None for the speed-only kind.

        Given a generator, this is the train pass: each window's history is
        convolved on its own, dropout draws its masks from `rng` (a pass
        given a copy of the same generator state drops the same units), and
        the state is the `_ModelCache` of every activation and mask that
        `backward_batch` reads.

        Without one, this is the infer pass: no dropout, the set's grids
        convolved in blocks (`_block_acts`), and the state is each stream's
        rollout state: each layer's newest columns that the layer above
        reads, and the top layer in full.
        """
        self._check_set(samples)
        acts, masks, outs = {}, {}, []
        for stream in self.streams:
            banks = self._banks[stream]
            if rng is None:
                acts[stream] = _block_acts(banks, getattr(samples, stream), samples.starts, samples.steps)
            else:
                acts[stream] = _window_acts(samples.history(stream), banks)
            flat = acts[stream][-1].reshape(len(samples), -1)
            out, masks[stream] = dropout_forward(flat, self.config.dropout_conv, rng)
            outs.append(out)
        pred_u, pred_q, head = self._head(outs, rng)
        return pred_u, pred_q, acts if rng is None else _ModelCache(acts, masks, *head)

    def _head(self, outs, rng=None):
        """Fusion and output layers on the streams' flattened outputs:
        (pred_speed, pred_volume, the arrays `backward_batch` reads)."""
        fused = np.concatenate(outs, axis=1)
        fusion_pre = dense_forward(fused, self._fusion)
        fusion_act = relu(fusion_pre)
        fusion_dropped, fusion_mask = dropout_forward(fusion_act, self.config.dropout_fc, rng)
        out = dense_forward(fusion_dropped, self._output)
        n = self.config.targets_per_quantity
        pred_u, pred_q = out[:, :n], (out[:, n:] if self.uses_volume else None)
        return pred_u, pred_q, (fused, fusion_pre, fusion_dropped, fusion_mask)

    def predict_batch(self, samples):
        pred_u, pred_q, _ = self.forward_batch(samples)
        return pred_u, pred_q

    def rollout(self, samples, horizon):
        """Recursive forecast over a SampleSet, yielding each step's
        (pred_speed, pred_volume): each later step feeds the previous
        predictions back, clipped to [0, 1], as the newest input column.

        One `forward_batch` without a generator gives the first step and its
        rollout state: the newest `filter_cols` columns of the input and of
        each lower conv layer's Relu output, and the top layer in full. Each
        later step shifts the state left by one column in place and writes
        the fed column. Only each conv layer's newest output column can
        differ from its shifted one, so only that is computed, from the
        `filter_cols` columns kept below it. Every element gets the
        operations of the full pass, so each step is bitwise `predict_batch`
        on the shifted windows.
        """
        pred_u, pred_q, acts = self.forward_batch(samples)
        for _ in range(horizon - 1):
            yield pred_u, pred_q
            flats = []
            for stream, fed in zip(self.streams, (pred_u, pred_q)):
                stream_acts = acts[stream]
                for a in stream_acts:
                    _shift_left(a)
                newest = stream_acts[0][:, :, -1]
                np.clip(fed.reshape(newest.shape), 0.0, 1.0, out=newest)
                for below, above, bank in zip(stream_acts, stream_acts[1:], self._banks[stream]):
                    # through `layers`, not this module's traced name: perfbench
                    # looks the layer up by its per-window input shape, a
                    # KeyError for a column tail
                    z = layers.conv2d_valid(below, bank)
                    above[:, :, -1:] = np.maximum(z, 0.0, out=z)
                flats.append(stream_acts[-1].reshape(len(samples), -1))
            pred_u, pred_q, _ = self._head(flats)
        yield pred_u, pred_q

    def backward_batch(self, cache, grad_speed, grad_volume=None):
        """Exact gradients of every parameter array given output gradients."""
        if not isinstance(cache, _ModelCache):
            raise ShapeError("backward needs the cache from a train-mode forward")
        if not self.uses_volume and grad_volume is not None:
            raise ShapeError("single-stream model has no volume output")
        n = self.config.targets_per_quantity
        given = {"speed": grad_speed, "volume": grad_volume}
        heads = [np.asarray(given[s], dtype=np.float64) for s in self.streams]
        batch = len(cache.fused)
        if any(g.shape != (batch, n) for g in heads):
            raise ShapeError(
                f"output gradients must each be ({batch}, {n}), "
                f"got {', '.join(str(g.shape) for g in heads)}"
            )
        grad_out = np.concatenate(heads, axis=1)
        grad_dropped, gw_out, gb_out = dense_backward(cache.fusion_dropped, self._output, grad_out)
        grad_act = dropout_backward(grad_dropped, cache.fusion_mask)
        grad_pre = relu_backward(cache.fusion_pre, grad_act)
        grad_fused, gw_fus, gb_fus = dense_backward(cache.fused, self._fusion, grad_pre)
        grads: dict[str, np.ndarray] = {}
        start = 0
        for stream in self.streams:
            acts = cache.acts[stream]
            stop = start + acts[-1][0].size
            grads.update(_stream_backward(acts, cache.masks[stream], self._banks[stream],
                                          grad_fused[:, start:stop], stream))
            start = stop
        grads["fusion.weights"] = gw_fus
        grads["fusion.biases"] = gb_fus
        grads["output.weights"] = gw_out
        grads["output.biases"] = gb_out
        return grads

    def param_arrays(self) -> dict[str, np.ndarray]:
        """Every learnable array by name, in `param_shapes` order; the arrays
        are the model's own, so in-place writes change the model."""
        return dict(self._params)


# perfbench builds the two-stream model through this name and traces the
# methods defined on this class object.
TwoStreamModel = ConvForecaster


# -- persistence baseline -------------------------------------------------------


class PersistenceModel:
    """Parameterless floor: repeats the last observation, speeds and volumes.

    A window's prediction is its newest history row, detector-major
    lane-minor; the rollout's later steps repeat the column fed back.
    """

    kind = "persistence"

    def predict_batch(self, samples):
        _require_windows(samples)
        newest = samples.starts + samples.steps - 1
        return tuple(grid[newest].reshape(len(samples), -1)
                     for grid in (samples.speed, samples.volume))

    def rollout(self, samples, horizon):
        """`ConvForecaster.rollout`'s recursion: the fed column, the previous
        step clipped to [0, 1], is what persistence predicts next."""
        pred_u, pred_q = self.predict_batch(samples)
        for _ in range(horizon - 1):
            yield pred_u, pred_q
            pred_u, pred_q = np.clip(pred_u, 0.0, 1.0), np.clip(pred_q, 0.0, 1.0)
        yield pred_u, pred_q


# -- bundle serialization ---------------------------------------------------------


def save_bundle(path, model, norm: NormalizationParams) -> None:
    """Write a model + normalization bundle as one JSON document.

    Arrays are stored as shape-annotated row-major lists; floats use the
    shortest round-trip decimal form, so a save/load cycle is lossless at
    double precision and repeated saves are byte-identical. The bytes are
    those of `json.dumps(doc, sort_keys=True)`. A non-finite parameter,
    which load_bundle rejects, raises DataError and nothing is written.
    """
    if model.kind not in STREAMS_BY_KIND:
        raise ConfigError(f"cannot serialize model kind {model.kind!r}")
    arrays = model.param_arrays()
    for name, array in arrays.items():
        if not np.isfinite(array).all():
            raise DataError(f"bundle {path}: parameter {name!r} has non-finite values")
    doc = {
        "format": BUNDLE_FORMAT,
        "schema_version": BUNDLE_SCHEMA_VERSION,
        "kind": model.kind,
        "corridor": asdict(model.config.shape),
        "architecture": {k: v for k, v in asdict(model.config).items() if k != "shape"},
        "normalization": asdict(norm),
        # an empty list stands in for each array's values, which are spliced
        # into the text in the sorted name order json.dumps writes. No other
        # '"data": []' can occur: a quote inside a JSON string is escaped.
        "params": {name: {"shape": list(array.shape), "data": []} for name, array in arrays.items()},
    }
    slots = json.dumps(doc, sort_keys=True).encode().split(b'"data": []')

    def pieces():
        yield slots[0]
        for name, rest in zip(sorted(arrays), slots[1:]):
            values = arrays[name].reshape(-1)
            yield b'"data": ['
            for lo in range(0, values.size, _SAVE_VALUES):
                text = format_rows([values[lo:lo + _SAVE_VALUES]], b"", b", ")
                yield text if lo + _SAVE_VALUES < values.size else text[:-2]
            yield b"]" + rest

    atomic_write_text(path, pieces())


def _require(doc: dict, key: str, path):
    if key not in doc:
        raise DataError(f"bundle {path} is missing required key {key!r}")
    return doc[key]


def _stored_values(spec, name: str, shape: tuple[int, ...], path) -> list:
    """The flat "data" list of one stored parameter, checked against its
    expected shape before anything of that size is allocated. Only JSON
    numbers pass: a bool, a string or a nested list is refused, not coerced."""
    if not isinstance(spec, dict) or "shape" not in spec or "data" not in spec:
        raise DataError(f"bundle {path}: parameter {name!r} needs 'shape' and 'data'")
    stored = spec["shape"]
    if (not isinstance(stored, list) or not all(type(d) is int for d in stored)
            or tuple(stored) != shape):
        raise DataError(f"bundle {path}: parameter {name!r} has shape {stored}, expected {shape}")
    data = spec["data"]
    if not isinstance(data, list) or not set(map(type, data)) <= {float, int}:
        raise DataError(f"bundle {path}: parameter {name!r} data must be a flat list of numbers")
    if len(data) != math.prod(shape):
        raise DataError(f"bundle {path}: parameter {name!r} data length mismatch")
    return data


def load_bundle(path):
    """Read a bundle back; returns (model, normalization)."""
    doc = read_json(path, "bundle", DataError)
    if not isinstance(doc, dict) or doc.get("format") != BUNDLE_FORMAT:
        raise DataError(f"bundle {path} is not a {BUNDLE_FORMAT!r} document")
    if doc.get("schema_version") != BUNDLE_SCHEMA_VERSION:
        raise DataError(
            f"bundle {path} has schema version {doc.get('schema_version')!r}, "
            f"expected {BUNDLE_SCHEMA_VERSION}"
        )
    kind = _require(doc, "kind", path)
    if not isinstance(kind, str) or kind not in STREAMS_BY_KIND:
        raise DataError(f"bundle {path} has unknown model kind {kind!r}")
    try:
        corridor = CorridorShape(**_require(doc, "corridor", path))
        config = ArchitectureConfig(shape=corridor, **_require(doc, "architecture", path))
        norm_doc = _require(doc, "normalization", path)
        norm = NormalizationParams(**norm_doc)
    except (ConfigError, DataError, TypeError, ValueError) as exc:
        raise DataError(f"bundle {path} has invalid configuration: {exc}") from exc
    shapes = param_shapes(config, kind)
    stored = _require(doc, "params", path)
    if not isinstance(stored, dict):
        raise DataError(f"bundle {path}: params must be an object, got {type(stored).__name__}")
    if set(stored) != set(shapes):
        missing = sorted(set(shapes) - set(stored))
        extra = sorted(set(stored) - set(shapes))
        raise DataError(f"bundle {path} parameter mismatch: missing {missing}, unexpected {extra}")
    data = {name: _stored_values(stored[name], name, shape, path) for name, shape in shapes.items()}
    # every array's size is now that of a list in the document
    model = ConvForecaster(config, kind)
    for name, target in model.param_arrays().items():
        try:
            values = np.asarray(data[name], dtype=np.float64)
        except OverflowError as exc:
            raise DataError(f"bundle {path}: parameter {name!r} has a value out of range: {exc}") from exc
        if not np.isfinite(values).all():
            raise DataError(f"bundle {path}: parameter {name!r} has non-finite values")
        target[...] = values.reshape(target.shape)
    return model, norm
