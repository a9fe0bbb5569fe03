"""Building blocks of the forecasting network.

Spatial tensors are float64 numpy arrays of shape (rows, cols, channels),
optionally with a leading batch axis: rows index detectors, columns index
time steps, channels index lanes. Every layer is a forward/backward pair
with hand-derived gradients; there is no autodiff tape. Convolution is
cross-correlation (no kernel flip), stride 1, valid padding.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass

import numpy as np

from .errors import ShapeError
from .lanes import claim_chunks, even_chunks, two_lanes

Array = np.ndarray
# Output positions (windows x rows x cols) per conv forward chunk, at most: a
# 64-window train batch's first layer at the 10x8x4 corridor (64 x 9 x 7 =
# 4,032 positions) is two chunks of 32 windows, one per lane.
_CONV_POSITIONS = 2048
# held, so numpy's __array_interface__ (each sliding_window_view) does not intern
# "typestr" anew: CPython 3.11 then rebuilds a 1.9 MB table every ~43k calls
_TYPESTR = sys.intern("typestr")


def _as_f64(x) -> Array:
    return np.asarray(x, dtype=np.float64)


@dataclass
class FilterBank:
    """Weights and biases of one convolutional layer.

    weights: (num_filters, filter_rows, filter_cols, in_channels)
    biases:  (num_filters,)
    """

    weights: Array
    biases: Array

    def __post_init__(self):
        self.weights = _as_f64(self.weights)
        self.biases = _as_f64(self.biases)
        if self.weights.ndim != 4:
            raise ShapeError(f"filter weights must be 4-d, got shape {self.weights.shape}")
        if self.biases.shape != (self.weights.shape[0],):
            raise ShapeError(
                f"need one bias per filter: {self.weights.shape[0]} filters, "
                f"bias shape {self.biases.shape}"
            )

    @property
    def num_filters(self) -> int:
        return self.weights.shape[0]

    @property
    def filter_rows(self) -> int:
        return self.weights.shape[1]

    @property
    def filter_cols(self) -> int:
        return self.weights.shape[2]

    @property
    def in_channels(self) -> int:
        return self.weights.shape[3]


@dataclass
class DenseParams:
    """Weights and biases of a fully connected layer.

    weights: (out_dim, in_dim)
    biases:  (out_dim,)
    """

    weights: Array
    biases: Array

    def __post_init__(self):
        self.weights = _as_f64(self.weights)
        self.biases = _as_f64(self.biases)
        if self.weights.ndim != 2:
            raise ShapeError(f"dense weights must be 2-d, got shape {self.weights.shape}")
        if self.biases.shape != (self.weights.shape[0],):
            raise ShapeError(
                f"need one bias per output: {self.weights.shape[0]} outputs, "
                f"bias shape {self.biases.shape}"
            )

    @property
    def out_dim(self) -> int:
        return self.weights.shape[0]

    @property
    def in_dim(self) -> int:
        return self.weights.shape[1]


# -- convolution -------------------------------------------------------------


def conv2d_valid(x: Array, bank: FilterBank) -> Array:
    """Multi-channel valid cross-correlation, stride 1.

    Each output element is the sliding-window dot product summed over input
    channels, plus the filter's bias. Output shape is
    (rows - filter_rows + 1, cols - filter_cols + 1, num_filters).
    Accepts an optional leading batch axis.
    """
    x = _as_f64(x)
    if x.ndim == 3:
        return _conv_forward(x[np.newaxis], bank)[0]
    if x.ndim == 4:
        return _conv_forward(x, bank)
    raise ShapeError(f"expected a 3-d or 4-d input tensor, got shape {x.shape}")


def _conv_shapes(x: Array, bank: FilterBank) -> tuple[int, int]:
    _, rows, cols, channels = x.shape
    if bank.in_channels != channels:
        raise ShapeError(
            f"filter bank expects {bank.in_channels} input channels, tensor has {channels}"
        )
    if bank.filter_rows > rows or bank.filter_cols > cols:
        raise ShapeError(
            f"filter {bank.filter_rows}x{bank.filter_cols} does not fit "
            f"input {rows}x{cols}"
        )
    return rows - bank.filter_rows + 1, cols - bank.filter_cols + 1


def _taps(x: Array, bank: FilterBank) -> Array:
    """im2col view (batch, out_rows, out_cols, filter_rows, filter_cols, channels)."""
    windows = np.lib.stride_tricks.sliding_window_view(x, bank.weights.shape[1:3], axis=(1, 2))
    return windows.transpose(0, 1, 2, 4, 5, 3)


def _conv_forward(x: Array, bank: FilterBank) -> Array:
    out_rows, out_cols = _conv_shapes(x, bank)
    filters = bank.num_filters
    w = bank.weights.reshape(filters, -1)
    out = np.empty((x.shape[0], out_rows, out_cols, filters))
    # Chunks hold whole windows, at most _CONV_POSITIONS output positions and
    # at least one window; the lanes claim them in turn.
    positions = out_rows * out_cols
    chunks = even_chunks(len(x), max(1, _CONV_POSITIONS // positions))
    # One flat buffer set per lane serves each of its chunks in turn (a set
    # per chunk raised train's peak RSS).
    columns = max(b - a for a, b in chunks) * positions

    def new_buffers():
        return [np.empty(n * columns) for n in (w.shape[1], filters, filters)]

    def convolve(chunk, *buffers):
        a, b = chunk
        _conv_chunk(x[a:b], bank, w, out[a:b], *buffers)

    # A small ufunc buffer stops numpy copying the broadcast weights through
    # it (3x on layer 3), in both lanes.
    bufsize = np.setbufsize(16)
    try:
        claim_chunks(chunks, convolve, new_buffers)
    finally:
        np.setbufsize(bufsize)
    return out


def _conv_chunk(x, bank, w, out, patch_buf, acc_buf, tmp_buf) -> None:
    """Convolve the windows of `x` into `out`, through the given buffers.

    Every output element gets a scalar loop's operations, acc = 0; acc += x*w
    over taps (filter row, col, channel); acc + bias: bitwise reproducible,
    whatever the chunk and the lane. Tap-major patches give every ufunc long
    rows. Allocates no array."""
    filters = len(w)
    view = _taps(x, bank).transpose(3, 4, 5, 0, 1, 2)
    patches = patch_buf[:view.size].reshape(view.shape)
    patches[...] = view
    patches = patches.reshape(w.shape[1], -1)
    acc = acc_buf[:filters * patches.shape[1]].reshape(filters, -1)
    tmp = tmp_buf[:acc.size].reshape(acc.shape)
    acc[...] = 0.0
    for w_tap, row in zip(w.T[:, :, np.newaxis], patches):
        acc += np.multiply(w_tap, row, out=tmp)
    acc += bank.biases[:, np.newaxis]
    out.reshape(-1, filters)[...] = acc.T


def conv2d_backward(
    x: Array, bank: FilterBank, grad_out: Array, *, input_grad: bool = True
) -> tuple[Array | None, FilterBank]:
    """Gradients of a scalar loss through :func:`conv2d_valid`.

    Returns (grad_input, filter-bank-shaped gradients). `grad_out` must have
    the forward output's shape. Set input_grad=False to skip the (unused)
    input gradient of a network's first layer.
    """
    x = _as_f64(x)
    grad_out = _as_f64(grad_out)
    if x.ndim == 3:
        if grad_out.ndim != 3:
            raise ShapeError(f"gradient must be 3-d like the input, got {grad_out.shape}")
        gx, gbank = _conv_backward(x[np.newaxis], bank, grad_out[np.newaxis], input_grad)
        return (gx[0] if gx is not None else None), gbank
    if x.ndim == 4:
        return _conv_backward(x, bank, grad_out, input_grad)
    raise ShapeError(f"expected a 3-d or 4-d input tensor, got shape {x.shape}")


def _conv_backward(
    x: Array, bank: FilterBank, grad_out: Array, input_grad: bool
) -> tuple[Array | None, FilterBank]:
    out_rows, out_cols = _conv_shapes(x, bank)
    expected = (x.shape[0], out_rows, out_cols, bank.num_filters)
    if grad_out.shape != expected:
        raise ShapeError(f"output gradient shape {grad_out.shape} != expected {expected}")
    fr, fc = bank.filter_rows, bank.filter_cols
    # im2col lowering (Chellapilla et al., 2006): one row per output
    # position, one column per tap in the weights' (row, col, channel) order,
    # so both gradients are single matrix products.
    g = grad_out.reshape(-1, bank.num_filters)
    w = bank.weights.reshape(bank.num_filters, -1)
    view = _taps(x, bank)
    patches, grad_w = np.empty(view.shape), np.empty(w.shape)

    def weight_grad():
        patches[...] = view
        np.matmul(g.T, patches.reshape(g.shape[0], -1), out=grad_w)

    def input_and_bias_grads():
        # col2im: each tap's column block is added back at its shifted window.
        cols = (g @ w).reshape(x.shape[0], out_rows, out_cols, fr, fc, x.shape[3])
        grad_x = np.zeros_like(x)
        for a in range(fr):
            for b in range(fc):
                grad_x[:, a:a + out_rows, b:b + out_cols] += cols[:, :, :, a, b]
        return grad_x, grad_out.sum(axis=(0, 1, 2))

    # The worker gathers the patches and forms the weight gradient while the
    # caller forms the others; a first layer needs no input gradient.
    if input_grad:
        grad_x, grad_b = two_lanes(input_and_bias_grads, weight_grad)
    else:
        weight_grad()
        grad_x, grad_b = None, grad_out.sum(axis=(0, 1, 2))
    return grad_x, FilterBank(grad_w.reshape(bank.weights.shape), grad_b)


# -- elementwise --------------------------------------------------------------


def relu(x: Array) -> Array:
    return np.maximum(_as_f64(x), 0.0)


def relu_backward(x: Array, grad_out: Array) -> Array:
    """Pass gradient where x > 0, zero elsewhere (subgradient at 0 is 0)."""
    return np.where(_as_f64(x) > 0.0, grad_out, 0.0)


# -- dense --------------------------------------------------------------------


def dense_forward(x: Array, params: DenseParams) -> Array:
    """y = W x + b; accepts a single vector or a (batch, in_dim) matrix."""
    x = _as_f64(x)
    if x.shape[-1] != params.in_dim:
        raise ShapeError(f"dense layer expects {params.in_dim} inputs, got {x.shape[-1]}")
    return x @ params.weights.T + params.biases


def dense_backward(
    x: Array, params: DenseParams, grad_out: Array
) -> tuple[Array, Array, Array]:
    """Returns (grad_x, grad_weights, grad_biases)."""
    x = _as_f64(x)
    grad_out = _as_f64(grad_out)
    if x.shape[-1] != params.in_dim:
        raise ShapeError(f"dense layer expects {params.in_dim} inputs, got {x.shape[-1]}")
    if grad_out.shape[-1] != params.out_dim:
        raise ShapeError(
            f"dense gradient expects {params.out_dim} outputs, got {grad_out.shape[-1]}"
        )
    if x.ndim == 1:
        return params.weights.T @ grad_out, np.outer(grad_out, x), grad_out.copy()
    # the weight gradient on the worker, the input and bias gradients on the caller
    grad_w = np.empty(params.weights.shape)
    grad_x, grad_b = two_lanes(
        lambda: (grad_out @ params.weights, grad_out.sum(axis=0)),
        lambda: np.matmul(grad_out.T, x, out=grad_w),
    )
    return grad_x, grad_w, grad_b


# -- dropout ------------------------------------------------------------------


def dropout_forward(x: Array, ratio: float, rng=None):
    """Inverted dropout. Given a generator, zero each unit with probability
    `ratio` and scale survivors by 1/(1-ratio); without one, the identity,
    as inference needs.

    Returns (output, mask); mask is None whenever dropout was a no-op. The
    mask is drawn from `rng`, so a copy of the generator replays it.
    """
    if not 0.0 <= ratio < 1.0:
        raise ValueError(f"dropout ratio must be in [0, 1), got {ratio}")
    if rng is None or ratio == 0.0:
        return x, None
    mask = (rng.random(np.shape(x)) >= ratio) / (1.0 - ratio)
    return x * mask, mask


def dropout_backward(grad_out: Array, mask: Array | None) -> Array:
    return grad_out if mask is None else grad_out * mask
