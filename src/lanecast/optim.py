"""Root-mean-square gradient propagation over named parameter arrays."""

from __future__ import annotations

import numpy as np

from .errors import ConfigError, ShapeError
from .lanes import two_lanes

# elements per update chunk: each lane's two scratch buffers of this length,
# shared by every array, take 768 KB, where whole-array temporaries took two
# copies of the largest parameter (4.6 MB each at the 10x8x4 corridor). With
# shorter chunks a two-lane update spends its gain on handing the GIL over at
# every ufunc call; 65,536 was 0.2 ms a step faster on a 2-core Xeon VM,
# but 0.5 MB larger.
_STEP_CHUNK = 49152


class RmsProp:
    """Per-element update: v <- rho*v + (1-rho)*g^2; theta <- theta - lr*g/(sqrt(v)+eps).

    Accumulators start at zero and are created lazily per parameter name, so
    one optimizer instance can drive any dict of named arrays. Updates mutate
    the parameter arrays in place, with no whole-array temporaries.
    """

    def __init__(self, learning_rate: float, rho: float = 0.9, epsilon: float = 1e-8):
        if learning_rate <= 0.0:
            raise ConfigError(f"learning rate must be positive, got {learning_rate}")
        if not 0.0 <= rho < 1.0:
            raise ConfigError(f"decay rho must be in [0, 1), got {rho}")
        if epsilon <= 0.0:
            raise ConfigError(f"epsilon must be positive, got {epsilon}")
        self.learning_rate = learning_rate
        self.rho = rho
        self.epsilon = epsilon
        self.accumulators: dict[str, np.ndarray] = {}
        self._scratch: np.ndarray | None = None

    def step(self, params: dict[str, np.ndarray], grads: dict[str, np.ndarray]) -> None:
        for name, value in params.items():
            if name not in grads:
                raise ShapeError(f"no gradient supplied for parameter {name!r}")
            grad = grads[name]
            if grad.shape != value.shape:
                raise ShapeError(
                    f"gradient shape {grad.shape} != parameter shape {value.shape} for {name!r}"
                )
            acc = self.accumulators.get(name)
            if acc is None:
                acc = self.accumulators[name] = np.zeros(value.shape, value.dtype)
            work = value if value.flags.c_contiguous else np.ascontiguousarray(value)
            self._update(work.reshape(-1), acc.reshape(-1), np.reshape(grad, -1))
            if work is not value:
                value[...] = work

    def _update(self, value, acc, grad) -> None:
        """The update of flat arrays: an array of two chunks or more is split
        at a chunk boundary, its first half updated by the calling thread and
        its second by the worker lane, each through its own scratch pair."""
        if self._scratch is None:
            self._scratch = np.empty((2, 2, _STEP_CHUNK))
        chunks = -(-len(value) // _STEP_CHUNK)
        if chunks < 2:
            self._update_chunks(value, acc, grad, self._scratch[0])
            return
        split = (chunks + 1) // 2 * _STEP_CHUNK
        first, second = np.s_[:split], np.s_[split:]
        two_lanes(
            lambda: self._update_chunks(value[first], acc[first], grad[first], self._scratch[0]),
            lambda: self._update_chunks(value[second], acc[second], grad[second], self._scratch[1]),
        )

    def _update_chunks(self, value, acc, grad, scratch) -> None:
        """The update of flat arrays, in chunks through a scratch pair: the
        operations, and their order, of
            acc *= rho
            acc += (1 - rho) * np.square(grad)
            value -= lr * grad / (np.sqrt(acc) + eps)
        without a temporary array, so bitwise equal to it. Allocates no array."""
        for start in range(0, len(value), _STEP_CHUNK):
            stop = start + _STEP_CHUNK
            g, v = grad[start:stop], acc[start:stop]
            a, b = scratch[0, :len(g)], scratch[1, :len(g)]
            v *= self.rho
            np.square(g, out=a)
            np.multiply(1.0 - self.rho, a, out=a)
            v += a
            np.multiply(self.learning_rate, g, out=a)
            np.sqrt(v, out=b)
            b += self.epsilon
            a /= b
            value[start:stop] -= a
