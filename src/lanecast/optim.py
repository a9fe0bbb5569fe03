"""Root-mean-square gradient propagation over named parameter arrays."""

from __future__ import annotations

from functools import partial

import numpy as np

from .errors import ConfigError, ShapeError
from .lanes import claim_chunks, even_chunks

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
        # every pair is checked first, so a refused step updates no array
        for name, value in params.items():
            if name not in grads:
                raise ShapeError(f"no gradient supplied for parameter {name!r}")
            grad = grads[name]
            if grad.shape != value.shape:
                raise ShapeError(
                    f"gradient shape {grad.shape} != parameter shape {value.shape} for {name!r}"
                )
        if self._scratch is None:
            self._scratch = np.empty((2, 2, _STEP_CHUNK))
        for name, value in params.items():
            acc = self.accumulators.get(name)
            if acc is None:
                acc = self.accumulators[name] = np.zeros(value.shape, value.dtype)
            work = value if value.flags.c_contiguous else np.ascontiguousarray(value)
            update = partial(self._update_chunk, work.reshape(-1), acc.reshape(-1),
                             np.reshape(grads[name], -1))
            # each lane's scratch pair is one half of self._scratch
            halves = iter(self._scratch)
            claim_chunks(even_chunks(value.size, _STEP_CHUNK), update, lambda: (next(halves),))
            if work is not value:
                value[...] = work

    def _update_chunk(self, value, acc, grad, chunk, scratch) -> None:
        """The update of one (start, stop) chunk of flat arrays through a
        lane's scratch pair: the operations, and their order, of
            acc *= rho
            acc += (1 - rho) * np.square(grad)
            value -= lr * grad / (np.sqrt(acc) + eps)
        without a temporary array, so bitwise equal to it. Allocates no array."""
        start, stop = chunk
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
