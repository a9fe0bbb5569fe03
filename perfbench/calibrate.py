"""Machine-speed calibration for the benchmark's end-to-end timings.

On a shared host the speed of one core drifts by a quarter or more over
tens of seconds, and whole runs land in slow or fast spells. Two fixed
kernels that lanecast cannot change are timed between set-ups and between
rounds: a conv-like numpy loop with small GEMMs, and interpreter plus
float <-> text work like the CSV and JSON paths. Contention slows the two
kinds of work by different amounts and lanecast does both, so the machine
speed is the geometric mean of the two kernels' speeds relative to
REFERENCE_S. Scaling a run's timings by it reports them at one reference
machine speed. The raw timings are printed beside them.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

# Roughly each kernel's median time on a 2-core Xeon VM with numpy 2.4 and
# OpenBLAS; only the unit of the normalized figures depends on it.
REFERENCE_S = 0.008

_rng = np.random.default_rng(0)
_MAPS = _rng.random((64, 9, 7, 32))
_FILTERS = _rng.random((32, 2, 2, 32))
_LEFT = _rng.random((64, 256))
_RIGHT = _rng.random((256, 256))
_FLOATS = _rng.random(4000) * 80.0
# outputs are preallocated, so that the kernel times arithmetic and memory
# traffic rather than the allocator
_OUT = np.empty((64, 8, 6, 32))
_SCRATCH = np.empty((64, 8, 6, 32))
_PRODUCT = np.empty((64, 256))


def _arrays() -> None:
    # eight input channels of a batch-64 2x2 conv, then small GEMMs
    _OUT.fill(0.0)
    for a in range(2):
        for b in range(2):
            for ch in range(8):
                np.multiply(_MAPS[:, a:a + 8, b:b + 6, ch, np.newaxis], _FILTERS[:, a, b, ch], out=_SCRATCH)
                np.add(_OUT, _SCRATCH, out=_OUT)
    for _ in range(4):
        np.matmul(_LEFT, _RIGHT, out=_PRODUCT)


def _objects() -> None:
    total = 0
    for i in range(60_000):
        total += i * i
    text = ",".join(repr(float(v)) for v in _FLOATS)
    [float(t) for t in text.split(",")]


KERNELS = {"arrays": _arrays, "objects": _objects}


class Calibration:
    def __init__(self):
        self.samples: dict[str, list[float]] = {kind: [] for kind in KERNELS}

    def sample_for(self, seconds: float, minimum: int = 3) -> None:
        """Time every kernel in turn for about `seconds`."""
        end = time.perf_counter() + seconds
        count = 0
        while count < minimum or time.perf_counter() < end:
            for kind, work in KERNELS.items():
                start = time.perf_counter()
                work()
                self.samples[kind].append(time.perf_counter() - start)
            count += 1

    def speed(self) -> float:
        """Machine speed relative to the reference: above 1 is faster."""
        return statistics.geometric_mean(
            REFERENCE_S / statistics.median(times) for times in self.samples.values()
        )
