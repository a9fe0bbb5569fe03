"""SampleSets built from window arrays, for tests."""

import numpy as np

from lanecast.pipeline import SampleSet


def sample_set(speed_history, volume_history, speed_target, volume_target, origins):
    """The SampleSet of these windows, each laid into the grids as its own
    rows: its history columns, then its target. Every row of a window holds
    its origin timestamp."""
    count, detectors, steps, lanes = np.shape(speed_history)
    grids = []
    for history, target in ((speed_history, speed_target), (volume_history, volume_target)):
        rows = np.concatenate([np.transpose(history, (0, 2, 1, 3)),
                               np.reshape(target, (count, 1, detectors, lanes))], axis=1)
        grids.append(rows.reshape(count * (steps + 1), detectors, lanes))
    timestamps = np.repeat(np.asarray(origins, dtype=np.int64), steps + 1)
    return SampleSet(*grids, timestamps, np.arange(count) * (steps + 1), steps)
