"""Every name that the benchmark's tracer patches still resolves.

`perfbench/hooks.py` wraps functions and methods at the names their callers
look up (`lanecast.model.dropout_forward`, `ConvForecaster.forward_batch`,
...). A refactor that renames or removes one fails here, not only under
`python -m pytest perfbench`, which the default test command does not collect.
"""

import importlib.util
from pathlib import Path

import lanecast.model
from lanecast.pipeline import CorridorShape

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def load(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_trace_point_resolves():
    hooks, spans = load("hooks"), load("spans")
    originals = dict(vars(lanecast.model.ConvForecaster))
    tracer = spans.Tracer()
    try:
        hooks.install(tracer, CorridorShape(4, 4, 2), (4, 4, 4))
    finally:
        tracer.restore()
    assert dict(vars(lanecast.model.ConvForecaster)) == originals
