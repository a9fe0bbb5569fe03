"""Smoke run of every benchmark workload at a tiny size (a few seconds).

Run with `python -m pytest perfbench`. The repository's default test command
collects only tests/, so the benchmark stays out of it.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def _run(script, trace, cwd=None):
    return subprocess.run(
        [sys.executable, str(script), "--workload", "all", "--seed", "3", "--seconds", "0.5",
         "--trace", str(trace), "--smoke"],
        capture_output=True, text=True, timeout=300, cwd=cwd,
    )


@pytest.mark.parametrize("trace", [0, 1])
def test_every_workload_reports_every_metric(trace):
    done = _run(HERE / "run.py", trace)
    assert done.returncode == 0, done.stderr
    lines = [json.loads(line) for line in done.stdout.splitlines()]
    final = lines[-1]
    assert final["correct"] and final["failed"] == 0 and final["attempted"] >= 3
    expected = [m["name"] for m in SPEC["per_layer" if trace else "end_to_end"]]
    results = {name: line[name] for line in lines for name in ("train", "forecast", "ingest") if name in line}
    assert sorted(results) == sorted(w["name"] for w in SPEC["workloads"])
    for result in results.values():
        assert list(result["metrics"]) == expected
    if trace:
        assert results["ingest"]["metrics"]["pipeline.group_records_calls"]["value"] == 2
        assert results["train"]["metrics"]["layers.conv.fwd_calls"]["value"] == 6
        assert results["train"]["metrics"]["layers.conv.bwd_calls"]["value"] == 6
    else:
        for result in results.values():
            assert all(m["value"] > 0 for m in result["metrics"].values())


def test_fails_without_the_program(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    done = _run(tmp_path / "perfbench" / "run.py", 0, cwd=tmp_path)
    assert done.returncode != 0
    assert '"correct"' not in done.stdout


def test_tracer_self_time_and_restore(monkeypatch):
    monkeypatch.syspath_prepend(str(HERE.parent / "src"))
    import hooks
    import lanecast.model
    import lanecast.optim
    from lanecast.pipeline import CorridorShape
    from spans import Tracer

    originals = (lanecast.model.conv2d_valid, lanecast.optim.RmsProp.__dict__["step"])
    tracer = Tracer()
    hooks.install(tracer, CorridorShape(10, 8, 4), (32, 32, 32))
    try:
        assert lanecast.model.conv2d_valid is not originals[0]
        with tracer.span("outer"):
            with tracer.span("inner"):
                sum(range(10_000))
    finally:
        tracer.restore()
    assert (lanecast.model.conv2d_valid, lanecast.optim.RmsProp.__dict__["step"]) == originals
    outer, inner = tracer.spans
    assert inner.parent == 0 and outer.parent == -1
    assert tracer.self_times()[0] == pytest.approx(outer.duration - inner.duration)
