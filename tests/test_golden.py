"""Golden outputs: the sha256 of every file and stdout that `train`,
`evaluate`, `heatmap` and `sweep` produce on one small gapped corpus, for
both model kinds, and of a `PersistenceModel` evaluate report, against the
committed manifest `golden_manifest.json`.

The CLI runs in subprocesses at one BLAS thread: trained bytes depend on the
thread count (ROADMAP item 4). A change that moves any of these bytes on
purpose rewrites the manifest and names each changed file, and the reason,
in CHANGES.md. To rewrite it:

    PYTHONPATH=src python tests/test_golden.py
"""

import dataclasses
import hashlib
import json
import os
import pathlib
import subprocess
import sys
import tempfile

import numpy as np
import pytest

import lanecast
import lanecast.training
from lanecast.cli import main
from lanecast.model import ConvForecaster, PersistenceModel, load_bundle
from lanecast.pipeline import (
    CorridorShape,
    Records,
    build_samples,
    prepare_dataset,
    read_records,
    write_records,
)
from lanecast.synth import SynthConfig, generate
from lanecast.training import evaluate

MANIFEST = pathlib.Path(__file__).with_name("golden_manifest.json")
SRC = pathlib.Path(lanecast.__file__).resolve().parents[1]

SHAPE = CorridorShape(detectors=6, steps=6, lanes=3)
HORIZONS = [1, 2, 3, 5]
KINDS = ("two_stream", "single_stream")
# day 1 has no gap, so the heatmap covers all of it: 288 windows
HEATMAP_DAYS = "1:2"


def _config(kind) -> dict:
    return {
        "schema_version": 1,
        "corridor": dataclasses.asdict(SHAPE),
        "architecture": {"filters_per_layer": [8, 8, 8], "fc_hidden": 32, "seed": 4},
        "training": {"epochs": 2, "batch_size": 32, "learning_rate": 0.001, "seed": 4},
        "model": kind,
    }


def write_corpus(path) -> None:
    """The 2-day corpus of seed 4 without three timestamps of day 0 (two of
    them adjacent) and without one cell of a fourth."""
    records = generate(SynthConfig(shape=SHAPE, days=2, seed=4))
    times = np.unique(records.timestamp)
    keep = ~np.isin(records.timestamp, times[[30, 31, 150]])
    keep &= ~((records.timestamp == times[220]) & (records.detector_index == 3) & (records.lane == 2))
    write_records(path, Records(*(getattr(records, f.name)[keep] for f in dataclasses.fields(Records))))


def run_cli(workdir, *argv) -> bytes:
    """stdout of `lanecast ARGV` run in `workdir` at one BLAS thread."""
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1",
               PYTHONPATH=os.pathsep.join([str(SRC), *filter(None, [os.environ.get("PYTHONPATH")])]))
    proc = subprocess.run([sys.executable, "-m", "lanecast.cli", *argv], cwd=workdir, env=env,
                          capture_output=True, timeout=300)
    assert proc.returncode == 0, proc.stderr.decode()
    return proc.stdout


def train_bundles(workdir) -> dict[str, bytes]:
    """Writes data.csv and a config and bundle per kind into `workdir`;
    returns the stdout of each `train`."""
    workdir = pathlib.Path(workdir)
    write_corpus(workdir / "data.csv")
    stdout = {}
    for kind in KINDS:
        (workdir / f"{kind}.config.json").write_text(json.dumps(_config(kind)))
        stdout[kind] = run_cli(workdir, "train", "--config", f"{kind}.config.json",
                               "--data", "data.csv", "--bundle", f"{kind}.json")
    return stdout


def report_bytes(report) -> bytes:
    """An EvalReport as text, floats in their shortest round-trip form."""
    return repr(dataclasses.asdict(report)).encode()


def golden_outputs(workdir) -> dict[str, str]:
    """sha256 of every output, by file name (stdout as `<name>.stdout`)."""
    workdir = pathlib.Path(workdir)
    stdout = {f"{kind}_train.stdout": out for kind, out in train_bundles(workdir).items()}
    for kind in KINDS:
        stdout[f"{kind}_evaluate.stdout"] = run_cli(
            workdir, "evaluate", "--bundle", f"{kind}.json", "--data", "data.csv",
            "--horizons", ",".join(map(str, HORIZONS)), "--out", f"{kind}_eval")
        stdout[f"{kind}_heatmap.stdout"] = run_cli(
            workdir, "heatmap", "--bundle", f"{kind}.json", "--data", "data.csv",
            "--days", HEATMAP_DAYS, "--out", f"{kind}_heat")
        stdout[f"{kind}_sweep.stdout"] = run_cli(
            workdir, "sweep", "--config", f"{kind}.config.json", "--data", "data.csv",
            "--axis", "lr", "--values", "0.001,0.003", "--out", f"{kind}_sweep.csv")
    records = read_records(workdir / "data.csv")
    norm, _, _ = prepare_dataset(records, SHAPE, 0.8)
    report = evaluate(PersistenceModel(), build_samples(records, SHAPE, norm), HORIZONS, norm, SHAPE)
    contents = {path.name: path.read_bytes() for path in workdir.iterdir()
                if not path.name.endswith(".config.json")}
    contents.update(stdout)
    contents["persistence_report.txt"] = report_bytes(report)
    return {name: hashlib.sha256(data).hexdigest() for name, data in sorted(contents.items())}


@pytest.fixture(scope="module")
def golden(tmp_path_factory):
    """(directory of the outputs, their sha256 by name)."""
    workdir = tmp_path_factory.mktemp("golden")
    return workdir, golden_outputs(workdir)


def test_outputs_match_the_manifest(golden):
    expected = json.loads(MANIFEST.read_text())
    got = golden[1]
    assert sorted(got) == sorted(expected)
    changed = [name for name in expected if got[name] != expected[name]]
    assert changed == []


def test_heatmap_defaults_to_the_first_day_with_history(golden, tmp_path):
    # day 0's first timestamps have no history before them: without --days
    # the heatmap covers day 1, as --days 1:2 does
    workdir = golden[0]

    def heatmap(prefix, *days):
        argv = ["heatmap", "--bundle", str(workdir / "two_stream.json"), "--data",
                str(workdir / "data.csv"), *days, "--out", str(tmp_path / prefix)]
        assert main(argv) == 0
        return {path.name[len(prefix):]: path.read_bytes() for path in tmp_path.glob(f"{prefix}_*")}

    default = heatmap("default")
    assert default == heatmap("days", "--days", HEATMAP_DAYS)
    assert len(default) == SHAPE.lanes * (4 + SHAPE.detectors)


# Most windows per chunk while a test runs evaluate and heatmap in small
# chunks. Not fewer: at this shape the single-stream head (18 outputs) gets
# other bits in batches of up to 66 windows (ROADMAP item 12).
SMALL_CHUNKS = (96, 128)


def rollout_sizes(monkeypatch, model_class) -> list[int]:
    """The windows of each `model_class.rollout` call from now on."""
    sizes = []
    rollout = model_class.rollout
    monkeypatch.setattr(model_class, "rollout",
                        lambda self, part, horizon: sizes.append(len(part)) or rollout(self, part, horizon))
    return sizes


@pytest.mark.parametrize("chunk", SMALL_CHUNKS)
class TestChunkBoundaries:
    @pytest.mark.parametrize("order", ["chronological", "shuffled"])
    @pytest.mark.parametrize("kind", [*KINDS, "persistence"])
    def test_evaluate_report_equals_one_chunk_run(self, golden, monkeypatch, chunk, kind, order):
        workdir = golden[0]
        records = read_records(workdir / "data.csv")
        if kind == "persistence":
            model, (norm, _, _) = PersistenceModel(), prepare_dataset(records, SHAPE, 0.8)
        else:
            model, norm = load_bundle(workdir / f"{kind}.json")
        # 548 windows; the gaps of day 0 leave some without look-ahead
        samples = build_samples(records, SHAPE, norm)
        one_chunk = report_bytes(evaluate(model, samples, HORIZONS, norm, SHAPE))
        if order == "shuffled":
            samples = samples[np.random.default_rng(chunk).permutation(len(samples))]
        monkeypatch.setattr(lanecast.training, "_FORECAST_CHUNK", chunk)
        sizes = rollout_sizes(monkeypatch, type(model))
        assert report_bytes(evaluate(model, samples, HORIZONS, norm, SHAPE)) == one_chunk
        # several chunks of two sizes: the set is no whole number of chunks
        assert len(sizes) > 1 and max(sizes) - min(sizes) == 1 and sum(sizes) == len(samples)

    @pytest.mark.parametrize("kind", KINDS)
    def test_heatmap_outputs_equal_one_chunk_run(self, golden, tmp_path, monkeypatch, chunk, kind):
        workdir = golden[0]

        def heatmap(prefix):
            argv = ["heatmap", "--bundle", str(workdir / f"{kind}.json"), "--data",
                    str(workdir / "data.csv"), "--days", HEATMAP_DAYS, "--out", str(tmp_path / prefix)]
            assert main(argv) == 0
            return {path.name[len(prefix):]: path.read_bytes() for path in tmp_path.glob(f"{prefix}_*")}

        one_chunk = heatmap("whole")
        monkeypatch.setattr(lanecast.training, "_FORECAST_CHUNK", chunk)
        sizes = rollout_sizes(monkeypatch, ConvForecaster)
        assert heatmap("chunked") == one_chunk
        # a day of windows: four chunks of 72, above the 66-window edge
        assert sizes == [72] * 4
        assert len(one_chunk) == SHAPE.lanes * (4 + SHAPE.detectors)

    @pytest.mark.parametrize("kind", KINDS)
    def test_train_loss_curve_equals_one_chunk_run(self, golden, tmp_path, monkeypatch, chunk, kind):
        # the 110 test windows: two chunks of 55 at 96, one at 128
        workdir = golden[0]

        def loss_csv(name):
            argv = ["train", "--config", str(workdir / f"{kind}.config.json"), "--data",
                    str(workdir / "data.csv"), "--bundle", str(tmp_path / f"{name}.json")]
            assert main(argv) == 0
            return (tmp_path / f"{name}.json.loss.csv").read_bytes()

        one_chunk = loss_csv("whole")
        monkeypatch.setattr(lanecast.training, "_FORECAST_CHUNK", chunk)
        assert loss_csv("chunked") == one_chunk


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        MANIFEST.write_text(json.dumps(golden_outputs(tmp), indent=1, sort_keys=True) + "\n")
    print(f"wrote {MANIFEST}")
