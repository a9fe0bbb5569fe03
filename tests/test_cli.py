import ast
import copy
import hashlib
import json
import math
import os
import pathlib
import subprocess
import sys
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lanecast import cli
from lanecast.cli import main
from lanecast.config import default_run_config, load_run_config, parse_run_config
from lanecast.errors import ConfigError, DataError
from lanecast.model import ArchitectureConfig, ConvForecaster, load_bundle, save_bundle
from lanecast.pipeline import CorridorShape, NormalizationParams, Records, read_records, write_records


def small_doc(**extra):
    doc = {
        "schema_version": 1,
        "corridor": {"detectors": 4, "steps": 4, "lanes": 2, "interval": 300},
        "architecture": {"filters_per_layer": [4, 4, 4], "fc_hidden": 16, "seed": 3},
        "training": {"epochs": 2, "seed": 3, "batch_size": 32, "learning_rate": 0.001},
        "synth": {"days": 2, "seed": 3},
    }
    doc.update(extra)
    return doc


def small_config_doc(tmp_path, **extra):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(small_doc(**extra)))
    return str(path)


@pytest.fixture()
def corpus(tmp_path):
    config = small_config_doc(tmp_path)
    data = str(tmp_path / "data.csv")
    assert main(["synth", "--config", config, "--out", data]) == 0
    return config, data


def overflow_bundle(path):
    """A bundle of finite weights, all 1e200, that overflow in the forward pass."""
    model = ConvForecaster(ArchitectureConfig(shape=CorridorShape(4, 4, 2),
                                              filters_per_layer=(4, 4, 4), fc_hidden=8))
    for array in model.param_arrays().values():
        array[...] = 1e200
    save_bundle(path, model, NormalizationParams(0.0, 60.0, 0.0, 240.0))
    return str(path)


class TestConfig:
    def test_defaults_have_corridor_scale(self):
        config = default_run_config()
        assert config.corridor == CorridorShape(10, 8, 4, 300)
        assert config.architecture.filters_per_layer == (32, 32, 32)
        assert config.training.learning_rate == 1e-4

    def test_unknown_keys_rejected(self):
        with pytest.raises(ConfigError, match="unknown keys"):
            parse_run_config({"schema_version": 1, "bogus": 1})
        with pytest.raises(ConfigError, match="unknown keys"):
            parse_run_config({"schema_version": 1, "training": {"momentum": 0.9}})

    def test_schema_version_required(self):
        with pytest.raises(ConfigError, match="schema_version"):
            parse_run_config({"corridor": {"detectors": 4, "steps": 4, "lanes": 1}})

    def test_corridor_scale_config_accepted(self):
        config = parse_run_config(
            {"schema_version": 1, "corridor": {"detectors": 10, "steps": 8, "lanes": 4}}
        )
        model = ConvForecaster(config.architecture)
        assert model.config.conv_map_shapes() == [(9, 7), (8, 6), (7, 5)]

    def test_seed_override_applies_everywhere(self, tmp_path):
        path = small_config_doc(tmp_path)
        config = load_run_config(path, seed=99)
        assert config.architecture.seed == 99
        assert config.training.seed == 99
        assert config.synth.seed == 99


class TestSynthCommand:
    def test_record_count(self, tmp_path):
        config = small_config_doc(tmp_path, synth={"days": 1, "seed": 1})
        out = tmp_path / "one.csv"
        assert main(["synth", "--config", config, "--out", str(out)]) == 0
        records = read_records(out)
        assert len(records) == 288 * 4 * 2

    def test_csv_bytes_are_pinned(self, tmp_path):
        # sha256 of the CSV the per-record writer produced for this config
        config = small_config_doc(tmp_path, synth={"days": 1, "seed": 1})
        out = tmp_path / "one.csv"
        assert main(["synth", "--config", config, "--out", str(out)]) == 0
        digest = hashlib.sha256(out.read_bytes()).hexdigest()
        assert digest == "a5d1d5dc4b2a25a91899a936ac75d8aee36aad270e79e4e041bfdaaf7fda4dc7"

    def test_zero_days_is_usage_error(self, tmp_path):
        config = small_config_doc(tmp_path, synth={"days": 0})
        assert main(["synth", "--config", config, "--out", str(tmp_path / "x.csv")]) == 1

    def test_same_seed_byte_identical(self, tmp_path):
        config = small_config_doc(tmp_path)
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert main(["synth", "--config", config, "--out", str(a)]) == 0
        assert main(["synth", "--config", config, "--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_missing_subcommand_is_usage_error(self):
        assert main([]) == 1

    def test_fractional_corridor_is_usage_error(self, tmp_path, capsys):
        config = small_config_doc(tmp_path, corridor={"detectors": 4.5})
        assert main(["synth", "--config", config, "--out", str(tmp_path / "x.csv")]) == 1
        err = capsys.readouterr().err
        assert "detectors must be an integer" in err
        assert "Traceback" not in err


class TestTrainCommand:
    def test_end_to_end_and_determinism(self, corpus, tmp_path):
        config, data = corpus
        b1, b2 = tmp_path / "m1.json", tmp_path / "m2.json"
        assert main(["train", "--config", config, "--data", data, "--bundle", str(b1)]) == 0
        assert main(["train", "--config", config, "--data", data, "--bundle", str(b2)]) == 0
        assert b1.read_bytes() == b2.read_bytes()
        assert (tmp_path / "m1.json.loss.csv").exists()

    def test_loss_curve_format(self, corpus, tmp_path):
        config, data = corpus
        bundle = tmp_path / "m.json"
        assert main(["train", "--config", config, "--data", data, "--bundle", str(bundle)]) == 0
        lines = (tmp_path / "m.json.loss.csv").read_text().strip().splitlines()
        assert lines[0] == "epoch,train_loss,test_loss"
        assert len(lines) == 3  # 2 epochs
        for line in lines[1:]:
            epoch, train_loss, test_loss = line.split(",")
            assert float(train_loss) > 0 and float(test_loss) > 0

    def test_reload_reproduces_test_loss(self, corpus, tmp_path):
        import lanecast as lc

        config_path, data = corpus
        bundle = tmp_path / "m.json"
        assert main(["train", "--config", config_path, "--data", data, "--bundle", str(bundle)]) == 0
        run_config = load_run_config(config_path)
        records = read_records(data)
        norm, _, test_set = lc.prepare_dataset(records, run_config.corridor, run_config.split_fraction)
        model, bundle_norm = load_bundle(bundle)
        assert bundle_norm == norm
        reloaded_loss = lc.dataset_loss(model, test_set, run_config.training.volume_weight)
        lines = (tmp_path / "m.json.loss.csv").read_text().strip().splitlines()
        final_test_loss = float(lines[-1].split(",")[2])
        assert reloaded_loss == final_test_loss

    @pytest.mark.parametrize("bad_line", [
        b"600,1,1,3.\xff5,4\n",                           # not UTF-8
        b"600,1,1," + b"9" * 140_000 + b",4\n",            # beyond the csv field limit
        b"9223372036854775808,1,1,3.5,4\n",                # beyond int64
    ], ids=["non_utf8", "over_long_field", "timestamp_beyond_int64"])
    def test_unparseable_csv_is_data_error(self, corpus, tmp_path, capsys, bad_line):
        config, data = corpus
        bad = tmp_path / "bad.csv"
        bad.write_bytes(open(data, "rb").read() + bad_line)
        code = main(["train", "--config", config, "--data", str(bad), "--bundle", str(tmp_path / "m.json")])
        assert code == 2
        err = capsys.readouterr().err
        assert str(bad) in err and "Traceback" not in err

    def test_warning_is_one_line_without_source(self, tmp_path):
        # a separate process: pytest would capture the warning itself
        training = {"epochs": 1, "seed": 3, "batch_size": 32, "volume_weight": 4.5}
        config = small_config_doc(tmp_path, training=training, synth={"days": 1, "seed": 3})
        data = tmp_path / "data.csv"
        assert main(["synth", "--config", config, "--out", str(data)]) == 0
        src = os.path.dirname(os.path.dirname(cli.__file__))
        env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
        run = subprocess.run(
            [sys.executable, "-c", "import sys; from lanecast.cli import main; sys.exit(main())",
             "train", "--config", config, "--data", str(data), "--bundle", str(tmp_path / "m.json")],
            capture_output=True, text=True, env=env, timeout=300,
        )
        assert run.returncode == 0, run.stderr
        assert "warning: volume_weight 4.5 is outside the suggested [0, 1] range\n" in run.stderr
        assert ".py:" not in run.stderr

    def test_missing_data_flag_is_usage_error(self, tmp_path):
        config = small_config_doc(tmp_path)
        assert main(["train", "--config", config, "--bundle", str(tmp_path / "m.json")]) == 1

    def test_single_stream_model_config(self, corpus, tmp_path):
        config_path, data = corpus
        doc = json.loads(open(config_path).read())
        doc["model"] = "single_stream"
        single_config = tmp_path / "single.json"
        single_config.write_text(json.dumps(doc))
        bundle = tmp_path / "single_model.json"
        assert main(["train", "--config", str(single_config), "--data", data, "--bundle", str(bundle)]) == 0
        model, _ = load_bundle(bundle)
        assert model.kind == "single_stream"


class TestEvaluateCommand:
    def test_reports_written(self, corpus, tmp_path, capsys):
        config, data = corpus
        bundle = tmp_path / "m.json"
        assert main(["train", "--config", config, "--data", data, "--bundle", str(bundle)]) == 0
        out = tmp_path / "eval"
        assert main([
            "evaluate", "--bundle", str(bundle), "--data", data,
            "--horizons", "1,2,3", "--out", str(out),
        ]) == 0
        report = (tmp_path / "eval_report.csv").read_text().splitlines()
        assert report[0] == "horizon,accuracy_percent,samples_evaluated,samples_skipped,values_excluded"
        assert len(report) == 4
        lanes = (tmp_path / "eval_lanes.csv").read_text().splitlines()
        assert lanes[0] == "horizon,lane,accuracy_percent"
        assert len(lanes) == 1 + 3 * 2
        table = capsys.readouterr().out
        assert "horizon" in table and "accuracy" in table

    def test_missing_bundle_is_data_error(self, corpus, tmp_path):
        _, data = corpus
        code = main(["evaluate", "--bundle", str(tmp_path / "none.json"), "--data", data])
        assert code == 2

    def test_params_list_bundle_is_data_error(self, corpus, tmp_path):
        config, data = corpus
        bundle = tmp_path / "m.json"
        assert main(["train", "--config", config, "--data", data, "--bundle", str(bundle)]) == 0
        doc = json.loads(bundle.read_text())
        doc["params"] = list(doc["params"].values())
        bundle.write_text(json.dumps(doc))
        assert main(["evaluate", "--bundle", str(bundle), "--data", data]) == 2

    @pytest.mark.parametrize("poison", ["non_utf8", "bool_value", "huge_integer"])
    def test_malformed_bundle_data_is_data_error(self, corpus, tmp_path, poison):
        config, data = corpus
        bundle = tmp_path / "m.json"
        assert main(["train", "--config", config, "--data", data, "--bundle", str(bundle)]) == 0
        if poison == "non_utf8":
            bundle.write_bytes(b"\xff" + bundle.read_bytes())
        else:
            doc = json.loads(bundle.read_text())
            doc["params"]["output.biases"]["data"][0] = True if poison == "bool_value" else 10**400
            bundle.write_text(json.dumps(doc))
        assert main(["evaluate", "--bundle", str(bundle), "--data", data]) == 2

    def test_non_numeric_bundle_bounds_are_data_error(self, corpus, tmp_path):
        config, data = corpus
        bundle = tmp_path / "m.json"
        assert main(["train", "--config", config, "--data", data, "--bundle", str(bundle)]) == 0
        doc = json.loads(bundle.read_text())
        doc["normalization"].update(speed_min="a", speed_max="b")
        bundle.write_text(json.dumps(doc))
        assert main(["evaluate", "--bundle", str(bundle), "--data", data]) == 2

    def test_overflowing_normalization_width_is_data_error(self, corpus, tmp_path, capsys):
        # both speed bounds are finite but their difference is not: the
        # bundle is refused instead of scoring inf-scaled predictions
        config, data = corpus
        bundle = tmp_path / "m.json"
        assert main(["train", "--config", config, "--data", data, "--bundle", str(bundle)]) == 0
        doc = json.loads(bundle.read_text())
        doc["normalization"].update(speed_min=-1e308, speed_max=1e308)
        bundle.write_text(json.dumps(doc))
        capsys.readouterr()
        assert main(["evaluate", "--bundle", str(bundle), "--data", data]) == 2
        err = capsys.readouterr().err
        assert "speed range [-1e+308, 1e+308]" in err
        assert "warning:" not in err

    def test_horizon_beyond_data_is_data_error(self, corpus, tmp_path, capsys):
        # rejected before the rollout: this horizon once ran forward passes
        # until the process was killed
        config, data = corpus
        bundle = tmp_path / "m.json"
        assert main(["train", "--config", config, "--data", data, "--bundle", str(bundle)]) == 0
        code = main(["evaluate", "--bundle", str(bundle), "--data", data, "--horizons", "1,100000"])
        assert code == 2
        assert "horizon-100000" in capsys.readouterr().err
        # (h - 1) * interval overflows int64 here
        huge = "100000000000000000000"
        code = main(["evaluate", "--bundle", str(bundle), "--data", data, "--horizons", f"1,{huge}"])
        assert code == 2
        assert f"horizon-{huge}" in capsys.readouterr().err

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_overflowing_bundle_is_numeric_failure(self, corpus, tmp_path, capsys):
        _, data = corpus
        bundle = overflow_bundle(tmp_path / "overflow.json")
        assert main(["evaluate", "--bundle", bundle, "--data", data]) == 3
        assert "non-finite" in capsys.readouterr().err

    def test_non_integer_horizons_are_usage_error(self, corpus, tmp_path):
        config, data = corpus
        bundle = tmp_path / "m.json"
        assert main(["train", "--config", config, "--data", data, "--bundle", str(bundle)]) == 0
        code = main(["evaluate", "--bundle", str(bundle), "--data", data, "--horizons", "1.5"])
        assert code == 1

    def test_oracle_bundle_scores_100(self, tmp_path, capsys):
        # constant-speed corpus + a zero-weight model whose output biases are
        # the normalized constants reproduces the targets exactly
        shape = CorridorShape(4, 4, 2)
        lines = ["timestamp,detector_index,lane,speed,volume"]
        for step in range(8):
            for det in range(1, 5):
                for lane in range(1, 3):
                    lines.append(f"{step * 300},{det},{lane},30.0,120.0")
        data = tmp_path / "const.csv"
        data.write_text("\n".join(lines) + "\n")

        norm = NormalizationParams(0.0, 60.0, 0.0, 240.0)
        model = ConvForecaster(ArchitectureConfig(shape=shape, filters_per_layer=(4, 4, 4), fc_hidden=8))
        for array in model.param_arrays().values():
            array[...] = 0.0
        n = shape.detectors * shape.lanes
        output_biases = model.param_arrays()["output.biases"]
        output_biases[:n] = norm.normalize_speed(30.0)
        output_biases[n:] = norm.normalize_volume(120.0)
        bundle = tmp_path / "oracle.json"
        save_bundle(bundle, model, norm)
        out = tmp_path / "oracle_eval"
        assert main([
            "evaluate", "--bundle", str(bundle), "--data", str(data),
            "--horizons", "1,2,3", "--out", str(out),
        ]) == 0
        report = (tmp_path / "oracle_eval_report.csv").read_text().splitlines()
        for line in report[1:]:
            assert float(line.split(",")[1]) == pytest.approx(100.0)


class TestSweepCommand:
    def test_csv_contract(self, corpus, tmp_path):
        config, data = corpus
        out = tmp_path / "sweep.csv"
        assert main([
            "sweep", "--config", config, "--data", data,
            "--axis", "lambda", "--values", "0.0,0.5", "--out", str(out),
        ]) == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "value,accuracy_h1,final_train_loss,status"
        assert len(lines) == 3
        for line in lines[1:]:
            value, acc, loss, status = line.split(",")
            assert status == "ok"
            float(value), float(acc), float(loss)

    def test_diverged_run_prints_no_numpy_warning(self, corpus, tmp_path):
        # a separate process: pytest would capture the warnings itself
        config, data = corpus
        out = tmp_path / "sweep.csv"
        src = os.path.dirname(os.path.dirname(cli.__file__))
        env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
        run = subprocess.run(
            [sys.executable, "-W", "default", "-c", "import sys; from lanecast.cli import main; sys.exit(main())",
             "sweep", "--config", config, "--data", data, "--axis", "lr", "--values", "1e30,1e-3",
             "--out", str(out)],
            capture_output=True, text=True, env=env, timeout=300,
        )
        assert run.returncode == 0, run.stderr
        # main prints a warning as "warning: <message>", Python as "...: RuntimeWarning: ..."
        assert "warning" not in run.stderr.lower()
        assert [line.split(",")[-1] for line in out.read_text().splitlines()[1:]] == ["diverged", "ok"]

    def test_empty_values_is_usage_error(self, corpus, tmp_path):
        config, data = corpus
        code = main([
            "sweep", "--config", config, "--data", data,
            "--axis", "lambda", "--values", ",", "--out", str(tmp_path / "s.csv"),
        ])
        assert code == 1

    def test_bad_axis_is_usage_error(self, corpus, tmp_path):
        config, data = corpus
        code = main([
            "sweep", "--config", config, "--data", data,
            "--axis", "gamma", "--values", "0.1", "--out", str(tmp_path / "s.csv"),
        ])
        assert code == 1


class TestHeatmapCommand:
    def test_grids_and_pgm_header(self, corpus, tmp_path):
        config, data = corpus
        bundle = tmp_path / "m.json"
        assert main(["train", "--config", config, "--data", data, "--bundle", str(bundle)]) == 0
        out = tmp_path / "heat"
        assert main([
            "heatmap", "--bundle", str(bundle), "--data", data,
            "--days", "1:2", "--out", str(out),
        ]) == 0
        for lane in (1, 2):
            truth_csv = (tmp_path / f"heat_lane{lane}_truth.csv").read_text().splitlines()
            assert len(truth_csv) == 1 + 4  # header + detectors
            assert len(truth_csv[0].split(",")) == 1 + 288
            pgm = (tmp_path / f"heat_lane{lane}_pred.pgm").read_bytes()
            assert pgm.startswith(b"P5\n288 4\n255\n")
            assert len(pgm) == len(b"P5\n288 4\n255\n") + 288 * 4
        curve = (tmp_path / "heat_lane1_detector1.csv").read_text().splitlines()
        assert curve[0] == "timestamp,truth,prediction"
        assert len(curve) == 1 + 288

    def test_uniform_pgm_for_constant_data_and_oracle(self, tmp_path):
        shape = CorridorShape(4, 4, 2)
        lines = ["timestamp,detector_index,lane,speed,volume"]
        for step in range(288 * 2):
            for det in range(1, 5):
                for lane in range(1, 3):
                    lines.append(f"{step * 300},{det},{lane},30.0,120.0")
        data = tmp_path / "const.csv"
        data.write_text("\n".join(lines) + "\n")

        norm = NormalizationParams(0.0, 60.0, 0.0, 240.0)
        model = ConvForecaster(ArchitectureConfig(shape=shape, filters_per_layer=(4, 4, 4), fc_hidden=8))
        for array in model.param_arrays().values():
            array[...] = 0.0
        n = shape.detectors * shape.lanes
        output_biases = model.param_arrays()["output.biases"]
        output_biases[:n] = norm.normalize_speed(30.0)
        output_biases[n:] = norm.normalize_volume(120.0)
        bundle = tmp_path / "oracle.json"
        save_bundle(bundle, model, norm)
        assert main([
            "heatmap", "--bundle", str(bundle), "--data", str(data),
            "--days", "1:2", "--out", str(tmp_path / "h"),
        ]) == 0
        header = b"P5\n288 4\n255\n"
        for kind in ("truth", "pred"):
            pgm = (tmp_path / f"h_lane1_{kind}.pgm").read_bytes()
            body = pgm[len(header):]
            assert len(set(body)) == 1
            assert body[0] == round(255 * 30.0 / 60.0)

    def test_range_outside_data_is_data_error(self, corpus, tmp_path):
        config, data = corpus
        bundle = tmp_path / "m.json"
        assert main(["train", "--config", config, "--data", data, "--bundle", str(bundle)]) == 0
        code = main([
            "heatmap", "--bundle", str(bundle), "--data", data,
            "--days", "5:6", "--out", str(tmp_path / "h"),
        ])
        assert code == 2
        # rejected before np.arange tries to allocate hundreds of GiB
        for days in ("0:100000000", "-100000000:1"):
            code = main([
                "heatmap", "--bundle", str(bundle), "--data", data,
                f"--days={days}", "--out", str(tmp_path / "h"),
            ])
            assert code == 2

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_overflowing_bundle_is_numeric_failure(self, corpus, tmp_path, capsys):
        # the bundle loads, but no grid of non-finite predictions is written
        _, data = corpus
        bundle = overflow_bundle(tmp_path / "overflow.json")
        code = main(["heatmap", "--bundle", bundle, "--data", data, "--days", "1:2",
                     "--out", str(tmp_path / "heat")])
        assert code == 3
        assert "non-finite" in capsys.readouterr().err
        assert list(tmp_path.glob("heat_*")) == []

    def test_day_zero_needs_history_from_before(self, corpus, tmp_path):
        config, data = corpus
        bundle = tmp_path / "m.json"
        assert main(["train", "--config", config, "--data", data, "--bundle", str(bundle)]) == 0
        code = main([
            "heatmap", "--bundle", str(bundle), "--data", data,
            "--days", "0:1", "--out", str(tmp_path / "h"),
        ])
        assert code == 2


def _fmt(x) -> str:
    """The per-value cell writer the tables below once used: repr, and
    blank for NaN."""
    if isinstance(x, float) and math.isnan(x):
        return ""
    return repr(float(x)) if isinstance(x, float) else str(x)


def text_of(lines):
    return ("\n".join(lines) + "\n").encode()


def capture(monkeypatch, name):
    """(args, result) of every call the cli makes to its `name`."""
    calls = []
    original = getattr(cli, name)

    def recorded(*args, **kwargs):
        calls.append((args, original(*args, **kwargs)))
        return calls[-1][1]

    monkeypatch.setattr(cli, name, recorded)
    return calls


def slow_lane_corpus(data, path):
    """The corpus with every lane-2 speed at 0.5 mph, below the accuracy floor."""
    lines = open(data).read().splitlines()
    rows = [line.split(",") for line in lines[1:]]
    path.write_text("\n".join([lines[0]] + [
        ",".join(row[:3] + ["0.5" if row[2] == "2" else row[3], row[4]]) for row in rows
    ]) + "\n")
    return str(path)


class TestTableBytes:
    """Every table the CLI writes, byte for byte as the per-value f-string
    writers wrote it before the tables went through format_rows."""

    @pytest.mark.parametrize("epochs", [0, 2])
    def test_loss_curve(self, corpus, tmp_path, monkeypatch, epochs):
        _, data = corpus
        config = small_config_doc(tmp_path, training={"epochs": epochs, "seed": 3, "batch_size": 32})
        bundle = tmp_path / "m.json"
        calls = capture(monkeypatch, "train")
        assert main(["train", "--config", config, "--data", data, "--bundle", str(bundle)]) == 0
        [(_, curve)] = calls
        assert len(curve) == epochs
        lines = ["epoch,train_loss,test_loss"]
        for row in curve:
            test = _fmt(row.test_loss) if row.test_loss is not None else ""
            lines.append(f"{row.epoch},{_fmt(row.train_loss)},{test}")
        assert (tmp_path / "m.json.loss.csv").read_bytes() == text_of(lines)

    def test_evaluate_reports_with_blank_lane_cells(self, corpus, tmp_path, monkeypatch):
        config, data = corpus
        slow = slow_lane_corpus(data, tmp_path / "slow.csv")
        bundle = tmp_path / "m.json"
        assert main(["train", "--config", config, "--data", slow, "--bundle", str(bundle)]) == 0
        calls = capture(monkeypatch, "evaluate")
        out = tmp_path / "ev"
        assert main(["evaluate", "--bundle", str(bundle), "--data", slow,
                     "--horizons", "1,2,3,12", "--out", str(out)]) == 0
        [(_, report)] = calls
        lines = ["horizon,accuracy_percent,samples_evaluated,samples_skipped,values_excluded"]
        for h in report.horizons:
            lines.append(
                f"{h},{_fmt(report.accuracy[h])},{report.evaluated[h]},"
                f"{report.skipped[h]},{report.excluded[h]}"
            )
        assert (tmp_path / "ev_report.csv").read_bytes() == text_of(lines)
        for name, breakdown in (("lane", report.per_lane), ("detector", report.per_detector)):
            lines = [f"horizon,{name},accuracy_percent"]
            for h in report.horizons:
                for index, value in enumerate(breakdown[h], start=1):
                    lines.append(f"{h},{index},{_fmt(value)}")
            assert (tmp_path / f"ev_{name}s.csv").read_bytes() == text_of(lines)
        assert b"\n12,2,\n" in (tmp_path / "ev_lanes.csv").read_bytes()

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_sweep_table_with_diverged_row(self, corpus, tmp_path, monkeypatch):
        config, data = corpus
        out = tmp_path / "sweep.csv"
        calls = capture(monkeypatch, "sweep")
        assert main(["sweep", "--config", config, "--data", data,
                     "--axis", "lr", "--values", "1e30,1e-3", "--out", str(out)]) == 0
        [(_, rows)] = calls
        assert [row.status for row in rows] == ["diverged", "ok"]
        lines = ["value,accuracy_h1,final_train_loss,status"]
        for row in rows:
            lines.append(f"{_fmt(row.value)},{_fmt(row.accuracy_h1)},{_fmt(row.final_train_loss)},{row.status}")
        assert out.read_bytes() == text_of(lines)

    def test_heatmap_grids_and_detector_curves(self, corpus, tmp_path, monkeypatch):
        config, data = corpus
        bundle = tmp_path / "m.json"
        assert main(["train", "--config", config, "--data", data, "--bundle", str(bundle)]) == 0
        calls = capture(monkeypatch, "_pgm_bytes")  # (truth, pred) grids of each lane in turn
        assert main(["heatmap", "--bundle", str(bundle), "--data", data,
                     "--days", "1:2", "--out", str(tmp_path / "h")]) == 0
        base = int(read_records(data).timestamp.min())
        grid_ts = range(base + 86400, base + 2 * 86400, 300)
        assert len(calls) == 2 * 2
        for lane in (1, 2):
            grids = {kind: calls[2 * (lane - 1) + k][0][0] for k, kind in enumerate(("truth", "pred"))}
            for kind, grid in grids.items():
                lines = ["detector," + ",".join(str(t) for t in grid_ts)]
                for i in range(grid.shape[0]):
                    lines.append(f"{i + 1}," + ",".join(_fmt(float(v)) for v in grid[i]))
                assert (tmp_path / f"h_lane{lane}_{kind}.csv").read_bytes() == text_of(lines)
            for det in range(4):
                lines = ["timestamp,truth,prediction"]
                for ti, t in enumerate(grid_ts):
                    lines.append(f"{t},{_fmt(float(grids['truth'][det, ti]))},"
                                 f"{_fmt(float(grids['pred'][det, ti]))}")
                assert (tmp_path / f"h_lane{lane}_detector{det + 1}.csv").read_bytes() == text_of(lines)


class TestStructure:
    def test_cli_imports_no_private_name_of_the_package(self):
        # the cli is command glue: what it needs of another module is public
        tree = ast.parse(pathlib.Path(cli.__file__).read_text(encoding="utf-8"))
        private = [
            f"{node.module}.{alias.name}"
            for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom)
            and (node.level > 0 or (node.module or "").split(".")[0] == "lanecast")
            for alias in node.names
            if alias.name.startswith("_")
        ]
        assert private == []


# Each value once made a run end in a traceback, a silent truncation, NaN
# data or the wrong exit code. (leaf, value, command that reads it)
MALFORMED_CONFIG = [
    ("architecture.fc_hidden", 4.5, "train"),
    ("architecture.seed", 1.5, "train"),
    ("architecture.seed", -1, "train"),
    ("architecture.filters_per_layer", [2.7, 2, 2], "train"),
    ("architecture.filter_size", [2.0, 2.9], "train"),
    ("training.batch_size", 2.5, "train"),
    ("training.epochs", 1.5, "train"),
    ("training.seed", 1.5, "train"),
    ("training.seed", -1, "train"),
    ("training.shuffle", "no", "train"),
    ("training.epsilon", math.inf, "train"),
    ("training.learning_rate", math.nan, "train"),
    ("training.volume_weight", math.nan, "train"),
    ("training.learning_rate", 10**400, "train"),
    ("synth.days", 1.5, "synth"),
    ("synth.seed", 1.5, "synth"),
    ("synth.seed", -1, "synth"),
    ("synth.peaks", 5, "synth"),
    ("synth.peaks", [5], "synth"),
    ("synth.peaks", [[1, 2]], "synth"),
    ("synth.peaks", [["a", 2, 0.5]], "synth"),
    ("synth.peaks", [[7, 9, True]], "synth"),
    ("synth.lane_bias", [1, "x"], "synth"),
    ("synth.noise_sd", math.nan, "synth"),
    ("synth.free_flow_speed", math.inf, "synth"),
    ("paths.data", ["x"], "train"),
    ("paths.bundle", 7, "train"),
    ("paths.out", 3, "sweep"),
]


def _case_ids(cases):
    """The leaf name, numbered from the leaf's second case on."""
    seen = {}
    ids = []
    for leaf, _, _ in cases:
        seen[leaf] = seen.get(leaf, 0) + 1
        ids.append(leaf if seen[leaf] == 1 else f"{leaf}-{seen[leaf]}")
    return ids


@pytest.fixture(scope="module")
def probe_data(tmp_path_factory):
    path = tmp_path_factory.mktemp("probe") / "config.json"
    path.write_text(json.dumps(small_doc(synth={"days": 1, "seed": 3})))
    data = str(path.parent / "data.csv")
    assert main(["synth", "--config", str(path), "--out", data]) == 0
    return data


class TestMalformedConfig:
    @pytest.mark.parametrize("leaf, value, command", MALFORMED_CONFIG, ids=_case_ids(MALFORMED_CONFIG))
    def test_usage_error_without_traceback(self, probe_data, tmp_path, monkeypatch, capsys,
                                           leaf, value, command):
        monkeypatch.chdir(tmp_path)  # nothing a faulty path names escapes the test
        section, key = leaf.split(".")
        doc = small_doc()
        doc.setdefault(section, {})[key] = value
        (tmp_path / "config.json").write_text(json.dumps(doc))
        flags = {
            "synth": {"--out": "synth.csv"},
            "train": {"--data": probe_data, "--bundle": "bundle.json"},
            "sweep": {"--data": probe_data, "--out": "sweep.csv", "--axis": "lambda", "--values": "0.1"},
        }[command]
        flags.pop(f"--{key}", None)  # a paths entry is only read without its flag
        argv = [command, "--config", "config.json", *(part for item in flags.items() for part in item)]
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and key in err


# A valid tiny run: every key is spelled out so that each one is a leaf the
# property test can replace.
TINY_DOC = {
    "schema_version": 1,
    "corridor": {"detectors": 5, "steps": 5, "lanes": 2, "interval": 300},
    "architecture": {"filters_per_layer": [2, 2, 2], "filter_size": [2, 2], "fc_hidden": 4,
                     "dropout_conv": 0.5, "dropout_fc": 0.25, "seed": 1},
    "training": {"volume_weight": 0.1, "learning_rate": 0.001, "rho": 0.9, "epsilon": 1e-8,
                 "batch_size": 64, "epochs": 1, "seed": 1, "shuffle": True},
    "synth": {"days": 1, "free_flow_speed": 60.0, "jam_density": 200.0, "peaks": [[7.0, 9.5, 0.65]],
              "lane_bias": [0.9, 1.05], "noise_sd": 4.0, "volume_noise_sd": 3.0, "wave_speed": 12.0,
              "detector_spacing": 0.5, "seed": 1},
    "split_fraction": 0.8,
    "model": "two_stream",
    "paths": {"data": "data.csv", "bundle": "bundle.json", "out": "sweep.csv"},
}


def _leaves(node, path=()):
    items = node.items() if isinstance(node, dict) else enumerate(node)
    for key, value in items:
        if isinstance(value, (dict, list)):
            yield from _leaves(value, path + (key,))
        else:
            yield path + (key,)


# No integers: a valid but large one (an interval of 2 s, a huge day count)
# would make one example generate millions of records.
VALUE_POOL = [4.5, 0.5, math.nan, math.inf, -math.inf, True, False, "4", [], [1.5], {}, None]

# Accepted types of the int, bool and str leaves, by the nearest key name;
# any other type there must be a usage error.
LEAF_TYPES = {
    **dict.fromkeys(["schema_version", "detectors", "steps", "lanes", "interval", "filters_per_layer",
                     "filter_size", "fc_hidden", "seed", "batch_size", "epochs", "days"], (int,)),
    "shuffle": (bool,),
    "model": (str,),
    **dict.fromkeys(["data", "bundle", "out"], (str, type(None))),
}


class TestConfigProperty:
    @settings(max_examples=600, derandomize=True, database=None, deadline=None)
    @given(leaf=st.sampled_from(list(_leaves(TINY_DOC))), value=st.sampled_from(VALUE_POOL))
    def test_one_bad_leaf_never_raises(self, leaf, value):
        doc = copy.deepcopy(TINY_DOC)
        parent = doc
        for key in leaf[:-1]:
            parent = parent[key]
        parent[leaf[-1]] = value
        with tempfile.TemporaryDirectory() as tmp:
            config, data = os.path.join(tmp, "config.json"), os.path.join(tmp, "data.csv")
            with open(config, "w", encoding="utf-8") as fh:
                json.dump(doc, fh)
            codes = [
                main(["synth", "--config", config, "--out", data]),
                main(["train", "--config", config, "--data", data,
                      "--bundle", os.path.join(tmp, "bundle.json")]),
            ]
        assert all(code in (0, 1, 2, 3) for code in codes)
        named = [key for key in leaf if isinstance(key, str)][-1]
        if named in LEAF_TYPES and type(value) not in LEAF_TYPES[named]:
            assert codes == [1, 1]


def _tiny_bundle() -> dict:
    """The document save_bundle writes for a one-filter model of a 4x4x1 corridor."""
    config = ArchitectureConfig(shape=CorridorShape(4, 4, 1), filters_per_layer=(1, 1, 1),
                                fc_hidden=2, seed=1)
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "bundle.json")
        save_bundle(path, ConvForecaster(config), NormalizationParams(0.0, 80.0, 0.0, 300.0))
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)


def _paths(node, path=()):
    """The path of every value in a JSON document, containers included; a
    list's elements are represented by its first."""
    items = node.items() if isinstance(node, dict) else enumerate(node[:1])
    for key, value in items:
        yield path + (key,)
        if isinstance(value, (dict, list)):
            yield from _paths(value, path + (key,))


@pytest.fixture(scope="module")
def tiny_records(tmp_path_factory):
    """24 complete 5-minute steps of the 4x4x1 corridor."""
    step, detector = np.meshgrid(np.arange(24), np.arange(1, 5), indexing="ij")
    rng = np.random.default_rng(5)
    speed = 20.0 + 40.0 * rng.random(step.size)
    records = Records(300 * step.ravel(), detector.ravel(), np.ones(step.size, np.int64),
                      speed, 5.0 * speed)
    path = tmp_path_factory.mktemp("tiny") / "data.csv"
    write_records(path, records)
    return str(path)


BUNDLE_DOC = _tiny_bundle()
BUNDLE_TEXT = json.dumps(BUNDLE_DOC, sort_keys=True).encode()
# one parameter stands for all ten: load_bundle checks each the same way
DOC_PATHS = [path for path in _paths(BUNDLE_DOC)
             if path[0] != "params" or path[1:2] in ((), ("fusion.biases",))]
KEY_PATHS = [path for path in DOC_PATHS if isinstance(path[-1], str)]
# swapped types, integers beyond int64 and the double range, and the NaN and
# Infinity that json.dumps writes for non-finite floats
BUNDLE_POOL = [None, True, "single_stream", [], {}, 0, -1, 0.5, 2**63, 10**400, math.nan, math.inf]


def _mutated_bundle(kind, index, value, at) -> bytes:
    """BUNDLE_DOC's text with one mutation applied."""
    if kind == "truncate":
        return BUNDLE_TEXT[:at]
    if kind == "invalid_byte":
        return BUNDLE_TEXT[:at] + b"\xff" + BUNDLE_TEXT[at:]
    paths = KEY_PATHS if kind == "duplicate_key" else DOC_PATHS
    *parents, key = paths[index % len(paths)]
    doc = copy.deepcopy(BUNDLE_DOC)
    parent = doc
    for step in parents:
        parent = parent[step]
    if kind == "drop":
        del parent[key]
    elif kind == "extra":
        if isinstance(parent, dict):
            parent["extra"] = value
        else:
            parent.append(value)
    elif kind == "replace":
        parent[key] = value
    else:  # duplicate_key: a second entry for key ends its object, and json.loads keeps it
        parent["~duplicate"] = None
    text = json.dumps(doc, sort_keys=True)
    return text.replace('"~duplicate": null', f"{json.dumps(key)}: {json.dumps(value)}").encode()


class TestBundleProperty:
    @settings(max_examples=1500, derandomize=True, database=None, deadline=None)
    @given(kind=st.sampled_from(["drop", "extra", "replace", "duplicate_key", "truncate", "invalid_byte"]),
           index=st.integers(0, len(DOC_PATHS) - 1), value=st.sampled_from(BUNDLE_POOL),
           at=st.integers(0, len(BUNDLE_TEXT)))
    def test_mutated_bundle_is_refused_or_evaluated(self, tiny_records, kind, index, value, at):
        with tempfile.TemporaryDirectory() as tmp:
            bundle = os.path.join(tmp, "bundle.json")
            with open(bundle, "wb") as fh:
                fh.write(_mutated_bundle(kind, index, value, at))
            try:
                load_bundle(bundle)
                allowed = (0, 2, 3)  # the bundle may still not fit the data, or overflow
            except ConfigError:
                allowed = (1,)
            except DataError:
                allowed = (2,)
            code = main(["evaluate", "--bundle", bundle, "--data", tiny_records,
                         "--out", os.path.join(tmp, "eval")])
        assert code in allowed
