"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line (run with `pytest tests/test_acceptance.py -v -s`).

The heavy experiments (margin over persistence, overfit capability, sweeps)
run on deterministic synthetic corpora at fixed seeds, so every number here
is reproducible bit for bit.
"""

import copy
import json
import time

import numpy as np
import pytest

import lanecast as lc
from lanecast.cli import main
from lanecast.gradcheck import gradient_check
from lanecast.layers import FilterBank, conv2d_valid
from lanecast.losses import composite_loss
from lanecast.model import ArchitectureConfig, ConvForecaster, PersistenceModel
from lanecast.pipeline import _ROW, CorridorShape, fit_normalization
from lanecast.synth import SynthConfig
from lanecast.training import TrainConfig
from sample_sets import sample_set

ACC_SEED = 2024

# training protocol for the desk-scale experiments: the default corpus is
# small enough that a larger step size converges in a few minutes where the
# production default (1e-4) would need an hour
EXPERIMENT_LR = 1e-3
EXPERIMENT_EPOCHS = 14

CORRIDOR = CorridorShape(detectors=10, steps=8, lanes=4, interval=300)


def report(criterion, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    print(f"\nACCEPTANCE {criterion}: {status}" + (f" ({detail})" if detail else ""))
    return ok


@pytest.fixture(scope="module")
def default_corpus():
    """The default synthetic corpus: 30 days at the corridor scale."""
    records = lc.generate(SynthConfig(shape=CORRIDOR, days=30, seed=ACC_SEED))
    norm, train_set, test_set = lc.prepare_dataset(records, CORRIDOR, 0.8)
    return records, norm, train_set, test_set


@pytest.fixture(scope="module")
def trained_two_stream(default_corpus):
    _, norm, train_set, test_set = default_corpus
    model = ConvForecaster(ArchitectureConfig(shape=CORRIDOR, seed=ACC_SEED))
    config = TrainConfig(
        learning_rate=EXPERIMENT_LR, epochs=EXPERIMENT_EPOCHS, seed=ACC_SEED
    )
    started = time.time()
    curve = lc.train(model, train_set, config)
    elapsed = time.time() - started
    report_ = lc.evaluate(model, test_set, [1, 2, 3], norm, CORRIDOR)
    return model, curve, report_, elapsed


def param_count(model):
    return sum(a.size for a in model.param_arrays().values())


def test_criterion_01_gradient_fidelity():
    """Full model, toy shape, frozen dropout: analytic vs central differences."""
    started = time.time()
    shape = CorridorShape(detectors=4, steps=5, lanes=2)
    config = ArchitectureConfig(shape=shape, filters_per_layer=(4, 4, 4), seed=ACC_SEED)
    model = ConvForecaster(config)
    rng = np.random.default_rng(ACC_SEED)
    xu = rng.random((1, 4, 5, 2))
    xq = rng.random((1, 4, 5, 2))
    yu = rng.random((1, 8))
    yq = rng.random((1, 8))
    samples = sample_set(xu, xq, yu, yq, [0])
    # every pass draws its dropout masks from a copy of this state: the same masks
    frozen = copy.deepcopy(rng)
    pred_u, pred_q, cache = model.forward_batch(samples, rng=rng)
    _, grad_u, grad_q = composite_loss(pred_u, pred_q, yu, yq, 0.1)
    grads = model.backward_batch(cache, grad_u, grad_q)

    def loss_fn():
        pu, pq, _ = model.forward_batch(samples, rng=copy.deepcopy(frozen))
        return composite_loss(pu, pq, yu, yq, 0.1)[0]

    result = gradient_check(loss_fn, model.param_arrays(), grads, step=1e-6, tolerance=1e-5)
    elapsed = time.time() - started
    ok = result.passed and elapsed < 60.0
    assert report(
        "01 gradient-fidelity", ok,
        f"worst rel err {result.worst:.2e} over {param_count(model)} params in {elapsed:.1f}s",
    ), result.summary()


def naive_conv(x, bank):
    """Brute-force reference: scalar loops over every output position."""
    rows, cols, channels = x.shape
    out_rows = rows - bank.filter_rows + 1
    out_cols = cols - bank.filter_cols + 1
    out = np.zeros((out_rows, out_cols, bank.num_filters))
    for i in range(out_rows):
        for j in range(out_cols):
            for f in range(bank.num_filters):
                acc = 0.0
                for a in range(bank.filter_rows):
                    for b in range(bank.filter_cols):
                        for ch in range(channels):
                            acc += x[i + a, j + b, ch] * bank.weights[f, a, b, ch]
                out[i, j, f] = acc + bank.biases[f]
    return out


def test_criterion_02_convolution_oracle():
    """conv2d_valid is bitwise equal to the brute-force loop on 200 cases."""
    rng = np.random.default_rng(ACC_SEED)
    mismatches = 0
    for _ in range(200):
        rows = int(rng.integers(2, 9))
        cols = int(rng.integers(2, 9))
        channels = int(rng.integers(1, 5))
        filters = int(rng.integers(1, 6))
        fr = int(rng.integers(1, rows + 1))
        fc = int(rng.integers(1, cols + 1))
        x = rng.standard_normal((rows, cols, channels))
        bank = FilterBank(
            rng.standard_normal((filters, fr, fc, channels)),
            rng.standard_normal(filters),
        )
        if not np.array_equal(conv2d_valid(x, bank), naive_conv(x, bank)):
            mismatches += 1
    assert report(
        "02 convolution-oracle", mismatches == 0,
        f"{mismatches} bitwise mismatches in 200 randomized cases",
    )


def test_criterion_03_layout_fidelity():
    """Raw records can be reconstructed from built samples to 1e-12."""
    rng = np.random.default_rng(ACC_SEED)
    worst = 0.0
    for trial in range(10):
        shape = CorridorShape(
            detectors=int(rng.integers(2, 7)),
            steps=int(rng.integers(2, 6)),
            lanes=int(rng.integers(1, 4)),
            interval=300,
        )
        total_steps = shape.steps + int(rng.integers(2, 7))
        grids = {
            t: 10.0 + 60.0 * rng.random((shape.detectors, shape.lanes))
            for t in range(total_steps)
        }
        rows = np.array([
            (t * 300, i + 1, l + 1, float(g[i, l]), float(g[i, l]) * 3.0)
            for t, g in grids.items()
            for i in range(shape.detectors)
            for l in range(shape.lanes)
        ], dtype=_ROW)
        records = lc.Records(*(rows[name].copy() for name in _ROW.names))
        norm = fit_normalization(records)
        samples = lc.build_samples(records, shape, norm)
        assert len(samples) == total_steps - shape.steps
        for n, origin in enumerate(samples.origin_timestamps):
            origin_step = int(origin) // 300
            for t in range(shape.steps):
                raw = grids[origin_step - (shape.steps - 1 - t)]
                back_u = norm.denormalize_speed(samples.speed_history[n, :, t, :])
                back_q = lc.denormalize(samples.volume_history[n, :, t, :], norm.volume_min, norm.volume_max)
                worst = max(
                    worst,
                    float(np.abs(back_u - raw).max()),
                    float(np.abs(back_q - raw * 3.0).max()),
                )
            target_raw = grids[origin_step + 1].reshape(-1)
            worst = max(
                worst,
                float(np.abs(norm.denormalize_speed(samples.speed_target[n]) - target_raw).max()),
            )
    assert report("03 layout-fidelity", worst < 1e-12, f"worst abs error {worst:.2e}")


def test_criterion_04_overfit_capability():
    """32 samples memorized to train loss < 1e-3 within 500 epochs at lr 1e-4.

    Dropout is disabled here: it exists precisely to block memorization, and
    this criterion probes raw capacity (the topology is the default one).
    """
    records = lc.generate(SynthConfig(shape=CORRIDOR, days=1, seed=ACC_SEED))
    norm = fit_normalization(records)
    samples = lc.build_samples(records, CORRIDOR, norm)[:32]
    assert len(samples) == 32
    arch = ArchitectureConfig(shape=CORRIDOR, dropout_conv=0.0, dropout_fc=0.0, seed=ACC_SEED)
    model = ConvForecaster(arch)
    config = TrainConfig(
        learning_rate=1e-4, epochs=400, batch_size=4, seed=ACC_SEED
    )
    assert config.epochs <= 500
    curve = lc.train(model, samples, config)
    final_epoch_loss = curve[-1].train_loss
    final_loss = lc.dataset_loss(model, samples, config.volume_weight)
    ok = final_epoch_loss < 1e-3 and final_loss < 1e-3
    assert report(
        "04 overfit-capability", ok,
        f"epoch-mean loss {final_epoch_loss:.2e}, deterministic loss {final_loss:.2e} "
        f"after {config.epochs} epochs",
    )


def test_criterion_05_learning_beats_persistence(default_corpus, trained_two_stream):
    """Trained model beats persistence by >= 2 accuracy points at one step,
    and accuracy does not increase with the horizon."""
    _, norm, train_set, test_set = default_corpus
    model, curve, model_report, train_seconds = trained_two_stream
    persistence = lc.evaluate(PersistenceModel(), test_set, [1, 2, 3], norm, CORRIDOR)
    margin = model_report.accuracy[1] - persistence.accuracy[1]
    monotone = (
        model_report.accuracy[1] >= model_report.accuracy[2] >= model_report.accuracy[3]
    )
    ok = margin >= 2.0 and monotone and train_seconds < 600.0
    assert report(
        "05 learning-works", ok,
        f"model {model_report.accuracy[1]:.2f}/{model_report.accuracy[2]:.2f}/"
        f"{model_report.accuracy[3]:.2f}% vs persistence {persistence.accuracy[1]:.2f}%"
        f" (margin {margin:.2f} points, trained {len(train_set)} samples in {train_seconds:.0f}s)",
    )


def test_criterion_06_loss_decomposition():
    """Loss is exactly linear in the volume weight; zero weight detaches the
    volume gradient."""
    rng = np.random.default_rng(ACC_SEED)
    worst_rel = 0.0
    for _ in range(50):
        pred_u, target_u = rng.random((2, 17))
        pred_q, target_q = rng.random((2, 17))
        base, _, grad_q0 = composite_loss(pred_u, pred_q, target_u, target_q, 0.0)
        assert (grad_q0 == 0.0).all()
        volume_term = float(np.mean((pred_q - target_q) ** 2))
        for weight in np.arange(0.1, 1.0, 0.1):
            loss, _, _ = composite_loss(pred_u, pred_q, target_u, target_q, weight)
            rel = abs((loss - base) - weight * volume_term) / (weight * volume_term)
            worst_rel = max(worst_rel, rel)
    assert report(
        "06 loss-decomposition", worst_rel < 1e-12, f"worst relative error {worst_rel:.2e}"
    )


def test_criterion_07_single_stream_ablation(default_corpus, trained_two_stream):
    """The ablation runs through the identical harness; its parameter count
    matches the analytic formula. The two-stream advantage is reported, not
    asserted (it depends on the corpus)."""
    _, norm, train_set, test_set = default_corpus
    arch = ArchitectureConfig(shape=CORRIDOR, seed=ACC_SEED)
    single = ConvForecaster(arch, "single_stream")

    fr, fc = arch.filter_size
    expected = 0
    in_channels = CORRIDOR.lanes
    for f in arch.filters_per_layer:
        expected += f * fr * fc * in_channels + f
        in_channels = f
    expected += arch.fc_hidden * arch.flat_size + arch.fc_hidden
    n = arch.targets_per_quantity
    expected += n * arch.fc_hidden + n
    count_ok = param_count(single) == expected

    config = TrainConfig(learning_rate=EXPERIMENT_LR, epochs=EXPERIMENT_EPOCHS, seed=ACC_SEED)
    lc.train(single, train_set, config)
    single_report = lc.evaluate(single, test_set, [1, 2, 3], norm, CORRIDOR)
    _, _, two_report, _ = trained_two_stream

    assert report(
        "07 single-stream-ablation", count_ok,
        f"params {param_count(single)} (expected {expected}); accuracy "
        f"single {single_report.accuracy[1]:.2f}% vs two-stream "
        f"{two_report.accuracy[1]:.2f}% at one step (reported, not asserted)",
    )


@pytest.fixture(scope="module")
def small_run(tmp_path_factory):
    """A small end-to-end CLI corpus shared by the determinism and sweep
    criteria: corridor-shaped but short, with a light architecture."""
    root = tmp_path_factory.mktemp("acceptance_cli")
    config_doc = {
        "schema_version": 1,
        "corridor": {"detectors": 6, "steps": 6, "lanes": 2, "interval": 300},
        "architecture": {"filters_per_layer": [8, 8, 8], "fc_hidden": 32, "seed": ACC_SEED},
        "training": {
            "epochs": 10, "seed": ACC_SEED, "learning_rate": 0.001, "batch_size": 64,
        },
        "synth": {"days": 4, "seed": ACC_SEED},
    }
    config_path = root / "config.json"
    config_path.write_text(json.dumps(config_doc))
    data_path = root / "data.csv"
    assert main(["synth", "--config", str(config_path), "--out", str(data_path)]) == 0
    return root, str(config_path), str(data_path)


def test_criterion_08_determinism(small_run):
    """Identical config and seed give byte-identical bundles and reports."""
    root, config_path, data_path = small_run
    bundles = []
    reports = []
    for tag in ("a", "b"):
        bundle = root / f"model_{tag}.json"
        out = root / f"eval_{tag}"
        assert main(["train", "--config", config_path, "--data", data_path,
                     "--bundle", str(bundle)]) == 0
        assert main(["evaluate", "--bundle", str(bundle), "--data", data_path,
                     "--horizons", "1,2,3", "--out", str(out)]) == 0
        bundles.append(bundle.read_bytes())
        reports.append(b"".join(
            (root / f"eval_{tag}_{part}.csv").read_bytes()
            for part in ("report", "lanes", "detectors")
        ))
        bundles.append((root / f"model_{tag}.json.loss.csv").read_bytes())
    ok = bundles[0] == bundles[2] and bundles[1] == bundles[3] and reports[0] == reports[1]
    assert report(
        "08 determinism", ok,
        f"bundle {len(bundles[0])} bytes, reports {len(reports[0])} bytes, both runs identical",
    )


def test_criterion_09_shape_contract():
    """Corridor-scale config: conv maps 9x7 -> 8x6 -> 7x5, 40 outputs per quantity."""
    config = ArchitectureConfig(shape=CORRIDOR, seed=ACC_SEED)
    shapes = config.conv_map_shapes()
    model = ConvForecaster(config)
    xu = np.zeros((1, 10, 8, 4))
    pred_u, pred_q = model.predict_batch(sample_set(xu, xu, np.zeros((1, 40)), np.zeros((1, 40)), [0]))
    ok = (
        shapes == [(9, 7), (8, 6), (7, 5)]
        and config.flat_size == 7 * 5 * 32
        and pred_u.shape == (1, 40)
        and pred_q.shape == (1, 40)
    )
    assert report(
        "09 shape-contract", ok,
        f"conv maps {shapes}, output {pred_u.shape[1]}+{pred_q.shape[1]} values",
    )


def test_criterion_10_sweep_protocols(small_run):
    """The ten-point volume-weight sweep and a five-point learning-rate sweep
    complete with well-formed CSVs; loss vs learning rate has an interior
    minimum."""
    root, config_path, data_path = small_run

    lambda_csv = root / "lambda_sweep.csv"
    values = ",".join(f"{0.1 * i:.1f}" for i in range(10))
    assert main(["sweep", "--config", config_path, "--data", data_path,
                 "--axis", "lambda", "--values", values, "--out", str(lambda_csv)]) == 0
    lambda_lines = lambda_csv.read_text().strip().splitlines()
    lambda_ok = (
        lambda_lines[0] == "value,accuracy_h1,final_train_loss,status"
        and len(lambda_lines) == 11
        and all(line.endswith(",ok") for line in lambda_lines[1:])
    )

    lr_csv = root / "lr_sweep.csv"
    assert main(["sweep", "--config", config_path, "--data", data_path,
                 "--axis", "lr", "--values", "0.1,0.01,0.001,0.0001,0.00001",
                 "--out", str(lr_csv)]) == 0
    lr_lines = lr_csv.read_text().strip().splitlines()
    # blank loss cells mark diverged runs; treat them as arbitrarily bad
    losses = [
        float(cell) if cell else float("inf")
        for cell in (line.split(",")[2] for line in lr_lines[1:])
    ]
    interior_min = 0 < int(np.argmin(losses)) < len(losses) - 1
    lr_ok = len(lr_lines) == 6 and interior_min

    assert report(
        "10 sweep-protocols", lambda_ok and lr_ok,
        f"lambda rows {len(lambda_lines) - 1}, lr losses "
        + "/".join(f"{v:.3g}" for v in losses)
        + f", interior minimum at grid index {int(np.argmin(losses))}",
    )
