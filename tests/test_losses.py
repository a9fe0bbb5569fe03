import warnings

import numpy as np
import pytest

from lanecast.errors import ShapeError
from lanecast.gradcheck import gradient_check
from lanecast.losses import composite_loss, speed_loss


def test_perfect_predictions_zero_loss():
    u = np.array([0.2, 0.4, 0.9])
    q = np.array([0.1, 0.5])
    loss, grad_u, grad_q = composite_loss(u, q, u.copy(), q.copy(), 0.3)
    assert loss == 0.0
    assert (grad_u == 0.0).all()
    assert (grad_q == 0.0).all()


def test_speed_only_hand_value():
    # two speed elements off by [0.1, 0]: mean squared error 0.005
    target_u = np.array([0.5, 0.5])
    pred_u = target_u + np.array([0.1, 0.0])
    volumes = np.array([0.3, 0.3])
    loss, _, _ = composite_loss(pred_u, volumes, target_u, volumes.copy(), 0.0)
    assert loss == pytest.approx(0.005, rel=1e-12)


def test_linear_in_volume_weight():
    # speed term 0.02, volume term 0.05
    target_u = np.array([0.4])
    pred_u = target_u + np.sqrt(0.02)
    target_q = np.array([0.6])
    pred_q = target_q + np.sqrt(0.05)
    loss1, _, _ = composite_loss(pred_u, pred_q, target_u, target_q, 0.1)
    loss2, _, _ = composite_loss(pred_u, pred_q, target_u, target_q, 0.2)
    assert loss1 == pytest.approx(0.025, rel=1e-9)
    assert loss2 == pytest.approx(0.030, rel=1e-9)


def test_decomposition_identity():
    rng = np.random.default_rng(21)
    for _ in range(20):
        pred_u, target_u = rng.random((2, 12))
        pred_q, target_q = rng.random((2, 12))
        base, _, _ = composite_loss(pred_u, pred_q, target_u, target_q, 0.0)
        volume_term = float(np.mean((pred_q - target_q) ** 2))
        for weight in np.arange(0.0, 1.0, 0.1):
            loss, _, _ = composite_loss(pred_u, pred_q, target_u, target_q, weight)
            assert loss - base == pytest.approx(weight * volume_term, rel=1e-12, abs=1e-15)


def test_volume_gradient_exactly_zero_at_zero_weight():
    rng = np.random.default_rng(22)
    pred_u, target_u, pred_q, target_q = rng.random((4, 9))
    _, _, grad_q = composite_loss(pred_u, pred_q, target_u, target_q, 0.0)
    assert (grad_q == 0.0).all()


def test_gradients_match_finite_differences():
    rng = np.random.default_rng(23)
    pred_u, target_u = rng.random((2, 6))
    pred_q, target_q = rng.random((2, 4))

    def loss_fn():
        return composite_loss(pred_u, pred_q, target_u, target_q, 0.35)[0]

    _, grad_u, grad_q = composite_loss(pred_u, pred_q, target_u, target_q, 0.35)
    report = gradient_check(
        loss_fn,
        {"pred_u": pred_u, "pred_q": pred_q},
        {"pred_u": grad_u, "pred_q": grad_q},
        step=1e-6,
        tolerance=1e-7,
    )
    assert report.passed, report.summary()


def test_length_mismatch_rejected():
    with pytest.raises(ShapeError):
        composite_loss(np.zeros(3), np.zeros(2), np.zeros(4), np.zeros(2), 0.1)
    with pytest.raises(ShapeError):
        composite_loss(np.zeros(3), np.zeros(2), np.zeros(3), np.zeros(5), 0.1)


def test_out_of_range_weight_warns_not_raises():
    u = np.array([0.1])
    q = np.array([0.2])
    with pytest.warns(UserWarning, match="outside"):
        loss, _, _ = composite_loss(u, q, u, q, 1.5)
    assert loss == 0.0


def test_none_volume_scores_speed_alone():
    # the speed-only model's loss: no volume term, no volume gradient and no
    # warning about a weight that goes unused
    rng = np.random.default_rng(25)
    pred, target = rng.random((2, 3, 8))
    loss_s, grad_s = speed_loss(pred, target)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        loss_c, grad_u, grad_q = composite_loss(pred, None, target, None, 1.5)
    assert loss_c == loss_s
    assert np.array_equal(grad_u, grad_s)
    assert grad_q is None


def test_speed_loss_matches_zero_weight_composite():
    rng = np.random.default_rng(24)
    pred, target = rng.random((2, 8))
    dummy = rng.random(8)
    loss_s, grad_s = speed_loss(pred, target)
    loss_c, grad_u, _ = composite_loss(pred, dummy, target, dummy.copy(), 0.0)
    assert loss_s == loss_c
    assert np.array_equal(grad_s, grad_u)
