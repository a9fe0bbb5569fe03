"""Training losses.

The composite loss is the mean squared error of the predicted speeds plus
`volume_weight` times the mean squared error of the predicted volumes, all in
normalized [0, 1] units. Means (rather than raw squared norms) keep the loss
magnitude independent of the corridor size, so the weight means the same
thing for every corridor.
"""

from __future__ import annotations

import warnings

import numpy as np

from .errors import ShapeError

_as_f64 = lambda x: np.asarray(x, dtype=np.float64)  # noqa: E731


def _check_pair(pred, target, what):
    pred = _as_f64(pred)
    target = _as_f64(target)
    if pred.shape != target.shape:
        raise ShapeError(f"{what}: prediction shape {pred.shape} != target shape {target.shape}")
    if pred.size == 0:
        raise ShapeError(f"{what}: empty arrays")
    return pred, target


def speed_loss(pred_speed, target_speed):
    """Mean squared speed error. Returns (loss, grad_pred_speed)."""
    pred, target = _check_pair(pred_speed, target_speed, "speed")
    diff = pred - target
    return float(np.mean(diff * diff)), (2.0 / diff.size) * diff


def composite_loss(pred_speed, pred_volume, target_speed, target_volume, volume_weight):
    """Speed MSE plus volume_weight times volume MSE.

    Returns (loss, grad_pred_speed, grad_pred_volume). Accepts single vectors
    or (batch, n) matrices; the mean runs over every element either way.
    A `pred_volume` of None (the speed-only model) scores speed alone and
    returns a None volume gradient. A weight outside [0, 1] is allowed but
    warned about: the volume term is meant to assist, not dominate, the
    speed objective.
    """
    speed_term, grad_u = speed_loss(pred_speed, target_speed)
    if pred_volume is None:
        return speed_term, grad_u, None
    if not 0.0 <= volume_weight <= 1.0:
        warnings.warn(
            f"volume_weight {volume_weight} is outside the suggested [0, 1] range",
            stacklevel=2,
        )
    pred_q, target_q = _check_pair(pred_volume, target_volume, "volume")
    dq = pred_q - target_q
    loss = speed_term + volume_weight * float(np.mean(dq * dq))
    grad_q = (2.0 * volume_weight / dq.size) * dq
    return loss, grad_u, grad_q
