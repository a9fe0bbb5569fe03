"""Finite-difference verification of hand-derived gradients."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np


@dataclass
class GradientCheckReport:
    """Per-parameter-array maximum relative error against central differences."""

    tolerance: float
    max_rel_error: dict[str, float] = field(default_factory=dict)

    @property
    def worst(self) -> float:
        return max(self.max_rel_error.values(), default=0.0)

    @property
    def passed(self) -> bool:
        return self.worst < self.tolerance

    def summary(self) -> str:
        lines = [
            f"{name}: max rel err {err:.3e}"
            for name, err in sorted(self.max_rel_error.items())
        ]
        verdict = "PASS" if self.passed else "FAIL"
        lines.append(f"worst {self.worst:.3e} vs tolerance {self.tolerance:.1e}: {verdict}")
        return "\n".join(lines)


def gradient_check(
    loss_fn,
    params: dict[str, np.ndarray],
    grads: dict[str, np.ndarray],
    *,
    step: float = 1e-6,
    tolerance: float = 1e-5,
    rng=None,
    max_entries: int | None = None,
) -> GradientCheckReport:
    """Compare analytic gradients against (f(x+h) - f(x-h)) / 2h.

    loss_fn() must re-read the arrays in `params` at call time and must be
    deterministic (dropout off, or drawn from a fresh copy of one generator
    state each call); entries are perturbed
    in place and restored. With max_entries set, at most that many randomly
    chosen entries per array are probed (every array is always covered).
    Relative error is |a - n| / max(|a|, |n|, 1e-12).
    """
    report = GradientCheckReport(tolerance=tolerance)
    for name, arr in params.items():
        if max_entries is not None and arr.size > max_entries:
            if rng is None:
                rng = np.random.default_rng(0)
            indices = rng.choice(arr.size, size=max_entries, replace=False)
        else:
            indices = range(arr.size)
        worst = 0.0
        for i in indices:
            original = arr.flat[i]
            arr.flat[i] = original + step
            plus = loss_fn()
            arr.flat[i] = original - step
            minus = loss_fn()
            arr.flat[i] = original
            numeric = (plus - minus) / (2.0 * step)
            analytic = grads[name].flat[i]
            scale = max(abs(analytic), abs(numeric), 1e-12)
            worst = max(worst, abs(analytic - numeric) / scale)
        report.max_rel_error[name] = worst
    return report
