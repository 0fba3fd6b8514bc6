"""Shipped example models used by tests, experiments and the CLI docs."""

import numpy as np

from .dynamics import Car1Spec, Lipschitz, ModelSpec
from .expressions import ExprFunc

__all__ = [
    "ou",
    "tvcar_sin",
    "tvcar_step",
    "diag2",
    "companion2",
    "shipped_specs",
]


def ou(a: float = 1.0) -> Car1Spec:
    """Constant-coefficient mean reversion (the time-invariant special case)."""
    if a <= 0:
        raise ValueError("a must be positive")
    return Car1Spec(a=ExprFunc(repr(float(a))), lipschitz_a=0.0, infimum_a=a, model_id=f"ou_a{a:g}")


def tvcar_sin() -> Car1Spec:
    """a(t) = 2 + sin t: the standard smooth time-varying example."""
    return Car1Spec(a=ExprFunc("2 + sin(t)"), lipschitz_a=1.0, infimum_a=1.0, model_id="tvcar_sin")


def _step_a(t):
    return np.where(np.asarray(t, dtype=float) >= 1.0, 3.0, 2.0)


def tvcar_step() -> Car1Spec:
    """Discontinuous coefficient; violates the Lipschitz requirement.

    Negative-control model: the frozen approximation at the jump point does
    not improve with N.
    """
    return Car1Spec(a=_step_a, lipschitz_a=1.0, infimum_a=2.0, model_id="tvcar_step")


def _diag2_A(t):
    t = np.asarray(t, dtype=float)
    out = np.zeros(t.shape + (2, 2))
    out[..., 0, 0] = -1.0 - 0.5 * np.sin(t)
    out[..., 1, 1] = -2.0
    return out


def _ones2(t):
    return np.ones(np.shape(t) + (2,))


def diag2() -> ModelSpec:
    """Commuting diagonal 2x2 system with one oscillating rate."""
    return ModelSpec(
        p=2,
        A=_diag2_A,
        B=_ones2,
        C=_ones2,
        lipschitz=Lipschitz(L_A=0.5, L_B=0.0, L_C=0.0),
        commuting=True,
        stability_margin=0.5,
        model_id="diag2",
    )


def _constant(value, t):
    value = np.asarray(value, dtype=float)
    return np.broadcast_to(value, np.shape(t) + value.shape).copy()


def _companion_A(t):
    return _constant([[0.0, 1.0], [-2.0, -3.0]], t)


def _companion_B(t):
    return _constant([1.0, 0.5], t)


def _companion_C(t):
    return _constant([0.0, 1.0], t)


def companion2() -> ModelSpec:
    """Constant companion-form system, eigenvalues -1 and -2."""
    return ModelSpec(
        p=2,
        A=_companion_A,
        B=_companion_B,
        C=_companion_C,
        lipschitz=Lipschitz(0.0, 0.0, 0.0),
        commuting=True,
        stability_margin=1.0,
        model_id="companion2",
    )


def shipped_specs() -> dict:
    return {
        "ou_a1": ou(1.0),
        "ou_a2": ou(2.0),
        "tvcar_sin": tvcar_sin(),
        "diag2": diag2(),
        "companion2": companion2(),
    }
