"""Localizing kernels: bounded, bounded variation, support [-1, 1], unit mass."""

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .stationary import _gauss_kronrod

__all__ = [
    "LocalizingKernel",
    "rectangular",
    "biweight",
    "kernel_validate",
    "from_name",
    "KernelReport",
]


@dataclass(frozen=True)
class LocalizingKernel:
    id: str
    fn: Callable[[np.ndarray], np.ndarray]
    bv_constant: float  # declared total variation bound
    differentiable: bool

    def __call__(self, x):
        return self.fn(np.asarray(x, dtype=float))


def _rect_fn(x: np.ndarray) -> np.ndarray:
    return np.where(np.abs(x) <= 1.0, 0.5, 0.0)


def _biweight_fn(x: np.ndarray) -> np.ndarray:
    inside = np.abs(x) <= 1.0
    return np.where(inside, (15.0 / 16.0) * (1.0 - x**2) ** 2, 0.0)


def rectangular() -> LocalizingKernel:
    """Flat weight 1/2 on [-1, 1]. Total variation 1. Not differentiable."""
    return LocalizingKernel("rectangular", _rect_fn, bv_constant=1.0, differentiable=False)


def biweight() -> LocalizingKernel:
    """(15/16)(1-x^2)^2 on [-1, 1].

    The squared boundary factor makes it C1 on the whole line (the derivative
    vanishes at +-1), which is what the continuous localized average needs.
    Total variation 15/8.
    """
    return LocalizingKernel("biweight", _biweight_fn, bv_constant=15.0 / 8.0, differentiable=True)


_BY_NAME = {"rectangular": rectangular, "biweight": biweight}


def from_name(name: str) -> LocalizingKernel:
    try:
        return _BY_NAME[name]()
    except KeyError:
        raise ValueError(f"unknown kernel {name!r}; available: {sorted(_BY_NAME)}") from None


@dataclass(frozen=True)
class KernelReport:
    integral: float
    support_ok: bool
    bounded_ok: bool

    @property
    def passed(self) -> bool:
        return self.support_ok and self.bounded_ok and abs(self.integral - 1.0) <= 1e-10


def kernel_validate(kernel: LocalizingKernel, n_grid: int = 10_000) -> KernelReport:
    """Check the defining kernel properties; returns a report, never raises.

    Unit mass is checked by adaptive quadrature on the support, compactness on
    an exterior grid, boundedness on an interior grid.
    """
    with np.errstate(all="ignore"):  # an unbounded kernel gives inf at a node
        integral = _gauss_kronrod(kernel, [-1.0, 1.0])
    exterior = np.concatenate(
        [np.linspace(-50.0, -1.0 - 1e-9, 500), np.linspace(1.0 + 1e-9, 50.0, 500)]
    )
    support_ok = bool(np.all(kernel(exterior) == 0.0))
    # odd point count so the grid contains 0
    interior = np.linspace(-1.0, 1.0, n_grid + 1 - n_grid % 2)
    with np.errstate(all="ignore"):
        vals = kernel(interior)
    bounded_ok = bool(np.all(np.isfinite(vals)))
    return KernelReport(integral=float(integral), support_ok=support_ok, bounded_ok=bounded_ok)
