"""Localized sample statistics on observed paths.

All discrete statistics share the raw weighting (delta_N / b_N) K((tau - u) / b_N);
the weights are never renormalized because the limit-theorem scaling depends
on the raw factor. ``weight_sum`` reports the Riemann sum of the kernel as a
diagnostic.

:func:`localized_sum` is the one definition of the discrete statistic: the
estimators apply it to one observed path, and the lagged-product campaigns
of ``experiments`` to each chunk of simulated replications. The lag-free
campaigns (the localized mean and the continuous average) contract their
draws with adjoint weights instead, which gives the same statistic up to
rounding without the states.
"""

from dataclasses import dataclass

import numpy as np

from .dynamics import PathSample
from .kernels import LocalizingKernel
from .observation import ObservationScheme

__all__ = [
    "LocalizedStatistic",
    "localized_mean",
    "localized_autocov",
    "clt_statistic",
    "global_average",
    "localized_continuous_mean",
    "localized_sum",
    "localized_weights",
]

_MATCH_TOL = 1e-12


@dataclass(frozen=True)
class LocalizedStatistic:
    value: float
    scheme: ObservationScheme
    kernel_id: str
    lag: int
    centered: bool
    weight_sum: float


def _nearest(nodes: np.ndarray, wanted: np.ndarray) -> np.ndarray:
    """Index of the node of the sorted ``nodes`` nearest each of ``wanted``."""
    idx = np.clip(np.searchsorted(nodes, wanted), 0, len(nodes) - 1)
    left = np.clip(idx - 1, 0, len(nodes) - 1)
    return np.where(np.abs(nodes[left] - wanted) < np.abs(nodes[idx] - wanted), left, idx)


def _match_times(times: np.ndarray, wanted: np.ndarray, what: str) -> np.ndarray:
    """Indices of ``wanted`` inside ``times``; errors on the first mismatch."""
    idx = _nearest(times, wanted)
    err = np.abs(times[idx] - wanted)
    tol = _MATCH_TOL * np.maximum(1.0, np.abs(wanted))
    bad = np.nonzero(err > tol)[0]
    if bad.size:
        i = int(bad[0])
        raise ValueError(
            f"{what}: no sample at required time index {i} "
            f"(wanted {wanted[i]!r}, nearest {times[idx[i]]!r})"
        )
    return idx


def localized_weights(
    scheme: ObservationScheme, kernel: LocalizingKernel, root: bool = False
) -> tuple[np.ndarray, float]:
    """The kernel weights K((grid - u) / b_N) of ``scheme`` and the scale
    delta_N / b_N, or its square root (``root``, the central limit scaling)."""
    factor = scheme.delta_N / scheme.b_N
    return kernel((scheme.grid - scheme.u) / scheme.b_N), np.sqrt(factor) if root else factor


def localized_sum(values, base_idx, shift_idx, weights, scale, center: float = 0.0):
    """scale * sum_i weights_i S_i over the last axis of ``values`` (..., n).

    S_i = values[..., base_idx[i]] for the mean (``shift_idx`` None) and
    S_i = values[..., base_idx[i]] * values[..., shift_idx[i]] - center for
    the lagged product.
    """
    summands = values[..., base_idx]
    if shift_idx is not None:
        summands = summands * values[..., shift_idx] - center
    return scale * (summands @ weights)


def _on_path(path: PathSample, scheme: ObservationScheme, kernel: LocalizingKernel,
             k: int | None, what: str, center: float = 0.0, root: bool = False):
    """The statistic of ``path`` on the scheme's grid, lagged by k/N unless k
    is None, and its weight sum (the scale times the sum of the weights)."""
    base_idx = _match_times(path.times, scheme.grid, f"{what} (grid)")
    shift_idx = None if k is None else _match_times(
        path.times, scheme.grid + k / scheme.N, f"{what} (shifted grid)")
    weights, scale = localized_weights(scheme, kernel, root)
    value = localized_sum(path.values, base_idx, shift_idx, weights, scale, center)
    return float(value), float(scale * np.sum(weights))


def localized_mean(
    path: PathSample, scheme: ObservationScheme, kernel: LocalizingKernel
) -> LocalizedStatistic:
    """(delta_N / b_N) sum_i K((tau_i - u)/b_N) Y(tau_i)."""
    value, wsum = _on_path(path, scheme, kernel, None, "localized_mean")
    return LocalizedStatistic(value=value, scheme=scheme, kernel_id=kernel.id, lag=0,
                              centered=False, weight_sum=wsum)


def localized_autocov(
    path: PathSample, scheme: ObservationScheme, kernel: LocalizingKernel, k: int
) -> LocalizedStatistic:
    """(delta_N / b_N) sum_i K((tau_i - u)/b_N) Y(tau_i) Y(tau_i + k/N).

    The path must contain samples at the grid and at the grid shifted by k/N;
    no interpolation is performed.
    """
    if k < 0:
        raise ValueError("lag k must be nonnegative")
    value, wsum = _on_path(path, scheme, kernel, k, "localized_autocov")
    return LocalizedStatistic(value=value, scheme=scheme, kernel_id=kernel.id, lag=k,
                              centered=False, weight_sum=wsum)


def clt_statistic(
    path: PathSample,
    scheme: ObservationScheme,
    kernel: LocalizingKernel,
    k: int | None = None,
    center: float = 0.0,
) -> float:
    """sqrt(delta_N / b_N) sum_i K_rect((tau_i - u)/b_N) S_i.

    S_i = Y(tau_i) for the mean statistic (center must be 0) and
    S_i = Y(tau_i) Y(tau_i + k/N) - center for the lagged product statistic.
    Only the rectangular kernel is supported; the limit theorem behind this
    scaling is established for that kernel alone.
    """
    if kernel.id != "rectangular":
        raise ValueError(
            f"clt_statistic requires the rectangular kernel, got {kernel.id!r}"
        )
    if k is None and center != 0.0:
        raise ValueError("mean statistic admits no centering constant; pass center=0")
    return _on_path(path, scheme, kernel, k, "clt_statistic", center, root=True)[0]


def _uniform_cover(path: PathSample, lo: float, hi: float, name: str):
    times = path.times
    if times[0] > lo + 1e-9 or times[-1] < hi - 1e-9:
        raise ValueError(f"{name}: path grid [{times[0]}, {times[-1]}] does not cover [{lo}, {hi}]")
    gaps = np.diff(times)
    if gaps.size and np.max(np.abs(gaps - gaps[0])) > 1e-9 * max(1.0, gaps[0]):
        raise ValueError(f"{name}: path grid is not uniform")
    mask = (times >= lo - 1e-12) & (times <= hi + 1e-12)
    return times[mask], path.values[mask]


def global_average(path: PathSample, t: float) -> float:
    """(1/t) int_0^t Y(nu) dnu by the trapezoid rule on a uniform grid."""
    if t <= 0:
        raise ValueError("t must be positive")
    times, values = _uniform_cover(path, 0.0, t, "global_average")
    return float(np.trapezoid(values, times) / t)


def localized_continuous_mean(
    path: PathSample, u: float, b: float, kernel: LocalizingKernel
) -> float:
    """(1/b) int_{u-b}^{u+b} K((tau - u)/b) Y(tau) dtau by the trapezoid rule.

    Requires a differentiable kernel; the continuous-observation limit
    theorem needs the kernel derivative for its integration by parts.
    """
    if not kernel.differentiable:
        raise ValueError(
            f"localized_continuous_mean requires a differentiable kernel, got {kernel.id!r}"
        )
    times, values = _uniform_cover(path, u - b, u + b, "localized_continuous_mean")
    integrand = kernel((times - u) / b) * values
    return float(np.trapezoid(integrand, times) / b)
