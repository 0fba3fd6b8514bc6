"""Stationary approximation at a frozen localization point u.

With the coefficients frozen at u, the process

    Y(t) = integral_{-infty}^t B' e^{A (t-s)} C  L(ds)

is stationary; everything here is exact. Moment conventions (mu_L, Sigma_L,
nu_k from the noise module, f(s) = B' e^{A s} C, Gamma the controllability
Gramian solving A Gamma + Gamma A' = -C C'):

    mean            mu_L * int f        = -mu_L B' A^{-1} C
    autocov(h)      Sigma_L * B' e^{A h} Gamma B          (h >= 0)
    fourth moment   nu4 int f^4 + 3 Sigma_L^2 (int f^2)^2 + mu_L^4 (int f)^4
                    + 6 mu_L^2 Sigma_L (int f)^2 int f^2 + 4 mu_L nu3 int f^3 int f
    lagged fourth   E[Y(0) Y(k) Y(h) Y(h+k)] = r(k)^2 + r(h)^2 + r(h+k) r(|h-k|)
    (centered)          + nu4 int f(s) f(s+k) f(s+h) f(s+h+k) ds,  r = autocov

Every integral of a product of f (the int f^k above and the cumulant
integral of the lagged fourth moment) comes from one vector-valued adaptive
quadrature (:func:`_product_integrals`): QUADPACK's Gauss-Kronrod G10K21
rule, written in numpy (:func:`_gauss_kronrod`), which evaluates the nodes
of all its open panels as one array, and whose first round runs on a cut of
[0, 60/margin] graded toward s = 0, where f moves fastest
(``_GRADED_CUT``). The lagged fourth moments make the limit variance of the
second-order statistic exact for every centered driver.

Every e^{As} here, in the moments and in the steps of the simulation, is
V diag(e^{ws}) V^-1 on the eigenbasis of A where
``dynamics.trusted_eigenbasis`` trusts it, and comes from the package's
batched ``linalg.expm`` elsewhere: one rule for the whole frozen process.

Simulation is exact in distribution: each step of the grid, and a long
warm start before it, is one step of the ``dynamics.StepLaw`` of (A, C), one
segment of a ``dynamics.SegmentLaw`` and one row of its
``dynamics.JumpWeights``, the table that weighs every jump of ``Y_N``. So
the frozen process is drawn and scanned by the same sampler as ``Y_N``: a
batch of replications draws from one generator, one call per kind
(``dynamics.draw_segment_noise``), and one affine prefix scan over time
(``dynamics.run_segment_law``) carries the states of all replications,
shape (steps, p, R).

The limit variances of the localized statistics carry a known ambiguity: for
widely separated samples the half-second-moment normalization
sigma^2 = E[Y^2]/2 is the one the partial-sum computation supports, but the
plain second moment also circulates. Both are exposed as candidates and the
central limit experiment records which one standardizes to unit variance.
"""

from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import linalg
from .dynamics import (
    _MAX_STEPS, JumpWeights, PathSample, SegmentLaw, StepLaw, _driver_law, _gramian,
    draw_segment_noise, run_segment_law, trusted_eigenbasis,
)
from .noise import LevyTriplet, triplet_moments

__all__ = [
    "FrozenSystem",
    "freeze",
    "stationary_mean",
    "stationary_autocov",
    "lyapunov_gram",
    "second_moment",
    "fourth_moment_integral",
    "kernel_power_integrals",
    "sigma2",
    "sigma2_tilde",
    "covariance_decay_check",
    "simulate_stationary",
    "simulate_stationary_batch",
    "stationary_moments",
    "StationaryMoments",
    "Sigma2Result",
    "SigmaTildeResult",
    "DecayReport",
]


@dataclass(frozen=True)
class FrozenSystem:
    A: np.ndarray
    B: np.ndarray
    C: np.ndarray
    margin: float  # -max_j Re lambda_j(A), positive

    @property
    def p(self) -> int:
        return self.A.shape[0]


def freeze(spec, u: float) -> FrozenSystem:
    """Freeze the coefficients of ``spec`` at u; rejects an unstable A(u)."""
    if isinstance(spec, FrozenSystem):
        return spec
    A = np.asarray(spec.A(u), dtype=float)
    top = float(np.max(np.real(np.linalg.eigvals(A))))
    if top >= 0:
        raise ValueError(f"A({u}) has eigenvalue with real part {top} >= 0; unstable")
    return FrozenSystem(
        A, np.asarray(spec.B(u), dtype=float), np.asarray(spec.C(u), dtype=float), margin=-top
    )


def _exp_pair(fr: FrozenSystem, left: np.ndarray, right: np.ndarray):
    """The map s -> left' e^{A s} right, vectorized over lag arrays of any shape.

    A is factorized once, here, so callers that evaluate at many lags pay
    for it once.
    """
    eig = trusted_eigenbasis(fr.A)
    if eig is not None:
        w, V, Vinv, _ = eig
        coeff = (left @ V) * (Vinv @ right)
        return lambda s: np.real(np.exp(np.multiply.outer(s, w)) @ coeff)

    # one batched expm over every lag, whatever the shape of the lag array
    return lambda s: left @ linalg.expm(np.multiply.outer(np.asarray(s, dtype=float), fr.A)) @ right


def lyapunov_gram(fr: FrozenSystem) -> np.ndarray:
    """Gamma = int_0^inf e^{As} C C' e^{A's} ds via the Lyapunov equation."""
    return _gramian(fr.A[None], fr.C[None, :, None])[0]


def stationary_mean(spec, u: float, triplet: LevyTriplet) -> float:
    fr = freeze(spec, u)
    mom = triplet_moments(triplet)
    return float(-mom.mu_L * fr.B @ np.linalg.solve(fr.A, fr.C))


def stationary_autocov(spec, u: float, triplet: LevyTriplet, h) -> float | np.ndarray:
    """Cov(Y(0), Y(h)) for h >= 0; vectorized over h."""
    fr = freeze(spec, u)
    mom = triplet_moments(triplet)
    gam_b = lyapunov_gram(fr) @ fr.B
    h_arr = np.asarray(h, dtype=float)
    if np.any(h_arr < 0):
        raise ValueError("lag must be nonnegative")
    vals = mom.Sigma_L * _exp_pair(fr, fr.B, gam_b)(h_arr)
    return float(vals) if np.isscalar(h) or h_arr.ndim == 0 else vals


def second_moment(spec, u: float, triplet: LevyTriplet) -> float:
    m = stationary_mean(spec, u, triplet)
    return float(stationary_autocov(spec, u, triplet, 0.0)) + m * m


# QUADPACK's G10K21 rule (Piessens et al. 1983, dqk21), the constants of
# scipy's quad_vec: the 11 Kronrod abscissae of [0, 1], largest first (the
# 2nd, 4th, ..., 10th are the Gauss abscissae), their Kronrod weights and the
# weights of the 5 Gauss abscissae
_XGK = (
    0.995657163025808080735527280689003, 0.973906528517171720077964012084452,
    0.930157491355708226001207180059508, 0.865063366688984510732096688423493,
    0.780817726586416897063717578345042, 0.679409568299024406234327365114874,
    0.562757134668604683339000099272694, 0.433395394129247190799265943165784,
    0.294392862701460198131126603103866, 0.148874338981631210884826001129720,
    0.0,
)
_WGK = (
    0.011694638867371874278064396062192, 0.032558162307964727478818972459390,
    0.054755896574351996031381300244580, 0.075039674810919952767043140916190,
    0.093125454583697605535065465083366, 0.109387158802297641899210590325805,
    0.123491976262065851077958109831074, 0.134709217311473325928054001771707,
    0.142775938577060080797094273138717, 0.147739104901338491374841515972068,
    0.149445554002916905664936468389821,
)
_WG = (
    0.066671344308688137593568809893332, 0.149451349150580593145776339657697,
    0.219086362515982043995534934228163, 0.269266719309996355091226921569469,
    0.295524224714752870173892994651338,
)
# the 21 nodes of [-1, 1] from the left, and the two weight rows over them
_GK_NODES = np.concatenate([np.negative(_XGK[:-1]), _XGK[::-1]])
_GK_KRONROD = np.concatenate([_WGK, _WGK[-2::-1]])
_GK_GAUSS = np.zeros(21)
_GK_GAUSS[1::2] = _WG + _WG[::-1]
_GK_EPSREL = 1e-12
# most panels the rule holds at once (quad_vec's limit); a panel that would
# take it past this is not bisected, and the rule returns the estimate it has
_GK_PANELS = 10_000
# most values of the integrand's work one call takes (nodes x size), and so
# the panels whose nodes are evaluated and reduced together
_GK_VALUES = 1 << 17
# the first cut of [0, 60 / margin] for the integrals of products of f: the
# panels that bisecting the one at s = 0, where f moves fastest, reaches
# after five rounds
_GRADED_CUT = np.concatenate([[0.0], 2.0 ** np.arange(-5, 1)])


def _gk_panels(f, lo, hi, per_call: int):
    """K21 integrals, error estimates and round-off floors of the panels
    [lo, hi), the estimates of scipy's quad_vec on each."""
    h = 0.5 * (hi - lo)
    nodes = ((0.5 * (lo + hi))[:, None] + h[:, None] * _GK_NODES).ravel()
    values = np.concatenate([f(nodes[i:i + per_call]) for i in range(0, nodes.size, per_call)])
    out = values.shape[1:]
    values = values.reshape(len(lo), 21, -1)
    h = h[:, None]
    kronrod = _GK_KRONROD @ values
    err = np.linalg.norm((kronrod - _GK_GAUSS @ values) * h, axis=1)
    dabs = np.linalg.norm((_GK_KRONROD @ np.abs(values - 0.5 * kronrod[:, None])) * h, axis=1)
    scaled = dabs * np.minimum(1.0, 200.0 * err / np.where(dabs > 0, dabs, 1.0)) ** 1.5
    err = np.where((dabs != 0) & (err != 0), scaled, err)
    floor = np.linalg.norm(50.0 * np.finfo(float).eps * h * (_GK_KRONROD @ np.abs(values)), axis=1)
    err = np.where(floor > np.finfo(float).tiny, np.maximum(err, floor), err)
    return (kronrod * h).reshape((len(lo),) + out), err, floor


def _gauss_kronrod(f, points, size: int = 1):
    """int_a^b f(s) ds by adaptive G10K21 panels, a and b the first and last
    of the break ``points``, whose gaps are the panels of the first round
    (``[a, b]`` for one panel).

    ``f`` maps a 1-D array of nodes to values of shape (nodes,) + out. Each
    round evaluates the nodes of every open panel in one call; an integrand
    that works through ``size`` values per node is called on at most
    ``_GK_VALUES / size`` nodes at once, and its values are reduced panel
    group by panel group, so one round holds no more than that.

    The error of a panel is estimated as by scipy's quad_vec: the 2-norm
    over the output of its K21 - G10 difference, QUADPACK's rescaling
    ``dabs min(1, (200 err / dabs)^1.5)`` by the absolute deviation from the
    mean, and the round-off floor ``50 eps h int |f|``. A panel is accepted
    when its error is within its length share of ``epsrel ||I||``
    (``epsrel`` 1e-12, absolute floor the smallest normal double) or at its
    round-off floor, where bisection cannot help; the others are bisected.
    At ``_GK_PANELS`` panels the rule stops and returns its estimate, NaN for
    an integrand that gives NaN.
    """
    per_call = max(1, _GK_VALUES // size)
    group = max(1, per_call // 21)
    points = np.asarray(points, dtype=float)
    a, b, lo, hi = points[0], points[-1], points[:-1], points[1:]
    done, n_done = 0.0, 0
    while True:
        groups = [_gk_panels(f, lo[i:i + group], hi[i:i + group], per_call)
                  for i in range(0, len(lo), group)]
        parts, err, floor = (np.concatenate(x) for x in zip(*groups))
        total = done + parts.sum(axis=0)
        tol = max(np.finfo(float).tiny, _GK_EPSREL * np.linalg.norm(total))
        ok = (err * abs(b - a) <= tol * np.abs(hi - lo)) | (err <= floor)
        n_open = len(ok) - np.count_nonzero(ok)
        if n_open == 0 or n_done + len(ok) + n_open > _GK_PANELS:
            return total
        done = done + parts[ok].sum(axis=0)
        n_done += len(ok) - n_open
        lo, hi = lo[~ok], hi[~ok]
        mid = 0.5 * (lo + hi)
        lo, hi = np.stack([lo, mid], axis=1).ravel(), np.stack([mid, hi], axis=1).ravel()


def _product_integrals(fr: FrozenSystem, shifts, powers=1):
    """int_0^{60/margin} (prod_i f(s + shifts[..., i])) ** powers ds, f(s) = B' e^{A s} C.

    One run of :func:`_gauss_kronrod` covers every row of ``shifts`` (and
    every entry of ``powers``, broadcast against the rows), starting from
    the panels of ``_GRADED_CUT``; its tolerance is relative, since an
    absolute one is as large as int f^4 for nearly equal joint systems. The
    absolute floor is the smallest normal double, so that an identically
    zero integrand stops at once.

    Each value is a row of the node times a column of the shift,
    f(s + shift) = (B' e^{As}) (e^{A shift} C), and the columns are computed
    once. On the eigenbasis A = V diag(w) V^-1 that
    ``dynamics.trusted_eigenbasis`` trusts, the row is e^{w s} and the column
    e^{w shift} (B'V) * (V^-1 C); without one, each round takes one batched
    expm over its nodes. A round is then one matrix product of its
    rows and the columns.

    f vanishes identically (two equal halves of a joint system) when each
    B' A^k C, k < p, is below 1e-13 of |B|' |A^k| |C| (Cayley-Hamilton); its
    integrals are then zeros, where a quadrature would chase rounding noise.
    """
    shifts = np.asarray(shifts, dtype=float)
    if all(abs(fr.B @ Ak @ fr.C) <= 1e-13 * (np.abs(fr.B) @ np.abs(Ak) @ np.abs(fr.C))
           for Ak in (np.linalg.matrix_power(fr.A, k) for k in range(fr.p))):
        return np.zeros(np.broadcast_shapes(shifts.shape[:-1], np.shape(powers)))
    eig = trusted_eigenbasis(fr.A)
    if eig is not None:
        w, V, Vinv, _ = eig
        left = lambda s: np.exp(np.multiply.outer(s, w))
        cols = np.exp(np.multiply.outer(shifts, w)) * ((fr.B @ V) * (Vinv @ fr.C))
    else:
        left = lambda s: fr.B @ linalg.expm(np.multiply.outer(s, fr.A))
        cols = linalg.expm(np.multiply.outer(shifts, fr.A)) @ fr.C
    # f(s + shift) for every node and shift, shape nodes.shape + shifts.shape
    values = lambda s: np.real(np.tensordot(left(s), cols, axes=(-1, -1)))
    return _gauss_kronrod(lambda s: np.prod(values(s), axis=-1) ** powers,
                          60.0 / fr.margin * _GRADED_CUT, size=shifts.size)


def kernel_power_integrals(fr: FrozenSystem):
    """int f^k, k = 1..4, over [0, 60/margin] in one quadrature."""
    return tuple(float(v) for v in _product_integrals(fr, np.zeros((4, 1)), np.arange(1, 5)))


def fourth_moment_integral(spec, u: float, triplet: LevyTriplet) -> float:
    """E[Y(0)^4], the five-term cumulant expansion of the stochastic integral."""
    fr = freeze(spec, u)
    mom = triplet_moments(triplet)
    i1, i2, i3, i4 = kernel_power_integrals(fr)
    return float(
        i4 * mom.nu4
        + 3.0 * mom.Sigma_L**2 * i2**2
        + mom.mu_L**4 * i1**4
        + 6.0 * mom.mu_L**2 * mom.Sigma_L * i1**2 * i2
        + 4.0 * mom.mu_L * mom.nu3 * i3 * i1
    )


def _require_centered(triplet: LevyTriplet) -> None:
    mu = triplet_moments(triplet).mu_L
    if abs(mu) > 1e-12:
        raise ValueError(
            f"driver has mean {mu}; center it first (shift gamma by -mu, see noise.centered)"
        )


def _geometric_tail_terms(variance: float, margin: float, delta: float) -> int:
    """Smallest K with variance * exp(-margin (K+1) delta) / (1 - exp(-margin delta)) < 1e-12;
    a K past ``_MAX_STEPS`` raises ValueError naming delta. The bound is checked
    in log space: exp(-margin delta) rounds to 1 below a rate of 1.1e-16."""
    rate = margin * delta
    if not rate > 0:
        raise ValueError("nonpositive decay rate")
    if variance <= 0:
        return 1
    with np.errstate(over="ignore"):  # inf terms at a subnormal rate
        terms = (np.log(variance / 1e-12) - np.log(-np.expm1(-rate))) / rate - 1.0
    if terms > _MAX_STEPS:
        raise ValueError(f"the lag series at delta = {delta:g} needs {terms:.3g} terms, "
                         f"more than {_MAX_STEPS}")
    q = np.exp(-rate)
    threshold = 1e-12 * (1.0 - q) / variance
    if threshold >= q:
        return 1
    return max(1, int(np.ceil(np.log(threshold) / np.log(q))) - 1)


@dataclass(frozen=True)
class Sigma2Result:
    value: float
    positive: bool
    scheme_kind: str
    candidates: dict


def sigma2(spec, u: float, triplet: LevyTriplet, scheme_kind) -> Sigma2Result:
    """Limit variance of the localized sample mean statistic.

    scheme_kind is "O2" or ("O1", delta). Requires a centered driver.
    Sampling with a fixed rescaled spacing delta keeps cross terms:
    sigma^2 = r(0)/2 + sum_{k>=1} r(k delta); widely separated sampling
    leaves sigma^2 = r(0)/2, with the plain-r(0) variant exposed as a second
    candidate (see module docstring).
    """
    _require_centered(triplet)
    fr = freeze(spec, u)
    variance = float(stationary_autocov(spec, u, triplet, 0.0))
    if scheme_kind == "O2":
        half = 0.5 * variance
        return Sigma2Result(
            value=half,
            positive=half > 0,
            scheme_kind="O2",
            candidates={"half_second_moment": half, "second_moment": variance},
        )
    kind, delta = scheme_kind
    if kind != "O1":
        raise ValueError("scheme_kind must be 'O2' or ('O1', delta)")
    if delta <= 0:
        raise ValueError("delta must be positive")
    n_terms = _geometric_tail_terms(variance, fr.margin, delta)
    lags = delta * np.arange(1, n_terms + 1)
    series = float(np.sum(stationary_autocov(spec, u, triplet, lags)))
    value = 0.5 * variance + series
    return Sigma2Result(
        value=value,
        positive=value > 0,
        scheme_kind="O1",
        candidates={"series": value},
    )


@dataclass(frozen=True)
class SigmaTildeResult:
    value: float
    scheme_kind: str
    candidates: dict


def _isserlis_fourth(r: Callable[[np.ndarray], np.ndarray], k: float, h: np.ndarray):
    """E[Y(0) Y(k) Y(h) Y(h+k)] for a centered Gaussian stationary process:
    r(k)^2 + r(h)^2 + r(h+k) r(|h-k|)."""
    return r(np.full_like(h, k)) ** 2 + r(h) ** 2 + r(h + k) * r(np.abs(h - k))


def sigma2_tilde(spec, u: float, triplet: LevyTriplet, k: float, scheme_kind) -> SigmaTildeResult:
    """Limit variance of the centered lagged product statistic.

    The summand is V_i = Y(s_i) Y(s_i + k) - Cov(Y(0), Y(k)); the value is the
    variance of the centered summand plus (fixed spacing only) its lag series.
    For a centered driver the lagged fourth moments are exact:

        E[Y(0) Y(k) Y(h) Y(h+k)] = r(k)^2 + r(h)^2 + r(h+k) r(|h-k|)
                                   + nu4 int_0^inf f(s) f(s+k) f(s+h) f(s+h+k) ds,

    the Isserlis pairings of the autocovariance r plus the joint fourth
    cumulant of the stochastic integral (zero for a Gaussian driver).
    """
    _require_centered(triplet)
    if k < 0:
        raise ValueError("lag must be nonnegative")
    fr = freeze(spec, u)
    nu4 = triplet_moments(triplet).nu4
    variance = float(stationary_autocov(spec, u, triplet, 0.0))
    r = lambda h: stationary_autocov(spec, u, triplet, h)
    rk = float(r(float(k)))
    # E[Y0^2 Yk^2] = r(0)^2 + 2 r(k)^2 for centered Gaussian
    e_sq = variance**2 + 2.0 * rk**2
    if scheme_kind == "O2":
        lags = np.empty(0)
    else:
        kind, delta = scheme_kind
        if kind != "O1":
            raise ValueError("scheme_kind must be 'O2' or ('O1', delta)")
        n_terms = _geometric_tail_terms(max(e_sq - rk**2, variance**2), fr.margin, delta)
        lags = delta * np.arange(1, n_terms + 1)
    # the cumulant terms go in last, so a Gaussian driver (nu4 = 0) adds exact zeros
    h = np.concatenate([[0.0], lags])
    shifts = np.stack([np.zeros_like(h), np.full_like(h, k), h, h + k], axis=-1)
    cumulant = nu4 * _product_integrals(fr, shifts)
    e_sq += cumulant[0]
    series = float(np.sum(_isserlis_fourth(r, float(k), lags) - rk**2 + cumulant[1:]))
    value = 0.5 * (e_sq - rk**2) + series
    if scheme_kind == "O2":
        return SigmaTildeResult(value, "O2", {"centered_half": value, "uncentered_second_moment": e_sq})
    return SigmaTildeResult(value, "O1", {"centered_series": value})


@dataclass(frozen=True)
class DecayReport:
    weighted_sum: float
    converged: bool
    fitted_rate: float
    terms_used: int

    @property
    def passed(self) -> bool:
        return self.converged


# most lags covariance_decay_check sums; a margin that needs more reports
# converged=False
_DECAY_LAGS_MAX = 250_000
# the summed lags reach past the point where the weighted terms have fallen
# by e^-_DECAY_LOG_DROP, far below both the 1e-10 convergence test and the
# rounding of the sum
_DECAY_LOG_DROP = 50.0


def _decay_lag_count(margin: float, eps: float, p: int) -> int:
    """Lags that hold |autocov(h)| h^{1/eps} until it has decayed.

    The terms are at most K h^k e^{-a h} with a = margin and k = 1/eps + p - 1
    (p - 1 for the polynomial factor of a defective A). Bounding k ln h by its
    tangent at h = 2k/a gives a (h - 1) - k ln h >= a h / 2 - a - k (ln(2k/a) - 1),
    which reaches D = _DECAY_LOG_DROP at h = 2 (D + a + k (ln(2k/a) - 1)) / a.
    """
    k = 1.0 / eps + p - 1
    drop = _DECAY_LOG_DROP + margin + k * (np.log(2.0 * k / margin) - 1.0)
    return int(np.ceil(2.0 * drop / margin))


def covariance_decay_check(spec, u: float, triplet: LevyTriplet, eps: float) -> DecayReport:
    """Summability proxy for the dependence-decay condition: partial sums of
    |autocov(h)| h^{1/eps} over integer lags, plus a fitted decay rate.

    The number of lags follows from the stability margin and eps
    (:func:`_decay_lag_count`); beyond ``_DECAY_LAGS_MAX`` the sum stops there
    and the report says it did not converge."""
    if eps <= 0:
        raise ValueError("eps must be positive")
    n_lags = _decay_lag_count(spec.stability_margin, eps, spec.p)
    lags = np.arange(1, min(n_lags, _DECAY_LAGS_MAX) + 1, dtype=float)
    vals = np.abs(np.asarray(stationary_autocov(spec, u, triplet, lags)))
    weighted = vals * lags ** (1.0 / eps)
    csum = np.cumsum(weighted)
    total = csum[-1]
    converged = n_lags <= _DECAY_LAGS_MAX and bool(weighted[-1] < 1e-10 * max(total, 1e-300))
    # fit the exponential rate where the covariance is numerically meaningful
    floor = max(vals[0], 1e-300) * 1e-12
    mask = vals > floor
    n_fit = max(int(np.sum(mask)), 2)
    slope, _ = np.polyfit(lags[:n_fit], np.log(vals[:n_fit] + 1e-300), 1)
    return DecayReport(
        weighted_sum=float(total),
        converged=converged,
        fitted_rate=float(-slope),
        terms_used=int(np.argmax(csum >= total * (1 - 1e-15)) + 1),
    )


# ---------------------------------------------------------------------------
# exact simulation


# perfbench/spans.py counts the frozen step laws by this name
_step_law = StepLaw


def _frozen_law(fr: FrozenSystem, triplet: LevyTriplet, gaps) -> SegmentLaw:
    """Exact law of the frozen process on a grid with the given gaps, after a
    warm start of length 12 / margin from the zero state.

    Step k is segment k of a ``dynamics.SegmentLaw``: one step of length
    gaps[k], its span, with the drift weight and covariance of the
    ``dynamics.StepLaw`` of (A, C) at that length, on the eigenbasis of A
    where ``dynamics.trusted_eigenbasis`` trusts it, and jump weight
    e^{A(h-r)} C at arrival offset r: one row of ``dynamics.JumpWeights``
    per step, the table that weighs the jumps of ``Y_N`` too.
    """
    gaps = np.asarray(gaps, dtype=float)
    if np.any(gaps <= 0):
        raise ValueError("grid gaps must be positive")
    all_gaps = np.concatenate([[12.0 / fr.margin], gaps])
    law = _step_law(fr.A, fr.C, all_gaps)
    weights = None
    if triplet.jump_rate > 0:
        weights = JumpWeights(all_gaps.size)
        weights.put_steps(np.arange(all_gaps.size), law)
    return _driver_law(triplet, *law.moments(), all_gaps, law.propagator(),
                       np.broadcast_to(fr.B, (all_gaps.size, fr.p)), weights)


def simulate_stationary_batch(fr: FrozenSystem, triplet: LevyTriplet, gaps, R: int, gen):
    """Exact-in-distribution stationary paths for R replications, Y values of
    shape (R, len(gaps) + 1), C-contiguous. Step 0 is a warm start of length
    12 / margin from the zero state, so column 0 is the state at the first
    grid point.

    ``dynamics.draw_segment_noise`` draws the law of :func:`_frozen_law` for
    all R replications from the one generator ``gen``, and
    ``dynamics.run_segment_law`` carries all R states in one affine scan over
    time.
    """
    law = _frozen_law(fr, triplet, gaps)
    return np.ascontiguousarray(run_segment_law(law, draw_segment_noise(law, gen, R)))


def simulate_stationary(spec, u: float, triplet: LevyTriplet, grid, rng) -> PathSample:
    """One exact stationary path observed on the given (increasing) grid."""
    grid = np.asarray(grid, dtype=float)
    if grid.size < 1:
        raise ValueError("grid must be nonempty")
    if grid.size > 1 and not np.all(np.diff(grid) > 0):
        raise ValueError("grid must be strictly increasing")
    fr = freeze(spec, u)
    gaps = np.diff(grid)
    vals = simulate_stationary_batch(fr, triplet, gaps, 1, rng)[0]
    return PathSample(times=grid, values=vals, meta={"model_id": "stationary", "u": u})


# ---------------------------------------------------------------------------
# moment bundle


@dataclass(frozen=True)
class StationaryMoments:
    mean: float
    variance: float
    second_moment: float
    fourth_moment: float
    autocov: Callable
    sigma2_O1: Callable | None  # delta -> value
    sigma2_O2: float | None
    sigma2_tilde_O2: Callable | None  # lag k -> value


def stationary_moments(spec, u: float, triplet: LevyTriplet) -> StationaryMoments:
    """All closed-form moments at u. The limit-variance fields require a
    centered driver and are None otherwise."""
    mean = stationary_mean(spec, u, triplet)
    var = float(stationary_autocov(spec, u, triplet, 0.0))
    fourth = fourth_moment_integral(spec, u, triplet)
    autocov = lambda h: stationary_autocov(spec, u, triplet, h)
    mu = triplet_moments(triplet).mu_L
    s2_o1 = s2_o2 = s2t = None
    if abs(mu) <= 1e-12:
        s2_o1 = lambda delta: sigma2(spec, u, triplet, ("O1", delta)).value
        s2_o2 = sigma2(spec, u, triplet, "O2").value
        s2t = lambda k: sigma2_tilde(spec, u, triplet, k, "O2").value
    return StationaryMoments(
        mean=mean,
        variance=var,
        second_moment=var + mean**2,
        fourth_moment=fourth,
        autocov=autocov,
        sigma2_O1=s2_o1,
        sigma2_O2=s2_o2,
        sigma2_tilde_O2=s2t,
    )
