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

Simulation is exact in distribution: per step the Gaussian convolution
increment is drawn with its true covariance (block-exponential identity),
jumps are placed at their Poisson arrival times with the exact decay factor,
and the initial state comes from a long warm start.

The limit variances of the localized statistics carry a known ambiguity: for
widely separated samples the half-second-moment normalization
sigma^2 = E[Y^2]/2 is the one the partial-sum computation supports, but the
plain second moment also circulates. Both are exposed as candidates and the
central limit experiment records which one standardizes to unit variance.
"""

from dataclasses import dataclass
from typing import Callable

import numpy as np
from scipy import integrate, linalg

from .dynamics import Car1Spec, PathSample, eigenbasis
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
    """Freeze coefficients at u; rejects an unstable A(u)."""
    if isinstance(spec, FrozenSystem):
        return spec
    if isinstance(spec, Car1Spec):
        a = float(np.asarray(spec.a(u)))
        if a <= 0:
            raise ValueError(f"a({u}) = {a} is not positive; frozen system unstable")
        return FrozenSystem(np.array([[-a]]), np.ones(1), np.ones(1), margin=a)
    A = np.asarray(spec.A(u), dtype=float)
    top = float(np.max(np.real(np.linalg.eigvals(A))))
    if top >= 0:
        raise ValueError(f"A({u}) has eigenvalue with real part {top} >= 0; unstable")
    return FrozenSystem(
        A, np.asarray(spec.B(u), dtype=float), np.asarray(spec.C(u), dtype=float), margin=-top
    )


def _eig_cache(fr: FrozenSystem):
    """Eigen factorization when it is numerically trustworthy, else None.

    Near-defective matrices (repeated roots of companion forms) make the
    eigenvector basis ill-conditioned; callers then fall back to expm.
    """
    w, V, Vinv, trusted = eigenbasis(fr.A)
    return (w, V, Vinv) if trusted else None


def _exp_pair(fr: FrozenSystem, left: np.ndarray, right: np.ndarray):
    """The map s -> left' e^{A s} right, vectorized over lag arrays.

    A is factorized once, here, so callers that evaluate at many lags (the
    quadratures of :func:`kernel_power_integrals`) pay for it once.
    """
    eig = _eig_cache(fr)
    if eig is not None:
        w, V, Vinv = eig
        coeff = (left @ V) * (Vinv @ right)
        return lambda s: np.real(np.exp(np.multiply.outer(s, w)) @ coeff)

    def via_expm(s):
        out = np.array([float(left @ linalg.expm(fr.A * si) @ right) for si in np.atleast_1d(s)])
        return out[0] if np.ndim(s) == 0 else out

    return via_expm


def lyapunov_gram(fr: FrozenSystem) -> np.ndarray:
    """Gamma = int_0^inf e^{As} C C' e^{A's} ds via the Lyapunov equation."""
    return linalg.solve_continuous_lyapunov(fr.A, -np.outer(fr.C, fr.C))


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


def kernel_power_integrals(fr: FrozenSystem, horizon: float | None = None):
    """Quadrature values of int f^k, k = 1..4, over [0, 60/margin]."""
    if horizon is None:
        horizon = 60.0 / fr.margin
    f = _exp_pair(fr, fr.B, fr.C)  # f(s) = B' e^{A s} C
    out = []
    for k in (1, 2, 3, 4):
        val, _ = integrate.quad(
            lambda s, k=k: float(f(np.asarray(s, dtype=float))) ** k,
            0.0, horizon, limit=400, epsabs=1e-13,
        )
        out.append(val)
    return tuple(out)


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
    """Smallest K with variance * exp(-margin (K+1) delta) / (1 - exp(-margin delta)) < 1e-12."""
    q = np.exp(-margin * delta)
    if q >= 1.0:
        raise ValueError("nonpositive decay rate")
    if variance <= 0:
        return 1
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
    closed_form: bool
    std_error: float | None
    scheme_kind: str
    candidates: dict


def _isserlis_fourth(r: Callable[[np.ndarray], np.ndarray], k: float, h: np.ndarray):
    """E[Y(0) Y(k) Y(h) Y(h+k)] for a centered Gaussian stationary process:
    r(k)^2 + r(h)^2 + r(h+k) r(|h-k|)."""
    return r(np.full_like(h, k)) ** 2 + r(h) ** 2 + r(h + k) * r(np.abs(h - k))


def sigma2_tilde(
    spec,
    u: float,
    triplet: LevyTriplet,
    k: float,
    scheme_kind,
    rng=None,
    replications: int = 200,
    window: int = 64,
) -> SigmaTildeResult:
    """Limit variance of the centered lagged product statistic.

    The summand is V_i = Y(s_i) Y(s_i + k) - Cov(Y(0), Y(k)); the value is the
    variance of the centered summand plus (fixed spacing only) its lag series.
    For Gaussian drivers fourth moments reduce to covariances and the value is
    closed form; otherwise it is a Monte Carlo estimate with a standard error
    and ``closed_form=False``.
    """
    _require_centered(triplet)
    if k < 0:
        raise ValueError("lag must be nonnegative")
    fr = freeze(spec, u)
    variance = float(stationary_autocov(spec, u, triplet, 0.0))
    r = lambda h: stationary_autocov(spec, u, triplet, h)
    rk = float(r(float(k)))
    gaussian = triplet.jumps is None or triplet.jump_rate == 0.0

    if gaussian:
        # E[Y0^2 Yk^2] = r(0)^2 + 2 r(k)^2 for centered Gaussian
        e_sq = variance**2 + 2.0 * rk**2
        centered_var = e_sq - rk**2
        if scheme_kind == "O2":
            value = 0.5 * centered_var
            return SigmaTildeResult(
                value=value,
                closed_form=True,
                std_error=None,
                scheme_kind="O2",
                candidates={"centered_half": value, "uncentered_second_moment": e_sq},
            )
        kind, delta = scheme_kind
        if kind != "O1":
            raise ValueError("scheme_kind must be 'O2' or ('O1', delta)")
        n_terms = _geometric_tail_terms(max(centered_var, variance**2), fr.margin, delta)
        lags = delta * np.arange(1, n_terms + 1)
        cov_terms = _isserlis_fourth(r, float(k), lags) - rk**2
        value = 0.5 * centered_var + float(np.sum(cov_terms))
        return SigmaTildeResult(value, True, None, "O1", {"centered_series": value})

    # Non-Gaussian driver: no closed form for the lagged fourth moments.
    if rng is None:
        raise ValueError("non-Gaussian driver needs a stream for the Monte Carlo estimate")
    if scheme_kind == "O2":
        spacing, n_lags = max(1.0, k), 0
    else:
        kind, spacing = scheme_kind
        if kind != "O1":
            raise ValueError("scheme_kind must be 'O2' or ('O1', delta)")
        n_lags = _series_lag_count(fr.margin, spacing)
    estimates = _sigma_tilde_mc(fr, triplet, float(k), spacing, n_lags, rk, replications, window, rng)
    value = float(np.mean(estimates))
    se = float(np.std(estimates, ddof=1) / np.sqrt(len(estimates)))
    return SigmaTildeResult(value, False, se, scheme_kind if isinstance(scheme_kind, str) else "O1",
                            {"monte_carlo": value})


def _series_lag_count(margin: float, delta: float) -> int:
    # summands decay like exp(-margin * h * delta); 40 decades of slack
    return int(np.ceil(40.0 / (margin * delta)))


def _sigma_tilde_mc(fr, triplet, k, spacing, n_lags, rk, replications, window, rng):
    """Independent-replication estimates of the centered-summand variance
    (plus the lag series under fixed spacing)."""
    need_shift = k > 0 and abs(k - spacing * round(k / spacing)) > 1e-12
    n_pts = window + n_lags + 1
    base = spacing * np.arange(n_pts)
    grid = np.union1d(base, base + k) if need_shift else spacing * np.arange(n_pts + max(1, int(round(k / spacing))))
    gaps = np.diff(grid)
    estimates = np.empty(replications)
    for rep in range(replications):
        # sequential draws from one stream keep replications independent
        y = simulate_stationary_batch(fr, triplet, gaps, 1, [rng])[0]
        if need_shift:
            idx0 = np.searchsorted(grid, base)
            idxk = np.searchsorted(grid, base + k)
        else:
            step_k = int(round(k / spacing)) if k > 0 else 0
            idx0 = np.arange(n_pts)
            idxk = idx0 + step_k
        v = y[idx0] * y[idxk] - rk
        est = 0.5 * np.mean(v[:window] ** 2)
        for h in range(1, n_lags + 1):
            est += np.mean(v[:window] * v[h : h + window])
        estimates[rep] = est
    return estimates


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


def _gaussian_conv_cov(A: np.ndarray, CCt: np.ndarray, h: float) -> np.ndarray:
    """int_0^h e^{As} CC' e^{A's} ds by the block-exponential identity."""
    p = A.shape[0]
    M = np.zeros((2 * p, 2 * p))
    M[:p, :p] = -A
    M[:p, p:] = CCt
    M[p:, p:] = A.T
    F = linalg.expm(M * h)
    return F[p:, p:].T @ F[:p, p:]


@dataclass
class _StepLaw:
    gap: float
    prop: np.ndarray  # e^{A h}
    chol: np.ndarray | None  # Cholesky factor of the Gaussian covariance
    drift: np.ndarray  # gamma * int_0^h e^{As} C ds


def _step_law(fr: FrozenSystem, triplet: LevyTriplet, h: float) -> _StepLaw:
    prop = linalg.expm(fr.A * h)
    drift = triplet.path_drift * np.linalg.solve(fr.A, (prop - np.eye(fr.p)) @ fr.C)
    chol = None
    if triplet.sigma2 > 0:
        Q = triplet.sigma2 * _gaussian_conv_cov(fr.A, np.outer(fr.C, fr.C), h)
        # symmetrize and factor; clip tiny negative curvature from roundoff
        Q = 0.5 * (Q + Q.T)
        try:
            chol = np.linalg.cholesky(Q)
        except np.linalg.LinAlgError:
            vals, vecs = np.linalg.eigh(Q)
            chol = vecs @ np.diag(np.sqrt(np.clip(vals, 0.0, None)))
    return _StepLaw(h, prop, chol, drift)


def simulate_stationary_batch(
    fr: FrozenSystem,
    triplet: LevyTriplet,
    gaps: np.ndarray,
    R: int,
    gens,
    return_state: bool = False,
):
    """Exact-in-distribution stationary paths for R replications.

    Returns Y values with shape (R, len(gaps) + 1). Draw order per
    replication: warm-start block, then per-path Gaussian block, Poisson
    counts, arrival offsets, jump sizes. One generator per replication.
    """
    gaps = np.asarray(gaps, dtype=float)
    if np.any(gaps <= 0):
        raise ValueError("grid gaps must be positive")
    eig = _eig_cache(fr)
    if eig is not None:
        w_eig, V, _ = eig
        vinv_c = np.linalg.solve(V, fr.C.astype(complex))
    laws = {}
    warm = 12.0 / fr.margin
    for h in np.concatenate([[warm], np.unique(gaps)]):
        laws[h] = _step_law(fr, triplet, h)

    n = len(gaps)
    p = fr.p
    rate = triplet.jump_rate
    all_gaps = np.concatenate([[warm], gaps])
    out = np.empty((R, n + 1))
    states = np.empty((R, p)) if return_state else None
    for r in range(R):
        gen = gens[r]
        z = gen.standard_normal((n + 1, p)) if triplet.sigma2 > 0 else None
        jump_term = np.zeros((n + 1, p))
        if rate > 0:
            counts = gen.poisson(rate * all_gaps)
            total = int(counts.sum())
            if total:
                offs_unit = gen.uniform(0.0, 1.0, total)
                sizes = triplet.jumps.sample(total, gen)
                step_idx = np.repeat(np.arange(n + 1), counts)
                remain = all_gaps[step_idx] * (1.0 - offs_unit)  # time left after arrival
                if eig is not None:
                    # e^{A v} C = V diag(e^{lambda v}) V^{-1} C, all jumps at once
                    expf = np.exp(np.multiply.outer(remain, w_eig))
                    contrib = np.real((expf * vinv_c) @ V.T) * sizes[:, None]
                else:
                    contrib = np.stack(
                        [linalg.expm(fr.A * v) @ fr.C * sz for v, sz in zip(remain, sizes)]
                    )
                np.add.at(jump_term, step_idx, contrib)
        x = np.zeros(p)
        for i, h in enumerate(all_gaps):
            law = laws[h]
            x = law.prop @ x + law.drift + jump_term[i]
            if law.chol is not None:
                x = x + law.chol @ z[i]
            out[r, i] = fr.B @ x  # i = 0 is the state at grid[0] after warm-up
        if return_state:
            states[r] = x
    if return_state:
        return out, states
    return out


def simulate_stationary(spec, u: float, triplet: LevyTriplet, grid, rng) -> PathSample:
    """One exact stationary path observed on the given (increasing) grid."""
    grid = np.asarray(grid, dtype=float)
    if grid.size < 1:
        raise ValueError("grid must be nonempty")
    if grid.size > 1 and not np.all(np.diff(grid) > 0):
        raise ValueError("grid must be strictly increasing")
    fr = freeze(spec, u)
    gaps = np.diff(grid)
    vals = simulate_stationary_batch(fr, triplet, gaps, 1, [rng])[0]
    return PathSample(times=grid, values=vals, fine_grid=None, meta={"model_id": "stationary", "u": u})


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
        gaussian = triplet.jumps is None or triplet.jump_rate == 0.0
        if gaussian:
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
