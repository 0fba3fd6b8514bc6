import numpy as np
import pytest
from scipy import integrate

from locstat import models
from locstat import stationary as st
from locstat.dynamics import (
    JumpWeights, Lipschitz, ModelSpec, StepLaw, covariance_factor, draw_segment_noise, segment_states,
)
from locstat.noise import BROWNIAN, JumpSpec, LevyTriplet
from locstat.rng import stream

CPOIS = LevyTriplet(0.0, 0.0, JumpSpec(1.0, atoms=((1.0, 0.5), (-1.0, 0.5))))


def diag_spec():
    return ModelSpec(
        2,
        lambda t: np.diag([-1.0, -2.0]),
        lambda t: np.ones(2),
        lambda t: np.ones(2),
        Lipschitz(0, 0, 0),
        True,
        1.0,
        "diagAB",
    )


# --- closed-form moments -----------------------------------------------------


def test_mean_examples():
    assert st.stationary_mean(models.ou(1.0), 1.0, BROWNIAN) == 0.0
    assert st.stationary_mean(models.ou(2.0), 1.0, LevyTriplet(3.0, 1.0)) == pytest.approx(1.5)
    # componentwise integral oracle: 1/1 + 1/2
    oracle = sum(
        integrate.quad(lambda s, lam=lam: np.exp(-lam * s), 0, np.inf)[0] for lam in (1.0, 2.0)
    )
    got = st.stationary_mean(diag_spec(), 1.0, LevyTriplet(1.0, 1.0))
    assert got == pytest.approx(oracle, abs=1e-9)
    assert got == pytest.approx(1.5, abs=1e-12)


def test_autocov_examples():
    ou = models.ou(1.0)
    assert st.stationary_autocov(ou, 1.0, BROWNIAN, 0.0) == pytest.approx(0.5, abs=1e-12)
    # quadrature oracle for the lag-2 value
    oracle, _ = integrate.quad(lambda s: np.exp(-s) * np.exp(-(s + 2.0)), 0, np.inf)
    assert st.stationary_autocov(ou, 1.0, BROWNIAN, 2.0) == pytest.approx(oracle, abs=1e-12)
    assert oracle == pytest.approx(0.5 * np.exp(-2.0), abs=1e-12)
    # exponential decay at long range
    fr = st.freeze(models.tvcar_sin(), 1.0)
    far = st.stationary_autocov(models.tvcar_sin(), 1.0, BROWNIAN, 60.0 / fr.margin)
    assert abs(far) < 1e-10 * st.stationary_autocov(models.tvcar_sin(), 1.0, BROWNIAN, 0.0)
    with pytest.raises(ValueError):
        st.stationary_autocov(ou, 1.0, BROWNIAN, -1.0)


def test_unstable_system_rejected():
    growing = models.ou(1.0)
    object.__setattr__(growing, "a", lambda t: -0.5 + 0.0 * np.asarray(t))
    with pytest.raises(ValueError):
        st.freeze(growing, 1.0)


def test_lyapunov_residual_all_shipped_specs():
    for name, spec in models.shipped_specs().items():
        if name == "tvcar_step":
            continue
        fr = st.freeze(spec, 1.0)
        gam = st.lyapunov_gram(fr)
        cct = np.outer(fr.C, fr.C)
        residual = np.linalg.norm(fr.A @ gam + gam @ fr.A.T + cct)
        assert residual <= 1e-10 * np.linalg.norm(cct), name


def test_variance_matches_quadrature_route():
    # independent route: adaptive quadrature of f(s)^2 against the Gramian value
    for spec in (models.ou(1.0), models.tvcar_sin(), diag_spec(), models.companion2()):
        fr = st.freeze(spec, 1.0)
        _, i2, _, _ = st.kernel_power_integrals(fr)
        var = st.stationary_autocov(spec, 1.0, BROWNIAN, 0.0)
        assert var == pytest.approx(i2, rel=1e-10)


def test_kernel_power_integrals_ou_closed_forms():
    fr = st.freeze(models.ou(1.0), 1.0)
    i1, i2, i3, i4 = st.kernel_power_integrals(fr)
    assert i1 == pytest.approx(1.0, rel=1e-10)
    assert i2 == pytest.approx(0.5, rel=1e-10)
    assert i3 == pytest.approx(1.0 / 3.0, rel=1e-10)
    assert i4 == pytest.approx(0.25, rel=1e-10)


# the separations of the frozen_lipschitz ladder about u = 1
LADDER = (0.01, 0.02, 0.05, 0.1, 0.2, 0.5)


def _ladder_rungs():
    from locstat.experiments import _joint_frozen

    return [_joint_frozen(models.tvcar_sin(), BROWNIAN, 1.0 - eps / 2.0, 1.0 + eps / 2.0)
            for eps in LADDER]


def test_kernel_power_integrals_near_equal_joint_system():
    # the rungs of the Lipschitz ladder: f(s) = e^{-a1 s} - e^{-a2 s}, tiny on
    # the smallest, and int f^k = sum_j C(k,j) (-1)^j / ((k-j) a1 + j a2)
    # exactly, for every power k
    from fractions import Fraction
    from math import comb

    for eps, fr in zip(LADDER, _ladder_rungs()):
        a1, a2 = Fraction(-fr.A[0, 0]), Fraction(-fr.A[1, 1])
        exact = [float(sum(Fraction(comb(k, j) * (-1) ** j) / ((k - j) * a1 + j * a2)
                           for j in range(k + 1))) for k in range(1, 5)]
        if eps == LADDER[0]:
            assert exact[3] == pytest.approx(1.078310244740423e-13, rel=1e-15, abs=0.0)
        got = st.kernel_power_integrals(fr)
        for k in range(4):
            assert got[k] == pytest.approx(exact[k], rel=1e-12, abs=0.0), (eps, k + 1)


def test_kernel_power_integrals_take_one_round_on_the_ladder(monkeypatch):
    # the graded first cut toward s = 0 is the cut bisection reached after
    # five rounds; on every rung of the ladder all its panels are accepted,
    # so one call of the panel rule gives the four powers
    calls = []
    panels = st._gk_panels

    def counted(f, lo, hi, per_call):
        calls.append(lo.size)
        return panels(f, lo, hi, per_call)

    monkeypatch.setattr(st, "_gk_panels", counted)
    for eps, fr in zip(LADDER, _ladder_rungs()):
        calls.clear()
        st.kernel_power_integrals(fr)
        assert calls == [st._GRADED_CUT.size - 1], eps


def test_fourth_moment_examples():
    ou = models.ou(1.0)
    assert st.fourth_moment_integral(ou, 1.0, BROWNIAN) == pytest.approx(0.75, rel=1e-9)
    assert st.fourth_moment_integral(ou, 1.0, CPOIS) == pytest.approx(1.0, rel=1e-9)
    # drift-only driver: Y is the constant c / a
    drift_only = LevyTriplet(3.0, 0.0)
    assert st.fourth_moment_integral(models.ou(2.0), 1.0, drift_only) == pytest.approx(
        (3.0 / 2.0) ** 4, rel=1e-9
    )


def test_fourth_moment_jensen():
    for tri in (BROWNIAN, CPOIS, LevyTriplet(0.5, 1.0, JumpSpec(2.0, atoms=((0.5, 1.0),)))):
        second = st.second_moment(models.tvcar_sin(), 1.0, tri)
        fourth = st.fourth_moment_integral(models.tvcar_sin(), 1.0, tri)
        assert fourth >= second**2 - 1e-12


def test_fourth_moment_vs_exact_simulation():
    # Monte Carlo oracle on exactly placed jumps
    gen = stream(5, "fourth-mc", 0)
    fr = st.freeze(models.ou(1.0), 1.0)
    vals = st.simulate_stationary_batch(fr, CPOIS, np.full(2 * 10**5, 3.0), 1, gen)[0]
    m4 = np.mean(vals**4)
    se = np.std(vals**4) / np.sqrt(len(vals))
    assert abs(m4 - 1.0) < 3 * se


# --- limit variances ----------------------------------------------------------


def test_sigma2_o1_geometric_series():
    ou = models.ou(1.0)
    res = st.sigma2(ou, 1.0, BROWNIAN, ("O1", 1.0))
    # geometric closed form: 1/4 + sum_k r(k) = 1/4 + (1/2) e^{-1} / (1 - e^{-1})
    closed = 0.25 + 0.5 * np.exp(-1.0) / (1.0 - np.exp(-1.0))
    # partial-sum oracle
    partial = 0.25 + sum(0.5 * np.exp(-k) for k in range(1, 200))
    assert closed == pytest.approx(partial, abs=1e-15)
    assert res.value == pytest.approx(closed, abs=1e-11)
    assert res.positive


def test_sigma2_o2_half_second_moment():
    res = st.sigma2(models.ou(1.0), 1.0, BROWNIAN, "O2")
    assert res.value == 0.25
    assert res.candidates == {"half_second_moment": 0.25, "second_moment": 0.5}


def test_sigma2_o1_large_delta_approaches_o2():
    res = st.sigma2(models.ou(1.0), 1.0, BROWNIAN, ("O1", 50.0))
    assert res.value == pytest.approx(0.25, abs=1e-10)


def test_sigma2_requires_centered_driver():
    with pytest.raises(ValueError, match="center"):
        st.sigma2(models.ou(1.0), 1.0, LevyTriplet(1.0, 1.0), "O2")


def test_sigma2_tilde_examples():
    ou = models.ou(1.0)
    # k = 0 under widening spacing: (1/2) Var(Y^2) = (1/2)(0.75 - 0.25)
    r0 = st.sigma2_tilde(ou, 1.0, BROWNIAN, 0.0, "O2")
    assert r0.value == pytest.approx(0.25, abs=1e-12)
    # distant lag: (1/2) r(0)^2
    rk = st.sigma2_tilde(ou, 1.0, BROWNIAN, 40.0, "O2")
    assert rk.value == pytest.approx(0.125, abs=1e-10)
    # deterministic (zero) driver: constant process
    zero = st.sigma2_tilde(ou, 1.0, LevyTriplet(0.0, 0.0), 1.0, "O2")
    assert zero.value == 0.0


def test_sigma2_tilde_o1_isserlis_series():
    # oracle: 1/2 (r0^2 + r1^2) + sum_h [r(h)^2 + r(h+1) r(|h-1|)] for r(h) = e^{-h}/2
    r = lambda h: 0.5 * np.exp(-abs(h))
    oracle = 0.5 * (r(0) ** 2 + r(1) ** 2) + sum(
        r(h) ** 2 + r(h + 1) * r(h - 1) for h in range(1, 300)
    )
    res = st.sigma2_tilde(models.ou(1.0), 1.0, BROWNIAN, 1.0, ("O1", 1.0))
    assert res.value == pytest.approx(oracle, abs=1e-11)


def test_sigma2_tilde_jump_driver_ou():
    ou = models.ou(1.0)
    # k = 0: (1/2)(E[Y^4] - r0^2) = (1/2)(1.0 - 0.25)
    assert st.sigma2_tilde(ou, 1.0, CPOIS, 0.0, "O2").value == pytest.approx(0.375, abs=1e-10)
    # sigma^2 = 0.5 plus +-1 jumps at rate 1: Sigma_L = 1.5, nu4 = 1;
    # E[Y0^2 Y1^2] = 2 value + r(1)^2, 0.714752 from the Isserlis terms alone
    tri = LevyTriplet(0.0, 0.5, JumpSpec(1.0, atoms=((1.0, 0.5), (-1.0, 0.5))))
    r1 = st.stationary_autocov(ou, 1.0, tri, 1.0)
    for driver, e_sq in ((tri, 0.748586), (LevyTriplet(0.0, 1.5), 0.714752)):
        res = st.sigma2_tilde(ou, 1.0, driver, 1.0, "O2")
        assert 2.0 * res.value + r1**2 == pytest.approx(e_sq, abs=1e-6)
        assert res.candidates["uncentered_second_moment"] == pytest.approx(e_sq, abs=1e-6)


def test_sigma2_tilde_o1_cumulant_series():
    # ou(a) with f(s) = e^{-a s}: r(h) = Sigma_L e^{-a h} / (2a) and the
    # cumulant integral is e^{-2a(h+k)} / (4a); lags h = j delta cross k
    a, k, delta = 0.7, 1.5, 0.5
    tri = LevyTriplet(0.0, 0.3, JumpSpec(0.8, atoms=((1.2, 0.5), (-1.2, 0.5))))
    sigma_l, nu4 = 0.3 + 0.8 * 1.2**2, 0.8 * 1.2**4
    r = lambda h: sigma_l * np.exp(-a * abs(h)) / (2 * a)
    cum = lambda h: nu4 * np.exp(-2 * a * (h + k)) / (4 * a)
    oracle = 0.5 * (r(0) ** 2 + r(k) ** 2 + cum(0.0)) + sum(
        r(h) ** 2 + r(h + k) * r(h - k) + cum(h) for h in delta * np.arange(1, 400)
    )
    res = st.sigma2_tilde(models.ou(a), 1.0, tri, k, ("O1", delta))
    assert res.value == pytest.approx(oracle, rel=1e-10)


def test_sigma2_tilde_vs_exact_simulation():
    # blocks (Y0, Y0.5, Y1) twelve decay times apart: the centered product
    # variance at each lag is 2 sigma2_tilde(O2)
    spec = models.companion2()
    fr = st.freeze(spec, 1.0)
    tri = LevyTriplet(0.0, 0.25, JumpSpec(0.5, atoms=((1.5, 0.5), (-1.5, 0.5))))
    n = 40_000
    gaps = np.tile([0.5, 0.5, 12.0 / fr.margin], n)[:-1]
    y = st.simulate_stationary_batch(fr, tri, gaps, 1, stream(11, "tilde-exact", 0))[0]
    y = y.reshape(n, 3)
    for col, k in enumerate((0.0, 0.5, 1.0)):
        v = (y[:, 0] * y[:, col] - st.stationary_autocov(spec, 1.0, tri, k)) ** 2
        target = 2.0 * st.sigma2_tilde(spec, 1.0, tri, k, "O2").value
        assert abs(v.mean() - target) < 4 * np.std(v, ddof=1) / np.sqrt(n), k


def test_covariance_decay_check():
    rep = st.covariance_decay_check(models.ou(1.0), 1.0, BROWNIAN, eps=0.5)
    assert rep.passed
    assert rep.fitted_rate == pytest.approx(1.0, abs=1e-3)
    rep2 = st.covariance_decay_check(models.tvcar_sin(), 1.0, BROWNIAN, eps=1.0)
    assert rep2.passed
    # a small margin needs many more lags: sum_h h^2 e^{-a h} / (2a) in closed form
    a = 0.002
    rep3 = st.covariance_decay_check(models.ou(a), 1.0, BROWNIAN, eps=0.5)
    q = np.exp(-a)
    assert rep3.passed
    assert rep3.weighted_sum == pytest.approx(q * (1 + q) / (2 * a * (1 - q) ** 3), rel=1e-8)


# --- exact simulation ----------------------------------------------------------


def test_zero_driver_simulates_to_zero():
    path = st.simulate_stationary(
        models.ou(1.0), 1.0, LevyTriplet(0.0, 0.0), np.arange(10.0), stream(0, "zero", 0)
    )
    assert np.all(path.values == 0.0)


def test_ou_lag_one_autocorrelation():
    gen = stream(1, "acf", 0)
    path = st.simulate_stationary(models.ou(1.0), 1.0, BROWNIAN, np.arange(10**5) * 1.0, gen)
    v = path.values
    corr = np.corrcoef(v[:-1], v[1:])[0, 1]
    se = np.sqrt((1 - np.exp(-2.0)) / len(v))
    assert abs(corr - np.exp(-1.0)) < 4 * se


def test_ou_variance_and_mean():
    gen = stream(2, "varm", 0)
    path = st.simulate_stationary(models.ou(1.0), 1.0, BROWNIAN, np.arange(10**5) * 1.0, gen)
    v = path.values
    assert abs(v.mean()) < 4 * v.std() / np.sqrt(len(v) / 2)
    se_var = np.std(v**2) / np.sqrt(len(v) / 2)
    assert abs(v.var() - 0.5) < 4 * se_var


def test_moment_simulation_consistency_shipped_specs():
    # empirical mean, variance, lag autocovariances and fourth moment against
    # the closed forms, within 4 Monte Carlo standard errors
    cases = [
        (models.ou(1.0), LevyTriplet(0.5, 1.0), 1.0),
        (models.tvcar_sin(), CPOIS, 1.0),
        (diag_spec(), LevyTriplet(0.0, 1.0, JumpSpec(0.5, atoms=((1.0, 1.0),))), 1.0),
    ]
    for spec, tri, u in cases:
        fr = st.freeze(spec, u)
        n = 60_000
        spacing = 2.0 / fr.margin
        vals = st.simulate_stationary_batch(
            fr, tri, np.full(n, spacing), 1, stream(4, f"cons:{spec.model_id}", 0)
        )[0]
        mean = st.stationary_mean(spec, u, tri)
        var = float(st.stationary_autocov(spec, u, tri, 0.0))
        fourth = st.fourth_moment_integral(spec, u, tri)
        assert abs(vals.mean() - mean) < 4 * vals.std() / np.sqrt(n / 3), spec.model_id
        c = vals - vals.mean()
        assert abs(c.var() - var) < 4 * np.std(c**2) / np.sqrt(n / 3), spec.model_id
        assert abs(np.mean(vals**4) - fourth) < 4 * np.std(vals**4) / np.sqrt(n / 3), spec.model_id
        for lag_steps, lag in ((1, spacing),):
            emp = np.mean(c[:-lag_steps] * c[lag_steps:])
            target = float(st.stationary_autocov(spec, u, tri, lag))
            se = np.std(c[:-lag_steps] * c[lag_steps:]) / np.sqrt(n / 3)
            assert abs(emp - target) < 4 * se, spec.model_id


def test_isserlis_cross_check_gaussian():
    # Monte Carlo E[Y0 Yk Yh Yh+k] against the covariance expansion
    ou = models.ou(1.0)
    fr = st.freeze(ou, 1.0)
    n = 2 * 10**5
    vals = st.simulate_stationary_batch(fr, BROWNIAN, np.full(n, 1.0), 1, stream(6, "iss", 0))[0]
    m = len(vals)
    r = lambda h: float(st.stationary_autocov(ou, 1.0, BROWNIAN, float(abs(h))))
    for k in (0, 1):
        for h in (1, 2):
            prod = vals[: m - h - k] * vals[k : m - h] * vals[h : m - k] * vals[h + k :]
            closed = r(k) ** 2 + r(h) ** 2 + r(h + k) * r(h - k)
            se = np.std(prod) / np.sqrt(len(prod) / 4)
            assert abs(np.mean(prod) - closed) < 4 * se, (k, h)


def test_gaussian_step_covariance_matches_quadrature():
    # step law covariance vs direct quadrature, non-normal system, at a short
    # step and at the warm start h = 12 / margin
    fr = st.freeze(models.companion2(), 0.0)
    from scipy.linalg import expm

    for h in (0.7, 12.0):
        chol = st._frozen_law(fr, BROWNIAN, np.array([h])).chol[-1]
        oracle = np.zeros((2, 2))
        for i in range(2):
            for j in range(2):
                oracle[i, j], _ = integrate.quad(
                    lambda s, i=i, j=j: (expm(fr.A * s) @ fr.C)[i] * (expm(fr.A * s) @ fr.C)[j],
                    0.0,
                    h,
                    limit=200,
                    epsabs=1e-13,
                )
        assert np.abs(chol @ chol.T - oracle).max() < 1e-10, h


def test_defective_state_matrix_uses_expm_fallback():
    # Jordan block with a repeated eigenvalue: the eigenvector basis is
    # unusable, so moments and jump placement must go through expm
    from scipy.linalg import expm

    spec = ModelSpec(
        2,
        lambda t: np.array([[-1.0, 1.0], [0.0, -1.0]]),
        lambda t: np.array([1.0, 0.5]),
        lambda t: np.array([0.0, 1.0]),
        Lipschitz(0, 0, 0),
        True,
        1.0,
        "jordan",
    )
    fr = st.freeze(spec, 0.0)
    B, C = np.array([1.0, 0.5]), np.array([0.0, 1.0])
    var = float(st.stationary_autocov(spec, 0.0, BROWNIAN, 0.0))
    oracle, _ = integrate.quad(lambda s: (B @ expm(fr.A * s) @ C) ** 2, 0, 60, limit=300)
    assert var == pytest.approx(oracle, rel=1e-10)
    tri = LevyTriplet(0.0, 0.5, JumpSpec(1.0, atoms=((1.0, 0.5), (-1.0, 0.5))))
    vals = st.simulate_stationary_batch(fr, tri, np.full(30_000, 2.0), 1,
                                        stream(11, "jordan", 0))[0]
    target = float(st.stationary_autocov(spec, 0.0, tri, 0.0))
    se = np.std(vals**2) / np.sqrt(len(vals) / 2)
    assert abs(vals.var() - target) < 4 * se


@pytest.mark.parametrize("delta", [1.0, 0.3])
def test_product_integrals_factor_the_shift_on_the_expm_path(delta):
    # Jordan system [[0, 1], [-1, -2]] (double root -1): without a trusted
    # eigenbasis each node takes one expm, with e^{A shift} C computed once
    fr = st.FrozenSystem(np.array([[0.0, 1.0], [-1.0, -2.0]]), np.array([1.0, 0.5]),
                         np.array([0.0, 1.0]), margin=1.0)
    assert st._eig_cache(fr) is None
    f = st._exp_pair(fr, fr.B, fr.C)
    h = delta * np.arange(0, 11)
    for k in (0.0, 1.0):
        shifts = np.stack([np.zeros_like(h), np.full_like(h, k), h, h + k], axis=-1)
        unfactored, _ = integrate.quad_vec(
            lambda s: np.prod(f(s + shifts), axis=-1), 0.0, 60.0 / fr.margin,
            epsabs=np.finfo(float).tiny, epsrel=1e-12,
        )
        np.testing.assert_allclose(st._product_integrals(fr, shifts), unfactored, rtol=1e-12)


def _complex_companion():
    # companion form with roots -1 +- i sqrt(5 + sin t)
    return ModelSpec(
        2,
        lambda t: np.array([[0.0, 1.0], [-(6.0 + np.sin(t)), -2.0]]),
        lambda t: np.array([1.0, 0.5]),
        lambda t: np.array([0.0, 1.0]),
        Lipschitz(1.0, 0.0, 0.0),
        True,
        1.0,
        "companion_complex",
    )


@pytest.mark.parametrize("k", [0.0, 1.0])
def test_product_integrals_match_quad_vec_on_a_complex_eigenbasis(k):
    # the joint system of a companion form at two u (complex roots, a trusted
    # eigenbasis), with the shift rows of sigma2_tilde's O1 series
    from locstat.experiments import _joint_frozen

    fr = _joint_frozen(_complex_companion(), BROWNIAN, 0.4, 0.9)
    w = np.linalg.eigvals(fr.A)
    assert st._eig_cache(fr) is not None and np.all(np.abs(w.imag) > 2.0)
    f = st._exp_pair(fr, fr.B, fr.C)
    h = 0.05 * np.arange(0, 60)
    shifts = np.stack([np.zeros_like(h), np.full_like(h, k), h, h + k], axis=-1)
    ref, _ = integrate.quad_vec(
        lambda s: np.prod(f(s + shifts), axis=-1), 0.0, 60.0 / fr.margin,
        epsabs=np.finfo(float).tiny, epsrel=1e-12,
    )
    np.testing.assert_allclose(st._product_integrals(fr, shifts), ref, rtol=1e-12)
    powers, _ = integrate.quad_vec(
        lambda s: f(s) ** np.arange(1, 5), 0.0, 60.0 / fr.margin,
        epsabs=np.finfo(float).tiny, epsrel=1e-12,
    )
    np.testing.assert_allclose(st.kernel_power_integrals(fr), powers, rtol=1e-12)


def test_gauss_kronrod_returns_nan_at_the_panel_cap():
    # an integrand that is NaN everywhere accepts no panel; the rule bisects
    # up to its panel cap, then returns the NaN estimate instead of looping
    nodes = []

    def nan(s):
        nodes.append(s.size)
        return np.full(s.shape + (3,), np.nan)

    got = st._gauss_kronrod(nan, [0.0, 1.0])
    assert got.shape == (3,) and np.isnan(got).all()
    assert sum(nodes) <= 2 * 21 * st._GK_PANELS


def test_gauss_kronrod_caps_the_nodes_of_one_call(monkeypatch):
    # an integrand that works through 40 values per node is called on at most
    # _GK_VALUES / 40 nodes at once; the capped rule integrates e^{-k s} as
    # the uncapped one does
    rates = np.arange(1.0, 41.0)
    calls = []

    def decay(s):
        calls.append(s.size)
        return np.exp(-np.multiply.outer(s, rates))

    exact = -np.expm1(-3.0 * rates) / rates
    whole = st._gauss_kronrod(decay, [0.0, 3.0], size=rates.size)
    assert max(calls) > 5
    monkeypatch.setattr(st, "_GK_VALUES", 200)
    calls.clear()
    capped = st._gauss_kronrod(decay, [0.0, 3.0], size=rates.size)
    assert max(calls) == 5
    np.testing.assert_allclose(capped, whole, rtol=1e-15)
    np.testing.assert_allclose(capped, exact, rtol=1e-13)


def test_joint_system_of_equal_systems_integrates_to_zero():
    # f of the difference of two equal defective systems is rounding noise,
    # which a relative tolerance cannot resolve; its integrals are exactly 0.
    # Two near-equal systems still get a quadrature.
    A = np.array([[-2.0, 0.5, 0.0], [0.0, -2.0, 0.0], [0.0, 0.0, -3.0]])
    B, C = np.array([1.0, 1.0, 1.0]), np.array([1.0, -1.0, 1.0])

    def joint(A2):
        return st.FrozenSystem(np.block([[A, np.zeros((3, 3))], [np.zeros((3, 3)), A2]]),
                               np.concatenate([B, -B]), np.concatenate([C, C]), margin=2.0)

    equal = joint(A)
    assert st._eig_cache(equal) is None
    assert st.kernel_power_integrals(equal) == (0.0, 0.0, 0.0, 0.0)
    i1, i2, i3, i4 = st.kernel_power_integrals(joint(A - 1e-3 * np.eye(3)))
    assert i2 > 0.0 and i4 > 0.0


def test_autocov_lag_arrays_any_shape():
    # a 2-D lag array gives the elementwise values on the eigenbasis path
    # (companion2) and on the expm path (double root -1, f(s) = s e^{-s},
    # r(h) = e^{-h} (1 + h) / 4)
    h = np.array([[0.5, 1.0], [1.5, 2.0]])
    jordan = st.FrozenSystem(
        np.array([[0.0, 1.0], [-1.0, -2.0]]), np.array([1.0, 0.0]), np.array([0.0, 1.0]), margin=1.0
    )
    assert st._eig_cache(jordan) is None
    got = st.stationary_autocov(jordan, 0.0, BROWNIAN, h)
    assert got.shape == (2, 2)
    assert np.allclose(got, np.exp(-h) * (1.0 + h) / 4.0, rtol=1e-12, atol=0.0)
    for spec in (models.companion2(), jordan):
        got = st.stationary_autocov(spec, 1.0, BROWNIAN, h)
        elementwise = [st.stationary_autocov(spec, 1.0, BROWNIAN, float(x)) for x in h.ravel()]
        assert np.array_equal(got.ravel(), elementwise)


def test_lipschitz_in_u_bounded_ratio():
    # coupled frozen pairs: L2 distance scales at most linearly in |u - v|
    from locstat.experiments import _joint_frozen

    spec = models.tvcar_sin()
    ratios = []
    for eps in (0.01, 0.05, 0.1, 0.25, 0.5):
        fr = _joint_frozen(spec, BROWNIAN, 1.0 - eps / 2, 1.0 + eps / 2)
        d = np.sqrt(st.second_moment(fr, 0.0, BROWNIAN))
        ratios.append(d / eps)
    ratios = np.asarray(ratios)
    assert np.all(ratios < 2.0 * ratios.min())


def test_stationary_moments_bundle():
    mom = st.stationary_moments(models.ou(1.0), 1.0, BROWNIAN)
    assert mom.mean == 0.0
    assert mom.variance == pytest.approx(0.5)
    assert mom.second_moment == pytest.approx(0.5)
    assert mom.fourth_moment == pytest.approx(0.75, rel=1e-9)
    assert mom.autocov(1.0) == pytest.approx(0.5 * np.exp(-1), abs=1e-12)
    assert mom.sigma2_O2 == 0.25
    assert mom.sigma2_O1(1.0) == pytest.approx(0.25 + 0.5 / (np.e - 1), abs=1e-10)
    assert mom.sigma2_tilde_O2(0) == pytest.approx(0.25, abs=1e-12)
    # non-centered driver: limit variances undefined
    mom2 = st.stationary_moments(models.ou(1.0), 1.0, LevyTriplet(1.0, 1.0))
    assert mom2.sigma2_O2 is None and mom2.mean == pytest.approx(1.0)


# --- batched exact simulation against the per-replication, per-step loop ------


def reference_step_law(fr, triplet, h):
    """(e^{Ah}, drift term, factor of the Gaussian covariance or None) of a
    frozen step of length h, written out on its own."""
    from scipy import linalg

    prop = linalg.expm(fr.A * h)
    drift = triplet.path_drift * np.linalg.solve(fr.A, (prop - np.eye(fr.p)) @ fr.C)
    chol = None
    if triplet.sigma2 > 0:
        gam = st.lyapunov_gram(fr)
        chol = covariance_factor(triplet.sigma2 * (gam - prop @ gam @ prop.T))
    return prop, drift, chol


def reference_batch(fr, triplet, gaps, R, gen):
    """One replication and one step at a time, with one expm per jump on the
    expm path: the loop the batched simulator replaced, on the draws of one
    chunk (normals (R, steps, p), counts (R, steps), offsets, sizes; jumps
    replication by replication). Returns the Y values (R, len(gaps) + 1) and
    the final states (R, p)."""
    from scipy import linalg

    gaps = np.asarray(gaps, dtype=float)
    eig = st._eig_cache(fr)
    if eig is not None:
        w_eig, V, _ = eig
        vinv_c = np.linalg.solve(V, fr.C.astype(complex))
    warm = 12.0 / fr.margin
    step_lengths = np.concatenate([[warm], np.unique(gaps)])
    laws = {h: reference_step_law(fr, triplet, h) for h in step_lengths}
    n, p, rate = len(gaps), fr.p, triplet.jump_rate
    all_gaps = np.concatenate([[warm], gaps])
    out = np.empty((R, n + 1))
    states = np.empty((R, p))
    z = gen.standard_normal((R, n + 1, p)) if triplet.sigma2 > 0 else None
    if rate > 0:
        counts = gen.poisson(np.broadcast_to(rate * all_gaps, (R, n + 1)))
        offs_all = gen.uniform(0.0, 1.0, int(counts.sum()))
        sizes_all = triplet.jumps.sample(offs_all.size, gen)
        ends = np.cumsum(counts.sum(axis=1))
    for r in range(R):
        jump_term = np.zeros((n + 1, p))
        if rate > 0:
            total = int(counts[r].sum())
            if total:
                offs_unit = offs_all[ends[r] - total:ends[r]]
                sizes = sizes_all[ends[r] - total:ends[r]]
                step_idx = np.repeat(np.arange(n + 1), counts[r])
                remain = all_gaps[step_idx] * (1.0 - offs_unit)
                if eig is not None:
                    expf = np.exp(np.multiply.outer(remain, w_eig))
                    contrib = np.real((expf * vinv_c) @ V.T) * sizes[:, None]
                else:
                    contrib = np.stack(
                        [linalg.expm(fr.A * v) @ fr.C * sz for v, sz in zip(remain, sizes)]
                    )
                np.add.at(jump_term, step_idx, contrib)
        x = np.zeros(p)
        for i, h in enumerate(all_gaps):
            prop, drift, chol = laws[h]
            x = prop @ x + drift + jump_term[i]
            if chol is not None:
                x = x + chol @ z[r, i]
            out[r, i] = fr.B @ x
        states[r] = x
    return out, states


JORDAN = st.FrozenSystem(
    np.array([[-1.0, 1.0], [0.0, -1.0]]), np.array([1.0, 0.5]), np.array([0.0, 1.0]), margin=1.0
)
EQUIV_SYSTEMS = {
    "eigen": st.freeze(models.companion2(), 0.0),
    "expm": JORDAN,
}
EQUIV_TRIPLETS = {
    "atoms_no_gaussian": LevyTriplet(0.4, 0.0, JumpSpec(0.9, atoms=((1.0, 0.5), (-2.0, 0.5)))),
    "normal_gaussian": LevyTriplet(-0.3, 0.7, JumpSpec(0.6, normal=(0.2, 1.5))),
}
EQUIV_GAPS = {
    "none": np.empty(0),
    "one": np.array([0.8]),
    "equal": np.full(47, 0.5),
    "mixed": np.tile([0.3, 0.9, 1.7], 11),  # three step laws besides the warm start
}


@pytest.mark.parametrize("system", EQUIV_SYSTEMS)
@pytest.mark.parametrize("driver", EQUIV_TRIPLETS)
def test_batched_simulation_matches_per_step_loop(system, driver):
    fr, tri = EQUIV_SYSTEMS[system], EQUIV_TRIPLETS[driver]
    assert (st._eig_cache(fr) is None) == (system == "expm")
    for R in (1, 7, 64):
        for name, gaps in EQUIV_GAPS.items():
            purpose = f"equiv:{system}:{driver}:{name}"
            ref, ref_state = reference_batch(fr, tri, gaps, R, stream(5, purpose, 0))
            out = st.simulate_stationary_batch(fr, tri, gaps, R, stream(5, purpose, 0))
            # the final states, from the same law and stream
            law = st._frozen_law(fr, tri, gaps)
            eta = draw_segment_noise(law, stream(5, purpose, 0), R)
            state = segment_states(law, eta)[-1].T
            assert out.shape == (R, len(gaps) + 1) and out.flags.c_contiguous
            assert state.shape == (R, fr.p)
            tol = 1e-12 * np.abs(ref).max()
            assert np.abs(out - ref).max() <= tol, (R, name)
            assert np.abs(state - ref_state).max() <= 1e-12 * np.abs(ref_state).max(), (R, name)
            # the chunk is its stream alone: drawn again after another
            # index's chunk, it is the same bytes
            st.simulate_stationary_batch(fr, tri, gaps, R, stream(5, purpose, 1))
            alone = st.simulate_stationary_batch(fr, tri, gaps, R, stream(5, purpose, 0))
            assert np.array_equal(alone, out), (R, name)


def test_jump_inputs_match_per_jump_expm():
    # e^{A v} C for a batch of decay times, as the weights of jumps at the
    # fraction 1 - v / 6 of a step of length 6, with v of it still to run: the Jordan block (expm
    # path, whose e^{A v} C = e^{-v} (v, 1)) and companion2 (eigenbasis path)
    # against one expm per jump
    from scipy.linalg import expm

    v = np.linspace(0.0, 6.0, 25)

    def weights(fr):
        table = JumpWeights(1)
        table.put_steps(np.zeros(1, dtype=np.int64), StepLaw(6.0 * fr.A[None], fr.C, [6.0]))
        return table(np.zeros(v.size, dtype=np.int64), 1.0 - v / 6.0)

    for fr in (JORDAN, st.freeze(models.companion2(), 0.0)):
        ref = np.stack([expm(fr.A * x) @ fr.C for x in v])
        assert np.abs(weights(fr) - ref).max() <= 1e-12
    exact = np.exp(-v)[:, None] * np.stack([v, np.ones_like(v)], axis=1)
    assert np.abs(weights(JORDAN) - exact).max() <= 1e-12


def test_a_frozen_chunk_draw_weighs_its_jumps_in_columns():
    # one chunk of the first frozen_lipschitz rung: 48 steps, 64 replications
    # and about 4,500 jumps. The draw takes the jump weights one state column
    # at a time, with no (jumps, 2p) or (degree, jumps, 2p) arrays; drawn
    # that way, its traced peak was 957-994 KB
    import tracemalloc

    fr = _ladder_rungs()[0]
    tri = LevyTriplet(0.0, 1.0, CPOIS.jumps)
    law = st._frozen_law(fr, tri, np.full(47, 4.0 / fr.margin))
    first = draw_segment_noise(law, stream(7, "frozen-peak", 0), 64)  # lays the table out
    tracemalloc.start()
    try:
        eta = draw_segment_noise(law, stream(7, "frozen-peak", 0), 64)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert np.array_equal(eta, first)
    assert law.jump_mean.sum() * 64 > 4000
    assert peak <= 0.6 * 957e3, peak
