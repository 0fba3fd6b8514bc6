import dataclasses

import numpy as np
import pytest
from scipy import integrate

from locstat import models
from locstat.dynamics import (
    PathSample,
    PeanoBakerNonConvergence,
    build_scalar_plan,
    build_scalar_plan_rescaled,
    build_segment_law,
    coefficient_values,
    draw_segment_noise,
    refine_path,
    run_scalar_plan,
    run_segment_law,
    simulate_yn,
    transition_matrix,
    transition_seminorm_check,
    validate_car1,
    validate_model,
    _draw_increments_rows,
)
from locstat.noise import BROWNIAN, JumpSpec, LevyTriplet, triplet_moments
from locstat.rng import stream


# --- transition matrices ---------------------------------------------------


METHODS = ["commuting_exp", "peano_baker", "ode_rk4"]


@pytest.mark.parametrize("method", METHODS)
def test_constant_coefficient_is_plain_exponential(method):
    spec = models.ou(2.0).to_state_space()
    psi = transition_matrix(spec, 1.0, 0.0, method=method)
    assert psi[0, 0] == pytest.approx(np.exp(-2.0), abs=1e-9)


@pytest.mark.parametrize("method", METHODS)
def test_identity_at_equal_times(method):
    spec = models.diag2()
    psi = transition_matrix(spec, 0.7, 0.7, method=method)
    assert np.array_equal(psi, np.eye(2))


def test_diag2_against_scalar_quadrature_oracle():
    # oracle: integral of (1 + 0.5 sin tau) over [0, 1] = 1 + 0.5 (1 - cos 1)
    oracle_int, _ = integrate.quad(lambda s: 1 + 0.5 * np.sin(s), 0.0, 1.0, epsabs=1e-14)
    assert oracle_int == pytest.approx(1 + 0.5 * (1 - np.cos(1.0)), abs=1e-12)
    target = np.diag([np.exp(-oracle_int), np.exp(-2.0)])
    spec = models.diag2()
    for method in METHODS:
        psi = transition_matrix(spec, 1.0, 0.0, method=method)
        assert np.abs(psi - target).max() < 1e-8, method


def test_method_agreement_on_random_pairs():
    spec = models.diag2()
    rng = np.random.default_rng(0)
    worst_rk4 = worst_pb = 0.0
    for _ in range(50):
        t0 = rng.uniform(-2.0, 2.0)
        t1 = t0 + rng.uniform(0.1, 1.2)
        ref = transition_matrix(spec, t1, t0, method="commuting_exp")
        worst_rk4 = max(worst_rk4, np.linalg.norm(ref - transition_matrix(spec, t1, t0, method="ode_rk4")))
        worst_pb = max(
            worst_pb, np.linalg.norm(ref - transition_matrix(spec, t1, t0, method="peano_baker", order=24))
        )
    assert worst_rk4 <= 1e-7
    assert worst_pb <= 1e-7


def test_semigroup_property():
    spec = models.diag2()
    rng = np.random.default_rng(1)
    worst = 0.0
    for _ in range(50):
        t0 = rng.uniform(-2.0, 2.0)
        s = t0 + rng.uniform(0.05, 0.8)
        t1 = s + rng.uniform(0.05, 0.8)
        full = transition_matrix(spec, t1, t0, method="ode_rk4", step=1e-3)
        split = transition_matrix(spec, t1, s, method="ode_rk4", step=1e-3) @ transition_matrix(
            spec, s, t0, method="ode_rk4", step=1e-3
        )
        worst = max(worst, np.linalg.norm(full - split))
    assert worst <= 1e-7


def test_rejects_bad_arguments():
    spec = models.diag2()
    with pytest.raises(ValueError):
        transition_matrix(spec, 0.0, 1.0)
    noncommuting = models.companion2()
    object.__setattr__(noncommuting, "commuting", False)
    with pytest.raises(ValueError):
        transition_matrix(noncommuting, 1.0, 0.0, method="commuting_exp")


def test_peano_baker_nonconvergence_reported():
    spec = models.ou(2.0).to_state_space()
    with pytest.raises(PeanoBakerNonConvergence):
        transition_matrix(spec, 4.0, 0.0, method="peano_baker", order=6)


def test_seminorm_constant_scalar():
    rep = transition_seminorm_check(models.ou(1.3).to_state_space())
    assert abs(rep.lambda_hat - 1.3) < 1e-6
    assert rep.ok


def test_seminorm_diagonal_slowest_mode():
    spec = models.companion2()

    def diag_A(t):
        return np.diag([-1.0, -2.0])

    from locstat.dynamics import Lipschitz, ModelSpec

    diag = ModelSpec(2, diag_A, spec.B, spec.C, Lipschitz(0, 0, 0), True, 1.0, "diag")
    rep = transition_seminorm_check(diag)
    assert abs(rep.lambda_hat - 1.0) < 1e-3


def test_seminorm_tvcar_rate_at_least_infimum():
    rep = transition_seminorm_check(models.tvcar_sin().to_state_space())
    assert rep.lambda_hat >= 1.0
    assert rep.ok


# --- model validation -------------------------------------------------------


def test_validate_shipped_models():
    assert validate_car1(models.tvcar_sin()).passed
    assert validate_model(models.diag2()).passed
    assert validate_model(models.companion2()).passed


def test_validate_rejects_wrong_declarations():
    bad_margin = models.ou(0.5)
    object.__setattr__(bad_margin, "infimum_a", 2.0)  # claims more damping than a provides
    assert not validate_car1(bad_margin).passed
    assert not validate_car1(models.tvcar_step()).passed  # Lipschitz violation at the jump


# --- simulation of Y_N -------------------------------------------------------


def test_noiseless_fixed_point_extrapolates_to_mean():
    # mu_L / a = 1; the one-step scheme has O(h) bias, so check convergence of
    # the Richardson limit 2 Y(h/2) - Y(h) to the exact value
    tri = LevyTriplet(1.0, 0.0)
    spec = models.ou(1.0)

    def value(h):
        p = simulate_yn(spec, tri, 1, np.array([0.0, 1.0, 2.0]), h, 15.0, stream(0, "fp", 0))
        return p.values

    y_h, y_h2 = value(4e-3), value(2e-3)
    assert np.all(np.abs(y_h - 1.0) < 4e-3)
    extrapolated = 2 * y_h2 - y_h
    assert np.all(np.abs(extrapolated - 1.0) < 1e-6)


def test_zero_noise_gives_zero_path():
    p = simulate_yn(models.ou(1.0), LevyTriplet(0.0, 0.0), 4, np.array([1.0, 2.0]), 0.01, 9.0,
                    stream(0, "zero", 0))
    assert np.all(p.values == 0.0)


def test_variance_matches_frozen_closed_form():
    # Var(Y_N(1)) for a(t) = 2 + sin t approaches Sigma_L / (2 a(1))
    from locstat import stationary as st

    spec = models.tvcar_sin()
    target = float(st.stationary_autocov(spec, 1.0, BROWNIAN, 0.0))
    assert target == pytest.approx(1.0 / (2.0 * (2.0 + np.sin(1.0))), abs=1e-12)
    n_reps, h = 3000, 0.0025
    plan = build_scalar_plan(spec, 64, np.array([1.0]), h, 8.0)
    gens = [stream(1, "variance-example", r) for r in range(n_reps)]

    def eta(lo, hi):
        return _draw_increments_rows(BROWNIAN, h, hi - lo, gens)

    vals = run_scalar_plan(plan, eta, n_reps)[:, 0]
    se = vals.var() * np.sqrt(2.0 / n_reps)
    assert abs(vals.var() - target) < 3 * se


def test_rejects_bad_step_and_burn_in():
    spec = models.ou(1.0)
    with pytest.raises(ValueError, match="divide"):
        simulate_yn(spec, BROWNIAN, 2, np.array([0.0, 0.5001]), 0.1, 9.0, stream(0, "b", 0))
    with pytest.raises(ValueError, match="burn_in"):
        simulate_yn(spec, BROWNIAN, 2, np.array([0.0, 0.5]), 0.1, 1.0, stream(0, "b", 0))
    with pytest.raises(ValueError, match="exceeds"):
        simulate_yn(spec, BROWNIAN, 2, np.array([0.0, 0.05]), 0.5, 9.0, stream(0, "b", 0))


def test_refinement_halves_the_step_error():
    # same underlying noise, bridge-split increments: successive step halvings
    # change the output by O(h)
    spec, tri = models.ou(1.0), BROWNIAN
    d1, d2 = [], []
    for r in range(1500):
        g = stream(9, "refine", r)
        p1 = simulate_yn(spec, tri, 1, np.array([0.0]), 0.1, 8.0, g)
        p2 = refine_path(spec, tri, p1, g)
        p3 = refine_path(spec, tri, p2, g)
        d1.append(p1.values[0] - p2.values[0])
        d2.append(p2.values[0] - p3.values[0])
    ratio = np.sqrt(np.mean(np.square(d1)) / np.mean(np.square(d2)))
    assert 1.5 <= ratio <= 3.0


def test_coupling_determinism():
    args = (models.tvcar_sin(), BROWNIAN, 32, np.array([1.0]), 0.01, 8.0)
    a = simulate_yn(*args, stream(4, "det", 5))
    b = simulate_yn(*args, stream(4, "det", 5))
    assert np.array_equal(a.values, b.values)
    assert np.array_equal(a.fine_grid.increments, b.fine_grid.increments)


def test_statespace_path_matches_scalar_path():
    # the p = 1 state space wrapper must reproduce the scalar fast path
    car = models.tvcar_sin()
    tri = LevyTriplet(0.3, 1.0, JumpSpec(0.5, atoms=((1.0, 0.5), (-1.0, 0.5))))
    times = np.array([0.5, 1.0])
    a = simulate_yn(car, tri, 16, times, 0.01, 8.0, stream(2, "ss", 0))
    b = simulate_yn(car.to_state_space(), tri, 16, times, 0.01, 8.0, stream(2, "ss", 0))
    assert np.allclose(a.values, b.values, rtol=1e-10, atol=1e-12)


def test_noncommuting_step_matches_commuting_path():
    # companion2 has constant A, so one RK4 step of length h and expm(A h)
    # agree to O(h^5); an RK4 step over the wrong time span does not
    spec = models.companion2()
    noncommuting = dataclasses.replace(spec, commuting=False)
    times = np.linspace(0.5, 1.5, 21)
    for N in (4, 16):
        a = simulate_yn(spec, BROWNIAN, N, times, 0.005, 8.0, stream(3, "nc", N))
        b = simulate_yn(noncommuting, BROWNIAN, N, times, 0.005, 8.0, stream(3, "nc", N))
        assert np.abs(b.values - a.values).max() <= 1e-6 * np.abs(a.values).max()


def test_shipped_coefficients_take_arrays_of_times():
    t = np.linspace(-1.0, 2.0, 6).reshape(2, 3)
    for spec in (models.diag2(), models.companion2(), models.tvcar_sin().to_state_space()):
        p = spec.p
        for name, tail in (("A", (p, p)), ("B", (p,)), ("C", (p,))):
            fn = getattr(spec, name)
            vals = coefficient_values(spec, name, t)
            assert vals.shape == t.shape + tail
            for idx in np.ndindex(t.shape):
                assert np.array_equal(vals[idx], fn(t[idx])), (spec.model_id, name)


def test_coefficient_contract_errors():
    spec = models.diag2()

    def scalar_only(t):  # builds a ragged array from an array of times
        return np.array([[-1.0 - 0.5 * np.sin(t), 0.0], [0.0, -2.0]])

    def wrong_shape(t):
        return np.zeros(np.shape(t) + (3, 3))

    times = np.array([0.5, 1.0])
    for A in (scalar_only, wrong_shape):
        bad = dataclasses.replace(spec, A=A)
        with pytest.raises(ValueError, match=r"A\(t\) must return shape t.shape \+ \(2, 2\)"):
            simulate_yn(bad, BROWNIAN, 4, times, 0.01, 16.0, stream(0, "c", 0))
    # a coefficient constant in t may return its single value
    constant = dataclasses.replace(spec, B=lambda t: np.ones(2))
    a = simulate_yn(spec, BROWNIAN, 4, times, 0.01, 16.0, stream(0, "c", 0))
    b = simulate_yn(constant, BROWNIAN, 4, times, 0.01, 16.0, stream(0, "c", 0))
    assert np.array_equal(a.values, b.values)


def test_path_sample_invariants():
    with pytest.raises(ValueError):
        PathSample(times=np.array([0.0, 0.0]), values=np.array([1.0, 2.0]))
    with pytest.raises(ValueError):
        PathSample(times=np.array([0.0, 1.0]), values=np.array([1.0, np.inf]))


# --- aggregated per-segment noise --------------------------------------------


# a(t) = 2 + sin t at N = 64: 41 nodes one rescaled unit apart around N u = 64
LAW_H = 1.0 / 32.0
DRIFT_GAUSS = LevyTriplet(1.0, 1.0)
GAUSS_JUMPS = LevyTriplet(0.0, 0.5, JumpSpec(1.0, atoms=((1.0, 0.5), (-1.0, 0.5))))


def _law_plan():
    return build_scalar_plan_rescaled(models.tvcar_sin(), 64, 64.0 + np.arange(-20, 21), LAW_H, 8.0)


def _segment_paths(plan, tri, purpose, n_reps):
    law = build_segment_law(plan, tri)
    gens = [stream(11, purpose, r) for r in range(n_reps)]
    return run_segment_law(law, draw_segment_noise(law, gens))


def _fine_paths(plan, tri, purpose, n_reps):
    gens = [stream(11, purpose, r) for r in range(n_reps)]
    return run_scalar_plan(plan, lambda lo, hi: _draw_increments_rows(tri, LAW_H, hi - lo, gens), n_reps)


def test_segment_law_structure():
    plan = _law_plan()
    for tri in (DRIFT_GAUSS, GAUSS_JUMPS):
        law = build_segment_law(plan, tri)
        assert law.decay.size == len(plan.record_steps) == 41
        assert np.array_equal(law.bounds[1:], plan.record_steps) and law.bounds[0] == 0
        expected = [np.prod(plan.phi[lo:hi]) for lo, hi in zip(law.bounds[:-1], law.bounds[1:])]
        assert np.array_equal(law.decay, expected)
    assert build_segment_law(plan, DRIFT_GAUSS).cell_weights is None
    assert build_segment_law(plan, GAUSS_JUMPS).cell_weights.shape == (plan.n_steps,)
    # noise on the last cell of each segment has weight 1, so the fine-grid
    # scan and the recursion over records must agree on it
    eta = np.random.default_rng(0).standard_normal((3, 41))
    fine = np.zeros((3, plan.n_steps))
    fine[:, law.bounds[1:] - 1] = eta
    expected = run_scalar_plan(plan, lambda lo, hi: np.ascontiguousarray(fine[:, lo:hi]), 3)
    assert np.allclose(run_segment_law(law, eta), expected, rtol=1e-12, atol=1e-14)
    assert _segment_paths(plan, GAUSS_JUMPS, "law-shape", 3).shape == (3, 41)


@pytest.mark.parametrize("tri", [DRIFT_GAUSS, GAUSS_JUMPS], ids=["drift-gauss", "gauss-jumps"])
def test_segment_law_matches_exact_moment_recursion(tri):
    plan = _law_plan()
    mom = triplet_moments(tri)
    # exact moments of the fine-grid recursion, one record segment at a time:
    # m <- P m + mu_L h sum(s), v <- P^2 v + Sigma_L h sum(s^2)
    means, variances = [], []
    m = v = 0.0
    bounds = np.concatenate([[0], plan.record_steps])
    for lo, hi in zip(bounds[:-1], bounds[1:]):
        s1 = s2 = 0.0
        for phi in plan.phi[lo:hi]:
            s1, s2 = phi * s1 + 1.0, phi * phi * s2 + 1.0
        P = np.prod(plan.phi[lo:hi])
        m = P * m + mom.mu_L * LAW_H * s1
        v = P * P * v + mom.Sigma_L * LAW_H * s2
        means.append(m)
        variances.append(v)
    n_reps = 4000
    Y = _segment_paths(plan, tri, "law-moments", n_reps)
    centered = Y - Y.mean(axis=0)
    z_mean = (Y.mean(axis=0) - means) / np.sqrt(np.asarray(variances) / n_reps)
    var_hat = centered.var(axis=0)
    se_var = np.sqrt((np.mean(centered**4, axis=0) - var_hat**2) / n_reps)
    z_var = (var_hat - variances) / se_var
    assert np.abs(z_mean).max() < 4.5
    assert np.abs(z_var).max() < 4.5


def test_segment_law_agrees_with_fine_grid_on_jump_driver():
    plan = _law_plan()
    n_reps = 3000
    stats = []
    for Y in (_segment_paths(plan, GAUSS_JUMPS, "law-two-sample:segment", n_reps),
              _fine_paths(plan, GAUSS_JUMPS, "law-two-sample:fine", n_reps)):
        lag1 = np.mean(Y[:, :-1] * Y[:, 1:], axis=1)  # one value per replication
        q, p = np.mean(Y**4, axis=1), np.mean(Y**2, axis=1)
        Q, P = q.mean(), p.mean()
        kurt = Q / P**2
        grad = np.array([1.0 / P**2, -2.0 * Q / P**3])  # delta method
        kurt_var = grad @ np.cov(q, p) @ grad / n_reps
        stats.append((lag1.mean(), lag1.var(ddof=1) / n_reps, kurt, kurt_var))
    (l_a, vl_a, k_a, vk_a), (l_b, vl_b, k_b, vk_b) = stats
    assert abs(l_a - l_b) < 4.0 * np.sqrt(vl_a + vl_b)
    assert abs(k_a - k_b) < 4.0 * np.sqrt(vk_a + vk_b)
    assert k_a > 3.2  # the jumps are there: a Gaussian path has kurtosis 3
