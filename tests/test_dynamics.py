import dataclasses
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as hst
from scipy import integrate

from locstat import dynamics, models
from locstat import stationary as st
from locstat.dynamics import (
    JumpWeights,
    Lipschitz,
    ModelSpec,
    PathSample,
    PeanoBakerNonConvergence,
    SegmentLaw,
    affine_states,
    build_plan,
    build_segment_law,
    coefficient_values,
    covariance_factor,
    draw_segment_noise,
    run_segment_law,
    simulate_yn,
    transition_matrix,
    transition_seminorm_check,
    validate_model,
    _draw_increments_rows,
)
from locstat.noise import BROWNIAN, JumpSpec, LevyTriplet, triplet_moments
from locstat.rng import stream


# --- transition matrices ---------------------------------------------------


METHODS = ["commuting_exp", "peano_baker", "ode_rk4"]


@pytest.mark.parametrize("method", METHODS)
def test_constant_coefficient_is_plain_exponential(method):
    spec = models.ou(2.0)
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
    spec = models.ou(2.0)
    with pytest.raises(PeanoBakerNonConvergence):
        transition_matrix(spec, 4.0, 0.0, method="peano_baker", order=6)


@pytest.mark.parametrize("t0, t1", [(0.0, 1.0), (0.3, 2.8), (1.0, 1.25)])
def test_cumulative_simpson_matches_scipy_on_the_peano_baker_nodes(t0, t1):
    # every nested integral of the series, on its own grid and integrand
    calls = []

    def record(y, h):
        calls.append((y, h))
        return cumulative_simpson(y, h)

    cumulative_simpson = dynamics._cumulative_simpson
    with mock.patch.object(dynamics, "_cumulative_simpson", record):
        transition_matrix(models.diag2(), t1, t0, method="peano_baker", order=40)
    assert len(calls) == 40
    for y, h in calls:
        ts = np.linspace(t0, t1, len(y))
        assert len(y) % 2 == 1 and h == (t1 - t0) / (len(y) - 1)
        ref = integrate.cumulative_simpson(y, x=ts, axis=0, initial=0.0)
        got = cumulative_simpson(y, h)
        assert got.shape == ref.shape
        assert np.abs(got - ref).max() <= 1e-13 * np.abs(ref).max()


def test_seminorm_constant_scalar():
    rep = transition_seminorm_check(models.ou(1.3))
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
    rep = transition_seminorm_check(models.tvcar_sin())
    assert rep.lambda_hat >= 1.0
    assert rep.ok


# --- model validation -------------------------------------------------------


def test_validate_shipped_models():
    assert validate_model(models.tvcar_sin()).passed
    assert validate_model(models.diag2()).passed
    assert validate_model(models.companion2()).passed


def test_validate_rejects_wrong_declarations():
    # claims more damping than a provides
    bad_margin = validate_model(dataclasses.replace(models.ou(0.5), stability_margin=2.0))
    assert not bad_margin.passed and not bad_margin.margin_ok
    step = validate_model(models.tvcar_step())  # Lipschitz violation at the jump
    assert not step.passed and not step.lipschitz_ok


def reference_validation(spec, t_range=(-5.0, 5.0), n_samples=100, rng=None):
    """The checks of validate_model one sample at a time, as they were
    written before the samples were batched: (commuting_ok, margin_ok,
    lipschitz_ok, worst real part)."""
    rng = rng if rng is not None else np.random.default_rng(0)
    ts = rng.uniform(*t_range, size=n_samples)
    ss = rng.uniform(*t_range, size=n_samples)
    commuting_ok = True
    if spec.commuting:
        for t, s in zip(ts, ss):
            At, As = spec.A(t), spec.A(s)
            bound = 1e-10 * max(np.linalg.norm(At) * np.linalg.norm(As), 1e-300)
            if np.linalg.norm(At @ As - As @ At) > bound:
                commuting_ok = False
                break
    margin_ok, worst = True, -np.inf
    for t in ts:
        top = float(np.max(np.real(np.linalg.eigvals(spec.A(t)))))
        worst = max(worst, top)
        margin_ok = margin_ok and not top > -spec.stability_margin + 1e-8
    lipschitz_ok = True
    for t, s in zip(ts, ss):
        gap = abs(t - s)
        if gap == 0.0:
            continue
        slack = 1e-9 * max(1.0, gap)
        for name, L in zip("ABC", (spec.lipschitz.L_A, spec.lipschitz.L_B, spec.lipschitz.L_C)):
            f = getattr(spec, name)
            if np.linalg.norm(f(t) - f(s)) > L * gap + slack:
                lipschitz_ok = False
    return commuting_ok, margin_ok, lipschitz_ok, worst


_NONCOMMUTING_MODEL = {
    "kind": "statespace", "p": 2,
    "A_entries": [["-2", "1 + 0.5*sin(t)"], ["-1 + 0.5*sin(t)", "-3"]],
    "B": ["1", "1"], "C": ["1", "0.5"], "commuting": False,
    "stability_margin": 1.0, "lipschitz": {"A": 0.75, "B": 0.0, "C": 0.0},
}
_SCALED_MODEL = {
    "kind": "statespace", "p": 3,
    "A_entries": [["-2 - cos(t)", "1", "0"], ["0", "-2 - cos(t)", "0.5"], ["0", "0", "-2 - cos(t)"]],
    "B": ["1", "sin(t)", "0.25"], "C": ["cos(t)", "1", "1"], "commuting": True,
    "stability_margin": 1.0, "lipschitz": {"A": 2.0, "B": 1.0, "C": 1.0},
}


def _validation_cases():
    from locstat.cli import _build_model

    noncommuting, scaled = _build_model(_NONCOMMUTING_MODEL), _build_model(_SCALED_MODEL)
    declared = dataclasses.replace
    return {
        "diag2": (models.diag2(), (True, True, True)),
        "companion2": (models.companion2(), (True, True, True)),
        "tvcar_sin": (models.tvcar_sin(), (True, True, True)),
        "noncommuting": (noncommuting, (True, True, True)),
        "scaled": (scaled, (True, True, True)),
        "claims_commuting": (declared(noncommuting, commuting=True), (False, True, True)),
        "claims_margin": (declared(models.diag2(), stability_margin=1.2), (True, False, True)),
        "claims_L_A": (declared(scaled, lipschitz=Lipschitz(1.0, 1.0, 1.0)), (True, True, False)),
        "claims_L_B": (declared(scaled, lipschitz=Lipschitz(2.0, 0.5, 1.0)), (True, True, False)),
        "claims_L_C": (declared(scaled, lipschitz=Lipschitz(2.0, 1.0, 0.5)), (True, True, False)),
    }


@pytest.mark.parametrize("name", sorted(_validation_cases()))
def test_batched_validation_matches_the_per_sample_reference(name):
    # one coefficient call per coefficient and one batched check, with the
    # verdicts and the worst real part of the checks one sample at a time
    spec, verdicts = _validation_cases()[name]
    for kwargs in ({}, {"t_range": (0.0, 20.0), "n_samples": 37, "rng": np.random.default_rng(4)}):
        got = validate_model(spec, **kwargs)
        if "rng" in kwargs:
            kwargs["rng"] = np.random.default_rng(4)
        want = reference_validation(spec, **kwargs)
        assert (got.commuting_ok, got.margin_ok, got.lipschitz_ok) == want[:3]
        assert got.detail["worst_real_part"] == want[3]
    assert (got.commuting_ok, got.margin_ok, got.lipschitz_ok) == verdicts


# --- simulation of Y_N -------------------------------------------------------


def test_noiseless_fixed_point_extrapolates_to_mean():
    # mu_L / a = 1; the exact segment law has no step bias for a constant
    # model, so both steps and their Richardson limit 2 Y(h/2) - Y(h) sit at
    # the value the burn-in of 15 leaves, 1 - e^-15 and more
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
    spec = models.tvcar_sin()
    target = float(st.stationary_autocov(spec, 1.0, BROWNIAN, 0.0))
    assert target == pytest.approx(1.0 / (2.0 * (2.0 + np.sin(1.0))), abs=1e-12)
    n_reps, h = 3000, 0.0025
    plan = build_plan(spec, 64, 64 * np.array([1.0]), h, 8.0)
    inc = _draw_increments_rows(BROWNIAN, h, plan.n_steps, n_reps, stream(1, "variance-example", 0))
    vals = _fine_grid_values(plan, inc)[:, 0]
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
    for h in (0.0, -0.1):
        with pytest.raises(ValueError, match="fine_step must be positive"):
            simulate_yn(spec, BROWNIAN, 2, np.array([0.0, 0.5]), h, 9.0, stream(0, "b", 0))


def test_simulate_path_does_not_move_with_the_fine_step():
    # the records, and so the normals simulate draws from one stream, do not
    # change with the fine step, and the gap law of a time-varying scalar
    # model is that of the continuous model at every step: every value keeps
    # its bits
    spec, tri = models.tvcar_sin(), LevyTriplet(1.0, 1.0)
    values = [simulate_yn(spec, tri, 1, np.array([0.0, 1.0]), h, 8.0, stream(9, "refine", 0)).values
              for h in (0.25, 0.125, 0.0625, 0.03125)]
    for other in values[1:]:
        assert other.tobytes() == values[0].tobytes()


def test_coupling_determinism():
    args = (models.tvcar_sin(), BROWNIAN, 32, np.array([1.0]), 0.01, 8.0)
    a = simulate_yn(*args, stream(4, "det", 5))
    b = simulate_yn(*args, stream(4, "det", 5))
    assert np.array_equal(a.values, b.values)


def test_scalar_path_draws_its_closed_form_segment_law():
    # a scalar model runs a segment law whose decay, mean and variance are
    # those of the continuous model over each gap [s0, s1] of rescaled time,
    # e^{E(s0)}, int e^{E} and int e^{2E} with E(s) = -int_s^s1 a(x / 16) dx
    # in closed form; the path is that law's draw on the same stream, scanned
    # over the records
    car = models.tvcar_sin()
    tri = LevyTriplet(0.3, 1.0, JumpSpec(0.5, atoms=((1.0, 0.5), (-1.0, 0.5))))
    times = np.array([0.5, 1.0])
    a = simulate_yn(car, tri, 16, times, 0.01, 8.0, stream(2, "ss", 0))
    plan = build_plan(car, 16, 16 * times, 0.01, 8.0)
    law = build_segment_law(plan, tri)
    for k, (s0, s1) in enumerate([(0.0, 8.0), (8.0, 16.0)]):
        E = lambda s: -2.0 * (s1 - s) + 16.0 * (np.cos(s1 / 16.0) - np.cos(s / 16.0))  # noqa: E731
        mean = integrate.quad(lambda s: np.exp(E(s)), s0, s1, epsabs=0.0, epsrel=1e-13)[0]
        var = integrate.quad(lambda s: np.exp(2.0 * E(s)), s0, s1, epsabs=0.0, epsrel=1e-13)[0]
        assert law.decay[k, 0, 0] == pytest.approx(np.exp(E(s0)), rel=1e-12)
        assert law.mean[k, 0] == pytest.approx(tri.path_drift * mean, rel=1e-12)
        assert law.chol[k, 0, 0] ** 2 == pytest.approx(tri.sigma2 * var, rel=1e-12)
    eta = draw_segment_noise(law, stream(2, "ss", 0), 1)[:, 0, 0]
    assert np.allclose(a.values, [eta[0], law.decay[1, 0, 0] * eta[0] + eta[1]], rtol=1e-12, atol=0.0)


def test_noncommuting_step_matches_commuting_path():
    # the declared flag does not choose the law: companion2's constant A is
    # not diagonal, and both take the node-propagator law
    spec = models.companion2()
    noncommuting = dataclasses.replace(spec, commuting=False)
    times = np.linspace(0.5, 1.5, 21)
    for N in (4, 16):
        a = simulate_yn(spec, BROWNIAN, N, times, 0.005, 8.0, stream(3, "nc", N))
        b = simulate_yn(noncommuting, BROWNIAN, N, times, 0.005, 8.0, stream(3, "nc", N))
        assert np.array_equal(b.values, a.values)


def test_step_propagators_are_fourth_order_on_a_noncommuting_model():
    # the product of the fine-step propagators of the references of this
    # module (fourth-order Magnus) over [0, 2] against a fine RK4 transition
    # matrix: each halving of h cuts the error about 16-fold
    spec = _noncommuting()
    ref = transition_matrix(spec, 2.0, 0.0, method="ode_rk4", step=1e-4)
    errors = []
    for h in (0.4, 0.2, 0.1, 0.05):
        product = np.eye(2)
        for P in _propagators(spec, np.arange(round(2.0 / h)) * h, 1.0, h):
            product = P @ product
        errors.append(np.linalg.norm(product - ref))
    ratios = np.array(errors[:-1]) / np.array(errors[1:])
    assert np.all((14.0 <= ratios) & (ratios <= 18.0)), ratios


def test_strong_decay_stays_representable():
    # total decay exp(-2000): the early composed maps of the scan underflow
    # to 0, which is their value to double precision, and the rest of the
    # scan stays exact
    m = 20000
    P = np.full((m, 1, 1), np.exp(-0.1))
    c = np.zeros((m, 1, 2))
    c[0], c[-2], c[-1] = 1.0, 0.5, 2.0
    x = np.ones((1, 2))
    expect = x.copy()
    for j in range(m):
        expect = P[j] * expect + c[j]
    got = affine_states(P, c, x)[-1]
    assert np.all(np.isfinite(got))
    np.testing.assert_allclose(got, expect, rtol=1e-15)
    np.testing.assert_allclose(got, 2.0 + 0.5 * np.exp(-0.1), rtol=1e-15)


def test_long_burn_in_runs_as_one_segment():
    # burn-in decay exp(-800): the first segment's early suffix weights underflow
    spec, h, burn_in = models.ou(2.0), 0.05, 400.0
    times = np.array([0.0, 0.5, 0.55, 1.25])
    plan = build_plan(spec, 1, times, h, burn_in)
    n_burn = 8000
    record_steps = n_burn + np.rint(times / h).astype(int)
    assert plan.segment_bounds == list(zip([0, *record_steps[:-1]], record_steps))

    law = build_segment_law(plan, BROWNIAN)
    # the decay is the exponential of the summed exponents, which rounds
    # differently from np.prod, and the burn-in decay exp(-800) underflows to
    # 0 or to a subnormal
    expected = [np.prod(np.full(hi - lo, np.exp(-0.1))) for lo, hi in plan.segment_bounds]
    np.testing.assert_allclose(law.decay[:, 0, 0], expected, rtol=1e-14, atol=1e-300)
    assert law.decay[0, 0, 0] < 1e-300
    for arr in (law.decay, law.mean, law.chol):
        assert not np.any(np.isnan(arr))

    # the path is the law's draw carried over the records one at a time
    got = simulate_yn(spec, BROWNIAN, 1, times, h, burn_in, stream(3, "long-burn-in", 0)).values
    eta = draw_segment_noise(law, stream(3, "long-burn-in", 0), 1)[:, 0, 0]
    x, expect = 0.0, []
    for decay, noise in zip(law.decay[:, 0, 0], eta):
        x = decay * x + noise
        expect.append(x)
    assert np.all(np.isfinite(got))
    np.testing.assert_allclose(got, expect, rtol=1e-12)


# a stiff non-commuting model: margin 30, with A(t) coupling its two rates
STIFF = ModelSpec(
    p=2,
    A=lambda t: np.stack([np.stack([np.full(np.shape(t), -40.0), 1.0 + 0.5 * np.sin(t)], -1),
                          np.stack([0.5 * np.cos(t), np.full(np.shape(t), -50.0)], -1)], -2),
    B=lambda t: np.ones(2), C=lambda t: np.ones(2), lipschitz=Lipschitz(0.5), commuting=False,
    stability_margin=30.0, model_id="stiff",
)


def test_stiff_model_simulate_does_not_depend_on_the_fine_step():
    # simulate draws the exact segment law, so at the coarse step 1/16 the mean
    # of Y^2 over 400 paths agrees with the one at 0.01 within Monte Carlo
    # error, both near the exact 0.0477 (gamma 1, sigma2 1); a per-step
    # increment at the end of each step gave 0.264 and 0.076
    tri, times = LevyTriplet(1.0, 1.0), np.linspace(0.5, 1.5, 9)
    laws = {}  # the law is a function of the plan: build it once per step

    def law_of(plan, triplet):
        if plan.h not in laws:
            laws[plan.h] = build_segment_law(plan, triplet)
        return laws[plan.h]

    def mean_square(h):
        with mock.patch.object(dynamics, "build_segment_law", law_of):
            sq = [simulate_yn(STIFF, tri, 64, times, h, 8.0, stream(12, f"stiff:{h}", r)).values ** 2
                  for r in range(400)]
        per_path = np.mean(sq, axis=1)
        return per_path.mean(), per_path.std(ddof=1) / np.sqrt(per_path.size)

    (coarse, se_coarse), (fine, se_fine) = mean_square(1.0 / 16.0), mean_square(0.01)
    assert abs(coarse - fine) <= 3.0 * np.hypot(se_coarse, se_fine)
    for value, se in ((coarse, se_coarse), (fine, se_fine)):
        assert abs(value - 0.0477) <= 3.0 * se + 1e-3


def test_shipped_coefficients_take_arrays_of_times():
    t = np.linspace(-1.0, 2.0, 6).reshape(2, 3)
    for spec in (models.diag2(), models.companion2(), models.tvcar_sin()):
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


LAW_H = 1.0 / 32.0
DRIFT_GAUSS = LevyTriplet(1.0, 1.0)
GAUSS_JUMPS = LevyTriplet(0.0, 0.5, JumpSpec(1.0, atoms=((1.0, 0.5), (-1.0, 0.5))))


def _noncommuting_A(t):
    t = np.asarray(t, dtype=float)
    out = np.zeros(t.shape + (2, 2))
    out[..., 0, 0], out[..., 0, 1], out[..., 1, 1] = -2.0, 1.0, -3.0
    out[..., 1, 0] = 0.5 * np.sin(t)
    return out


def _noncommuting():
    """A(t) = [[-2, 1], [0.5 sin t, -3]]: A(t) and A(s) do not commute, and the
    eigenvalues stay below -1.5."""
    return ModelSpec(
        p=2,
        A=_noncommuting_A,
        B=lambda t: np.broadcast_to([1.0, 0.5], np.shape(t) + (2,)),
        C=lambda t: np.broadcast_to([1.0, -0.5], np.shape(t) + (2,)),
        lipschitz=Lipschitz(0.5),
        commuting=False,
        stability_margin=1.5,
        model_id="noncommuting2",
    )


# p = 1 and three p = 2 models: commuting diagonal, constant companion form
# and non-commuting
LAW_MODELS = (models.tvcar_sin(), models.diag2(), models.companion2(), _noncommuting())


def _law_plan(spec):
    # 41 nodes one rescaled unit apart around N u = 64, at N = 64
    return build_plan(spec, 64, 64.0 + np.arange(-20, 21), LAW_H, 8.0 / spec.stability_margin)


def _segment_paths(plan, tri, purpose, n_reps):
    law = build_segment_law(plan, tri)
    return run_segment_law(law, draw_segment_noise(law, stream(11, purpose, 0), n_reps))


# Gauss nodes of the fourth-order Magnus step, as fractions of the step
GAUSS = (0.5 - np.sqrt(3.0) / 6.0, 0.5 + np.sqrt(3.0) / 6.0)


def _magnus_exponents(spec, lefts, N, h):
    """Fourth-order Magnus exponents (n, p, p) of the steps with left points
    ``lefts``: (h/2)(A_1 + A_2) + (sqrt(3) h^2 / 12)[A_2, A_1], A_1 and A_2 at
    the Gauss nodes of each step."""
    A1, A2 = (coefficient_values(spec, "A", (lefts + c * h) / N) for c in GAUSS)
    return 0.5 * h * (A1 + A2) + (np.sqrt(3.0) * h * h / 12.0) * (A2 @ A1 - A1 @ A2)


def _propagators(spec, lefts, N, h):
    """Propagators e^W (n, p, p) of the fine steps with left points ``lefts``
    of the references below, W their Magnus exponents."""
    from scipy.linalg import expm

    return expm(_magnus_exponents(spec, np.asarray(lefts, dtype=float), N, h))


def _fine_grid_values(plan, inc):
    """Reference recursion x <- P_j x + C(mid_j / N) dL_j one fine step at a
    time, for every row of increments ``inc`` (R, n_steps) at once; returns
    B(t_k)' x at the plan's records, shape (R, n_records)."""
    spec, N, h = plan.spec, plan.N, plan.h
    lefts = plan.start + np.arange(plan.n_steps) * h
    P = _propagators(spec, lefts, N, h)
    C = coefficient_values(spec, "C", (lefts + 0.5 * h) / N)
    B = coefficient_values(spec, "B", plan.eval_rescaled / N)
    record_of = {int(s): k for k, s in enumerate(plan.record_steps)}
    x = np.zeros((spec.p, inc.shape[0]))
    out = np.empty((inc.shape[0], plan.record_steps.size))
    for j in range(plan.n_steps):
        x = P[j] @ x + C[j][:, None] * inc[:, j]
        if j + 1 in record_of:
            out[:, record_of[j + 1]] = B[record_of[j + 1]] @ x
    return out


def _exact_step_moments(spec, lefts, N, h):
    """Drift weights int_0^h e^{Wr/h} dr C (n, p) and covariances
    int_0^h e^{Wr/h} CC' e^{W'r/h} dr (n, p, p) of the steps with left points
    ``lefts``, W the Magnus exponent of the step and C at its midpoint, from
    Van Loan's block exponentials (Van Loan 1978, IEEE TAC 23), one expm each."""
    from scipy.linalg import expm

    W = _magnus_exponents(spec, lefts, N, h)
    C = coefficient_values(spec, "C", (lefts + 0.5 * h) / N)
    n, p = C.shape
    drift_block = np.zeros((n, p + 1, p + 1))
    drift_block[:, :p, :p], drift_block[:, :p, p] = W, h * C
    cov_block = np.zeros((n, 2 * p, 2 * p))
    cov_block[:, :p, :p] = -W
    cov_block[:, :p, p:] = h * C[:, :, None] * C[:, None, :]
    cov_block[:, p:, p:] = np.swapaxes(W, -1, -2)
    F = expm(cov_block)
    return expm(drift_block)[:, :p, p], np.swapaxes(F[:, p:, p:], -1, -2) @ F[:, :p, p:]


def _fine_paths(plan, tri, purpose, n_reps):
    """Reference paths one fine step at a time under the exact in-step law:
    x <- P_j x + path_drift d_j + sigma2^(1/2) G_j^(1/2) Z
    (:func:`_exact_step_moments`) plus Poisson(rate h) jumps, each with a
    uniform fraction f of its step still to run and weight e^{W_j f} C_j, W_j
    the Magnus exponent of the step, by one expm per jump. Returns B(t_k)' x
    at the records, shape (n_reps, n_records)."""
    from scipy.linalg import expm

    spec, N, h = plan.spec, plan.N, plan.h
    lefts = plan.start + np.arange(plan.n_steps) * h
    P = _propagators(spec, lefts, N, h)
    d, G = _exact_step_moments(spec, lefts, N, h)
    F = covariance_factor(tri.sigma2 * G)
    W = _magnus_exponents(spec, lefts, N, h)
    C = coefficient_values(spec, "C", (lefts + 0.5 * h) / N)
    B = coefficient_values(spec, "B", plan.eval_rescaled / N)
    record_of = {int(s): k for k, s in enumerate(plan.record_steps)}
    gen = stream(11, purpose, 0)
    x = np.zeros((n_reps, spec.p))
    out = np.empty((n_reps, plan.record_steps.size))
    for j in range(plan.n_steps):
        x = x @ P[j].T + tri.path_drift * d[j] + gen.standard_normal((n_reps, spec.p)) @ F[j].T
        reps = np.repeat(np.arange(n_reps), gen.poisson(tri.jump_rate * h, n_reps))
        if reps.size:
            weights = expm(W[j] * gen.random(reps.size)[:, None, None]) @ C[j]
            np.add.at(x, reps, weights * tri.jumps.sample(reps.size, gen)[:, None])
        if j + 1 in record_of:
            out[:, record_of[j + 1]] = x @ B[record_of[j + 1]]
    return out


def test_segment_law_structure():
    plan = _law_plan(models.tvcar_sin())
    a = (-models.tvcar_sin().A((plan.start + (np.arange(plan.n_steps) + c) * LAW_H) / 64)[:, 0, 0]
         for c in GAUSS)
    phi = np.exp(-0.5 * LAW_H * sum(a))
    # fine-step bounds of the record segments; the first segment is the burn-in
    bounds = np.concatenate([[0], plan.record_steps])
    assert bounds[-1] == plan.n_steps
    for tri in (DRIFT_GAUSS, GAUSS_JUMPS):
        law = build_segment_law(plan, tri)
        assert law.decay.shape == (41, 1, 1) and len(plan.record_steps) == 41
        expected = [np.prod(phi[lo:hi]) for lo, hi in zip(bounds[:-1], bounds[1:])]
        # the blocked product associates the factors differently from np.prod
        np.testing.assert_allclose(law.decay[:, 0, 0], expected, rtol=1e-14, atol=0.0)
    assert build_segment_law(plan, DRIFT_GAUSS).jump_weight is None
    # the weight of every cell, each picked by the uniform at its midpoint
    cells = np.diff(bounds)
    seg = np.repeat(np.arange(41), cells)
    unit = (np.arange(plan.n_steps) - bounds[seg] + 0.5) / cells[seg]
    assert law.jump_weight(seg, unit).shape == (plan.n_steps, 1)
    # noise on the last cell of each segment has weight C = 1, so the fine-grid
    # recursion and the recursion over records must agree on it
    eta = np.random.default_rng(0).standard_normal((3, 41))
    fine = np.zeros((3, plan.n_steps))
    fine[:, plan.record_steps - 1] = eta
    expected = _fine_grid_values(plan, fine)
    assert np.allclose(run_segment_law(law, eta.T[:, None, :]), expected, rtol=1e-12, atol=1e-14)
    assert _segment_paths(plan, GAUSS_JUMPS, "law-shape", 3).shape == (3, 41)


@pytest.mark.parametrize("spec", [models.companion2(), models.diag2(), _noncommuting()],
                         ids=lambda s: s.model_id)
def test_segment_law_bits_do_not_depend_on_the_stack_bound(spec):
    # stacking only batches the work, so the law, and with it every output
    # byte, must not move with the bound; with p = 2, a bound of 8 gives two
    # segments a stack, 32 eight, and the larger bounds all 40 gaps. (A
    # stack of one segment rounds some D and drift entries 1 ulp apart: its
    # products over the nodes have one row, and take other BLAS kernels.)
    plan = _law_plan(spec)
    bounds = np.concatenate([[0], plan.record_steps])
    seg = np.repeat(np.arange(41), np.diff(bounds))
    unit = (np.arange(plan.n_steps) - bounds[seg] + 0.5) / np.diff(bounds)[seg]
    laws = []
    for entries in (8, 32, dynamics._GAP_SEGMENTS, 65536):
        with mock.patch.object(dynamics, "_GAP_SEGMENTS", entries):
            law = build_segment_law(plan, GAUSS_JUMPS)
        laws.append((law.decay, law.mean, law.chol, law.jump_weight(seg, unit)))
    for law in laws[1:]:
        for got, first in zip(law, laws[0]):
            assert got.tobytes() == first.tobytes()


def test_burn_in_below_half_a_step_records_the_zero_start():
    # margin 1e15 admits a zero burn-in, so the first record is at step 0
    spec = models.ou(1e15)
    plan = build_plan(spec, 4, [4.0, 5.0], 0.25, 0.0)
    assert plan.record_steps.tolist() == [0, 4]
    law = build_segment_law(plan, GAUSS_JUMPS)
    assert law.decay[0, 0, 0] == 1.0 and law.mean[0, 0] == 0.0 and law.jump_mean[0] == 0.0
    # the first value is the zero start; the second the noise of its last
    # step, whose stationary sd is (2e15)^(-1/2)
    path = simulate_yn(spec, BROWNIAN, 4, [1.0, 1.25], 0.25, 0.0, stream(0, "zero-start", 0))
    assert path.values[0] == 0.0 and 0.0 < abs(path.values[1]) < 6.0 / np.sqrt(2e15)
    # a vector model: the empty stack of the step-0 record takes no eigenbasis
    spec = dataclasses.replace(models.companion2(), stability_margin=1e15)
    law = build_segment_law(build_plan(spec, 4, [4.0, 5.0], 0.25, 0.0), GAUSS_JUMPS)
    assert np.array_equal(law.decay[0], np.eye(2)) and not law.mean[0].any()
    assert law.jump_mean[0] == 0.0


def test_one_step_segment_of_a_vector_model_has_a_finite_factor():
    # a segment of one fine step adds sigma2 times its covariance, which is
    # nearly singular: its smaller eigenvalue is O(h^2) of the larger. For
    # diag2 (C = (1, 1)) the covariance is int_0^h e^{E_i(s) + E_k(s)} ds,
    # E_1(s) = -int_s^h (1 + 0.5 sin((s0 + x) / 64)) dx and E_2(s) = -2 (h - s)
    spec = models.diag2()
    plan = build_plan(spec, 64, 64.0 + np.array([0.0, LAW_H, 2.0]), LAW_H, 16.0)
    law = build_segment_law(plan, DRIFT_GAUSS)
    s0 = plan.start + plan.record_steps[0] * LAW_H
    E = [lambda s: -(LAW_H - s) + 32.0 * (np.cos((s0 + LAW_H) / 64.0) - np.cos((s0 + s) / 64.0)),
         lambda s: -2.0 * (LAW_H - s)]
    Q = DRIFT_GAUSS.sigma2 * np.array([[integrate.quad(lambda s: np.exp(Ei(s) + Ek(s)), 0.0, LAW_H,
                                                       epsabs=0.0, epsrel=1e-13)[0]
                                        for Ek in E] for Ei in E])
    L = law.chol[1]
    assert np.all(np.isfinite(law.chol))
    assert np.linalg.norm(L @ L.T - Q) <= 1e-14 * np.linalg.norm(Q)


def test_step_law_moments_on_an_ill_conditioned_trusted_eigenbasis():
    # eigenvalues 1e-6 apart: the eigenbasis estimate is about 2e6, trusted for
    # the propagator, but the eigenbasis form of G would lose eps cond^2, about
    # 1e-4 of it; against Van Loan
    A = np.array([[-1.0, 1.0], [0.0, -1.0 - 1e-6]])
    C = np.array([0.3, 1.0])
    assert np.sqrt(dynamics._COND_MAX) < dynamics.eigenbasis(A)[3] <= dynamics._COND_MAX
    spec = ModelSpec(2, lambda t: A, lambda t: C, lambda t: C, Lipschitz(0.0), True, 1.0, "near")
    h = np.array([1.0 / 64.0, 0.5, 2.0])
    d, G = dynamics.StepLaw(A, C, h).moments()
    for k in range(h.size):
        d_ref, G_ref = _exact_step_moments(spec, np.zeros(1), 1.0, h[k])
        assert np.abs(d[k] - d_ref[0]).max() <= 1e-12 * np.abs(d_ref).max()
        assert np.abs(G[k] - G_ref[0]).max() <= 1e-12 * np.abs(G_ref).max()


def test_covariance_factor_is_exactly_zero_in_a_rounding_null_direction():
    # rank-1 covariances plus rounding noise in the null directions: one
    # positive and one negative eigenvalue at eps level, so Cholesky fails and
    # the eigendecomposition factors the stack. The last item is full rank at
    # a scale far below the others; the floor is relative to each item.
    rng = np.random.default_rng(5)
    scales = [1.0, 1e6, 1e-4]
    stack = []
    for scale in scales:
        V, _ = np.linalg.qr(rng.standard_normal((3, 3)))
        stack.append(V @ np.diag([scale, 3e-17 * scale, -5e-17 * scale]) @ V.T)
    V, _ = np.linalg.qr(rng.standard_normal((3, 3)))
    full = V @ np.diag([1e-10, 1e-11, 1e-12]) @ V.T
    Q = np.stack(stack + [full])
    L = covariance_factor(Q)
    nonzero_columns = np.any(L != 0.0, axis=-2).sum(axis=-1)
    assert nonzero_columns.tolist() == [1, 1, 1, 3]
    for q, l in zip(Q, L):
        assert np.linalg.norm(l @ l.T - q) <= 1e-14 * np.linalg.norm(q)


@pytest.mark.parametrize("tri", [DRIFT_GAUSS, GAUSS_JUMPS], ids=["drift-gauss", "gauss-jumps"])
def test_segment_law_matches_exact_moment_recursion(tri):
    mom = triplet_moments(tri)
    n_reps = 4000
    for spec in LAW_MODELS:
        plan = _law_plan(spec)
        # exact moments of the recursion with its noise inside each step, one
        # step at a time: m <- P m + mu_L d, V <- P V P' + Sigma_L G with the
        # in-step drift weight d and covariance G, and W <- P W from W = V at
        # a record, so that B' W B_prev is the covariance of consecutive nodes
        lefts = plan.start + np.arange(plan.n_steps) * LAW_H
        P = _propagators(plan.spec, lefts, 64, LAW_H)
        d, G = _exact_step_moments(plan.spec, lefts, 64, LAW_H)
        B = coefficient_values(plan.spec, "B", plan.eval_rescaled / 64)
        means, variances, lag_covs = [], [], []
        m, V, W = np.zeros(spec.p), np.zeros((spec.p, spec.p)), None
        for j in range(plan.n_steps):
            m = P[j] @ m + mom.mu_L * d[j]
            V = P[j] @ V @ P[j].T + mom.Sigma_L * G[j]
            W = None if W is None else P[j] @ W
            if j + 1 in plan.record_steps:
                b = B[len(means)]
                means.append(b @ m)
                variances.append(b @ V @ b)
                if W is not None:
                    lag_covs.append(b @ W @ b_prev)
                W, b_prev = V, b
        Y = _segment_paths(plan, tri, "law-moments", n_reps)
        centered = Y - Y.mean(axis=0)
        z_mean = (Y.mean(axis=0) - means) / np.sqrt(np.asarray(variances) / n_reps)
        var_hat = centered.var(axis=0)
        se_var = np.sqrt((np.mean(centered**4, axis=0) - var_hat**2) / n_reps)
        z_var = (var_hat - variances) / se_var
        products = centered[:, :-1] * centered[:, 1:]
        z_cov = (products.mean(axis=0) - lag_covs) / np.sqrt(products.var(axis=0) / n_reps)
        assert np.abs(z_mean).max() < 4.5, spec.model_id
        assert np.abs(z_var).max() < 4.5, spec.model_id
        assert np.abs(z_cov).max() < 4.5, spec.model_id


def test_segment_law_agrees_with_fine_grid_on_jump_driver():
    n_reps = 3000
    for spec in LAW_MODELS:
        plan = _law_plan(spec)
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
        assert abs(l_a - l_b) < 4.0 * np.sqrt(vl_a + vl_b), spec.model_id
        assert abs(k_a - k_b) < 4.0 * np.sqrt(vk_a + vk_b), spec.model_id
        assert k_a > 3.2, spec.model_id  # the jumps are there: a Gaussian path has kurtosis 3


class _RecordingGenerator:
    """A Generator whose draws are logged by method name."""

    def __init__(self, gen, log):
        self._gen, self._log = gen, log

    def __getattr__(self, name):
        method = getattr(self._gen, name)

        def draw(*args, **kwargs):
            self._log.append(name)
            return method(*args, **kwargs)

        return draw


def test_segment_sampler_draw_contract():
    # a frozen and a time-varying law with p = 2 and the per-step increments,
    # all with Gaussian noise and with jumps in the chunk. One generator draws
    # the whole chunk, one call per kind, in this order: the normals, the
    # Poisson counts, the uniform offsets and the uniforms of the atom sizes
    R, frequent = 4, LevyTriplet(0.0, 0.5, JumpSpec(3.0, atoms=((1.0, 0.5), (-1.0, 0.5))))
    plan = _law_plan(models.diag2())
    law = build_segment_law(plan, frequent)
    fr = st.freeze(models.companion2(), 0.0)
    # the warm start, then three runs of equal gaps
    gaps = np.concatenate([np.full(5, 0.5), np.full(5, 0.25), np.full(10, 0.5)])
    runs = {
        "time-varying": lambda gen: draw_segment_noise(law, gen, R),
        "frozen": lambda gen: st.simulate_stationary_batch(fr, frequent, gaps, R, gen),
        "per-step": lambda gen: _draw_increments_rows(frequent, LAW_H, 200, R, gen),
    }
    for name, run in runs.items():
        log = []
        run(_RecordingGenerator(stream(3, f"contract:{name}", 0), log))
        assert log == ["standard_normal", "poisson", "random", "random"], name


def test_counts_by_runs_are_one_poisson_call_on_the_rates():
    # on random layouts of runs of equal rates (zero rates, rates of 10 or
    # more, which take another numpy algorithm, and runs of one segment) the
    # counts of a chunk
    # and the generator state afterwards equal those of one poisson call on
    # the rates broadcast to (R, n_records)
    layouts = np.random.default_rng(31)
    unit_jumps = JumpSpec(1.0, atoms=((1.0, 1.0),))
    for case in range(120):
        n_runs = int(layouts.integers(1, 7))
        lengths = layouts.integers(1, 6, size=n_runs)
        kinds = layouts.integers(0, 3, size=n_runs)
        rates = np.where(kinds == 0, 0.0, np.where(kinds == 1, layouts.uniform(0, 10, n_runs),
                                                   layouts.uniform(10, 40, n_runs)))
        jump_mean = np.repeat(rates, lengths)
        n = jump_mean.size
        law = SegmentLaw(
            decay=np.ones((n, 1, 1)), mean=np.zeros((n, 1)), chol=None, jump_mean=jump_mean,
            jump_weight=JumpWeights.unit(n), jumps=unit_jumps,
            B=np.ones((n, 1)),
        )
        R = 3
        gen = stream(4, f"runs:{case}", 0)
        # every jump has size 1 and weight 1, so the noise is the counts
        eta = draw_segment_noise(law, gen, R)
        ref = stream(4, f"runs:{case}", 0)
        counts = ref.poisson(np.broadcast_to(jump_mean, (R, n)))
        ref.random(int(counts.sum()))  # offsets
        ref.random(int(counts.sum()))  # atom sizes
        assert np.array_equal(eta[:, 0, :], counts.T), case
        assert _philox_state(gen) == _philox_state(ref), case


def _philox_state(gen) -> tuple:
    s = gen.bit_generator.state
    return (s["state"]["counter"].tolist(), s["state"]["key"].tolist(), s["buffer"].tolist(),
            s["buffer_pos"], s["has_uint32"], s["uinteger"])


@pytest.mark.parametrize("spec", (models.tvcar_sin(), models.companion2()), ids=lambda s: s.model_id)
def test_one_replication_draws_as_one_path(spec):
    # R = 1 draws what one path drawn on its own does: normals (n, p), the
    # counts of its segments in one call, then the offsets and sizes of its
    # jumps, each once; the noise and the generator state afterwards agree,
    # so a one-path run (simulate) keeps its bytes
    law = build_segment_law(_law_plan(spec), GAUSS_JUMPS)
    n, p = law.mean.shape
    gen, ref = stream(11, "one-path", 0), stream(11, "one-path", 0)
    eta = draw_segment_noise(law, gen, 1)
    want = law.mean + (law.chol @ ref.standard_normal((n, p))[:, :, None])[:, :, 0]
    counts = ref.poisson(law.jump_mean)
    total = int(counts.sum())
    assert total > 0
    units = ref.random(total)
    seg = np.repeat(np.arange(n), counts)
    jumps = np.zeros((n, p))  # each segment's jumps summed in draw order, then added
    np.add.at(jumps, seg, law.jump_weight(seg, units) * law.jumps.sample(total, ref)[:, None])
    want += jumps
    assert eta.shape == (n, p, 1) and np.array_equal(eta[:, :, 0], want)
    assert _philox_state(gen) == _philox_state(ref)


def test_segment_chunk_is_its_stream_alone():
    # a chunk's paths are its stream's alone: drawn again after the chunks of
    # other indices, they are the same bytes, and another index draws others
    for spec in (models.tvcar_sin(), models.diag2(), models.companion2()):
        law = build_segment_law(_law_plan(spec), GAUSS_JUMPS)

        def chunk(k):
            return run_segment_law(law, draw_segment_noise(law, stream(11, "law-alone", k), 5))

        first = chunk(1)
        others = [chunk(k) for k in (2, 0)]
        assert np.array_equal(chunk(1), first), spec.model_id
        assert all(not np.any(first == other) for other in others), spec.model_id


def test_build_plan_names_the_first_gap_the_step_does_not_divide():
    # gaps 0.5, 0.5, 0.375 and 0.625: the third and fourth do not take a
    # whole number of quarter steps, and the message names the third
    msg = r"^fine_step 0.25 does not divide evaluation gap 0.375 at index 2$"
    with pytest.raises(ValueError, match=msg):
        build_plan(models.ou(1.0), 1, [0.0, 0.5, 1.0, 1.375, 2.0], 0.25, 8.0)


def _signed(rng, shape, scale):
    """Normals times ``scale`` with a fifth of the entries -0.0 or +0.0."""
    x = scale * rng.standard_normal(shape)
    x[rng.random(shape) < 0.1] = -0.0
    x[rng.random(shape) < 0.1] = 0.0
    return x


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(
    n=hst.integers(0, 70),
    R=hst.sampled_from([None, 1, 3, 64]),
    decay=hst.sampled_from(["mild", "strong", "signed"]),
    seed=hst.integers(0, 2**32 - 1),
)
@example(n=0, R=None, decay="mild", seed=1)
@example(n=1, R=3, decay="signed", seed=2)
@example(n=64, R=64, decay="strong", seed=3)
def test_scalar_scan_and_noise_match_their_matmul_forms_bit_for_bit(n, R, decay, seed):
    # for p = 1 the scan and the Gaussian noise multiply elementwise; a matmul
    # adds each product to +0, and so do they. Strong decay composes maps
    # below the smallest normal double, which the scan flushes to 0
    rng = np.random.default_rng(seed)
    P = {"mild": rng.uniform(0.5, 1.0, n), "strong": rng.uniform(1e-160, 1e-150, n),
         "signed": _signed(rng, n, 1.0)}[decay].reshape(n, 1, 1)
    tail = (1,) if R is None else (1, R)
    c, x0 = _signed(rng, (n,) + tail, 1.0), _signed(rng, tail, 1.0)
    law = SegmentLaw(P, _signed(rng, (n, 1), 1.0), _signed(rng, (n, 1, 1), 1.0), None, None, None,
                     np.ones((n, 1)))
    got = (affine_states(P, c, x0), draw_segment_noise(law, np.random.default_rng(seed), R or 2))
    with mock.patch.object(dynamics, "_product", np.matmul):
        want = (affine_states(P, c, x0), draw_segment_noise(law, np.random.default_rng(seed), R or 2))
    for a, b in zip(got, want):
        assert a.shape == b.shape and a.tobytes() == b.tobytes()
