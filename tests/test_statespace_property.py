"""The state-space simulator, the per-segment law and the coupling weights
against a per-step reference loop, and draws of the per-segment law against
the exact moments of the recursion with its noise inside each step.

Random stable systems with p = 1..3: commuting families V D(t) V^-1 whose
D(t) mixes real eigenvalues and complex-conjugate pairs, near-defective
families whose eigenbasis forces the expm fallback, and non-commuting A(t).
The stack bound is drawn too, so stacks hold one segment, split the segments
of one length, or hold them all.
"""

from unittest import mock

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import linalg

from locstat import dynamics
from locstat.dynamics import (
    Lipschitz,
    ModelSpec,
    build_plan,
    build_segment_law,
    draw_segment_noise,
    run_segment_law,
    segment_states,
    simulate_yn,
)
from locstat.experiments import _coupling_weights
from locstat.noise import BROWNIAN, JumpSpec, LevyTriplet, triplet_moments
from locstat.rng import streams

H = 1.0 / 32.0  # binary fractions keep every grid time exact
BURN_IN = 8.0  # 8 / declared margin 1


class _Commuting:
    """A(t) = V D(t) V^-1, D(t) block diagonal: a_i(t) on the diagonal, and
    a(t) I + b(t) [[0, 1], [-1, 0]] blocks with b(t) >= 1.5 for
    complex-conjugate pairs. All D(t) commute, and every eigenvalue has real
    part <= -1."""

    def __init__(self, V, rates, amps, freqs, n_pairs):
        self.V, self.Vinv = V, np.linalg.inv(V)
        self.rates, self.amps, self.freqs = rates, amps, freqs
        self.n_pairs = n_pairs

    def __call__(self, t):
        t = np.asarray(t, dtype=float)
        vals = -self.rates - self.amps * (1.0 + np.sin(np.multiply.outer(t, self.freqs)))
        p = self.V.shape[0]
        D = np.zeros(t.shape + (p, p))
        i = 0
        for _ in range(self.n_pairs):
            D[..., i, i] = D[..., i + 1, i + 1] = vals[..., i]
            D[..., i, i + 1] = 0.5 - vals[..., i + 1]
            D[..., i + 1, i] = -D[..., i, i + 1]
            i += 2
        for j in range(i, p):
            D[..., j, j] = vals[..., j]
        return self.V @ D @ self.Vinv


class _NearDefective:
    """(1 + 0.5 sin t) J, commuting in t. J = [[-1, 1], [0, -1 - 1e-10]] has
    an eigenbasis of condition number about 1e10; the lower Jordan block
    [[-1, 0, 0], [1, -1, 0], [0, 1, -1]] has a singular one (cond inf)."""

    JORDANS = (
        np.array([[-1.0, 1.0], [0.0, -1.0 - 1e-10]]),
        np.array([[-1.0, 0.0, 0.0], [1.0, -1.0, 0.0], [0.0, 1.0, -1.0]]),
    )

    def __init__(self, J):
        self.J = J

    def __call__(self, t):
        t = np.asarray(t, dtype=float)
        return (1.0 + 0.5 * np.sin(t))[..., None, None] * self.J


class _NonCommuting:
    """A(t) = A0 + sin(t) A1, with symmetric part of A0 at most -2 I and
    ||A1|| <= 0.5."""

    def __init__(self, A0, A1):
        self.A0, self.A1 = A0, A1

    def __call__(self, t):
        t = np.asarray(t, dtype=float)
        return self.A0 + np.sin(t)[..., None, None] * self.A1


class _Vector:
    def __init__(self, base, slope):
        self.base, self.slope = base, slope

    def __call__(self, t):
        return self.base + np.multiply.outer(np.cos(np.asarray(t, dtype=float)), self.slope)


@st.composite
def systems(draw):
    kind = draw(st.sampled_from(["commuting", "near_defective", "noncommuting"]))
    J = draw(st.sampled_from(_NearDefective.JORDANS)) if kind == "near_defective" else None
    p = len(J) if kind == "near_defective" else draw(st.integers(1, 3))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if kind == "commuting":
        V = np.eye(p) + 0.4 * rng.standard_normal((p, p))
        A = _Commuting(V, rng.uniform(1.0, 3.0, p), rng.uniform(0.0, 0.5, p),
                       rng.uniform(0.5, 2.0, p), draw(st.integers(0, p // 2)))
    elif kind == "near_defective":
        A = _NearDefective(J)
    else:
        G = rng.standard_normal((p, p))
        A0 = -2.0 * np.eye(p) - rng.uniform(0.0, 1.0) * G @ G.T + (G - G.T)
        A1 = rng.standard_normal((p, p))
        A = _NonCommuting(A0, 0.5 * A1 / np.linalg.norm(A1, 2))
    B = _Vector(rng.standard_normal(p), 0.3 * rng.standard_normal(p))
    C = _Vector(rng.standard_normal(p), 0.3 * rng.standard_normal(p))
    return ModelSpec(p, A, B, C, Lipschitz(1.0, 1.0, 1.0), kind != "noncommuting", 1.0, kind)


def _rk4_step(A, left, N, h):
    eye = np.eye(A(0.0).shape[0])
    k1 = A(left / N)
    k2 = A((left + h / 2) / N) @ (eye + (h / 2) * k1)
    k3 = A((left + h / 2) / N) @ (eye + (h / 2) * k2)
    k4 = A((left + h) / N) @ (eye + h * k3)
    return eye + (h / 6) * (k1 + 2 * k2 + 2 * k3 + k4)


def reference_path(spec, N, times, h, burn_in, inc, rest=0.0):
    """One step at a time, with scalar coefficient calls. The increment of a
    step enters with weight e^{A rest h} C, as if it fell with the fraction
    ``rest`` of the step still to run, A frozen at the midpoint."""
    rescaled = N * times
    n_burn = int(np.ceil(burn_in / h - 1e-12))
    record_steps = n_burn + np.concatenate([[0], np.cumsum(np.rint(np.diff(rescaled) / h))])
    start = rescaled[0] - n_burn * h
    x = np.zeros(spec.p)
    values = []
    for j in range(int(record_steps[-1])):
        left = start + j * h
        if spec.commuting:
            P = linalg.expm(spec.A((left + 0.5 * h) / N) * h)
        else:
            P = _rk4_step(spec.A, left, N, h)
        noise = spec.C(left / N) * inc[j]
        if rest:
            noise = linalg.expm(spec.A((left + 0.5 * h) / N) * rest * h) @ noise
        x = P @ x + noise
        if j + 1 in record_steps:
            values.append(spec.B((start + (j + 1) * h) / N) @ x)
    return np.array(values)


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(
    spec=systems(),
    N=st.sampled_from([1, 4, 32]),
    gaps=st.lists(st.integers(1, 40), min_size=0, max_size=6),
    repeat=st.integers(1, 3),
    first=st.integers(0, 64),
    stacking=st.sampled_from(["one segment", "two of the longest gap", "all"]),
    seed=st.integers(0, 2**32 - 1),
)
def test_blocked_path_matches_per_step_reference(spec, N, gaps, repeat, first, stacking, seed):
    # repeated gaps give runs of equal-length segments for the stacks to split
    gaps = gaps * repeat
    rescaled = first * H + H * np.concatenate([[0], np.cumsum(gaps)])
    times = rescaled / N
    n_steps = int(round(BURN_IN / H)) + int(np.sum(gaps))
    inc = np.sqrt(H) * np.random.default_rng(seed).standard_normal(n_steps)
    entries = {
        "one segment": 1,
        "two of the longest gap": 2 * spec.p**2 * max(gaps, default=1),
        "all": 2**40,
    }[stacking]
    with mock.patch.object(dynamics, "_BLOCK_ENTRIES", entries):
        got = simulate_yn(spec, BROWNIAN, N, times, H, BURN_IN, None, increments=inc).values
    ref = reference_path(spec, N, times, H, BURN_IN, inc)
    np.testing.assert_allclose(got, ref, rtol=1e-10, atol=1e-10 * np.abs(ref).max())


def test_near_defective_family_takes_the_expm_fallback():
    for J in _NearDefective.JORDANS:
        A = _NearDefective(J)(np.linspace(0.0, 3.0, 7))
        _, V = np.linalg.eig(A)
        assert np.all(np.linalg.cond(V) > dynamics._COND_MAX)
        assert not np.any(dynamics.eigenbasis(A)[3])
    # a basis whose inverse comes out NaN must not pass as well conditioned
    with mock.patch.object(np.linalg, "inv", lambda V: np.full_like(V, np.nan)):
        assert not np.any(dynamics.eigenbasis(A)[3])


# a jump driver, so that the law keeps the weight v_j of every cell
JUMPS = LevyTriplet(0.0, 1.0, JumpSpec(1.0, atoms=((1.0, 0.5), (-1.0, 0.5))))


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(
    spec=systems(),
    N=st.sampled_from([1, 4, 32]),
    gaps=st.lists(st.integers(1, 40), min_size=0, max_size=6),
    first=st.integers(0, 64),
    n_noisy=st.integers(1, 12),
    seed=st.integers(0, 2**32 - 1),
)
def test_segment_law_matches_the_per_step_reference(spec, N, gaps, first, n_noisy, seed):
    # noise in a few chosen cells: the law moves it to its record with the
    # jump weight of its cell and carries it over the later records by D_k;
    # the reference runs the same increments one fine step at a time
    rescaled = first * H + H * np.concatenate([[0], np.cumsum(gaps)])
    plan = build_plan(spec, N, rescaled, H, BURN_IN)
    law = build_segment_law(plan, JUMPS)
    rng = np.random.default_rng(seed)
    cells = rng.choice(plan.n_steps, size=min(n_noisy, plan.n_steps), replace=False)
    inc = np.zeros(plan.n_steps)
    inc[cells] = rng.standard_normal(cells.size)
    bounds = np.concatenate([[0], plan.record_steps])
    seg = np.searchsorted(bounds, cells, side="right") - 1
    # the uniform at the middle of a cell picks that cell and places the jump
    # at the middle of it
    unit = (cells - bounds[seg] + 0.5) / (bounds[seg + 1] - bounds[seg])
    eta = np.zeros((len(rescaled), spec.p, 1))
    np.add.at(eta[:, :, 0], seg, law.jump_weight(seg, unit) * inc[cells, None])
    got = run_segment_law(law, eta)[0]
    ref = reference_path(spec, N, rescaled / N, H, BURN_IN, inc, rest=0.5)
    scale = max(np.abs(ref).max(), np.finfo(float).tiny)
    np.testing.assert_allclose(got, ref, rtol=0.0, atol=1e-12 * scale)


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(
    spec=systems(),
    N=st.sampled_from([1, 4, 32]),
    first=st.integers(0, 64),
    seed=st.integers(0, 2**32 - 1),
)
def test_coupling_weights_match_the_per_step_reference(spec, N, first, seed):
    # Y_N(u) is linear in the burn-in increments, with weights w_n
    u = first * H / N
    w_n, _ = _coupling_weights(spec, u, N, H, BURN_IN)
    inc = np.random.default_rng(seed).standard_normal(w_n.size)
    ref = reference_path(spec, N, np.array([u]), H, BURN_IN, inc)[0]
    scale = max(abs(ref), np.finfo(float).tiny)
    assert abs(inc @ w_n - ref) <= 1e-12 * scale


def exact_node_moments(spec, plan, triplet):
    """State means (n_records, p) and covariances (n_records, p, p) of the
    recursion with the exact in-step noise, one step at a time with scalar
    coefficient calls: m <- P m + mu_L d, V <- P V P' + Sigma_L G. The drift
    weight d = int_0^h e^{Ar} dr C and covariance G = int_0^h e^{Ar} CC'
    e^{A'r} dr of a step, A at its midpoint and C at its left point, come from
    Van Loan's block exponentials (Van Loan 1978, IEEE TAC 23)."""
    mom, p, h, N = triplet_moments(triplet), spec.p, plan.h, plan.N
    m, V, means, covs = np.zeros(p), np.zeros((p, p)), [], []
    for j in range(plan.n_steps):
        left = plan.start + j * h
        A, C = spec.A((left + 0.5 * h) / N), spec.C(left / N)
        P = linalg.expm(A * h) if spec.commuting else _rk4_step(spec.A, left, N, h)
        d = linalg.expm(np.block([[A, C[:, None]], [np.zeros((1, p + 1))]]) * h)[:p, p]
        F = linalg.expm(np.block([[-A, np.outer(C, C)], [np.zeros((p, p)), A.T]]) * h)
        m = P @ m + mom.mu_L * d
        V = P @ V @ P.T + mom.Sigma_L * F[p:, p:].T @ F[:p, p:]
        if j + 1 in plan.record_steps:
            means.append(m)
            covs.append(V)
    return np.array(means), np.array(covs)


@settings(max_examples=20, deadline=None, derandomize=True, database=None)
@given(
    spec=systems(),
    N=st.sampled_from([1, 4, 32]),
    gaps=st.lists(st.integers(1, 40), min_size=1, max_size=4),
    first=st.integers(0, 64),
    seed=st.integers(0, 2**31 - 1),
)
def test_segment_law_draws_match_the_exact_moment_recursion(spec, N, gaps, first, seed):
    # a driver with drift, Gaussian part and jumps: mu_L = 1, Sigma_L = 2
    tri, R = LevyTriplet(1.0, 1.0, JumpSpec(1.0, atoms=((1.0, 0.5), (-1.0, 0.5)))), 4000
    rescaled = first * H + H * np.concatenate([[0], np.cumsum(gaps)])
    plan = build_plan(spec, N, rescaled, H, BURN_IN)
    law = build_segment_law(plan, tri)
    x = segment_states(law, draw_segment_noise(law, streams(seed, "moments", 0, R)))
    means, covs = exact_node_moments(spec, plan, tri)
    z_mean = (x.mean(axis=2) - means) / np.sqrt(np.diagonal(covs, axis1=1, axis2=2) / R)
    assert np.abs(z_mean).max() < 4.5
    centered = x - x.mean(axis=2, keepdims=True)
    products = centered[:, :, None, :] * centered[:, None, :, :]  # (n, p, p, R)
    z_cov = (products.mean(axis=-1) - covs) / (products.std(axis=-1) / np.sqrt(R))
    assert np.abs(z_cov).max() < 4.5
