"""The per-segment law and the coupling law against the moments of the
continuous model, solved by DOP853 at rtol 1e-13 (``ode_sums``,
``exact_node_moments``), draws of the per-segment law against the same
moments, the frozen step laws that share one eigenbasis against per-step
eigenbases, the gap laws of diagonal stacks against the node-propagator law
of the same stacks, the identity basis of diagonal frozen steps against the
eigenbasis route it replaces, and the laws at two fine steps, bit for bit.

Random stable systems with p = 1..3: commuting families V D(t) V^-1 whose
D(t) mixes real eigenvalues and complex-conjugate pairs, near-defective
families whose eigenbasis is not trusted, non-commuting A(t), and diagonal
A(t). A stack takes the gap law where A is diagonal at its nodes and the
node-propagator law elsewhere; ``test_gap_law.py`` checks both against
40-digit quadrature. The stack bound is drawn too, so stacks hold one
segment, split the segments of one length, or hold them all.
"""

import copy
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import linalg
from scipy.integrate import solve_ivp

from locstat import dynamics, models, stationary
from locstat.cli import _build_model
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
from locstat.experiments import _coupling_law, _joint_frozen
from locstat.noise import BROWNIAN, JumpSpec, LevyTriplet, triplet_moments
from locstat.rng import stream

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


# the systems whose A shares no basis at the nodes; they take the
# node-propagator law, as every stack whose A is not diagonal does
FINE = ("near_defective", "noncommuting")


@st.composite
def systems(draw, kinds=("commuting", "near_defective", "noncommuting")):
    kind = draw(st.sampled_from(kinds))
    J = draw(st.sampled_from(_NearDefective.JORDANS)) if kind == "near_defective" else None
    p = len(J) if kind == "near_defective" else draw(st.integers(2 if kinds == FINE else 1, 3))
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


def _solve(f, s0, s1, y0):
    """y(s1) of y' = f(s, y), y(s0) = y0, by DOP853 at rtol 1e-13."""
    if s1 == s0:
        return np.array(y0, dtype=float)
    return solve_ivp(f, (s0, s1), y0, method="DOP853", rtol=1e-13, atol=1e-30).y[:, -1]


def ode_sums(spec, N, a, b, xs=()):
    """D (p, p), drift (p,), covariance (p, p) and the jump weights
    (len(xs), p) of the gap [a, b] of rescaled time in the continuous model:
    Phi(b, s), int_s^b Phi(b, r) C(r / N) dr and int_s^b Phi C C' Phi' dr
    solved back from s = b to a (and to each x, whose weight is
    Phi(b, x) C(x / N)), with scalar coefficient calls."""
    p = spec.p

    def f(s, y):
        Phi = y[: p * p].reshape(p, p)
        v = Phi @ np.asarray(spec.C(s / N), dtype=float)
        return -np.concatenate([(Phi @ np.asarray(spec.A(s / N), dtype=float)).ravel(), v,
                                np.outer(v, v).ravel()])

    y0 = np.concatenate([np.eye(p).ravel(), np.zeros(p + p * p)])
    y = _solve(f, b, a, y0)
    weights = [_solve(f, b, x, y0)[: p * p].reshape(p, p) @ spec.C(x / N) for x in xs]
    return (y[: p * p].reshape(p, p), y[p * p: p * p + p], y[p * p + p:].reshape(p, p),
            np.array(weights).reshape(len(xs), p))


def law_node_moments(law):
    """State means (n_records, p) and covariances (n_records, p, p) of a
    Gaussian segment law, carried over the records one at a time."""
    p = law.mean.shape[1]
    m, V, means, covs = np.zeros(p), np.zeros((p, p)), [], []
    for D, mean, chol in zip(law.decay, law.mean, law.chol):
        m, V = D @ m + mean, D @ V @ D.T + chol @ chol.T
        means.append(m)
        covs.append(V)
    return np.array(means), np.array(covs)


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(
    spec=systems(FINE),
    N=st.sampled_from([1, 4, 32]),
    gaps=st.lists(st.integers(1, 40), min_size=0, max_size=6),
    repeat=st.integers(1, 3),
    first=st.integers(0, 64),
    stacking=st.sampled_from(["one segment", "two segments", "all"]),
)
def test_blocked_path_matches_per_step_reference(spec, N, gaps, repeat, first, stacking):
    # repeated gaps give runs of equal-length segments for the stacks to
    # split; the node moments of the node-propagator law, whatever its
    # stacks, are those of the continuous model, solved from record to record
    gaps = gaps * repeat
    rescaled = first * H + H * np.concatenate([[0], np.cumsum(gaps)])
    plan = build_plan(spec, N, rescaled, H, BURN_IN)
    segments = {"one segment": 1, "two segments": 2, "all": 2**40}[stacking]
    tri = LevyTriplet(1.0, 1.0)
    with mock.patch.object(dynamics, "_GAP_SEGMENTS", segments * spec.p**2):
        means, covs = law_node_moments(build_segment_law(plan, tri))
    ref_means, ref_covs = exact_node_moments(spec, plan, tri)
    for got, ref in ((means, ref_means), (covs, ref_covs)):
        np.testing.assert_allclose(got, ref, rtol=1e-10, atol=1e-10 * np.abs(ref).max())


def test_near_defective_family_takes_the_expm_fallback():
    for J in _NearDefective.JORDANS:
        A = _NearDefective(J)(np.linspace(0.0, 3.0, 7))
        _, V = np.linalg.eig(A)
        assert np.all(np.linalg.cond(V) > dynamics._COND_MAX)
        assert np.all(dynamics.eigenbasis(A)[3] > dynamics._COND_MAX)
    # a basis whose inverse comes out NaN must not pass as well conditioned
    with mock.patch.object(np.linalg, "inv", lambda V: np.full_like(V, np.nan)):
        assert np.all(dynamics.eigenbasis(A)[3] > dynamics._COND_MAX)


def _shares_one_basis(law) -> bool:
    """Whether the steps of the frozen step law ``law`` share one basis."""
    return law.shared is not None


def assert_matches_per_step_bases(law):
    """Propagators, d and G of ``law`` within 1e-13 of their scale of those
    from each step's own eigenbasis: the laws of its steps one at a time."""
    if law.M.shape[-1] == 1:  # entrywise, no eigenbasis
        return
    h = np.broadcast_to(law.h, law.M.shape[:-2])
    steps = [dynamics.StepLaw(law.M[k:k + 1], law.C[k:k + 1], h[k:k + 1]) for k in range(len(h))]
    refs = [np.concatenate(x) for x in zip(*((step.propagator(), *step.moments()) for step in steps))]
    for got, want in zip((law.propagator(), *law.moments()), refs):
        scale = max(np.abs(want).max(initial=0.0), np.finfo(float).tiny)
        assert np.abs(got - want).max(initial=0.0) <= 1e-13 * scale


# the model of the statespace_simulate benchmark workload, and its plan
STATESPACE_MODEL = {
    "kind": "statespace", "p": 2,
    "A_entries": [["-1 - 0.5*sin(t)", "0"], ["0", "-2"]],
    "B": ["1", "1"], "C": ["1", "1"], "commuting": True,
    "stability_margin": 0.5, "lipschitz": {"A": 0.5, "B": 0.0, "C": 0.0},
}
SPECS = {"diag2": models.diag2, "companion2": models.companion2,
         "statespace_simulate": lambda: _build_model(STATESPACE_MODEL)}


def _statespace_plan(spec):
    return build_plan(spec, 256, 256.0 * np.linspace(0.5, 1.5, 65), 0.01, 16.0)


@pytest.mark.parametrize("name", sorted(SPECS))
def test_shared_eigenbasis_matches_per_step_bases(name):
    # the frozen process: a constant A over steps of many lengths
    spec = SPECS[name]()
    for u in (0.5, 1.0):
        fr = stationary.freeze(spec, u)
        h = np.concatenate([[12.0], np.geomspace(1e-3, 4.0, 20)])
        law = dynamics.StepLaw(fr.A * h[:, None, None], fr.C, h)
        assert _shares_one_basis(law)
        assert_matches_per_step_bases(law)


def test_repeated_eigenvalue_at_the_reference_node_takes_the_propagator_law():
    # equal rates at t0 = 3 pi / 2, where sin(t0) = -1: A(t0) = -1.5 I up to
    # rounding, whose computed eigenbasis is trusted but does not diagonalize
    # the later nodes of the family, so the residual test rejects frozen
    # steps of these values; A is not diagonal at the nodes, so the stack
    # takes the node-propagator law, that of the ODE
    family = _Commuting(np.array([[1.0, 0.5], [0.2, 1.0]]), np.array([1.5, 1.5]),
                        np.array([0.3, 0.0]), np.array([1.0, 1.0]), 0)
    A = family(1.5 * np.pi + np.arange(64) / 64.0)
    assert np.ptp(np.linalg.eigvals(A[0])) == 0.0
    assert dynamics.eigenbasis(A[0])[3] <= dynamics._COND_MAX
    assert dynamics._shared_basis(A) is None
    spec = ModelSpec(2, family, _Vector(np.ones(2), np.zeros(2)), _Vector(np.array([1.0, 0.3]), np.zeros(2)),
                     Lipschitz(1.0, 1.0, 1.0), True, 1.0, "repeated")
    t0 = 1.5 * np.pi
    plan = build_plan(spec, 1, [t0, t0 + 1.0], 1.0 / 64.0, 8.0)
    diagonal, _ = dynamics._first_cut(spec, 1.0, np.array([t0]), 1.0)
    assert not diagonal
    decay, drift, cov, _, _, weight = dynamics._plan_sums(plan, True)
    units = np.array([0.0, 0.4, 0.9])
    want = ode_sums(spec, 1, t0, t0 + 1.0, t0 + units)
    got = (decay[1], drift[1], cov[1], weight(np.ones(3, dtype=np.int64), units))
    for g, w in zip(got, want):
        assert np.abs(g - w).max() <= 1e-10 * np.abs(w).max()


def _eigenbasis_shapes(run):
    """Shapes of the matrices :func:`dynamics.eigenbasis` receives during ``run()``."""
    with mock.patch.object(dynamics, "eigenbasis", wraps=dynamics.eigenbasis) as eig:
        run()
    return [call.args[0].shape for call in eig.call_args_list]


def test_commuting_stacks_take_one_eigenbasis_each():
    # no segment-law build takes an eigendecomposition: a diagonal stack
    # takes the gap law on the diagonal of A (diag2 and the statespace_simulate
    # model), every other stack the node-propagator law (companion2, constant;
    # a(t) K with a fixed companion matrix K; a non-commuting A)
    diag2 = models.diag2()
    times = np.linspace(0.5, 1.5, 65)
    assert _eigenbasis_shapes(lambda: simulate_yn(
        SPECS["statespace_simulate"](), BROWNIAN, 256, times, 0.01, 16.0,
        np.random.default_rng(1))) == []
    K = models.companion2().A(0.0)
    scaled = ModelSpec(2, lambda t: (1.0 + 0.5 * np.sin(np.asarray(t)))[..., None, None] * K,
                       diag2.B, diag2.C, Lipschitz(1.0, 0.0, 0.0), True, 0.5, "scaled")
    noncommuting = ModelSpec(2, _NonCommuting(np.array([[-2.0, 1.0], [-1.0, -3.0]]),
                                              0.5 * np.eye(2)[::-1]),
                             diag2.B, diag2.C, Lipschitz(1.0, 1.0, 1.0), False, 1.0, "noncommuting")
    for spec in (diag2, models.companion2(), scaled, noncommuting):
        assert _eigenbasis_shapes(lambda: build_segment_law(_statespace_plan(spec), JUMPS)) == []
    # the frozen steps of a diagonal A take the identity basis: the joint
    # frozen system of a scalar model takes none; those of companion2 share
    # one (2, 2) basis
    fr = _joint_frozen(models.tvcar_sin(), JUMPS, 0.9, 1.1)
    assert _eigenbasis_shapes(lambda: stationary._frozen_law(fr, JUMPS, np.full(8, 0.25))) == []
    fr = stationary.freeze(models.companion2(), 1.0)
    assert _eigenbasis_shapes(lambda: stationary._frozen_law(fr, JUMPS, np.full(8, 0.25))) == [(2, 2)]


# a jump driver, so that the law keeps the weight v_j of every cell
JUMPS = LevyTriplet(0.0, 1.0, JumpSpec(1.0, atoms=((1.0, 0.5), (-1.0, 0.5))))


def reference_path(spec, plan, times, values):
    """B(t_k)' x at the records of ``plan`` in the continuous model driven by
    the impulses ``values`` at the rescaled ``times``: x' = A(s / N) x solved
    one step at a time between consecutive events, records and impulses,
    and x += C(t / N) v at an impulse, with scalar coefficient calls."""
    N = plan.N
    events = sorted([(t, 0, v) for t, v in zip(times, values)]
                    + [(t, 1, 0.0) for t in plan.eval_rescaled])
    x, s0, out = np.zeros(spec.p), plan.start, []
    for t, record, v in events:
        x, s0 = _solve(lambda s, y: np.asarray(spec.A(s / N), dtype=float) @ y, s0, t, x), t
        if record:
            out.append(spec.B(t / N) @ x)
        else:
            x = x + spec.C(t / N) * v
    return np.array(out)


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(
    spec=systems(FINE),
    N=st.sampled_from([1, 4, 32]),
    gaps=st.lists(st.integers(1, 40), min_size=0, max_size=6),
    first=st.integers(0, 64),
    n_noisy=st.integers(1, 12),
    seed=st.integers(0, 2**32 - 1),
)
def test_segment_law_matches_the_per_step_reference(spec, N, gaps, first, n_noisy, seed):
    # noise in a few chosen cells: the law moves it to its record with the
    # jump weight of its cell and carries it over the later records by D_k;
    # the reference carries the same impulses through the ODE
    rescaled = first * H + H * np.concatenate([[0], np.cumsum(gaps)])
    plan = build_plan(spec, N, rescaled, H, BURN_IN)
    law = build_segment_law(plan, JUMPS)
    rng = np.random.default_rng(seed)
    cells = rng.choice(plan.n_steps, size=min(n_noisy, plan.n_steps), replace=False)
    inc = rng.standard_normal(cells.size)
    bounds = np.concatenate([[0], plan.record_steps])
    seg = np.searchsorted(bounds, cells, side="right") - 1
    # the uniform at the middle of a cell places the jump at the middle of it
    unit = (cells - bounds[seg] + 0.5) / (bounds[seg + 1] - bounds[seg])
    eta = np.zeros((len(rescaled), spec.p, 1))
    np.add.at(eta[:, :, 0], seg, law.jump_weight(seg, unit) * inc[:, None])
    got = run_segment_law(law, eta)[0]
    ref = reference_path(spec, plan, plan.start + (cells + 0.5) * H, inc)
    scale = max(np.abs(ref).max(), np.finfo(float).tiny)
    np.testing.assert_allclose(got, ref, rtol=0.0, atol=1e-10 * scale)


def coupling_reference(spec, u, N_list, h, burn_in, triplet):
    """E D_k^2 and its scale from the drift and covariance of the joint
    system over its burn-in [-n h, 0], n = ceil(burn_in / h), by
    :func:`ode_sums`: block k has A(u + r / N_k) and C(u + r / N_k), the last
    block A(u) and C(u), and one driver drives them all."""
    mom, p, K = triplet_moments(triplet), spec.p, len(N_list)
    fr = stationary.freeze(spec, u)
    n = int(np.ceil(burn_in / h - 1e-12))
    joint = ModelSpec(
        (K + 1) * p,
        lambda r: linalg.block_diag(*[spec.A(u + r / N) for N in N_list], fr.A),
        None,
        lambda r: np.concatenate([spec.C(u + r / N) for N in N_list] + [fr.C]),
        Lipschitz(1.0), False, 1.0, "joint")
    _, m, V, _ = ode_sums(joint, 1, -n * h, 0.0)
    m = mom.mu_L * m
    V = mom.Sigma_L * V
    b = np.zeros((K, (K + 1) * p))
    for k in range(K):
        b[k, k * p:(k + 1) * p], b[k, K * p:] = fr.B, -fr.B
    sq = np.einsum("ka,ab,kb->k", b, V, b) + (b @ m) ** 2
    scale = np.einsum("ka,ab,kb->k", np.abs(b), np.abs(V), np.abs(b)) + (np.abs(b) @ np.abs(m)) ** 2
    return sq, scale


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(
    spec=systems(FINE),
    N=st.sampled_from([1, 4, 32]),
    first=st.integers(1, 64),
)
def test_coupling_weights_match_the_per_step_reference(spec, N, first):
    # the exact E D_k^2 of the coupling law, k over N and 4 N, against the
    # drift and covariance of the continuous joint system
    u, tri = first * H / N, LevyTriplet(1.0, 1.0)
    law, b, targets = _coupling_law(spec, tri, u, (N, 4 * N), H, BURN_IN)
    sq, scale = coupling_reference(spec, u, (N, 4 * N), H, BURN_IN, tri)
    assert np.all(np.abs(targets**2 - sq) <= 1e-12 * scale), (targets**2, sq)
    assert law.decay.shape == (1, 3 * spec.p, 3 * spec.p) and b.shape == (2, 3 * spec.p)


def exact_node_moments(spec, plan, triplet):
    """State means (n_records, p) and covariances (n_records, p, p) of the
    continuous model from the zero state at the plan's start:
    m' = A m + mu_L C and V' = A V + V A' + Sigma_L C C', solved from record
    to record with scalar coefficient calls."""
    mom, p, N = triplet_moments(triplet), spec.p, plan.N

    def f(s, y):
        A, C = np.asarray(spec.A(s / N), dtype=float), np.asarray(spec.C(s / N), dtype=float)
        V = y[p:].reshape(p, p)
        return np.concatenate([A @ y[:p] + mom.mu_L * C,
                               (A @ V + V @ A.T + mom.Sigma_L * np.outer(C, C)).ravel()])

    y, s0, means, covs = np.zeros(p + p * p), plan.start, [], []
    for s1 in plan.eval_rescaled:
        y, s0 = _solve(f, s0, s1, y), s1
        means.append(y[:p])
        covs.append(y[p:].reshape(p, p))
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
    x = segment_states(law, draw_segment_noise(law, stream(seed, "moments", 0), R))
    means, covs = exact_node_moments(spec, plan, tri)
    z_mean = (x.mean(axis=2) - means) / np.sqrt(np.diagonal(covs, axis1=1, axis2=2) / R)
    assert np.abs(z_mean).max() < 4.5
    centered = x - x.mean(axis=2, keepdims=True)
    products = centered[:, :, None, :] * centered[:, None, :, :]  # (n, p, p, R)
    z_cov = (products.mean(axis=-1) - covs) / (products.std(axis=-1) / np.sqrt(R))
    assert np.abs(z_cov).max() < 4.5


@st.composite
def diagonal_systems(draw):
    """Diagonal A(t) = -diag(rates + amps (1 + sin(freqs t))) with p = 1..3:
    distinct rates, rates 1e-9 apart, exactly equal rates (equal amplitudes
    and frequencies too), and strong decay, whose decay over a segment
    underflows to 0."""
    p = draw(st.integers(1, 3))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kind = draw(st.sampled_from(["distinct", "near_equal", "equal", "strong"]))
    rates, amps, freqs = rng.uniform(1.0, 3.0, p), rng.uniform(0.0, 0.5, p), rng.uniform(0.5, 2.0, p)
    if kind == "near_equal":
        rates = rates[0] + 1e-9 * np.arange(p)
    elif kind == "equal":
        rates, amps, freqs = (np.full(p, x[0]) for x in (rates, amps, freqs))
    elif kind == "strong":
        rates = rates * 400.0
    B = _Vector(rng.standard_normal(p), 0.3 * rng.standard_normal(p))
    C = _Vector(rng.standard_normal(p), 0.3 * rng.standard_normal(p))
    return ModelSpec(p, _Commuting(np.eye(p), rates, amps, freqs, 0), B, C,
                     Lipschitz(1.0, 1.0, 1.0), True, 1.0, kind)


def assert_close_to_scale(got_outputs, want_outputs):
    """Each array within 1e-11 of the largest |entry| of its reference."""
    for got, want in zip(got_outputs, want_outputs, strict=True):
        scale = max(np.abs(want).max(initial=0.0), np.finfo(float).tiny)
        assert np.abs(got - want).max(initial=0.0) <= 1e-11 * scale, (got, want)


def assert_eigen_sums_match_the_scan(plan):
    """The law of ``plan`` (the gap law's sums over each gap on the diagonal
    of A, where A is diagonal at the nodes) and the node-propagator law of
    the same stacks (the matrix scan of its
    panels' node propagators), both the law of the continuous model: D,
    drift, covariance and jump weights within 1e-11 of the scale of each.
    At least one stack of gaps of nonzero length must take the gap law, or
    the two sides would be the same law."""
    gap_sums, took_gap_law = dynamics._gap_sums, []

    def recording(spec, N, lo, L, *rest):
        sums = gap_sums(spec, N, lo, L, *rest)
        took_gap_law.append(L > 0 and sums is not None)
        return sums

    with mock.patch.object(dynamics, "_gap_sums", recording):
        gap = _plan_outputs(plan)
    assert any(took_gap_law), "no stack of the plan takes the gap law"
    with mock.patch.object(dynamics, "_gap_sums", lambda *args: None):
        scan = _plan_outputs(plan)
    assert_close_to_scale(gap, scan)


@pytest.mark.parametrize("name", ["diag2", "statespace_simulate"])
def test_eigen_sums_match_the_matrix_scan(name):
    assert_eigen_sums_match_the_scan(
        build_plan(SPECS[name](), 256, 128.0 + 4.0 * np.arange(9), 1.0 / 16.0, 16.0))


def van_loan_outputs(A, C, lengths):
    """What :func:`_plan_outputs` gives for gaps of ``lengths`` under a
    constant A and C, from block exponentials (Van Loan 1978, IEEE TAC 23):
    D = e^{A L}, drift int_0^L e^{A s} C ds from expm([[A, C], [0, 0]] L),
    covariance int_0^L e^{A s} C C' e^{A' s} ds, and the weights
    e^{A (1 - f) L} C of jumps at the fractions f = 0.2 and 0.7 of each gap.
    The covariance of a piece of length l <= 1 is F22' F12 from
    expm([[-A, C C'], [0, A']] l), whose e^{-A l} would cancel away the
    digits of a long gap; the L pieces of a gap of integer length L join
    as G <- e^{A l} G e^{A' l} + G_piece."""
    p = len(C)
    drift_block, cov_block = np.zeros((p + 1, p + 1)), np.zeros((2 * p, 2 * p))
    drift_block[:p, :p], drift_block[:p, p] = A, C
    cov_block[:p, :p], cov_block[:p, p:], cov_block[p:, p:] = -A, np.outer(C, C), A.T
    decay, drift, cov, weight = [], [], [], []
    F = linalg.expm(cov_block)
    piece, step = F[p:, p:].T @ F[:p, p:], F[p:, p:].T
    for L in lengths:
        decay.append(linalg.expm(A * L))
        drift.append(linalg.expm(drift_block * L)[:p, p])
        G = np.zeros((p, p))
        for _ in range(int(L)):
            G = step @ G @ step.T + piece
        cov.append(G)
        weight += [linalg.expm(A * (1.0 - f) * L) @ C for f in (0.2, 0.7)]
    return np.array(decay), np.array(drift), np.array(cov), np.array(weight)


@pytest.mark.parametrize("spec", [models.companion2(), _build_model({
    "kind": "statespace", "p": 2, "A_entries": [["-1", "2"], ["-2", "-1"]], "B": ["1", "0"],
    "C": ["1", "-0.5"], "commuting": True, "stability_margin": 1.0,
    "lipschitz": {"A": 0.0, "B": 0.0, "C": 0.0}})], ids=["companion2", "complex_pair"])
def test_node_propagator_law_of_a_constant_a_matches_van_loan(spec):
    # a constant A that is not diagonal (eigenvalues -1 and -2, and -1 +- 2i)
    # takes the node-propagator law, the law of the continuous model: exact
    # against block exponentials, within 1e-11 of the scale of each output
    plan = build_plan(spec, 256, 128.0 + 4.0 * np.arange(9), 1.0 / 16.0, 16.0)
    lengths = np.diff(np.concatenate([[0], plan.record_steps])) * plan.h
    assert lengths.tolist() == [16.0] + [4.0] * 8
    diagonal, _ = dynamics._first_cut(spec, plan.N, np.array([plan.start]), 1.0)
    assert not diagonal
    A, C = stationary.freeze(spec, 1.0).A, stationary.freeze(spec, 1.0).C
    assert_close_to_scale(_plan_outputs(plan), van_loan_outputs(A, C, lengths))


@pytest.mark.parametrize("spec", [models.diag2(), models.tvcar_sin()], ids=lambda s: s.model_id)
def test_eigen_sums_match_the_matrix_scan_on_a_4096_step_segment(spec):
    # one long burn-in segment at N = 1, where A moves across it
    plan = build_plan(spec, 1, [4.0], 1.0 / 256.0, 16.0)
    assert plan.record_steps.tolist() == [4096]
    assert_eigen_sums_match_the_scan(plan)


@settings(max_examples=15, deadline=None, derandomize=True, database=None)
@given(
    spec=diagonal_systems(),
    N=st.sampled_from([1, 4, 32]),
    gaps=st.lists(st.integers(1, 40), min_size=0, max_size=6),
    first=st.integers(0, 64),
)
def test_eigen_sums_match_the_matrix_scan_on_random_systems(spec, N, gaps, first):
    rescaled = first * H + H * np.concatenate([[0], np.cumsum(gaps)])
    assert_eigen_sums_match_the_scan(build_plan(spec, N, rescaled, H, BURN_IN))


def test_shared_and_scalar_stacks_take_no_matrix_scan():
    # the statespace_simulate plan and p = 1 plans are summed in eigen
    # coordinates alone, with or without jumps; a non-commuting plan scans
    plans = [_statespace_plan(SPECS["statespace_simulate"]()),
             build_plan(models.tvcar_sin(), 64, 64.0 + np.arange(-20, 21), H, BURN_IN),
             build_plan(models.ou(1.0), 256, 256.0 + np.arange(-8, 9), 1.0 / 64.0, BURN_IN)]
    with mock.patch.object(dynamics, "_prefix_products", wraps=dynamics._prefix_products) as scan:
        for plan in plans:
            for tri in (BROWNIAN, JUMPS):
                build_segment_law(plan, tri)
        assert scan.call_count == 0
        spec = ModelSpec(2, _NonCommuting(np.array([[-2.0, 1.0], [-1.0, -3.0]]), 0.5 * np.eye(2)[::-1]),
                         models.diag2().B, models.diag2().C, Lipschitz(1.0, 1.0, 1.0), False, 1.0,
                         "noncommuting")
        build_segment_law(_statespace_plan(spec), BROWNIAN)
        assert scan.call_count > 0


def _eigenbasis_route(M):
    """``dynamics._shared_basis`` without the identity shortcut, as every
    stack took it before: V and V^-1 from :func:`dynamics.eigenbasis` of the
    first matrix and w = diag(V^-1 M V)."""
    p = M.shape[-1]
    _, V, Vinv, est = dynamics.eigenbasis(M.reshape(-1, p, p)[0])
    return np.diagonal(Vinv @ M @ V, axis1=-2, axis2=-1).copy(), V, Vinv, est


def _plan_outputs(plan):
    """D, drift and covariance of every segment of ``plan``, and the jump
    weights of two jumps per segment, at the fractions 0.2 and 0.7 of it."""
    decay, drift, cov, _, _, weight = dynamics._plan_sums(plan, True)
    seg = np.repeat(np.arange(decay.shape[0]), 2)
    return decay, drift, cov, weight(seg, np.tile([0.2, 0.7], decay.shape[0]))


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(
    spec=diagonal_systems(),
    N=st.sampled_from([1, 4, 32]),
    gaps=st.lists(st.integers(1, 40), min_size=0, max_size=6),
    first=st.integers(0, 64),
)
def test_identity_basis_matches_the_eigenbasis_route_bit_for_bit(spec, N, gaps, first):
    # frozen steps of a diagonal A skip the eigendecomposition, the residual
    # test and the products with V; for diagonal A, V is a signed permutation
    # of I, so the eigenbasis route rounds the same and gives the same numbers
    rescaled = first * H + H * np.concatenate([[0], np.cumsum(gaps)])
    fr = stationary.freeze(spec, rescaled[0] / N)
    h = np.concatenate([[12.0], np.diff(rescaled)])
    law = dynamics.StepLaw(fr.A * h[:, None, None], fr.C, h)
    assert law.shared[1] is None
    ref = copy.copy(law)
    ref.__dict__["shared"] = _eigenbasis_route(law.M)
    for a, b in zip((law.propagator(), *law.moments()), (ref.propagator(), *ref.moments())):
        assert np.array_equal(a, b)


@pytest.mark.parametrize("entry", [0.5, 1e-300])
@pytest.mark.parametrize("at", [0, 5])
def test_one_nonzero_off_diagonal_entry_takes_the_residual_test(entry, at):
    # the identity basis needs every off-diagonal entry of every step to be 0;
    # one step with a nonzero entry sends the stack through eigenbasis and the
    # residual test, which keeps a shared basis only for a residual below
    # _RESIDUAL_MAX of the step's size
    h = 1.0 / 64.0
    M = _Commuting(np.eye(2), np.array([1.0, 2.0]), np.array([0.5, 0.0]), np.array([1.0, 1.0]),
                   0)(np.arange(8) * h) * h
    M[at, 0, 1] = entry
    law = dynamics.StepLaw(M, np.ones(2), h)
    assert _eigenbasis_shapes(lambda: law.shared) == [(2, 2)]
    if entry == 0.5:
        assert law.shared is None
    else:
        assert law.shared[1] is not None and _shares_one_basis(law)
        assert_matches_per_step_bases(law)


def _same_bits(a, b) -> bool:
    """Equal shape, dtype and bytes: unlike ``array_equal``, tells -0 from +0."""
    return (a.shape == b.shape and a.dtype == b.dtype
            and np.ascontiguousarray(a).tobytes() == np.ascontiguousarray(b).tobytes())


def assert_bits_do_not_depend_on_the_fine_step(plan):
    """The D, drift, covariance and jump weights of ``plan`` are the bytes of
    the plan of the same records at a quarter of its fine step: a gap law is
    set by the record times alone, and every node here is dyadic."""
    fine = build_plan(plan.spec, plan.N, plan.eval_rescaled, plan.h / 4.0,
                      plan.record_steps[0] * plan.h)
    for a, b in zip(_plan_outputs(plan), _plan_outputs(fine)):
        assert _same_bits(a, b)


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(
    spec=st.one_of(diagonal_systems(), systems(("commuting",))),
    N=st.sampled_from([1, 4, 32]),
    gaps=st.lists(st.integers(1, 40), min_size=0, max_size=6),
    first=st.integers(0, 64),
)
def test_gap_law_bits_do_not_depend_on_the_fine_step(spec, N, gaps, first):
    # diagonal stacks with distinct, 1e-9-apart and equal rates and with
    # strong decay take the gap law; commuting ones with complex pairs the
    # node-propagator law
    rescaled = first * H + H * np.concatenate([[0], np.cumsum(gaps)])
    assert_bits_do_not_depend_on_the_fine_step(build_plan(spec, N, rescaled, H, BURN_IN))


def _scaled_companion():
    K = models.companion2().A(0.0)
    diag2 = models.diag2()
    return ModelSpec(2, lambda t: (1.0 + 0.5 * np.sin(np.asarray(t)))[..., None, None] * K,
                     diag2.B, diag2.C, Lipschitz(1.0, 0.0, 0.0), True, 0.5, "scaled")


@pytest.mark.parametrize("name", ["diag2", "companion2", "statespace_simulate", "scaled"])
def test_step_major_sums_keep_their_bits_on_the_shipped_shapes(name):
    # the shape of the statespace_simulate workload on dyadic records, 64
    # gaps of 4 and a burn-in of 16; the companion matrix K of companion2 and
    # a(t) K take the node-propagator law
    spec = _scaled_companion() if name == "scaled" else SPECS[name]()
    plan = build_plan(spec, 256, 128.0 + 4.0 * np.arange(65), 1.0 / 64.0, 16.0)
    assert_bits_do_not_depend_on_the_fine_step(plan)


@pytest.mark.parametrize("spec", [models.diag2(), models.tvcar_sin()], ids=lambda s: s.model_id)
def test_step_major_sums_keep_their_bits_on_a_4096_step_segment(spec):
    plan = build_plan(spec, 1, [4.0], 1.0 / 256.0, 16.0)
    assert plan.record_steps.tolist() == [4096]
    assert_bits_do_not_depend_on_the_fine_step(plan)


def test_step_major_sums_keep_their_bits_on_the_joint_coupling_system():
    # the joint system of _coupling_law for a scalar model at four N is
    # diagonal with p = 5: one segment, the whole burn-in, and its law, rows
    # and targets do not move with the fine step
    laws = [_coupling_law(models.tvcar_sin(), JUMPS, 1.0, [4, 16, 64, 256], h, 8.0)
            for h in (1.0 / 64.0, 1.0 / 256.0)]
    seg, unit = np.zeros(3, dtype=np.int64), np.array([0.1, 0.5, 0.99])
    for (law, rows, targets), (ref, ref_rows, ref_targets) in zip(laws, laws[1:]):
        assert law.decay.shape == (1, 5, 5) and rows.shape == (4, 5)
        for a, b in ((law.decay, ref.decay), (law.mean, ref.mean), (law.chol, ref.chol),
                     (rows, ref_rows), (targets, ref_targets),
                     (law.jump_weight(seg, unit), ref.jump_weight(seg, unit))):
            assert _same_bits(a, b)


@pytest.mark.parametrize("p", [1, 2, 3])
def test_step_major_sums_of_a_stack_of_empty_segments(p):
    # a record at step 0 gives segments of no length: D = I and no noise
    spec = ModelSpec(p, lambda t: -np.eye(p), models.diag2().B, lambda t: np.ones(p),
                     Lipschitz(0.0, 0.0, 0.0), True, 1.0, "empty")
    D, drift, cov, span, _ = dynamics._gap_sums(spec, 1.0, np.zeros(3), 0.0, np.arange(3), None,
                                                False, None)
    assert span == 0.0
    assert np.array_equal(D, np.broadcast_to(np.eye(p), (3, p, p)))
    assert not drift.any() and not cov.any() and not np.signbit(cov).any()


def assert_close(got, want):
    """Within 1e-12 of each value, or 1e-13 of the largest where values cancel
    (as in ``test_gap_law.py``)."""
    scale = np.abs(want).max(initial=0.0)
    assert np.all(np.abs(got - want) <= 1e-12 * np.abs(want) + 1e-13 * scale), (got, want)


def ode_weights(plan, seg, unit):
    """Weights of jumps at the fractions ``unit`` of the whole gaps of the
    segments ``seg`` of ``plan``, one :func:`ode_sums` solve each."""
    bounds = plan.start + np.concatenate([[0], plan.record_steps]) * plan.h
    return np.array([ode_sums(plan.spec, plan.N, bounds[k], bounds[k + 1],
                              [bounds[k] + u * (bounds[k + 1] - bounds[k])])[3][0]
                     for k, u in zip(seg, unit)])


@pytest.mark.parametrize("kinds", [("commuting",), FINE], ids=["shared", "no_shared_basis"])
@settings(max_examples=20, deadline=None, derandomize=True, database=None)
@given(
    data=st.data(),
    N=st.sampled_from([1, 4, 32]),
    gaps=st.lists(st.integers(1, 24), min_size=1, max_size=4),
    first=st.integers(0, 64),
    block=st.sampled_from([None, 1]),
    seed=st.integers(0, 2**32 - 1),
)
def test_panel_rows_match_the_ode_reference(kinds, data, N, gaps, first, block, seed):
    # every stack takes the node-propagator law (commuting ones too, in place
    # of their gap law), its panels scanned in one block or one panel a
    # block, whose D, drift and covariance are those of one block; the jump
    # rows, on the carries to the record, are the weights of the ODE
    spec = data.draw(systems(kinds))
    rescaled = first * H + H * np.concatenate([[0], np.cumsum(gaps)])
    plan = build_plan(spec, N, rescaled, H, BURN_IN)
    rng = np.random.default_rng(seed)
    seg = np.repeat(np.arange(len(rescaled)), 2)
    unit = rng.random(seg.size)
    with mock.patch.object(dynamics, "_gap_sums", lambda *args: None):
        whole = dynamics._plan_sums(plan, True)
        with mock.patch.object(dynamics, "_GAP_ENTRIES", 1 if block else 2**40):
            decay, drift, cov, span, _, weights = dynamics._plan_sums(plan, True)
    assert np.array_equal(span, np.diff(np.concatenate([[0], plan.record_steps])) * H)
    for got, want in zip((decay, drift, cov), whole):
        assert_close(got, want)
    _, bases, expm, _ = weights.table
    assert expm is None and bases is not None  # the carries to the record
    got, want = weights(seg, unit), ode_weights(plan, seg, unit)
    assert np.abs(got - want).max() <= 1e-10 * np.abs(want).max()


@pytest.mark.parametrize("basis", ["identity", "eigenbasis"])
@settings(max_examples=12, deadline=None, derandomize=True, database=None)
@given(
    data=st.data(),
    u=st.floats(0.0, 3.0),
    gaps=st.lists(st.sampled_from([0.01, 0.25, 1.0, 3.0]), min_size=1, max_size=5),
    seed=st.integers(0, 2**32 - 1),
)
def test_frozen_step_rows_match_expm(basis, data, u, gaps, seed):
    # a frozen step of length h weighs a jump at the fraction U by
    # expm(A h (1 - U)) C, on the identity basis of a diagonal A or on the
    # shared eigenbasis of a commuting one with p >= 2, complex where A has
    # complex-conjugate pairs
    if basis == "identity":
        spec = data.draw(diagonal_systems())
    else:
        spec = data.draw(systems(("commuting",)).filter(lambda spec: spec.p >= 2))
    fr = stationary.freeze(spec, u)
    law = stationary._frozen_law(fr, JUMPS, gaps)
    all_gaps = np.concatenate([[12.0 / fr.margin], gaps])
    assert np.array_equal(law.jump_mean, all_gaps)
    seg = np.repeat(np.arange(all_gaps.size), 3)
    unit = np.random.default_rng(seed).random(seg.size)
    _, bases, _, single = law.jump_weight.table
    assert single and (bases is None) == (basis == "identity")
    want = np.array([linalg.expm(fr.A * all_gaps[k] * (1.0 - U)) @ fr.C for k, U in zip(seg, unit)])
    assert_close(law.jump_weight(seg, unit), want)


def test_a_long_fine_step_burn_in_stops_where_its_carry_is_0():
    # a burn-in of 1.6e5 fine steps: a non-commuting p = 2 model, whose
    # node-propagator law scans the burn-in back from the record in
    # blocks of 195 panels (_GAP_ENTRIES node values of A); the carry to the
    # record, about e^{-2.5 s}, is 0 after the first block, so the 4,727
    # panels before it are not built, the span is one block, D is 0, and the
    # drift, covariance and jump weights are those of a shorter burn-in
    spec = ModelSpec(2, _NonCommuting(np.array([[-2.0, 1.0], [-1.0, -3.0]]), 0.5 * np.eye(2)[::-1]),
                     models.diag2().B, models.diag2().C, Lipschitz(1.0, 1.0, 1.0), False, 1.0,
                     "noncommuting")
    built = []
    node_propagators = dynamics._node_propagators

    def counted(A, C, r):
        built.append(A.shape[0] * A.shape[1])
        return node_propagators(A, C, r)

    with mock.patch.object(dynamics, "_node_propagators", counted):
        decay, drift, cov, span, _, weights = dynamics._plan_sums(
            build_plan(spec, 16, [16.0, 17.0], 1.0 / 16.0, 1e4), True)
    block = dynamics._GAP_ENTRIES // (21 * 4)
    assert sorted(built) == [1, block]
    # 4,922 panels of 1e4 / 4922 (8 / max ||A||_F, max ||A||_F about 3.94)
    assert span[0] == 1e4 - (4922 - block) * (1e4 / 4922) and span[1] == 1.0
    assert not decay[0].any()
    ref = dynamics._plan_sums(build_plan(spec, 16, [16.0, 17.0], 1.0 / 16.0, 1024.0), True)
    for got, want in zip((drift, cov), ref[1:3]):
        assert_close(got, want)
    seg, unit = np.array([0, 0, 0, 1]), np.array([0.0, 0.5, 0.999, 0.5])
    ref_unit = np.where(seg == 0, 1.0 - (1.0 - unit) * span[0] / ref[3][0], unit)
    assert_close(weights(seg, unit), ref[5](seg, ref_unit))
