"""The per-segment law and the coupling law against per-step reference
loops, draws of the per-segment law against the exact moments of the
recursion with its noise inside each step, the step laws of a stack that
shares one eigenbasis against per-step eigenbases, the eigen-coordinate
segment sums against the matrix scan, the identity basis of diagonal
stacks against the eigenbasis route it replaces, and the step-major segment
sums against a frozen copy of the step-second layout they replace, bit for
bit.

Random stable systems with p = 1..3: commuting families V D(t) V^-1 whose
D(t) mixes real eigenvalues and complex-conjugate pairs, near-defective
families whose eigenbasis forces the expm fallback, and non-commuting A(t).
The stack bound is drawn too, so stacks hold one segment, split the segments
of one length, or hold them all.
"""

import copy
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import linalg

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


def _magnus(A, left, N, h):
    """Fourth-order Magnus exponent of dX/ds = A(s/N) X over [left, left + h]:
    (h/2)(A_1 + A_2) + (sqrt(3) h^2 / 12)[A_2, A_1], A_1 and A_2 at the Gauss
    nodes left + (1/2 -+ sqrt(3)/6) h."""
    A1, A2 = (A((left + (0.5 + c * np.sqrt(3.0) / 6.0) * h) / N) for c in (-1.0, 1.0))
    return 0.5 * h * (A1 + A2) + (np.sqrt(3.0) * h * h / 12.0) * (A2 @ A1 - A1 @ A2)


def reference_path(spec, N, times, h, burn_in, inc, rest=0.0):
    """One step at a time, with scalar coefficient calls. The step propagator
    is e^W, W the Magnus exponent of the step, and the increment of a step
    enters with weight e^{W rest} C(mid), as if it fell with the fraction
    ``rest`` of the step still to run."""
    rescaled = N * times
    n_burn = int(np.ceil(burn_in / h - 1e-12))
    record_steps = n_burn + np.concatenate([[0], np.cumsum(np.rint(np.diff(rescaled) / h))])
    start = rescaled[0] - n_burn * h
    x = np.zeros(spec.p)
    values = []
    for j in range(int(record_steps[-1])):
        left = start + j * h
        W = _magnus(spec.A, left, N, h)
        noise = spec.C((left + 0.5 * h) / N) * inc[j]
        if rest:
            noise = linalg.expm(W * rest) @ noise
        x = linalg.expm(W) @ x + noise
        if j + 1 in record_steps:
            values.append(spec.B((start + (j + 1) * h) / N) @ x)
    return np.array(values)


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
    spec=systems(),
    N=st.sampled_from([1, 4, 32]),
    gaps=st.lists(st.integers(1, 40), min_size=0, max_size=6),
    repeat=st.integers(1, 3),
    first=st.integers(0, 64),
    stacking=st.sampled_from(["one segment", "two of the longest gap", "all"]),
)
def test_blocked_path_matches_per_step_reference(spec, N, gaps, repeat, first, stacking):
    # repeated gaps give runs of equal-length segments for the stacks to
    # split; the node moments of the law, whatever its stacks, are those of
    # the exact recursion one fine step at a time
    gaps = gaps * repeat
    rescaled = first * H + H * np.concatenate([[0], np.cumsum(gaps)])
    plan = build_plan(spec, N, rescaled, H, BURN_IN)
    entries = {
        "one segment": 1,
        "two of the longest gap": 2 * spec.p**2 * max(gaps, default=1),
        "all": 2**40,
    }[stacking]
    tri = LevyTriplet(1.0, 1.0)
    with mock.patch.object(dynamics, "_BLOCK_ENTRIES", entries):
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
    """Whether the steps of ``law`` share one V, a broadcast view."""
    V = law.basis[1]
    return V is not None and V.strides[:-2] == (0,) * (V.ndim - 2)


def assert_matches_per_step_bases(law):
    """Propagators, d and G of ``law`` within 1e-13 of their scale of those
    from each step's own eigenbasis."""
    if law.M.shape[-1] == 1:  # entrywise, no eigenbasis
        return
    ref = copy.copy(law)
    ref.__dict__["basis"] = dynamics.eigenbasis(law.M)
    for got, want in zip((law.propagator(), *law.moments()), (ref.propagator(), *ref.moments())):
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
    spec = SPECS[name]()
    for *_, law in dynamics._segment_stacks(_statespace_plan(spec)):
        assert _shares_one_basis(law)
        assert_matches_per_step_bases(law)
    # the frozen process: a constant A over steps of many lengths
    fr = stationary.freeze(spec, 1.0)
    h = np.concatenate([[12.0], np.geomspace(1e-3, 4.0, 20)])
    law = dynamics.StepLaw(fr.A * h[:, None, None], fr.C, h)
    assert _shares_one_basis(law)
    assert_matches_per_step_bases(law)


def test_repeated_eigenvalue_at_the_reference_step_takes_per_step_bases():
    # equal rates at t0 = 3 pi / 2, where sin(t0) = -1: A(t0) = -1.5 I up to
    # rounding, whose computed eigenbasis is trusted but does not diagonalize
    # the later steps of the family, so the residual test sends the stack to
    # per-step bases
    family = _Commuting(np.array([[1.0, 0.5], [0.2, 1.0]]), np.array([1.5, 1.5]),
                        np.array([0.3, 0.0]), np.array([1.0, 1.0]), 0)
    A = family(1.5 * np.pi + np.arange(64) / 64.0)
    assert np.ptp(np.linalg.eigvals(A[0])) == 0.0
    assert dynamics.eigenbasis(A[0])[3] <= dynamics._COND_MAX
    law = dynamics.StepLaw(A / 64.0, np.array([1.0, 0.3]), 1.0 / 64.0)
    assert not _shares_one_basis(law)
    assert_matches_per_step_bases(law)


def _eigenbasis_shapes(run):
    """Shapes of the matrices :func:`dynamics.eigenbasis` receives during ``run()``."""
    with mock.patch.object(dynamics, "eigenbasis", wraps=dynamics.eigenbasis) as eig:
        run()
    return [call.args[0].shape for call in eig.call_args_list]


def test_commuting_stacks_take_one_eigenbasis_each():
    # a diagonal stack takes the identity basis, with no eigendecomposition:
    # diag2, the statespace_simulate model and the joint frozen system of a
    # scalar model
    diag2 = models.diag2()
    plan = _statespace_plan(diag2)
    assert _eigenbasis_shapes(lambda: build_segment_law(plan, JUMPS)) == []
    times = np.linspace(0.5, 1.5, 65)
    assert _eigenbasis_shapes(lambda: simulate_yn(
        SPECS["statespace_simulate"](), BROWNIAN, 256, times, 0.01, 16.0,
        np.random.default_rng(1))) == []
    fr = _joint_frozen(models.tvcar_sin(), JUMPS, 0.9, 1.1)
    assert _eigenbasis_shapes(lambda: stationary._frozen_law(fr, JUMPS, np.full(8, 0.25))) == []
    # a commuting stack with off-diagonal entries takes one (2, 2) basis:
    # companion2, constant, and a(t) K with a fixed companion matrix K
    K = models.companion2().A(0.0)
    scaled = ModelSpec(2, lambda t: (1.0 + 0.5 * np.sin(np.asarray(t)))[..., None, None] * K,
                       diag2.B, diag2.C, Lipschitz(1.0, 0.0, 0.0), True, 0.5, "scaled")
    for spec in (models.companion2(), scaled):
        shapes = _eigenbasis_shapes(lambda: build_segment_law(_statespace_plan(spec), JUMPS))
        assert shapes and all(shape == (2, 2) for shape in shapes)
    # a non-commuting stack fails the residual test and is decomposed whole
    spec = ModelSpec(2, _NonCommuting(np.array([[-2.0, 1.0], [-1.0, -3.0]]), 0.5 * np.eye(2)[::-1]),
                     diag2.B, diag2.C, Lipschitz(1.0, 1.0, 1.0), False, 1.0, "noncommuting")
    plan = _statespace_plan(spec)
    stacks = [steps.shape + (2, 2) for _, steps, *_ in dynamics._segment_stacks(plan)]
    shapes = _eigenbasis_shapes(lambda: build_segment_law(plan, JUMPS))
    assert [shape for shape in shapes if shape != (2, 2)] == stacks


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
    for *_, step_law in dynamics._segment_stacks(plan):
        assert_matches_per_step_bases(step_law)
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


def coupling_reference(spec, u, N_list, h, burn_in, triplet):
    """E D_k^2 and its scale from the moment recursion of the joint system,
    one step at a time with scalar coefficient calls: block k of a step takes
    the Magnus exponent of A(u + r / N_k) and C(u + r / N_k) at its midpoint,
    the last block h A(u) and C(u), and P, d and G come from expm and Van
    Loan's block exponentials, as in :func:`exact_node_moments`."""
    mom, p, K = triplet_moments(triplet), spec.p, len(N_list)
    fr = stationary.freeze(spec, u)
    n = int(np.ceil(burn_in / h - 1e-12))
    m, V = np.zeros((K + 1) * p), np.zeros(((K + 1) * p,) * 2)
    for j in range(n):
        left = -(n - j) * h
        W = linalg.block_diag(*[_magnus(spec.A, N * u + left, N, h) for N in N_list], h * fr.A)
        C = np.concatenate([spec.C(u + (left + 0.5 * h) / N) for N in N_list] + [fr.C])
        q = W.shape[0]
        d = linalg.expm(np.block([[W, h * C[:, None]], [np.zeros((1, q + 1))]]))[:q, q]
        F = linalg.expm(np.block([[-W, h * np.outer(C, C)], [np.zeros((q, q)), W.T]]))
        P = linalg.expm(W)
        m = P @ m + mom.mu_L * d
        V = P @ V @ P.T + mom.Sigma_L * F[q:, q:].T @ F[:q, q:]
    b = np.zeros((K, (K + 1) * p))
    for k in range(K):
        b[k, k * p:(k + 1) * p], b[k, K * p:] = fr.B, -fr.B
    sq = np.einsum("ka,ab,kb->k", b, V, b) + (b @ m) ** 2
    scale = np.einsum("ka,ab,kb->k", np.abs(b), np.abs(V), np.abs(b)) + (np.abs(b) @ np.abs(m)) ** 2
    return sq, scale


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(
    spec=systems(),
    N=st.sampled_from([1, 4, 32]),
    first=st.integers(1, 64),
)
def test_coupling_weights_match_the_per_step_reference(spec, N, first):
    # the exact E D_k^2 of the coupling law, k over N and 4 N, against the
    # moment recursion of the joint system one fine step at a time
    u, tri = first * H / N, LevyTriplet(1.0, 1.0)
    law, b, targets = _coupling_law(spec, tri, u, (N, 4 * N), H, BURN_IN)
    sq, scale = coupling_reference(spec, u, (N, 4 * N), H, BURN_IN, tri)
    assert np.all(np.abs(targets**2 - sq) <= 1e-12 * scale), (targets**2, sq)
    assert law.decay.shape == (1, 3 * spec.p, 3 * spec.p) and b.shape == (2, 3 * spec.p)


def exact_node_moments(spec, plan, triplet):
    """State means (n_records, p) and covariances (n_records, p, p) of the
    recursion with the exact in-step noise, one step at a time with scalar
    coefficient calls: m <- P m + mu_L d, V <- P V P' + Sigma_L G. With W the
    Magnus exponent of a step and C at its midpoint, P = e^W, and the drift
    weight d = int_0^h e^{Wr/h} dr C and covariance G = int_0^h e^{Wr/h} CC'
    e^{W'r/h} dr come from Van Loan's block exponentials (Van Loan 1978, IEEE
    TAC 23)."""
    mom, p, h, N = triplet_moments(triplet), spec.p, plan.h, plan.N
    m, V, means, covs = np.zeros(p), np.zeros((p, p)), [], []
    for j in range(plan.n_steps):
        left = plan.start + j * h
        W, C = _magnus(spec.A, left, N, h), spec.C((left + 0.5 * h) / N)
        P = linalg.expm(W)
        d = linalg.expm(np.block([[W, h * C[:, None]], [np.zeros((1, p + 1))]]))[:p, p]
        F = linalg.expm(np.block([[-W, h * np.outer(C, C)], [np.zeros((p, p)), W.T]]))
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
    x = segment_states(law, draw_segment_noise(law, stream(seed, "moments", 0), R))
    means, covs = exact_node_moments(spec, plan, tri)
    z_mean = (x.mean(axis=2) - means) / np.sqrt(np.diagonal(covs, axis1=1, axis2=2) / R)
    assert np.abs(z_mean).max() < 4.5
    centered = x - x.mean(axis=2, keepdims=True)
    products = centered[:, :, None, :] * centered[:, None, :, :]  # (n, p, p, R)
    z_cov = (products.mean(axis=-1) - covs) / (products.std(axis=-1) / np.sqrt(R))
    assert np.abs(z_cov).max() < 4.5


def _both_sums(plan):
    """For every stack of ``plan`` that takes the eigen-coordinate form: its
    decay, drift, covariance and jump weights (at the fractions 0.2 and 0.7
    of every step still to run) by :func:`dynamics._eigen_sums` and by the
    matrix scan :func:`dynamics._scan_sums`."""
    pairs = []
    for _, steps, *_, law in dynamics._segment_stacks(plan):
        shared = law.shared
        if steps.size == 0 or shared is None or shared[3] > np.sqrt(dynamics._COND_MAX):
            continue
        pair = []
        for sums in (dynamics._eigen_sums, dynamics._scan_sums):
            weights = dynamics.JumpWeights(plan.n_steps, plan.spec.p)
            D, drift, cov = sums(law, steps, weights)
            rows = np.repeat(steps.ravel(), 2)
            rest = np.tile([0.2, 0.7], steps.size)
            pair.append((D, drift, cov, weights(rows, rest)))
        pairs.append(pair)
    return pairs


def assert_eigen_sums_match_the_scan(plan):
    """Drift, covariance and jump weights within 1e-13 of their scale, and
    the decay within 1e-13 of the scale of a propagator, 1: a decay that has
    fallen to e^-16 carries the rounding of its exponents' sum, which no form
    avoids (on the companion2 burn-in of 1600 steps the eigen form and the
    scan are 3.0e-13 and 4.8e-13 of the decay from its 40-digit value)."""
    pairs = _both_sums(plan)
    assert pairs
    for eigen, scan in pairs:
        for i, (got, want) in enumerate(zip(eigen, scan)):
            scale = max(np.abs(want).max(initial=0.0), 1.0 if i == 0 else np.finfo(float).tiny)
            assert np.abs(got - want).max(initial=0.0) <= 1e-13 * scale, i


@pytest.mark.parametrize("name", sorted(SPECS))
def test_eigen_sums_match_the_matrix_scan(name):
    assert_eigen_sums_match_the_scan(_statespace_plan(SPECS[name]()))


@pytest.mark.parametrize("spec", [models.diag2(), models.tvcar_sin()], ids=lambda s: s.model_id)
def test_eigen_sums_match_the_matrix_scan_on_a_4096_step_segment(spec):
    # the suffix sums of one long burn-in segment come from one cumsum, whose
    # rounding grows with the number of steps
    plan = build_plan(spec, 1, [4.0], 1.0 / 256.0, 16.0)
    assert plan.record_steps.tolist() == [4096]
    assert_eigen_sums_match_the_scan(plan)


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(
    spec=systems(),
    N=st.sampled_from([1, 4, 32]),
    gaps=st.lists(st.integers(1, 40), min_size=0, max_size=6),
    first=st.integers(0, 64),
)
def test_eigen_sums_match_the_matrix_scan_on_random_systems(spec, N, gaps, first):
    rescaled = first * H + H * np.concatenate([[0], np.cumsum(gaps)])
    plan = build_plan(spec, N, rescaled, H, BURN_IN)
    if _both_sums(plan):
        assert_eigen_sums_match_the_scan(plan)


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


def _eigenbasis_route(law):
    """A copy of ``law`` on the eigenbasis of its first step, as every stack
    took it before the identity basis: V, V^-1 from :func:`dynamics.eigenbasis`
    and w_k = diag(V^-1 M_k V)."""
    p = law.M.shape[-1]
    _, V, Vinv, est = dynamics.eigenbasis(law.M.reshape(-1, p, p)[0])
    ref = copy.copy(law)
    ref.__dict__.pop("basis", None)
    ref.__dict__["shared"] = (np.diagonal(Vinv @ law.M @ V, axis1=-2, axis2=-1).copy(), V, Vinv, est)
    return ref


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(
    spec=diagonal_systems(),
    N=st.sampled_from([1, 4, 32]),
    gaps=st.lists(st.integers(1, 40), min_size=0, max_size=6),
    first=st.integers(0, 64),
    jumps=st.booleans(),
)
def test_identity_basis_matches_the_eigenbasis_route_bit_for_bit(spec, N, gaps, first, jumps):
    # a diagonal stack skips the eigendecomposition, the residual test and the
    # products with V; for diagonal M, V is a signed permutation of I, so the
    # eigenbasis route rounds the same and gives the same numbers
    rescaled = first * H + H * np.concatenate([[0], np.cumsum(gaps)])
    plan = build_plan(spec, N, rescaled, H, BURN_IN)
    for _, steps, *_, law in dynamics._segment_stacks(plan):
        assert law.shared[1] is None
        ref = _eigenbasis_route(law)
        rows, rest = np.repeat(steps.ravel(), 2), np.tile([0.2, 0.7], steps.size)
        got = []
        for stack_law, sums in ((law, dynamics._eigen_sums), (ref, dynamics._eigen_sums),
                                (law, dynamics._scan_sums)):
            weights = dynamics.JumpWeights(plan.n_steps, spec.p) if jumps else None
            out = sums(stack_law, steps, weights)
            got.append(out + ((weights(rows, rest),) if jumps else ()))
        ident, eigen, scan = got
        for a, b in zip(ident, eigen):
            assert np.array_equal(a, b)
        for a, b in zip((law.propagator(), *law.moments()), (ref.propagator(), *ref.moments())):
            assert np.array_equal(a, b)
        for i, (a, b) in enumerate(zip(ident, scan)):
            scale = max(np.abs(b).max(initial=0.0), 1.0 if i == 0 else np.finfo(float).tiny)
            assert np.abs(a - b).max(initial=0.0) <= 1e-13 * scale, i


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


def _frozen_phi(x):
    """(e^x - 1) / x, and 1 at x = 0: ``dynamics._phi`` as the frozen
    :func:`_eigen_sums_frozen` calls it."""
    with np.errstate(invalid="ignore"):
        out = np.expm1(x) / x
    out[x == 0] = 1.0
    return out


def _eigen_sums_frozen(law, steps, weights):
    """``dynamics._eigen_sums`` as it was in the (g, m, p[, p]) layout, with
    the fine-step axis second: the oracle of the step-major form."""
    w, V, Vinv, _ = law.shared
    h = law.h[..., None]
    p = w.shape[-1]
    suffix = np.cumsum(w[:, ::-1], axis=1)[:, ::-1]
    e = np.exp(np.concatenate([suffix[:, 1:], np.zeros_like(w[:, :1])], axis=1))
    g = law.C if V is None else np.einsum("ab,gjb->gja", Vinv, law.C)
    y = e * g
    drift = (h * e * _frozen_phi(w) * g).sum(axis=1)
    wc, yc = (w.conj(), y.conj()) if np.iscomplexobj(w) else (w, y)
    phi = _frozen_phi(w[..., :, None] + wc[..., None, :])
    X = (h[..., None] * y[..., :, None] * yc[..., None, :] * phi).sum(axis=1)
    if weights is not None:
        weights.trusted(steps, (np.eye(p) if V is None else V) * y[..., None, :], w)
    decay = np.exp(w.sum(axis=1))[:, None, :]
    if V is None:
        return np.eye(p) * decay, drift, X
    D = (V * decay) @ Vinv
    return D.real, (drift @ V.T).real, (V @ X @ V.conj().T).real


def _same_bits(a, b) -> bool:
    """Equal shape, dtype and bytes: unlike ``array_equal``, tells -0 from +0."""
    return (a.shape == b.shape and a.dtype == b.dtype
            and np.ascontiguousarray(a).tobytes() == np.ascontiguousarray(b).tobytes())


def _signed_zero_copies(law):
    """``law``, and a copy whose C is -0 in its first state and negative in
    the others, so that products of terms with a zero factor round to -0."""
    C = np.array(law.C)
    C[..., 0] = -0.0
    C[..., 1:] = -np.abs(C[..., 1:])
    return law, dynamics.StepLaw(law.M, C, law.h)


def assert_step_major_sums_keep_their_bits(law, steps, n_steps):
    """D, drift, covariance and the stored jump weights of the stack ``law``
    are the bytes of the frozen layout, with and without jump weights, for
    ``law`` and for its signed-zero copy; and, for segments of at least one
    step, within 1e-13 of the matrix scan, on the scale of
    :func:`assert_eigen_sums_match_the_scan`."""
    for stack_law in _signed_zero_copies(law):
        shared = stack_law.shared
        assert shared is not None and shared[3] <= np.sqrt(dynamics._COND_MAX)
        p = stack_law.M.shape[-1]
        for jumps in (False, True):
            got = []
            scan_sums = (dynamics._scan_sums,) if steps.shape[1] else ()
            for sums in (dynamics._eigen_sums, _eigen_sums_frozen, *scan_sums):
                weights = dynamics.JumpWeights(n_steps, p) if jumps else None
                got.append(sums(stack_law, steps, weights)
                           + ((weights.U, weights.w) if jumps else ()))
            step_major, frozen, *scan = got
            for a, b in zip(step_major, frozen):
                assert _same_bits(a, b)
            for want in scan:
                for i, (a, b) in enumerate(zip(step_major[:3], want)):
                    scale = max(np.abs(b).max(initial=0.0),
                                1.0 if i == 0 else np.finfo(float).tiny)
                    assert np.abs(a - b).max(initial=0.0) <= 1e-13 * scale, i


def _eigen_stacks(plan):
    """(law, steps) of each stack of ``plan`` that takes the eigen sums."""
    for _, steps, *_, law in dynamics._segment_stacks(plan):
        shared = law.shared
        if shared is not None and shared[3] <= np.sqrt(dynamics._COND_MAX):
            yield law, steps


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(
    spec=st.one_of(diagonal_systems(), systems()),
    N=st.sampled_from([1, 4, 32]),
    gaps=st.lists(st.integers(1, 40), min_size=0, max_size=6),
    first=st.integers(0, 64),
)
def test_step_major_sums_keep_the_bits_of_the_frozen_layout(spec, N, gaps, first):
    # diagonal stacks with distinct, 1e-9-apart and equal rates and with
    # strong decay take the identity basis; commuting ones with complex
    # pairs a shared complex eigenbasis
    rescaled = first * H + H * np.concatenate([[0], np.cumsum(gaps)])
    plan = build_plan(spec, N, rescaled, H, BURN_IN)
    for law, steps in _eigen_stacks(plan):
        assert_step_major_sums_keep_their_bits(law, steps, plan.n_steps)


def _scaled_companion():
    K = models.companion2().A(0.0)
    diag2 = models.diag2()
    return ModelSpec(2, lambda t: (1.0 + 0.5 * np.sin(np.asarray(t)))[..., None, None] * K,
                     diag2.B, diag2.C, Lipschitz(1.0, 0.0, 0.0), True, 0.5, "scaled")


@pytest.mark.parametrize("name", ["diag2", "companion2", "statespace_simulate", "scaled"])
def test_step_major_sums_keep_their_bits_on_the_shipped_shapes(name):
    # ten 400-step segments per stack and one 1600-step burn-in (g = 1); the
    # companion matrix K of companion2 and a(t) K share a non-diagonal basis
    spec = _scaled_companion() if name == "scaled" else SPECS[name]()
    plan = _statespace_plan(spec)
    stacks = list(_eigen_stacks(plan))
    assert [steps.shape for _, steps in stacks][-1] == (1, 1600)
    assert (stacks[0][0].shared[1] is None) == (name in ("diag2", "statespace_simulate"))
    for law, steps in stacks:
        assert_step_major_sums_keep_their_bits(law, steps, plan.n_steps)


@pytest.mark.parametrize("spec", [models.diag2(), models.tvcar_sin()], ids=lambda s: s.model_id)
def test_step_major_sums_keep_their_bits_on_a_4096_step_segment(spec):
    plan = build_plan(spec, 1, [4.0], 1.0 / 256.0, 16.0)
    [(law, steps)] = _eigen_stacks(plan)
    assert steps.shape == (1, 4096)
    assert_step_major_sums_keep_their_bits(law, steps, plan.n_steps)


def test_step_major_sums_keep_their_bits_on_the_joint_coupling_system():
    # the joint system of _coupling_law for a scalar model at four N is
    # diagonal with p = 5: one stack, one segment, the whole burn-in
    seen, sums = [], dynamics._eigen_sums

    def record(law, steps, weights):
        seen.append((law, steps))
        return sums(law, steps, weights)

    with mock.patch.object(dynamics, "_eigen_sums", record):
        _coupling_law(models.tvcar_sin(), JUMPS, 1.0, [4, 16, 64, 256], 1.0 / 64.0, 8.0)
    [(law, steps)] = seen
    assert law.M.shape[-2:] == (5, 5) and law.shared[1] is None and steps.shape == (1, 512)
    assert_step_major_sums_keep_their_bits(law, steps, steps.size)


@pytest.mark.parametrize("p", [1, 2, 3])
def test_step_major_sums_of_a_stack_of_empty_segments(p):
    # a record at step 0 gives segments of m = 0 steps: D = I and no noise,
    # as in the frozen layout (a running total of no steps has no last entry)
    law = dynamics.StepLaw(np.zeros((3, 0, p, p)), np.ones(p), 0.25)
    steps = np.zeros((3, 0), dtype=np.int64)
    assert_step_major_sums_keep_their_bits(law, steps, 4)
    D, drift, cov = dynamics._eigen_sums(law, steps, None)
    assert np.array_equal(D, np.broadcast_to(np.eye(p), (3, p, p)))
    assert not drift.any() and not cov.any() and not np.signbit(cov).any()
