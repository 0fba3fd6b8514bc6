"""The per-segment law and the coupling law against per-step reference
loops, draws of the per-segment law against the exact moments of the
recursion with its noise inside each step, the step laws of a stack that
shares one eigenbasis against per-step eigenbases, and the eigen-coordinate
segment sums against the matrix scan.

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
from locstat.experiments import _coupling_law
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
    diag2 = models.diag2()
    plan = _statespace_plan(diag2)
    shapes = _eigenbasis_shapes(lambda: build_segment_law(plan, JUMPS))
    assert shapes and all(shape == (2, 2) for shape in shapes)
    times = np.linspace(0.5, 1.5, 65)
    shapes = _eigenbasis_shapes(lambda: simulate_yn(
        SPECS["statespace_simulate"](), BROWNIAN, 256, times, 0.01, 16.0, np.random.default_rng(1)))
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
