"""Time-varying linear state dynamics.

Covers the coefficient-function model types, the transition matrix of
dPsi/dt = A(t) Psi with Psi(t0, t0) = I by three methods, and simulation of
the rescaled process

    Y_N(t) = B(t)' X(N t),    dX(s) = A(s/N) X(s) ds + C(s/N) L(ds),

by a state recursion on a fine grid in rescaled time s. A fine step
freezes A at its midpoint and C at its left point and moves the state by
the exact step law of :class:`StepLaw`, which the frozen process of
``stationary`` uses too (non-commuting models take an RK4 propagator).

Every model runs as a state space model (a :class:`Car1Spec` as its 1x1
``to_state_space()`` view), and the recursion runs over records as a prefix
scan of affine maps (:func:`affine_states`) on the segment data of
:func:`_segment_stacks`. The campaigns draw the noise of a segment from its
exact law (:class:`SegmentLaw`). :func:`simulate_yn` and :func:`refine_path`
keep per-step increments, on which coupled paths are built; an increment
does not say where inside its step its jumps fell, so they weight it by
C(s_j / N) at the left point, an O(h) error. One sampler,
:func:`draw_segment_noise`, draws the driver, and one map,
:func:`_driver_law`, turns a triplet into a law.
"""

import functools
from dataclasses import dataclass, field
from typing import Callable

import numpy as np
from scipy import integrate, linalg  # perfbench/spans.py traces linalg.expm calls from here

from .noise import JumpSpec, LevyTriplet

__all__ = [
    "Lipschitz",
    "ModelSpec",
    "Car1Spec",
    "PathSample",
    "FineGrid",
    "transition_matrix",
    "transition_seminorm_check",
    "simulate_yn",
    "refine_path",
    "validate_model",
    "validate_car1",
    "Plan",
    "build_plan",
    "coefficient_values",
    "eigenbasis",
    "step_propagators",
    "StepLaw",
    "JumpWeights",
    "affine_states",
    "covariance_factor",
    "SegmentLaw",
    "build_segment_law",
    "draw_segment_noise",
    "segment_states",
    "run_segment_law",
    "PeanoBakerNonConvergence",
]


class PeanoBakerNonConvergence(RuntimeError):
    """Truncated series still moving at the requested order."""


@dataclass(frozen=True)
class Lipschitz:
    L_A: float
    L_B: float = 0.0
    L_C: float = 0.0


@dataclass(frozen=True)
class ModelSpec:
    """General state space coefficients A(t) (p,p), B(t) (p,), C(t) (p,).

    Coefficients take an array of times: for ``t`` of shape ``S``, ``A(t)``
    returns shape ``S + (p, p)`` and ``B(t)`` and ``C(t)`` return
    ``S + (p,)``; a scalar ``t`` gives a single value. A coefficient that
    does not depend on t may return the single value for any ``t``; it is
    broadcast. The simulator checks the shapes (:func:`coefficient_values`).

    ``commuting`` declares [A(t), A(s)] = 0 for all s, t; ``stability_margin``
    declares a uniform bound -max_j Re lambda_j(A(t)) >= margin > 0. Both are
    declarations checked by sampling in :func:`validate_model`, not recomputed
    on every call.
    """

    p: int
    A: Callable[[np.ndarray], np.ndarray]
    B: Callable[[np.ndarray], np.ndarray]
    C: Callable[[np.ndarray], np.ndarray]
    lipschitz: Lipschitz
    commuting: bool
    stability_margin: float
    model_id: str = "statespace"

    def __post_init__(self):
        if self.p < 1:
            raise ValueError("state dimension must be positive")
        if self.stability_margin <= 0:
            raise ValueError("stability margin must be positive")

    def to_state_space(self) -> "ModelSpec":
        return self


@dataclass(frozen=True)
class Car1Spec:
    """Scalar mean-reversion model dY = -a(t) Y dt + L(dt) with a(t) > 0."""

    a: Callable
    lipschitz_a: float
    infimum_a: float
    model_id: str = "car1"

    def __post_init__(self):
        if self.infimum_a <= 0:
            raise ValueError("infimum of a must be positive")

    @property
    def stability_margin(self) -> float:
        return self.infimum_a

    @property
    def p(self) -> int:
        return 1

    def to_state_space(self) -> ModelSpec:
        a = self.a

        def unit(t):
            return np.ones(np.shape(t) + (1,))

        return ModelSpec(
            p=1,
            A=lambda t: -np.asarray(a(t), dtype=float)[..., None, None],
            B=unit,
            C=unit,
            lipschitz=Lipschitz(L_A=self.lipschitz_a),
            commuting=True,
            stability_margin=self.infimum_a,
            model_id=self.model_id,
        )


@dataclass(frozen=True)
class FineGrid:
    """Simulation grid record kept for coupled re-use of the noise."""

    step: float
    start: float  # rescaled time of the first fine node
    increments: np.ndarray | None
    gaussian_only: bool


@dataclass
class PathSample:
    times: np.ndarray
    values: np.ndarray
    fine_grid: FineGrid | None = None
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        self.times = np.asarray(self.times, dtype=float)
        self.values = np.asarray(self.values, dtype=float)
        if self.times.shape != self.values.shape:
            raise ValueError("times and values must have equal length")
        if self.times.size > 1 and not np.all(np.diff(self.times) > 0):
            raise ValueError("times must be strictly increasing")
        if not np.all(np.isfinite(self.values)):
            raise ValueError("values must be finite")


# ---------------------------------------------------------------------------
# model validation


@dataclass(frozen=True)
class ModelValidation:
    commuting_ok: bool
    margin_ok: bool
    lipschitz_ok: bool
    detail: dict

    @property
    def passed(self) -> bool:
        return self.commuting_ok and self.margin_ok and self.lipschitz_ok


def validate_model(
    spec: ModelSpec, t_range=(-5.0, 5.0), n_samples: int = 100, rng=None
) -> ModelValidation:
    """Sampled checks of the declared commutation, margin and Lipschitz data."""
    rng = rng if rng is not None else np.random.default_rng(0)
    lo, hi = t_range
    ts = rng.uniform(lo, hi, size=n_samples)
    ss = rng.uniform(lo, hi, size=n_samples)

    commuting_ok = True
    if spec.commuting:
        for t, s in zip(ts, ss):
            At, As = spec.A(t), spec.A(s)
            comm = At @ As - As @ At
            bound = 1e-10 * max(np.linalg.norm(At) * np.linalg.norm(As), 1e-300)
            if np.linalg.norm(comm) > bound:
                commuting_ok = False
                break

    margin_ok = True
    worst = -np.inf
    for t in ts:
        top = float(np.max(np.real(np.linalg.eigvals(spec.A(t)))))
        worst = max(worst, top)
        if top > -spec.stability_margin + 1e-8:
            margin_ok = False

    lipschitz_ok = True
    for t, s in zip(ts, ss):
        gap = abs(t - s)
        if gap == 0.0:
            continue
        slack = 1e-9 * max(1.0, gap)
        if np.linalg.norm(spec.A(t) - spec.A(s)) > spec.lipschitz.L_A * gap + slack:
            lipschitz_ok = False
        if np.linalg.norm(spec.B(t) - spec.B(s)) > spec.lipschitz.L_B * gap + slack:
            lipschitz_ok = False
        if np.linalg.norm(spec.C(t) - spec.C(s)) > spec.lipschitz.L_C * gap + slack:
            lipschitz_ok = False

    return ModelValidation(
        commuting_ok,
        margin_ok,
        lipschitz_ok,
        detail={"worst_real_part": worst, "n_samples": n_samples},
    )


def validate_car1(
    spec: Car1Spec, t_range=(-5.0, 5.0), n_grid: int = 1000, rng=None
) -> ModelValidation:
    rng = rng if rng is not None else np.random.default_rng(0)
    lo, hi = t_range
    grid = np.linspace(lo, hi, n_grid)
    vals = np.asarray(spec.a(grid), dtype=float)
    margin_ok = bool(np.all(vals >= spec.infimum_a - 1e-12))
    ts = rng.uniform(lo, hi, size=200)
    ss = rng.uniform(lo, hi, size=200)
    diffs = np.abs(np.asarray(spec.a(ts)) - np.asarray(spec.a(ss)))
    lipschitz_ok = bool(np.all(diffs <= spec.lipschitz_a * np.abs(ts - ss) + 1e-9))
    return ModelValidation(True, margin_ok, lipschitz_ok, detail={"min_a": float(vals.min())})


# ---------------------------------------------------------------------------
# transition matrices


def _integral_of_A(spec: ModelSpec, t0: float, t1: float) -> np.ndarray:
    if t1 == t0:
        return np.zeros((spec.p, spec.p))
    result, _ = integrate.quad_vec(
        lambda tau: np.asarray(spec.A(tau), dtype=float), t0, t1, epsabs=1e-13, epsrel=1e-13
    )
    return result


def _peano_baker(spec: ModelSpec, t0: float, t1: float, order: int, nodes: int | None) -> np.ndarray:
    span = t1 - t0
    if nodes is None:
        nodes = int(max(129, 64 * np.ceil(max(span, 1.0)) + 1))
    if nodes % 2 == 0:
        nodes += 1
    ts = np.linspace(t0, t1, nodes)
    A_vals = np.stack([np.asarray(spec.A(t), dtype=float) for t in ts])  # (n, p, p)
    eye = np.eye(spec.p)
    term = np.broadcast_to(eye, A_vals.shape).copy()  # I_0 on every node
    total = eye.copy()
    last_norm = np.inf
    for _ in range(order):
        integrand = A_vals @ term
        term = integrate.cumulative_simpson(integrand, x=ts, axis=0, initial=0.0)
        total = total + term[-1]
        last_norm = np.linalg.norm(term[-1])
    if last_norm > 1e-8 * max(np.linalg.norm(total), 1e-300):
        raise PeanoBakerNonConvergence(
            f"series tail norm {last_norm:.3e} exceeds 1e-8 of partial sum; increase order"
        )
    return total


def _rk4(spec: ModelSpec, t0: float, t1: float, step: float, psi0: np.ndarray) -> np.ndarray:
    span = t1 - t0
    n = max(1, int(np.ceil(span / step - 1e-12)))
    h = span / n
    psi = psi0.copy()
    t = t0
    for _ in range(n):
        k1 = spec.A(t) @ psi
        k2 = spec.A(t + h / 2) @ (psi + (h / 2) * k1)
        k3 = spec.A(t + h / 2) @ (psi + (h / 2) * k2)
        k4 = spec.A(t + h) @ (psi + h * k3)
        psi = psi + (h / 6) * (k1 + 2 * k2 + 2 * k3 + k4)
        t += h
    return psi


def transition_matrix(
    spec: ModelSpec,
    t1: float,
    t0: float,
    method: str = "commuting_exp",
    order: int = 18,
    step: float = 1e-3,
    nodes: int | None = None,
) -> np.ndarray:
    """Transition matrix Psi(t1, t0) of the coefficient function A.

    methods:
      commuting_exp    expm of the quadrature integral of A (requires the
                       declared commutation property)
      peano_baker      truncated iterated-integral series, composite Simpson
                       for the nested integrals
      ode_rk4          fixed-step RK4 on the matrix initial value problem
    """
    if t1 < t0:
        raise ValueError("t1 must be >= t0")
    if t1 == t0:
        return np.eye(spec.p)
    if method == "commuting_exp":
        if not spec.commuting:
            raise ValueError("commuting_exp requires a spec declared commuting")
        return linalg.expm(_integral_of_A(spec, t0, t1))
    if method == "peano_baker":
        return _peano_baker(spec, t0, t1, order, nodes)
    if method == "ode_rk4":
        return _rk4(spec, t0, t1, step, np.eye(spec.p))
    raise ValueError(f"unknown method {method!r}")


@dataclass(frozen=True)
class SeminormReport:
    gamma_hat: float
    lambda_hat: float
    ok: bool
    n_samples: int


def transition_seminorm_check(
    spec: ModelSpec, t_range=(0.0, 10.0), n_samples: int = 50, rng=None
) -> SeminormReport:
    """Fit log ||Psi(t, t0)|| against t - t0 and compare the decay rate
    with the declared stability margin. Diagnostic only."""
    rng = rng if rng is not None else np.random.default_rng(1)
    lo, hi = t_range
    margin = spec.stability_margin
    spans = rng.uniform(0.5 / margin, 5.0 / margin, size=n_samples)
    starts = rng.uniform(lo, hi, size=n_samples)
    method = "commuting_exp" if spec.commuting else "ode_rk4"
    xs, ys = [], []
    for t0, span in zip(starts, spans):
        psi = transition_matrix(spec, t0 + span, t0, method=method)
        nrm = np.linalg.norm(psi, 2)
        if nrm <= 0:
            continue
        xs.append(span)
        ys.append(np.log(nrm))
    slope, intercept = np.polyfit(np.asarray(xs), np.asarray(ys), 1)
    lam = -float(slope)
    return SeminormReport(
        gamma_hat=float(np.exp(intercept)),
        lambda_hat=lam,
        ok=bool(lam >= margin / 2),
        n_samples=n_samples,
    )


# ---------------------------------------------------------------------------
# simulation of Y_N


@dataclass
class Plan:
    """Fine-grid layout of one run at one N, in rescaled time s = N t."""

    spec: ModelSpec  # the state-space view of the model
    N: int
    h: float
    start: float  # rescaled time of the first fine node
    n_steps: int
    record_steps: np.ndarray  # step counts after which the state is recorded

    @property
    def eval_rescaled(self) -> np.ndarray:
        return self.start + self.record_steps * self.h

    @property
    def segment_bounds(self) -> list:
        """Fine-step bounds ``(lo, hi)`` of each record segment; the first is
        the burn-in."""
        # perfbench/spans.py reads len() of this name as its segment count
        bounds = np.concatenate([[0], self.record_steps]).tolist()
        return list(zip(bounds[:-1], bounds[1:]))


def build_plan(spec, N: int, rescaled, h: float, burn_in: float) -> Plan:
    """Plan of a run recording at the nodes ``rescaled``, given directly in
    rescaled time s = N t (no lossy round trip through original time).

    Checks that the nodes increase, that the step is positive and divides
    every gap between them and that the burn-in is at least 8 / stability
    margin. ``spec`` is a :class:`ModelSpec` or anything with a
    ``to_state_space()`` view, such as :class:`Car1Spec`.
    """
    spec = spec.to_state_space()
    rescaled = np.asarray(rescaled, dtype=float)
    if rescaled.size == 0:
        raise ValueError("need at least one evaluation time")
    if h <= 0:
        raise ValueError("fine_step must be positive")
    min_burn = 8.0 / spec.stability_margin
    if burn_in < min_burn - 1e-9:
        raise ValueError(f"burn_in {burn_in} below required {min_burn} (8 / stability margin)")
    gaps = np.diff(rescaled)
    if gaps.size and not np.all(gaps > 0):
        raise ValueError("evaluation times must be strictly increasing")
    if gaps.size and h > gaps.min() + 1e-12:
        raise ValueError("fine_step exceeds the smallest rescaled evaluation gap")
    steps_per_gap = np.rint(gaps / h).astype(int)
    for i, (m, gap) in enumerate(zip(steps_per_gap, gaps)):
        if m < 1 or abs(m * h - gap) > 1e-12 * max(1.0, abs(gap)):
            raise ValueError(
                f"fine_step {h} does not divide evaluation gap {gap} at index {i}"
            )
    n_burn = int(np.ceil(burn_in / h - 1e-12))
    record_steps = n_burn + np.concatenate([[0], np.cumsum(steps_per_gap)])
    return Plan(spec, N, h, rescaled[0] - n_burn * h, int(record_steps[-1]), record_steps)


def covariance_factor(Q: np.ndarray) -> np.ndarray:
    """A factor L with L L' = Q for each covariance of the stack Q (..., p, p),
    symmetrized first. Cholesky fails on a singular Q (no steps, or two equal
    systems on one driver) and on tiny negative curvature from roundoff;
    the stack then takes V diag(sqrt(w)) from its eigendecomposition, with
    every eigenvalue below p eps max(w) of its stack item set to 0. Those are
    rounding noise in a null direction, and their square roots would put noise
    of order sqrt(eps) there.
    """
    Q = 0.5 * (Q + np.swapaxes(Q, -1, -2))
    try:
        return np.linalg.cholesky(Q)
    except np.linalg.LinAlgError:
        vals, vecs = np.linalg.eigh(Q)
        floor = Q.shape[-1] * np.finfo(float).eps * vals.max(axis=-1, keepdims=True)
        return vecs * np.sqrt(np.where(vals < floor, 0.0, vals))[..., None, :]


@dataclass
class SegmentLaw:
    """Exact law of the noise a linear recursion adds between two records.

    Record segment k is the run of fine steps ``[lo, hi)`` that ends at
    record k: ``hi = plan.record_steps[k]``, and ``lo`` is the record step
    before it, or 0 for the first segment, the burn-in. With the step laws
    of :class:`StepLaw` (propagator P_j, drift weight d_j, covariance G_j) and
    M_j = P_{hi-1} ... P_{j+1}, the recursion moves the state over the
    segment by x <- D_k x + eta_k, D_k = P_{hi-1} ... P_lo, and eta_k has the
    law of ``mean_k + chol_k Z`` (Z standard normal in R^p) plus, for each of
    Poisson(rate h m_k) jumps, ``jump_weight(k, U) * size``, U uniform on
    [0, 1) placing the jump among the segment's m_k cells. Recorded states
    drawn this way have the law of the fine-grid recursion, from one draw per
    segment instead of one per step. A product that underflows to 0 is the
    right value. A frozen step is a segment of one cell, and the per-step
    increments are the law of one unit-weight step, broadcast.
    """

    decay: np.ndarray  # (n_records, p, p) D_k
    mean: np.ndarray  # (n_records, p) path_drift * sum_j M_j d_j
    chol: np.ndarray | None  # (n_records, p, p) factor of sigma2 sum_j M_j G_j M_j'; None without sigma2
    jump_mean: np.ndarray | None  # (n_records,) rate * h * m_k; None without jumps
    # (seg, U) -> (total, p) jump weights; a functools.partial, so a law pickles
    jump_weight: Callable[[np.ndarray, np.ndarray], np.ndarray] | None
    jumps: JumpSpec | None
    B: np.ndarray  # (n_records, p) output vector B(t_k) of each record


def _cell_weights(bounds: np.ndarray, weights, seg: np.ndarray, unit: np.ndarray):
    """Weights of jumps placed by ``unit`` in segments ``seg``: the integer part
    of unit m_k picks the cell and the fractional part the offset inside it,
    where the :class:`JumpWeights` ``weights`` of the cells weigh the jump."""
    lo = bounds[seg]
    cells = bounds[seg + 1] - lo
    x = unit * cells
    k = np.minimum(x.astype(np.int64), cells - 1)
    return weights(lo + k, 1.0 - (x - k))


def _unit_weights(seg: np.ndarray, unit: np.ndarray) -> np.ndarray:
    """Weight 1 for every jump of a per-step increment."""
    return np.ones((seg.size, 1))


def _prefix_products(T: np.ndarray) -> np.ndarray:
    """Products T[:, 0] @ ... @ T[:, i] for every i, T of shape (G, m, p, p):
    runs of b = ceil(sqrt(m)) factors are multiplied out, then each run is
    moved on by the product ending the run before it. That is 2 sqrt(m)
    batched calls and 2 m matmuls per row; a doubling scan takes m log2(m)."""
    G, m, p, _ = T.shape
    b = int(np.ceil(np.sqrt(m)))
    n_runs = -(-m // b)
    U = np.empty((G, n_runs * b, p, p))
    U[:, :m] = T
    U[:, m:] = np.eye(p)
    U = U.reshape(G, n_runs, b, p, p)
    for i in range(1, b):
        U[:, :, i] = U[:, :, i - 1] @ U[:, :, i]
    for k in range(1, n_runs):
        U[:, k] = U[:, k - 1, -1, None] @ U[:, k]
    return U.reshape(G, n_runs * b, p, p)[:, :m]


def _segment_stacks(plan: Plan):
    """Yields ``(segs, steps, D, M, law)`` per stack of g equal-length record
    segments of ``plan``: segment indices (g,), fine steps (g, m), products
    D = P_{hi-1} ... P_lo (g, p, p), M_j = P_{hi-1} ... P_{j+1} (g, m, p, p)
    and the :class:`StepLaw` of the steps; the only code that turns steps into
    segment data. A stack holds about ``_BLOCK_ENTRIES`` matrix entries but at
    least one segment, so a segment of m fine steps costs O(m p^2) memory.
    """
    spec, h, N = plan.spec, plan.h, plan.N
    bounds = np.concatenate([[0], plan.record_steps]).astype(np.int64)
    lengths = np.diff(bounds)
    p = spec.p
    for m in np.unique(lengths):
        same = np.flatnonzero(lengths == m)
        stack = max(1, _BLOCK_ENTRIES // max(1, m * p * p))
        for segs in np.split(same, np.arange(stack, same.size, stack)):
            steps = bounds[segs, None] + np.arange(m)  # (segments, m)
            P, law = _step_stack(spec, plan.start + steps * h, N, h)
            if m == 0:  # a record at step 0 (burn-in below half a step) keeps the zero start
                yield segs, steps, np.eye(p)[None], P, law
                continue
            # T[:, i] = P_{hi-1} ... P_{hi-1-i}
            T = _prefix_products(P[:, ::-1])
            del P  # freed now, not while the next stack is built
            # in step order, P_{hi-1} ... P_{j+1}, which is I for the last step
            last = np.broadcast_to(np.eye(p), (segs.size, 1, p, p))
            yield segs, steps, T[:, -1], np.concatenate([T[:, -2::-1], last], axis=1), law


def _driver_law(triplet: LevyTriplet, drift, cov, dt: float, cells, decay, B,
                jump_weight) -> SegmentLaw:
    """The :class:`SegmentLaw` of ``triplet`` on segments of ``cells`` cells of
    length ``dt`` whose noise int K dL has ``drift`` = int K and ``cov`` =
    int K K': mean path_drift drift, the factor of sigma2 cov and
    Poisson(rate dt cells) jumps weighted by ``jump_weight``, the last two
    only for a positive sigma2 and rate."""
    has_jumps = triplet.jump_rate > 0
    return SegmentLaw(
        decay=decay,
        mean=triplet.path_drift * drift,
        chol=covariance_factor(triplet.sigma2 * cov) if triplet.sigma2 > 0 else None,
        jump_mean=triplet.jump_rate * dt * cells if has_jumps else None,
        jump_weight=jump_weight if has_jumps else None,
        jumps=triplet.jumps if has_jumps else None,
        B=B,
    )


def build_segment_law(plan: Plan, triplet: LevyTriplet) -> SegmentLaw:
    """Segment law of ``plan`` under ``triplet``, from the stacks of
    :func:`_segment_stacks`; the jump weights of the steps, carried by M_j,
    are kept only when the driver has jumps."""
    spec, N = plan.spec, plan.N
    bounds = np.concatenate([[0], plan.record_steps]).astype(np.int64)
    n, p = bounds.size - 1, spec.p
    weights = JumpWeights(plan.n_steps, p) if triplet.jump_rate > 0 else None
    decay, drift, cov = np.empty((n, p, p)), np.empty((n, p)), np.empty((n, p, p))
    for segs, steps, D, M, law in _segment_stacks(plan):
        decay[segs] = D
        d, G = law.moments()
        drift[segs] = np.einsum("gjab,gjb->ga", M, d)
        cov[segs] = np.einsum("gjab,gjbc,gjdc->gad", M, G, M)
        if weights is not None:
            weights.put(steps, law, M)
    return _driver_law(
        triplet, drift, cov, plan.h, np.diff(bounds), decay,
        coefficient_values(spec, "B", plan.eval_rescaled / N),
        functools.partial(_cell_weights, bounds, weights),
    )


def _draw_increments_rows(triplet: LevyTriplet, h: float, n: int, gens) -> np.ndarray:
    """Increments of the driver over n fine steps of length h, shape (R, n),
    replication r from the r-th generator of ``gens``: :func:`draw_segment_noise`
    on the law of L(h), one segment of unit weight, broadcast to n segments."""
    law = _driver_law(triplet, np.broadcast_to(h, (n, 1)), np.full((1, 1, 1), h), h,
                      np.broadcast_to(1.0, n), None, None, _unit_weights)
    # C-contiguous rows: the coupling products inc @ d round by memory layout
    return np.ascontiguousarray(draw_segment_noise(law, gens)[:, 0, :].T)


def draw_segment_noise(law: SegmentLaw, gens) -> np.ndarray:
    """Noise of every record segment, shape (n_records, p, R).

    ``gens`` is a sized iterable of generators, one per replication, taken in
    order; each replication draws all it needs before the next is taken, in
    this order: standard normals (n_records, p) (when chol is set), the
    Poisson jump counts of the segments, a uniform per jump that places it in
    its segment, then the jump sizes. The counts are drawn one call per run
    of segments with equal rates, which gives the draws of one call on the
    whole rate array. The loop only draws; the noise of every segment and
    replication is then built at once.
    """
    n, p = law.mean.shape
    R = len(gens)
    z = np.empty((R, n, p)) if law.chol is not None else None
    counts = runs = None
    if law.jump_mean is not None:
        counts = np.empty((R, n), dtype=np.int64)
        # rates are nonnegative, so a rate of -1 on either side closes the
        # first and the last run, and a law without segments has no run
        edges = np.flatnonzero(np.diff(law.jump_mean, prepend=-1.0, append=-1.0))
        runs = [(float(law.jump_mean[a]), a, b) for a, b in zip(edges[:-1], edges[1:])]
    units, sizes = [], []
    for r, gen in enumerate(gens):
        if z is not None:
            z[r] = gen.standard_normal((n, p))
        if counts is not None:
            for rate, a, b in runs:
                counts[r, a:b] = gen.poisson(rate, b - a)
            total = int(counts[r].sum())
            if total:
                units.append(gen.random(total))
                sizes.append(law.jumps.sample(total, gen))
    eta = np.repeat(law.mean[:, :, None], R, axis=2)
    if z is not None:
        eta += law.chol @ z.transpose(1, 2, 0)
    if units:
        # replication-major cell of each jump, in draw order
        rep, seg = np.divmod(np.repeat(np.arange(R * n), counts.ravel()), n)
        contrib = law.jump_weight(seg, np.concatenate(units)) * np.concatenate(sizes)[:, None]
        # one bincount per state column; it sums each cell in draw order, as np.add.at does
        cell = seg * R + rep
        for j in range(p):
            eta[:, j, :] += np.bincount(cell, contrib[:, j], n * R).reshape(n, R)
    return eta


def segment_states(law: SegmentLaw, eta: np.ndarray) -> np.ndarray:
    """States x_k (n_records, p, R) from a zero start under the noise ``eta``
    of :func:`draw_segment_noise`, by one affine scan over records."""
    return affine_states(law.decay, eta, np.zeros(eta.shape[1:]))


def run_segment_law(law: SegmentLaw, eta: np.ndarray) -> np.ndarray:
    """Recorded values B(t_k)' x_k, shape (R, n_records), of :func:`segment_states`."""
    return (law.B[:, None, :] @ segment_states(law, eta))[:, 0, :].T


# perfbench/spans.py traces plan construction and the record recursion by these names
build_scalar_plan_rescaled = build_plan
run_scalar_plan = run_segment_law


def simulate_yn(
    spec,
    triplet: LevyTriplet,
    N: int,
    eval_times,
    fine_step: float,
    burn_in: float,
    rng: np.random.Generator,
    keep_increments: bool = True,
    increments: np.ndarray | None = None,
    meta: dict | None = None,
) -> PathSample:
    """Simulate Y_N at the given original-time evaluation points.

    State starts at zero a burn-in before the first evaluation; the burn-in
    must be at least 8 / stability_margin so the truncated history is below
    Monte Carlo resolution. Passing ``increments`` re-runs the recursion on
    externally supplied noise (coupled experiments, refinement checks).
    """
    return _simulate_yn_statespace(
        spec, triplet, N, eval_times, fine_step, burn_in, rng, keep_increments, increments, meta
    )


# Stack bound of _segment_stacks, measured on a 2-core VM: the statespace_simulate
# benchmark peaks at 83.1 MB with 65536, 78.4 MB with 16384 and 77.6 MB with 8192
# (lln_ladder: 66.2, 62.3 and 62.1 MB); with 8192 the lln_ladder campaign takes
# about 2 ms longer than with 16384, as its ladder builds twice as many stacks.
_BLOCK_ENTRIES = 16384
# eigenbasis condition number above which a matrix exponential is computed by
# expm instead of from the eigendecomposition (here and in stationary)
_COND_MAX = 1e8
_TINY = np.finfo(float).tiny


def eigenbasis(M: np.ndarray):
    """Eigendecomposition ``(w, V, V^-1, trusted)`` of M, shape (..., p, p).

    ``trusted`` is True where ||V||_F ||V^-1||_F <= ``_COND_MAX``. That
    estimate lies between cond_2(V) and p cond_2(V), and needs no SVD. A NaN
    or infinite estimate is untrusted, and so is every matrix of a batch in
    which some V is exactly singular (``inv`` raises); callers take expm there.
    """
    w, V = np.linalg.eig(M)
    try:
        Vinv = np.linalg.inv(V)
    except np.linalg.LinAlgError:
        return w, V, np.full_like(V, np.nan), np.zeros(M.shape[:-2], dtype=bool)
    est = np.linalg.norm(V, axis=(-2, -1)) * np.linalg.norm(Vinv, axis=(-2, -1))
    return w, V, Vinv, est <= _COND_MAX


def coefficient_values(spec: ModelSpec, name: str, t) -> np.ndarray:
    """Coefficient ``name`` ("A", "B" or "C") of ``spec`` at the times ``t``.

    Returns shape ``t.shape + (p, p)`` for A and ``t.shape + (p,)`` for B and
    C. A value of the single-time shape is broadcast to every time. Any other
    shape, a call that fails on an array of times, or a value that is not
    finite raises ValueError.
    """
    t = np.asarray(t, dtype=float)
    tail = (spec.p, spec.p) if name == "A" else (spec.p,)
    contract = f"{name}(t) must return shape t.shape + {tail} for an array of times t"
    try:
        vals = np.asarray(getattr(spec, name)(t), dtype=float)
    except (TypeError, ValueError) as exc:
        raise ValueError(
            f"coefficient {name} failed on times of shape {t.shape} ({exc}); {contract}"
        ) from exc
    if vals.shape == tail:
        vals = np.broadcast_to(vals, t.shape + tail)
    elif vals.shape != t.shape + tail:
        raise ValueError(
            f"coefficient {name} returned shape {vals.shape} for times of shape {t.shape}; "
            f"{contract}"
        )
    if not np.all(np.isfinite(vals)):
        raise ValueError(f"coefficient {name} is not finite on [{t.min()}, {t.max()}]")
    return vals


def _phi(x, e=None):
    """(e^x - 1) / x, and 1 at x = 0; ``e`` is expm1(x) when already known."""
    return np.divide(np.expm1(x) if e is None else e, x, out=np.ones_like(x), where=x != 0)


class StepLaw:
    """Exact law of steps x <- e^{Ah} x + int_0^h e^{A(h-r)} C L(dr) with A, C
    frozen in each step (Brockwell 2001, "Levy-driven CARMA processes", AISM
    53): drift weight d = int_0^h e^{Ar} dr C, covariance G = int_0^h e^{Ar}
    CC' e^{A'r} dr, and jump weight e^{A(h-r)} C at offset r
    (:class:`JumpWeights`). With M = A h, all are entrywise for p = 1. On a
    trusted eigenbasis M = V diag(w) V^-1 (:func:`eigenbasis`), e^M = V
    diag(e^w) V^-1; with g = V^-1 C and phi(x) = expm1(x) / x, d = h V (phi(w)
    g) and G = h V [g g^* o phi(w_i + conj w_k)] V^*. The terms g g^* grow like
    cond(V)^2 |C|^2 and cancel down to G, so d and G take that form only where
    the estimate of cond(V) is at most sqrt(``_COND_MAX``). Otherwise e^M comes
    from expm, d = h M^-1 (e^M - I) C and G = h (S - e^M S e^M'), S the Gramian
    of (M, C), which unlike a block exponential does not cancel on long steps.
    ``A`` is (..., p, p) and ``C`` broadcasts to (..., p), ``h`` to their
    leading shape; one (p, p) ``A`` and one (p,) ``C`` (the frozen process)
    share one eigenbasis over every step. The eigenbasis is taken on first use.
    """

    def __init__(self, A, C, h):
        self.h = np.asarray(h, dtype=float)
        self.shared = np.ndim(A) == 2 and np.ndim(C) == 1
        self.A = A if self.shared else None  # only the shared basis reads A
        self.M = A * self.h[..., None, None]
        self.C = np.broadcast_to(C, self.M.shape[:-1])

    @functools.cached_property
    def basis(self):
        """(w, V, V^-1, trusted) of M; for p = 1, w = M[..., 0] and V = None."""
        if self.M.shape[-1] == 1:
            return self.M[..., 0], None, None, np.ones(self.M.shape[:-2], dtype=bool)
        if not self.shared:
            return eigenbasis(self.M)
        w, V, Vinv, good = eigenbasis(self.A)
        return (w * self.h[..., None], np.broadcast_to(V, self.M.shape),
                np.broadcast_to(Vinv, self.M.shape), np.full(self.M.shape[:-2], good))

    def _expm(self, rows: np.ndarray) -> np.ndarray:
        """e^M of the steps ``rows`` (a mask), once per distinct M."""
        M, at = np.unique(self.M[rows], axis=0, return_inverse=True)
        return linalg.expm(M)[at.ravel()]

    def propagator(self) -> np.ndarray:
        """e^{Ah}, shape (..., p, p)."""
        w, V, Vinv, good = self.basis
        if V is None:
            return np.exp(self.M)
        P = np.empty(self.M.shape)
        P[good] = ((V[good] * np.exp(w[good])[:, None, :]) @ Vinv[good]).real
        if not good.all():
            P[~good] = self._expm(~good)
        return P

    def moments(self):
        """Drift weights d (..., p) and covariances G (..., p, p)."""
        w, V, Vinv, good = self.basis
        h = self.h[..., None]
        if V is None:  # phi(2w) = phi(w) (1 + expm1(w) / 2)
            e = np.expm1(w)
            q = h * _phi(w, e)
            return q * self.C, (q * (1.0 + 0.5 * e) * self.C**2)[..., None]
        good = good & (np.linalg.norm(V, axis=(-2, -1)) * np.linalg.norm(Vinv, axis=(-2, -1))
                       <= np.sqrt(_COND_MAX))
        d, G = np.empty(self.C.shape), np.empty(self.M.shape)
        g, w, V = (Vinv[good] @ self.C[good][..., None])[..., 0], w[good], V[good]
        d[good] = (V @ (_phi(w) * g)[..., None])[..., 0].real
        X = g[:, :, None] * g.conj()[:, None, :] * _phi(w[:, :, None] + w.conj()[:, None, :])
        G[good] = (V @ X @ V.conj().swapaxes(-1, -2)).real
        if not good.all():
            M, C, P = self.M[~good], self.C[~good][..., None], self._expm(~good)
            S = _gramian(M, C)
            d[~good] = np.linalg.solve(M, P @ C - C)[..., 0]
            G[~good] = S - P @ S @ P.swapaxes(-1, -2)
        return h * d, h[..., None] * G


class JumpWeights:
    """Weights of jumps in a flat stack of n steps. A jump in step j with the
    fraction f of the step still to run has weight L_j e^{M_j f} C_j, with
    M_j = A_j h_j and L_j the matrix that carries it to its record. On a
    trusted eigenbasis of M_j (:class:`StepLaw`) that is (U_j e^{w_j f}).real
    with U_j = L_j V_j diag(V_j^-1 C_j), stored per step; the other steps keep
    L_j, M_j and C_j and take expm per jump.
    """

    def __init__(self, n: int, p: int):
        self.U, self.w = np.zeros((n, p, p)), np.zeros((n, p))
        self.slot = np.full(n, -1)  # row of a step in L, M, C; -1 on a trusted step
        self.L, self.M, self.C = [], [], []

    def put(self, steps: np.ndarray, law: StepLaw, L: np.ndarray | None = None) -> None:
        """Store the steps ``steps`` (the leading shape of ``law``), carried
        by L (steps.shape + (p, p)), or by I when L is None."""
        w, V, Vinv, good = law.basis
        L = np.broadcast_to(np.eye(law.C.shape[-1]), law.M.shape) if L is None else L
        U = L[good] @ (law.C[good][..., None] if V is None else
                       V[good] * (Vinv[good] @ law.C[good][..., None]).swapaxes(-1, -2))
        # complex only once some eigenbasis is: real weights gather and sum faster
        dtype = np.result_type(self.U, U, w)
        self.U, self.w = self.U.astype(dtype, copy=False), self.w.astype(dtype, copy=False)
        self.U[steps[good]], self.w[steps] = U, w
        if not good.all():
            self.slot[steps[~good]] = sum(map(len, self.L)) + np.arange(np.count_nonzero(~good))
            for kept, x in zip((self.L, self.M, self.C), (L, law.M, law.C)):
                kept.append(x[~good])

    def __call__(self, rows: np.ndarray, rest: np.ndarray) -> np.ndarray:
        """Weights (len(rows), p) of jumps in steps ``rows`` with the fractions ``rest`` to run."""
        out = np.einsum("kab,kb->ka", self.U[rows], np.exp(self.w[rows] * rest[:, None])).real
        k = self.slot[rows]
        if (k >= 0).any():
            at, k = k >= 0, k[k >= 0]
            L, M, C = (np.concatenate(x)[k] for x in (self.L, self.M, self.C))
            out[at] = (L @ linalg.expm(M * rest[at, None, None]) @ C[..., None])[..., 0]
        return out


def _gramian(M: np.ndarray, C: np.ndarray) -> np.ndarray:
    """S with M S + S M' = -C C' for each item of M (k, p, p) and C (k, p, 1),
    from one batched solve of the Kronecker form; the one Lyapunov solver."""
    k, p = M.shape[:2]
    K = np.einsum("kij,ab->kiajb", M, np.eye(p)) + np.einsum("ij,kab->kiajb", np.eye(p), M)
    CC = (C @ C.swapaxes(-1, -2)).reshape(k, p * p, 1)
    return np.linalg.solve(K.reshape(k, p * p, p * p), -CC).reshape(k, p, p)


def _step_stack(spec: ModelSpec, lefts: np.ndarray, N: float, h: float):
    """Propagators of the steps [s, s + h], ``s = lefts`` in rescaled time,
    and the :class:`StepLaw` of their noise with A at (s + h/2)/N and C at
    s/N. A model not declared commuting takes one RK4 step as propagator."""
    A1 = coefficient_values(spec, "A", (lefts + 0.5 * h) / N)
    law = StepLaw(A1, coefficient_values(spec, "C", lefts / N), h)
    if spec.commuting:
        return law.propagator(), law
    A0, A2 = (coefficient_values(spec, "A", t / N) for t in (lefts, lefts + h))
    eye = np.eye(spec.p)
    k2 = A1 @ (eye + (h / 2) * A0)
    k3 = A1 @ (eye + (h / 2) * k2)
    return eye + (h / 6) * (A0 + 2 * k2 + 2 * k3 + A2 @ (eye + h * k3)), law


def step_propagators(spec: ModelSpec, lefts, N: float, h: float) -> np.ndarray:
    """Propagators (n, p, p) of dX/ds = A(s/N) X over the steps [s, s + h]
    with left points ``s = lefts`` in rescaled time (:func:`_step_stack`)."""
    return _step_stack(spec, np.asarray(lefts, dtype=float), N, h)[0]


def affine_states(P: np.ndarray, c: np.ndarray, x0: np.ndarray) -> np.ndarray:
    """States x_1 .. x_n of x_{k+1} = P[k] x_k + c[k] from x_0.

    ``c`` has shape (n, p) and ``x0`` shape (p,), or ``c`` (n, p, R) and
    ``x0`` (p, R) for R paths that share the propagators; the states take
    the shape of ``c``. A doubling prefix scan over the affine maps (Blelloch
    1990, "Prefix sums and their applications"): after the round with stride
    d, entry k holds the composition of steps k - 2d + 1 .. k, so log2(n)
    batched rounds replace n sequential steps.
    """
    n = len(P)
    M = P.copy()
    v = c.copy()
    if n:
        v[0] += P[0] @ x0
    cols = v if v.ndim == 3 else v[..., None]  # a view: updates land in v
    d = 1
    while d < n:
        cols[d:] += M[d:] @ cols[:-d]
        if 2 * d < n:
            M[d:] = M[d:] @ M[:-d]
            # a composed map below the smallest normal double adds nothing to
            # a state of normal size, and subnormal operands slow every matmul
            # that reads them (strong decay over many steps reaches them)
            M[np.abs(M) < _TINY] = 0.0
        d *= 2
    return v


def _simulate_yn_statespace(
    spec, triplet, N, eval_times, fine_step, burn_in, rng, keep_increments, increments, meta
):
    eval_times = np.asarray(eval_times, dtype=float)
    plan = build_plan(spec, N, N * eval_times, fine_step, burn_in)
    spec, h, n_steps = plan.spec, plan.h, plan.n_steps

    if increments is None:
        inc = _draw_increments_rows(triplet, h, n_steps, [rng])[0]
    else:
        inc = np.asarray(increments, dtype=float)
        if inc.shape != (n_steps,):
            raise ValueError(f"increments must have shape ({n_steps},)")

    # the noise each record segment adds is sum_j v_j dL_j; one scan over records
    n, p = plan.record_steps.size, spec.p
    decay, eta = np.empty((n, p, p)), np.empty((n, p))
    for segs, steps, D, M, law in _segment_stacks(plan):
        decay[segs] = D
        # left-point weights v_j = M_j C(s_j / N)
        eta[segs] = np.einsum("gjp,gj->gp", (M @ law.C[..., None])[..., 0], inc[steps])
    states = affine_states(decay, eta, np.zeros(p))
    B = coefficient_values(spec, "B", plan.eval_rescaled / N)
    values = np.einsum("kp,kp->k", B, states)
    grid = FineGrid(
        step=h,
        start=plan.start,
        increments=inc if keep_increments else None,
        gaussian_only=triplet.jumps is None or triplet.jump_rate == 0.0,
    )
    info = {"N": N, "model_id": spec.model_id}
    if meta:
        info.update(meta)
    return PathSample(eval_times, values, grid, info)


def refine_path(
    spec,
    triplet: LevyTriplet,
    path: PathSample,
    rng: np.random.Generator,
) -> PathSample:
    """Re-simulate on the same noise at half the step.

    Each retained increment is split into two conditionally on its total
    (a bridge draw), so the refined path is driven by the same underlying
    noise. Only drift + Gaussian drivers split exactly this way.
    """
    grid = path.fine_grid
    if grid is None or grid.increments is None:
        raise ValueError("path does not retain increments")
    if not grid.gaussian_only:
        raise ValueError("increment splitting implemented for Gaussian drivers only")
    h = grid.step
    inc = grid.increments
    half = np.empty(2 * inc.size)
    bridge = 0.5 * np.sqrt(triplet.sigma2 * h) * rng.standard_normal(inc.size)
    first = 0.5 * inc + bridge
    half[0::2] = first
    half[1::2] = inc - first
    # same rescaled burn-in span, so the fine grid start is unchanged and the
    # halved-step burn-in step count doubles exactly
    burn = path.times[0] * path.meta["N"] - grid.start
    return simulate_yn(
        spec,
        triplet,
        path.meta["N"],
        path.times,
        h / 2,
        burn,
        rng,
        keep_increments=True,
        increments=half,
    )
