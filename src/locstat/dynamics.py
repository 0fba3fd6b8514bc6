"""Time-varying linear state dynamics.

Covers the coefficient-function model types, the transition matrix of
dPsi/dt = A(t) Psi with Psi(t0, t0) = I by three methods, and simulation of
the rescaled process

    Y_N(t) = B(t)' X(N t),    dX(s) = A(s/N) X(s) ds + C(s/N) L(ds),

by a state recursion on a fine grid in rescaled time s. A fine step moves
the state by the exact step law of :class:`StepLaw`, which the frozen process
of ``stationary`` uses too, with the fourth-order Magnus exponent of A over
the step and C at the step midpoint (:func:`_step_stack`). A
stack of diagonal steps takes the identity basis with no eigendecomposition;
any other stack shares the eigenbasis of its first step wherever that basis
diagonalizes every step up to a residual of ``_RESIDUAL_MAX``, and otherwise
each step takes its own.

Every model runs as a state space model (a :class:`Car1Spec` as its 1x1
``to_state_space()`` view), and the recursion runs over records as a prefix
scan of affine maps (:func:`affine_states`) on the segment data of
:func:`_segment_stacks`, which sums the steps of a stack in eigen coordinates
where it can and by matrix products where it must. The eigen-coordinate sums
(:func:`_eigen_sums`) run step-major, on (g, p[, p], m) arrays whose fine-step
axis is innermost and contiguous, and keep the bits of the step-second layout
they replaced (:func:`_step_sum`). Every draw of Y_N, the
campaigns' and :func:`simulate_yn`'s alike, is one draw of the noise of each
record segment from its exact law (:class:`SegmentLaw`): one sampler,
:func:`draw_segment_noise`, draws the driver, and one map,
:func:`_driver_law`, turns a triplet into a law.
"""

import functools
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from . import linalg  # perfbench/spans.py traces linalg.expm calls from here
from .noise import JumpSpec, LevyTriplet

__all__ = [
    "Lipschitz",
    "ModelSpec",
    "Car1Spec",
    "PathSample",
    "transition_matrix",
    "transition_seminorm_check",
    "simulate_yn",
    "validate_model",
    "validate_car1",
    "Plan",
    "build_plan",
    "coefficient_values",
    "eigenbasis",
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


@dataclass
class PathSample:
    times: np.ndarray
    values: np.ndarray
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
    from .stationary import _gauss_kronrod  # stationary imports this module

    if t1 == t0:
        return np.zeros((spec.p, spec.p))
    return _gauss_kronrod(
        lambda taus: np.stack([np.asarray(spec.A(tau), dtype=float) for tau in taus]), t0, t1
    )


def _cumulative_simpson(y: np.ndarray, h: float) -> np.ndarray:
    """int_0^{x_i} y for every node x_i = i h of an odd number of nodes,
    along axis 0. Each step integrates the parabola through the pair of steps
    it belongs to, as scipy's ``cumulative_simpson`` does on such a grid."""
    f0, f1, f2 = y[:-2:2], y[1:-1:2], y[2::2]
    steps = np.stack([5.0 * f0 + 8.0 * f1 - f2, 5.0 * f2 + 8.0 * f1 - f0], axis=1)
    steps = (h / 12.0) * steps.reshape((len(y) - 1,) + y.shape[1:])
    return np.concatenate([np.zeros((1,) + y.shape[1:]), np.cumsum(steps, axis=0)])


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
        term = _cumulative_simpson(integrand, span / (nodes - 1))
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

    Checks that the nodes increase, that the step is finite, positive and
    divides every gap between them, that the burn-in is finite and at least
    8 / stability margin, and that the run is at most ``_MAX_STEPS`` steps.
    ``spec`` is a :class:`ModelSpec` or anything with a ``to_state_space()``
    view, such as :class:`Car1Spec`.
    """
    spec = spec.to_state_space()
    rescaled = np.asarray(rescaled, dtype=float)
    if rescaled.size == 0:
        raise ValueError("need at least one evaluation time")
    if not np.all(np.isfinite(rescaled)):
        raise ValueError("evaluation times must be finite")
    if not 0 < h < np.inf:
        raise ValueError(f"fine_step must be positive and finite, got {h}")
    if not np.isfinite(burn_in):
        raise ValueError(f"burn_in must be finite, got {burn_in}")
    min_burn = 8.0 / spec.stability_margin
    if burn_in < min_burn - 1e-9:
        raise ValueError(f"burn_in {burn_in} below required {min_burn} (8 / stability margin)")
    gaps = np.diff(rescaled)
    if gaps.size and not np.all(gaps > 0):
        raise ValueError("evaluation times must be strictly increasing")
    n = (burn_in + float(rescaled[-1] - rescaled[0])) / h  # a Python float: inf, no warning
    if n > _MAX_STEPS:
        run = f"simulation.burn_in {burn_in}" if burn_in / h > _MAX_STEPS else "the run"
        raise ValueError(f"{run} over fine_step {h} is {n:.3g} steps, more than {_MAX_STEPS}")
    if gaps.size and h > gaps.min() + 1e-12:
        raise ValueError("fine_step exceeds the smallest rescaled evaluation gap")
    steps_per_gap = np.rint(gaps / h).astype(int)
    bad = (steps_per_gap < 1) | (
        np.abs(steps_per_gap * h - gaps) > 1e-12 * np.maximum(1.0, np.abs(gaps)))
    if bad.any():
        i = int(bad.argmax())
        raise ValueError(f"fine_step {h} does not divide evaluation gap {gaps[i]} at index {i}")
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
    # (seg, U) -> (total, p) jump weights
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


def _segment_stacks(plan: Plan, weights: "JumpWeights | None" = None):
    """Yields ``(segs, steps, D, drift, cov, law)`` per stack of g equal-length
    record segments of ``plan``: segment indices (g,), fine steps (g, m),
    D = P_{hi-1} ... P_lo (g, p, p), the unit-driver drift sum_j M_j d_j (g, p)
    and covariance sum_j M_j G_j M_j' (g, p, p), M_j = P_{hi-1} ... P_{j+1},
    and the :class:`StepLaw` of the steps; the only code that turns steps into
    segment data. Jump weights go into ``weights`` when it is given. A stack
    on one eigenbasis trusted up to sqrt(``_COND_MAX``), and every diagonal
    stack (p = 1 among them), is summed in eigen coordinates
    (:func:`_eigen_sums`), the others by :func:`_scan_sums`; a record at
    step 0 (a burn-in below half a step) keeps the zero start: D = I and no
    noise. A stack holds about
    ``_BLOCK_ENTRIES`` matrix entries but at least one segment: a segment of m
    steps costs O(m p^2).
    """
    spec, h, N = plan.spec, plan.h, plan.N
    bounds = np.concatenate([[0], plan.record_steps]).astype(np.int64)
    lengths = np.diff(bounds)
    p = spec.p
    for m in linalg.unique(lengths):
        same = np.flatnonzero(lengths == m)
        stack = max(1, _BLOCK_ENTRIES // max(1, m * p * p))
        for segs in np.split(same, np.arange(stack, same.size, stack)):
            steps = bounds[segs, None] + np.arange(m)  # (segments, m)
            law = _step_stack(spec, plan.start + steps * h, N, h)
            shared = law.shared
            sums = _eigen_sums if shared and shared[3] <= np.sqrt(_COND_MAX) else _scan_sums
            yield (segs, steps, *sums(law, steps, weights), law)


def _eigen_sums(law: "StepLaw", steps: np.ndarray, weights) -> tuple:
    """D, drift and covariance of a stack (g, m) on the shared eigenbasis V of
    ``law``, with no matrix scan. With w_j the eigenvalues of step j, S_j =
    w_{j+1} + ... + w_{m-1}, g_j = V^-1 C_j and y_j = e^{S_j} g_j, M_j = V
    diag(e^{S_j}) V^-1, so D = V diag(e^{w_0 + ... + w_{m-1}}) V^-1,

        sum_j M_j d_j = h V sum_j e^{S_j} phi(w_j) g_j,
        sum_j M_j G_j M_j' = h V [sum_j y_j y_j^* o phi(w_j + conj w_j')] V^*,

    and step j has jump weight V diag(y_j) e^{w_j f}; every sum is elementwise.
    On the identity basis of a diagonal stack (V = None) g_j = C_j and the
    sums are already in state coordinates: no product with V is taken.

    The sums run step-major: w, g, e, y and phi are (g, p[, p], m), with the
    fine steps innermost and contiguous, so each ufunc loops over m steps and
    not over p states. Every product keeps its operand order, each exp and
    expm1 reads a contiguous array (numpy rounds exp and expm1 of a reversed
    view, such as a slice of the reversed cumsum, differently in the last bit
    for a few percent of entries), and :func:`_step_sum` adds the steps in the
    order the (g, m, p[, p]) layout added them, so every output keeps its
    bits."""
    w, V, Vinv, _ = law.shared
    p = w.shape[-1]
    h = law.h  # the one step length of a stack of _segment_stacks
    ws = np.ascontiguousarray(w.transpose(0, 2, 1))  # for p = 1 a reshape, no copy
    suffix = np.cumsum(ws[..., ::-1], axis=-1)[..., ::-1]  # w_j + ... + w_{m-1}
    e = np.exp(np.concatenate([suffix[..., 1:], np.zeros_like(ws[..., :1])], axis=-1))
    g = (law.C if V is None else np.einsum("ab,gjb->gja", Vinv, law.C)).transpose(0, 2, 1)
    y = e * g
    drift = _step_sum(h * e * _phi(ws) * g)
    wc, yc = (ws.conj(), y.conj()) if np.iscomplexobj(ws) else (ws, y)
    phi = _phi(ws[:, :, None] + wc[:, None])
    X = _step_sum((h * y)[:, :, None] * yc[:, None] * phi)
    if weights is not None:
        U = (np.eye(p) if V is None else V) * y.transpose(0, 2, 1)[..., None, :]
        weights.trusted(steps, U, w)
    # the cumsum's S_0 rounds like m eps |S|: the total is summed afresh
    decay = np.exp(_step_sum(ws))[:, None, :]
    if V is None:
        return np.eye(p) * decay, drift, X
    D = (V * decay) @ Vinv
    return D.real, (drift @ V.T).real, (V @ X @ V.conj().T).real


def _step_sum(x: np.ndarray) -> np.ndarray:
    """Sum over the last axis, the m steps of a step-major array (g, p[, p], m),
    rounded as numpy sums the step axis of the (g, m, p[, p]) layout: pairwise
    for p = 1, where the steps are contiguous in both layouts, and otherwise
    one step after another from +0, so terms that are all -0 sum to +0. No
    steps (a record at step 0) sum to 0."""
    if x.shape[1] == 1 or x.shape[-1] == 0:
        return x.sum(axis=-1)
    return np.add.accumulate(x, axis=-1)[..., -1] + 0.0


def _scan_sums(law: "StepLaw", steps: np.ndarray, weights) -> tuple:
    """D, drift and covariance of a stack (g, m) from the products M_j of the
    scan :func:`_prefix_products`, for the stacks :func:`_eigen_sums` cannot take."""
    P = law.propagator()
    g, p = P.shape[0], P.shape[-1]
    # T[:, i] = P_{hi-1} ... P_{hi-1-i}
    T = _prefix_products(P[:, ::-1])
    # in step order, P_{hi-1} ... P_{j+1}, which is I for the last step
    M = np.concatenate([T[:, -2::-1], np.broadcast_to(np.eye(p), (g, 1, p, p))], axis=1)
    d, G = law.moments()
    if weights is not None:
        weights.put(steps, law, M)
    return T[:, -1], np.einsum("gjab,gjb->ga", M, d), np.einsum("gjab,gjbc,gjdc->gad", M, G, M)


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
    :func:`_segment_stacks`; the jump weights of the steps are kept only when
    the driver has jumps."""
    spec, N = plan.spec, plan.N
    bounds = np.concatenate([[0], plan.record_steps]).astype(np.int64)
    n, p = bounds.size - 1, spec.p
    weights = JumpWeights(plan.n_steps, p) if triplet.jump_rate > 0 else None
    decay, drift, cov = np.empty((n, p, p)), np.empty((n, p)), np.empty((n, p, p))
    for segs, _, D, d, G, _ in _segment_stacks(plan, weights):
        decay[segs], drift[segs], cov[segs] = D, d, G
    return _driver_law(
        triplet, drift, cov, plan.h, np.diff(bounds), decay,
        coefficient_values(spec, "B", plan.eval_rescaled / N),
        functools.partial(_cell_weights, bounds, weights),
    )


def _draw_increments_rows(triplet: LevyTriplet, h: float, n: int, R: int, gen) -> np.ndarray:
    """Increments of the driver over n fine steps of length h for R
    replications, shape (R, n), all drawn from ``gen``: :func:`draw_segment_noise`
    on the law of L(h), one segment of unit weight, broadcast to n segments."""
    law = _driver_law(triplet, np.broadcast_to(h, (n, 1)), np.full((1, 1, 1), h), h,
                      np.broadcast_to(1.0, n), None, None, lambda seg, unit: np.ones((seg.size, 1)))
    return np.ascontiguousarray(draw_segment_noise(law, gen, R)[:, 0, :].T)


def draw_segment_noise(law: SegmentLaw, gen: np.random.Generator, R: int) -> np.ndarray:
    """Noise of every record segment for R replications, shape (n_records, p, R).

    ``gen`` draws the whole batch, one call per kind, in this order: standard
    normals (R, n_records, p) (when chol is set), the Poisson jump counts on
    the (R, n_records) broadcast of the segment rates, a uniform per jump that
    places it in its segment, then the jump sizes; jumps are ordered by
    replication, then by segment. The noise of every segment and replication
    is then built at once.
    """
    n, p = law.mean.shape
    eta = np.repeat(law.mean[:, :, None], R, axis=2)
    if law.chol is not None:
        z = gen.standard_normal((R, n, p)).transpose(1, 2, 0)
        eta += (_product if p == 1 else np.matmul)(law.chol, z)
    if law.jump_mean is None:
        return eta
    counts = gen.poisson(np.broadcast_to(law.jump_mean, (R, n)))
    total = int(counts.sum())
    if total:
        units = gen.random(total)
        sizes = law.jumps.sample(total, gen)
        # replication-major cell of each jump, in draw order
        rep, seg = np.divmod(np.repeat(np.arange(R * n), counts.ravel()), n)
        contrib = law.jump_weight(seg, units) * sizes[:, None]
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


def simulate_yn(spec, triplet: LevyTriplet, N: int, eval_times, fine_step: float, burn_in: float,
                rng: np.random.Generator, meta: dict | None = None) -> PathSample:
    """Simulate Y_N at the given original-time evaluation points.

    State starts at zero a burn-in before the first evaluation; the burn-in
    must be at least 8 / stability_margin so the truncated history is below
    Monte Carlo resolution. The path is one replication of the campaigns'
    draw: the segment law of the plan, drawn from ``rng``.
    """
    return _simulate_yn_statespace(spec, triplet, N, eval_times, fine_step, burn_in, rng, meta)


# Stack bound of _segment_stacks, measured on a 2-core VM: the statespace_simulate
# benchmark peaks at 83.1 MB with 65536, 78.4 MB with 16384 and 77.6 MB with 8192
# (lln_ladder: 66.2, 62.3 and 62.1 MB); with 8192 the lln_ladder campaign takes
# about 2 ms longer than with 16384, as its ladder builds twice as many stacks.
_BLOCK_ENTRIES = 16384
# most fine steps of a run, burn-in included: its memory grows with its steps
_MAX_STEPS = 1 << 22
# eigenbasis condition number above which a matrix exponential is computed by
# expm instead of from the eigendecomposition (here and in stationary)
_COND_MAX = 1e8
# off-diagonal part of V^-1 M V, relative to M, up to which a step shares the
# eigenbasis V of its stack's reference step (StepLaw.basis)
_RESIDUAL_MAX = 1e-12
_TINY = np.finfo(float).tiny


def eigenbasis(M: np.ndarray):
    """Eigendecomposition ``(w, V, V^-1, est)`` of M, shape (..., p, p).

    ``est`` = ||V||_F ||V^-1||_F estimates the condition number of V: it lies
    between cond_2(V) and p cond_2(V), and needs no SVD. Callers trust the
    basis where ``est <= _COND_MAX`` and take expm elsewhere. A NaN estimate
    is ``inf``, and so is every matrix of a batch in which some V is exactly
    singular (``inv`` raises).
    """
    w, V = np.linalg.eig(M)
    try:
        Vinv = np.linalg.inv(V)
    except np.linalg.LinAlgError:
        return w, V, np.full_like(V, np.nan), np.full(M.shape[:-2], np.inf)
    est = np.linalg.norm(V, axis=(-2, -1)) * np.linalg.norm(Vinv, axis=(-2, -1))
    return w, V, Vinv, np.where(np.isnan(est), np.inf, est)


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
    with np.errstate(invalid="ignore"):  # 0 / 0, set to 1 below
        out = (np.expm1(x) if e is None else e) / x
    out[x == 0] = 1.0
    return out


def _rows(good: np.ndarray):
    """Index of the steps where ``good`` holds: the mask, or ``...`` when it
    holds on every step, since a mask copies even a broadcast view."""
    return ... if good.all() else good


class StepLaw:
    """Exact law of steps x <- e^M x + int_0^h e^{M(h-r)/h} C L(dr) with the
    exponent M and C fixed in each step: M = A h for a frozen A (Brockwell
    2001, "Levy-driven CARMA processes", AISM 53), or the Magnus exponent of
    :func:`_step_stack`. Drift weight d = int_0^h e^{Mr/h} dr C, covariance G =
    int_0^h e^{Mr/h} CC' e^{M'r/h} dr, jump weight e^{M(h-r)/h} C at offset r
    (:class:`JumpWeights`); all entrywise for p = 1. On a trusted eigenbasis
    M = V diag(w) V^-1 (:func:`eigenbasis`), e^M = V diag(e^w) V^-1; with g =
    V^-1 C and phi(x) = expm1(x) / x, d = h V (phi(w) g) and G = h V [g g^* o
    phi(w_i + conj w_k)] V^*. The terms g g^* grow like
    cond(V)^2 |C|^2 and cancel down to G, so d and G take that form only where
    the estimate of cond(V) is at most sqrt(``_COND_MAX``). Otherwise e^M comes
    from expm, d = h M^-1 (e^M - I) C and G = h (S - e^M S e^M'), S the Gramian
    of (M, C), which unlike a block exponential does not cancel on long steps.

    A stack of steps takes one eigenbasis when it can: commuting
    diagonalizable matrices share their eigenvectors (Horn & Johnson, *Matrix
    Analysis*, Thm 1.3.21). A stack with no nonzero off-diagonal entry takes
    V = I and w_k = diag(M_k), with no eigendecomposition or residual test.
    Otherwise V and V^-1 come from the first step, and each step
    takes w_k = diag(V^-1 M_k V), provided the basis is trusted and every
    off-diagonal part ||V^-1 M_k V - diag(w_k)||_F is at most
    ``_RESIDUAL_MAX`` ||M_k||_F. Otherwise every step of the stack takes its
    own eigenbasis. The residuals decide, not a declared commuting flag; a
    constant A, as in the frozen process, passes with rounding residuals.
    ``M`` is (..., p, p), ``C`` broadcasts to (..., p) and ``h`` to their
    leading shape. The eigenbasis is taken on first use.
    """

    def __init__(self, M, C, h):
        self.h = np.asarray(h, dtype=float)
        self.M = np.asarray(M, dtype=float)
        self.C = np.broadcast_to(C, self.M.shape[:-1])

    @functools.cached_property
    def shared(self):
        """(w, V, V^-1, est) with the eigenbasis V (p, p) of the first step
        when every step shares it, else None. A stack with no steps, or with no
        nonzero off-diagonal entry in any step (every p = 1 stack), takes the
        identity, V = V^-1 = None, and w = diag(M): no eigendecomposition and
        no residual test."""
        M, p = self.M, self.M.shape[-1]
        if not M[..., ~np.eye(p, dtype=bool)].any():
            return np.diagonal(M, axis1=-2, axis2=-1), None, None, 1.0
        _, V, Vinv, est = eigenbasis(M.reshape(-1, p, p)[0])
        if est > _COND_MAX:
            return None
        R = Vinv @ M @ V
        w = np.diagonal(R, axis1=-2, axis2=-1).copy()
        R[..., np.arange(p), np.arange(p)] = 0.0
        if np.any(np.linalg.norm(R, axis=(-2, -1))
                  > _RESIDUAL_MAX * np.linalg.norm(M, axis=(-2, -1))):
            return None
        return w, V, Vinv, est

    @functools.cached_property
    def basis(self):
        """(w, V, V^-1, est) of M, ``est`` the condition estimate of
        :func:`eigenbasis` per step. A shared basis gives V, V^-1 and est as
        broadcast views, V = I on the identity basis; for p = 1, w = M[..., 0],
        V = None and est = 1."""
        if self.shared is None:
            return eigenbasis(self.M)
        (w, V, Vinv, est), shape = self.shared, self.M.shape
        if shape[-1] == 1:
            return w, None, None, np.broadcast_to(1.0, shape[:-2])
        if V is None:
            V = Vinv = np.eye(shape[-1])
        return (w, np.broadcast_to(V, shape), np.broadcast_to(Vinv, shape),
                np.broadcast_to(est, shape[:-2]))

    def _expm(self, rows: np.ndarray) -> np.ndarray:
        """e^M of the steps ``rows`` (a mask), once per distinct M."""
        M, at = np.unique(self.M[rows], axis=0, return_inverse=True)
        return linalg.expm(M)[at.ravel()]

    def propagator(self) -> np.ndarray:
        """e^M, shape (..., p, p)."""
        w, V, Vinv, est = self.basis
        if V is None:
            return np.exp(self.M)
        good = est <= _COND_MAX
        at = _rows(good)
        P = np.empty(self.M.shape)
        P[at] = ((V[at] * np.exp(w[at])[..., None, :]) @ Vinv[at]).real
        if at is not ...:
            P[~good] = self._expm(~good)
        return P

    def moments(self):
        """Drift weights d (..., p) and covariances G (..., p, p)."""
        w, V, Vinv, est = self.basis
        h = self.h[..., None]
        if V is None:  # phi(2w) = phi(w) (1 + expm1(w) / 2)
            e = np.expm1(w)
            q = h * _phi(w, e)
            return q * self.C, (q * (1.0 + 0.5 * e) * self.C**2)[..., None]
        good = est <= np.sqrt(_COND_MAX)
        at = _rows(good)
        d, G = np.empty(self.C.shape), np.empty(self.M.shape)
        g, w, V = (Vinv[at] @ self.C[at][..., None])[..., 0], w[at], V[at]
        d[at] = (V @ (_phi(w) * g)[..., None])[..., 0].real
        X = g[..., :, None] * g.conj()[..., None, :] * _phi(w[..., :, None] + w.conj()[..., None, :])
        G[at] = (V @ X @ V.conj().swapaxes(-1, -2)).real
        if at is not ...:
            M, C, P = self.M[~good], self.C[~good][..., None], self._expm(~good)
            S = _gramian(M, C)
            d[~good] = np.linalg.solve(M, P @ C - C)[..., 0]
            G[~good] = S - P @ S @ P.swapaxes(-1, -2)
        return h * d, h[..., None] * G


class JumpWeights:
    """Weights of jumps in a flat stack of n steps. A jump in step j with the
    fraction f of the step still to run has weight L_j e^{M_j f} C_j, with
    M_j the exponent of its :class:`StepLaw` and L_j the matrix that carries
    it to its record. On a trusted eigenbasis of M_j that is (U_j e^{w_j f}).real
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
        w, V, Vinv, est = law.basis
        good = est <= _COND_MAX
        at = _rows(good)
        L = np.broadcast_to(np.eye(law.C.shape[-1]), law.M.shape) if L is None else L
        U = L[at] @ (law.C[at][..., None] if V is None else
                     V[at] * (Vinv[at] @ law.C[at][..., None]).swapaxes(-1, -2))
        self.trusted(steps[at], U, w[at])
        if at is not ...:
            self.slot[steps[~good]] = sum(map(len, self.L)) + np.arange(np.count_nonzero(~good))
            for kept, x in zip((self.L, self.M, self.C), (L, law.M, law.C)):
                kept.append(x[~good])

    def trusted(self, steps: np.ndarray, U: np.ndarray, w: np.ndarray) -> None:
        """Store the steps ``steps`` with weights (U_j e^{w_j f}).real."""
        # complex only once some eigenbasis is: real weights gather and sum faster
        dtype = np.result_type(self.U, U, w)
        self.U, self.w = self.U.astype(dtype, copy=False), self.w.astype(dtype, copy=False)
        self.U[steps], self.w[steps] = U, w

    def __call__(self, rows: np.ndarray, rest: np.ndarray) -> np.ndarray:
        """Weights (len(rows), p) of jumps in steps ``rows`` with the fractions ``rest`` to run."""
        # take gathers rows several times faster than fancy indexing
        U, w, k = (x.take(rows, axis=0) for x in (self.U, self.w, self.slot))
        out = np.einsum("kab,kb->ka", U, np.exp(w * rest[:, None])).real
        if (k >= 0).any():
            at, k = k >= 0, k[k >= 0]
            L, M, C = (np.concatenate(x)[k] for x in (self.L, self.M, self.C))
            out[at] = (L @ linalg.expm(M * rest[at, None, None], C)[..., None])[..., 0]
        return out


def _gramian(M: np.ndarray, C: np.ndarray) -> np.ndarray:
    """S with M S + S M' = -C C' for each item of M (k, p, p) and C (k, p, 1),
    from one batched solve of the Kronecker form; the one Lyapunov solver."""
    k, p = M.shape[:2]
    K = np.einsum("kij,ab->kiajb", M, np.eye(p)) + np.einsum("ij,kab->kiajb", np.eye(p), M)
    CC = (C @ C.swapaxes(-1, -2)).reshape(k, p * p, 1)
    return np.linalg.solve(K.reshape(k, p * p, p * p), -CC).reshape(k, p, p)


def _step_stack(spec: ModelSpec, lefts: np.ndarray, N: float, h: float) -> StepLaw:
    """:class:`StepLaw` of the steps [s, s + h], ``s = lefts`` in rescaled time,
    with the fourth-order Magnus exponent (h/2)(A_1 + A_2) + (sqrt(3) h^2/12)
    [A_2, A_1], A_1 and A_2 at the Gauss nodes (s + (1/2 -+ sqrt(3)/6) h)/N
    (Blanes, Casas, Oteo & Ros 2009, Phys. Rep. 470), and C at (s + h/2)/N.
    A constant A gives A h bit for bit. Diagonal matrices, p = 1 among them,
    commute exactly, so their commutator is not computed."""
    nodes = (0.5 - np.sqrt(3.0) / 6.0, 0.5 + np.sqrt(3.0) / 6.0)
    A1, A2 = (coefficient_values(spec, "A", (lefts + c * h) / N) for c in nodes)
    M = 0.5 * h * (A1 + A2)
    off = ~np.eye(spec.p, dtype=bool)
    if A1[..., off].any() or A2[..., off].any():
        M += (np.sqrt(3.0) * h * h / 12.0) * (A2 @ A1 - A1 @ A2)
    return StepLaw(M, coefficient_values(spec, "C", (lefts + 0.5 * h) / N), h)


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
    mul = _product if P.shape[-1] == 1 else np.matmul
    d = 1
    while d < n:
        cols[d:] += mul(M[d:], cols[:-d])
        if 2 * d < n:
            M[d:] = mul(M[d:], M[:-d])
            # a composed map below the smallest normal double adds nothing to
            # a state of normal size, and subnormal operands slow every matmul
            # that reads them (strong decay over many steps reaches them)
            M[np.abs(M) < _TINY] = 0.0
        d *= 2
    return v


def _product(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``a @ b`` for a of shape (..., 1, 1), elementwise: a matmul adds a b to
    +0, so a -0 product comes out +0 here too."""
    out = a * b
    out += 0.0
    return out


def _simulate_yn_statespace(spec, triplet, N, eval_times, fine_step, burn_in, rng, meta):
    eval_times = np.asarray(eval_times, dtype=float)
    plan = build_plan(spec, N, N * eval_times, fine_step, burn_in)
    law = build_segment_law(plan, triplet)
    values = run_segment_law(law, draw_segment_noise(law, rng, 1))[0]
    info = {"N": N, "model_id": plan.spec.model_id}
    if meta:
        info.update(meta)
    return PathSample(eval_times, values, info)
