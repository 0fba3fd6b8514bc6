"""Time-varying linear state dynamics.

Covers the coefficient-function model types, the transition matrix of
dPsi/dt = A(t) Psi with Psi(t0, t0) = I by three methods, and simulation of
the rescaled process

    Y_N(t) = B(t)' X(N t),    dX(s) = A(s/N) X(s) ds + C(s/N) L(ds),

by a recursion over its records, x_k = D_k x_{k-1} + eta_k, in rescaled
time s. Every draw of Y_N, the campaigns' and :func:`simulate_yn`'s alike,
is one draw of the noise eta_k of each record segment from its law
(:class:`SegmentLaw`): one sampler, :func:`draw_segment_noise`, draws the
driver, one map, :func:`_driver_law`, turns a triplet into a law, and one
affine prefix scan (:func:`affine_states`) runs the recursion. Every model
runs as a state space model (a :class:`Car1Spec` as its 1x1
``to_state_space()`` view).

:func:`_segment_stacks` builds the segment data by one of two laws:

* gap laws, exact for the continuous model, where A shares one basis at
  the quadrature nodes of the gaps (the identity for a diagonal A, every
  p = 1 model among them, or a trusted eigenbasis): the transition of a
  commuting A is exp(int A), so D_k, the drift, the covariance and the jump
  weights are integrals over each gap, taken by G10K21 panels
  (:func:`_gap_sums`). A and C are evaluated at the panel nodes only, and
  the fine step enters neither the work nor the law;
* fine-step laws elsewhere (a non-commuting or near-defective A): each
  fine step moves the state by the exact step law of :class:`StepLaw` with
  the fourth-order Magnus exponent of A over the step and C at its midpoint
  (:func:`_step_stack`), and the steps of a segment are combined by a
  matrix scan (:func:`_scan_sums`), in blocks scanned back from the record
  (:func:`_fine_sums`). These laws are exact for the fine-step recursion;
  its in-step noise weight freezes A, so against the continuous model they
  are second order in the fine step, which sets their work.

Every segment reports its span, the part of it whose jumps reach the record
(the live part of a gap law, the scanned part of a fine-step segment), so
its Poisson mean is rate times span. One table, :class:`JumpWeights`,
places and weighs the jumps of every law: a row per panel of a gap law and
per fine step, each a pair of Chebyshev series on [-1, 1].

The fine step keeps its checks (it must divide every gap, a run has at most
``_MAX_STEPS`` steps) for every model. The frozen process of ``stationary``
takes :class:`StepLaw` with a constant exponent, which is exact, and the
same table, one row per step.
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
    """Law of the noise a linear recursion adds between two records.

    Record segment k ends at record k; the first segment is the burn-in.
    The recursion moves the state over the segment by x <- D_k x + eta_k,
    and eta_k has the law of ``mean_k + chol_k Z`` (Z standard normal in R^p)
    plus, for each of Poisson(``jump_mean_k``) jumps, ``jump_weight(k, U) *
    size``, with U uniform on [0, 1) placing the jump in the segment's span.
    Recorded states drawn this way have the law of the model the segment
    data come from, from one draw per segment. A gap law (:func:`_gap_sums`)
    is the law of the continuous model, exact up to rounding; a fine-step law
    (:func:`_fine_sums`) is that of the fine-step recursion, with step
    products M_j = P_{hi-1} ... P_{j+1}, D_k = P_{hi-1} ... P_lo, mean
    path_drift sum_j M_j d_j and covariance sigma2 sum_j M_j G_j M_j', and is
    second order in the fine step against the continuous model. A product
    that underflows to 0 is the right value. A frozen step is a segment of
    one step, and the per-step increments are the law of one unit-weight
    step, broadcast. One :class:`JumpWeights` table weighs the jumps of every
    kind of segment.
    """

    decay: np.ndarray  # (n_records, p, p) D_k
    mean: np.ndarray  # (n_records, p) path_drift times the unit-driver drift
    chol: np.ndarray | None  # (n_records, p, p) factor of sigma2 times the covariance; None without sigma2
    jump_mean: np.ndarray | None  # (n_records,) rate times the span of each segment; None without jumps
    # (seg, U) -> (total, p) jump weights, a JumpWeights table
    jump_weight: Callable[[np.ndarray, np.ndarray], np.ndarray] | None
    jumps: JumpSpec | None
    B: np.ndarray  # (n_records, p) output vector B(t_k) of each record


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


def _segment_stacks(plan: Plan, weights: "JumpWeights | None" = None, values: bool = False):
    """Yields ``(segs, D, drift, cov, span, coeffs)`` per stack of
    equal-length record segments of ``plan``: segment indices (g,),
    D (g, p, p), the unit-driver drift (g, p) and covariance (g, p, p) of the
    noise each segment adds, the span (g,) over which its jumps reach the
    record, and, when ``values`` is set, the list of ``(A, C)`` coefficient
    arrays the stack was built from (else None); the only code that turns a
    plan into segment data. The rows of the jump weights of every stack go
    to the one table ``weights`` (when given).

    A stack whose A shares one basis at the panel nodes of :func:`_gap_sums`
    (the identity for a diagonal A, every p = 1 model among them, or a
    trusted eigenbasis) takes the law of the continuous model from quadrature
    over each gap, and its span is the live part of the gap. Its stacks are
    chunks of ``_GAP_SEGMENTS`` / p^2 segments, set by the record times
    alone, so the fine step does not enter its law. The other segments run
    the fine-step recursion of :func:`_fine_sums`, in stacks of about
    ``_BLOCK_ENTRIES`` matrix entries (a segment of m steps costs O(m p^2));
    their span is the part that the scan back from the record reached, and
    their ``coeffs`` are the step exponents M and C.
    """
    spec, h, N = plan.spec, plan.h, plan.N
    bounds = np.concatenate([[0], plan.record_steps]).astype(np.int64)
    lengths = np.diff(bounds)
    p = spec.p
    chunk = max(1, _GAP_SEGMENTS // (p * p))
    for m in linalg.unique(lengths):
        same = np.flatnonzero(lengths == m)
        rest = []
        for segs in np.split(same, np.arange(chunk, same.size, chunk)):
            out = _gap_sums(spec, N, plan.start + bounds[segs] * h, m, h, segs, weights, values)
            if out is None:
                rest.append(segs)
            else:
                yield (segs, *out)
        rest = np.concatenate(rest) if rest else same[:0]
        stack = max(1, _BLOCK_ENTRIES // max(1, m * p * p))
        for segs in np.split(rest, np.arange(stack, rest.size, stack)) if rest.size else ():
            yield (segs, *_fine_sums(plan, bounds[segs], m, segs, weights, values))


def _fine_sums(plan: Plan, lo: np.ndarray, m: int, segs: np.ndarray, weights: "JumpWeights | None",
               values: bool) -> tuple:
    """D, drift, covariance, span and coefficient values (as
    :func:`_segment_stacks` yields them) of the fine-step recursion over the
    segments of m steps from the steps ``lo``: the Magnus step laws of
    :func:`_step_stack` and the matrix scan :func:`_scan_sums`, in blocks of
    at most ``_SCAN_ENTRIES`` / p^2 steps, scanned back from the record. A
    block b before the part a already scanned joins it by D = D_a D_b,
    drift = D_a d_b + d_a and cov = D_a G_b D_a' + G_a, and the carries of
    its steps to the record are D_a times theirs. In a segment of more than
    one block, entries of the carry below the smallest normal double are
    flushed to 0, as in :func:`affine_states`; once it is 0, the earlier
    steps add only the exact 0 of the decay and no jump there reaches the
    record, so the scan stops, and the span is the part scanned. A segment
    of one block is one scan, with no flush."""
    spec, h, p = plan.spec, plan.h, plan.spec.p
    size = max(1, _SCAN_ENTRIES // (p * p))
    blocks, vals, hi, D = [], [], m, None
    while hi > 0 and (D is None or D.any()):
        q0 = max(0, hi - size)
        law = _step_stack(spec, plan.start + (lo[:, None] + np.arange(q0, hi)) * h, plan.N, h)
        Db, db, Gb, L = _scan_sums(law)
        if D is None:
            D, drift, cov = Db, db, Gb
        else:
            L = D[:, None] @ L
            drift = drift + (D @ db[..., None])[..., 0]
            cov = cov + D @ Gb @ D.swapaxes(-1, -2)
            D = D @ Db
        if m > size:
            D[np.abs(D) < _TINY] = 0.0
        if weights is not None:  # the jump rows of the block; without jumps it is dropped
            blocks.insert(0, (law, L))
        if values:
            vals.append((law.M, law.C))
        hi = q0
    if weights is not None:
        weights.put_steps(segs, blocks)
    return D, drift, cov, np.full(segs.size, (m - hi) * h), vals if values else None


def _gap_sums(spec: ModelSpec, N: float, lo: np.ndarray, m: int, h: float, segs: np.ndarray,
              weights: "JumpWeights | None", values: bool):
    """D, drift, covariance, span and coefficient values (as
    :func:`_segment_stacks` yields them) of the continuous model over the gaps
    [lo_k, lo_k + L], L = m h, in rescaled time, or None where A has no shared
    trusted basis at the nodes, or where a gap would need more than
    ``_GAP_PANELS`` panels per fine step (a spectrum whose ratio
    max |lambda| / min -Re lambda runs into the millions), which the
    fine-step recursion then takes.

    With A(s/N) = V diag(lambda(s)) V^-1 at every node, g = V^-1 C and
    E(s) = int_s^b lambda on a gap [a, b] (exp(int A) is the transition of a
    commuting A):

        D = V diag(e^{E(a)}) V^-1,   drift = V int_a^b y(s) ds,
        cov = V [int_a^b y y^* ds] V^*,   y = e^{E} g,

    and a jump at x has weight V diag(e^{E(x)}) g(x) (:class:`JumpWeights`).

    A first cut of each gap into panels of ``_PANEL_TIME`` in original time
    gives the basis, max |lambda| and min -Re lambda > 0 at its nodes. Where
    Re E falls below -``_UNDERFLOW``, e^E is 0 in floating point: that head of
    the gap adds to E(a) alone, integrated on panels of the first cut's
    length, and no jump there reaches the record, so the segment's jumps fall
    on the rest, its live part (the span returned). The live part is cut
    into n equal panels, no longer than
    ``_PANEL_TIME`` in original time (A and C are then close to polynomials
    of degree 20 on each) and than ``_PANEL_DECAY`` / max |lambda| (the
    exponent of an integrand then moves by at most 2 ``_PANEL_DECAY`` across
    one). Each panel takes the G10K21 rule of ``stationary._gauss_kronrod``,
    and E the exact integral of the Chebyshev interpolant of lambda at its 21
    nodes (:func:`_panel_sums`). Panels run in blocks of about
    ``_GAP_ENTRIES`` node values of A, from the end of the gaps. The basis,
    and its residual test at every node, are those of :func:`_shared_basis`;
    it must be trusted up to sqrt(``_COND_MAX``), since y y^* grows like
    cond(V)^2 |C|^2 and cancels down to the covariance.
    """
    p, g, L = spec.p, lo.size, m * h
    if L == 0:  # records at step 0: the zero start
        return np.broadcast_to(np.eye(p), (g, p, p)), np.zeros((g, p)), np.zeros((g, p, p)), 0.0, []
    n0 = max(1, int(np.ceil(L / (N * _PANEL_TIME))))
    basis, rho, kappa, first = None, np.zeros(g), np.full(g, np.inf), None
    for q0, q1 in _panel_blocks(n0, g, p):
        A = _panel_values(spec, N, "A", lo, L, n0, q0, q1)
        shared = _shared_basis(A, basis)
        if shared is None or shared[3] > np.sqrt(_COND_MAX):
            return None
        w, *basis = shared
        w = _nodes_last(w)
        rho = np.maximum(rho, np.abs(w).max(axis=(1, 2, 3)))
        kappa = np.minimum(kappa, -w.real.max(axis=(1, 2, 3)))
        first = (A, w) if q1 - q0 == n0 else None
    V, Vinv, _ = basis
    live = np.where(kappa > 0, np.minimum(L, _UNDERFLOW / kappa), L)
    head = L - live
    dtype = np.result_type(w, *(() if V is None else (Vinv,)))
    total, drift, X = np.zeros((g, p), dtype), np.empty((g, p), dtype), np.empty((g, p, p), dtype)
    n_head = np.ceil(head / (N * _PANEL_TIME)).astype(np.int64)
    for n in linalg.unique(n_head[n_head > 0]):
        sub = np.flatnonzero(n_head == n)
        for q0, q1 in _panel_blocks(n, sub.size, p):
            A = _panel_values(spec, N, "A", lo[sub], head[sub], n, q0, q1)
            shared = _shared_basis(A, basis)
            if shared is None:
                return None
            dl = _nodes_last(shared[0]) @ _panel_rule()[1]  # per unit half-width
            total[sub] += (0.5 * head[sub] / n)[:, None] * dl.sum(axis=1)
    counts = np.maximum(np.ceil(live / (N * _PANEL_TIME)),
                        np.ceil(live * rho / _PANEL_DECAY)).astype(np.int64)
    if counts.max() > _GAP_PANELS * m:
        return None
    vals, laws = [], []
    for n in linalg.unique(counts):
        sub = np.flatnonzero(counts == n)
        E = np.zeros((sub.size, p), dtype=np.result_type(w))
        d = G = 0.0
        coefs = []
        for q0, q1 in _panel_blocks(n, sub.size, p):
            if first is not None and n == n0 and not head[sub].any():
                A, w = first[0][sub], first[1][sub]
            else:
                A = _panel_values(spec, N, "A", lo[sub] + head[sub], live[sub], n, q0, q1)
                shared = _shared_basis(A, basis)
                if shared is None:
                    return None
                w = _nodes_last(shared[0])
            C = _panel_values(spec, N, "C", lo[sub] + head[sub], live[sub], n, q0, q1)
            E, d_part, G_part, coef = _panel_sums(w, _nodes_last(C if V is None else C @ Vinv.T),
                                                  0.5 * live[sub] / n, E, weights is not None)
            d, G = d + d_part, G + G_part
            coefs.insert(0, coef)
            if values:
                vals.append((A, C))
        total[sub] += E
        drift[sub], X[sub] = d, G
        laws.append((segs[sub], coefs))
    if weights is not None:
        for sub, coefs in laws:
            weights.put(sub, [(coef, None if V is None else V[None], None) for coef in coefs])
    decay = np.exp(total)[:, None, :]
    if V is None:
        return np.eye(p) * decay, drift, X, live, vals
    return (((V * decay) @ Vinv).real, (drift @ V.T).real, (V @ X @ V.conj().T).real, live, vals)


def _panel_sums(w: np.ndarray, g: np.ndarray, r: np.ndarray, E: np.ndarray, jumps: bool) -> tuple:
    """One block of panels (s, b) of half-widths r (s,), with the eigenvalues w and
    g = V^-1 C at their 21 nodes (s, b, p, 21), nodes last, and E (s, p) at the
    end of the last panel: E at the start of the first panel, the integrals
    of y and of y y^* over the block (eigen coordinates), and, when ``jumps``
    is set, the Chebyshev coefficients (degree, s, b, 2p) of E and of g on
    each panel (else None), E's first,
    cut after the last above 16 eps of its function's largest one (E's
    constant term, which carries the later panels, aside). Each map over the
    nodes is one matrix product of the (s b p, 21) values.

    On a panel with nodes c + r x_i, lambda is taken as its interpolant at
    the nodes, sum_j a_j T_j(x), whose integral F has the coefficients
    b_1 = a_0 - a_2 / 2 and b_k = (a_{k-1} - a_{k+1}) / (2k) (Mason & Handscomb
    2003, *Chebyshev Polynomials*, 2.4.4); so E(x) = E(1) + r (F(1) - F(x)).
    """
    _, k, T, Tinv = _panel_rule()
    shape, p = w.shape, w.shape[2]
    r = r[:, None, None]
    rows = w.reshape(-1, 21)
    a = (rows @ Tinv.T).reshape(shape)
    dl = r * (rows @ k).reshape(shape[:-1])  # int of lambda over each panel
    after = np.cumsum(dl[:, ::-1], axis=1)[:, ::-1]  # over it and the later panels
    tail = E[:, None] + np.concatenate([after[:, 1:], np.zeros_like(dl[:, :1])], axis=1)
    pad = np.concatenate([a, np.zeros_like(a[..., :2])], axis=-1)
    e = np.empty(shape[:-1] + (22,), dtype=a.dtype)
    e[..., 1] = a[..., 0] - 0.5 * a[..., 2]
    e[..., 2:] = (pad[..., 1:21] - pad[..., 3:23]) / (2.0 * np.arange(2, 22))
    e[..., 1:] *= -r[..., None]
    e[..., 0] = tail - e[..., 1:].sum(axis=-1)
    y = np.exp((e.reshape(-1, 22) @ T.T).reshape(shape)) * g
    yc = y.conj() if np.iscomplexobj(y) else y
    drift = r[:, 0] * (y.reshape(-1, 21) @ k).reshape(shape[:-1]).sum(axis=1)
    X = r * np.einsum("sbai,sbci->sac", y * k, yc)
    if not jumps:
        return E + after[:, 0], drift, X, None
    gc = (g.reshape(-1, 21) @ Tinv.T).reshape(shape)
    coef = np.concatenate([e, np.concatenate([gc, np.zeros_like(gc[..., :1])], axis=-1)], axis=-2)
    size = np.abs(coef)
    ref = np.concatenate([size[..., :p, 1:].max(axis=-1), size[..., p:, :].max(axis=-1)], axis=-1)
    big = (size[..., 1:] > 16.0 * np.finfo(float).eps * ref[..., None]).any(axis=(0, 1, 2))
    degree = int(np.flatnonzero(big)[-1]) + 1 if big.any() else 0
    return E + after[:, 0], drift, X, np.moveaxis(coef[..., : degree + 1], -1, 0)


def _nodes_last(x: np.ndarray) -> np.ndarray:
    """Values (s, b, 21, p) at the nodes of panels as a contiguous (s, b, p, 21)."""
    return np.ascontiguousarray(np.swapaxes(x, -1, -2))


def _panel_blocks(n: int, g: int, p: int) -> list:
    """(q0, q1) of the blocks of panels of n-panel gaps, g of them at once,
    with about ``_GAP_ENTRIES`` node values of A each, last block first."""
    size = max(1, _GAP_ENTRIES // (21 * g * p * p))
    return [(max(0, q1 - size), q1) for q1 in range(n, 0, -size)]


def _panel_values(spec: ModelSpec, N: float, name: str, lo: np.ndarray, L, n: int,
                  q0: int, q1: int) -> np.ndarray:
    """Coefficient ``name`` at the nodes (g, q1 - q0, 21) of the panels q0 .. q1 - 1
    of the gaps [lo, lo + L] of rescaled time (L a length or one per gap),
    each cut into n equal panels."""
    width = np.reshape(np.divide(L, n), (-1, 1))
    left = lo[:, None] + width * np.arange(q0, q1)
    return coefficient_values(spec, name, (left[..., None] + (0.5 * width)[..., None]
                                           * (1.0 + _panel_rule()[0])) / N)


@functools.cache
def _panel_rule():
    """The G10K21 nodes x (21,) of [-1, 1] and their Kronrod weights (21,),
    those of ``stationary``, the Chebyshev polynomials T_0 .. T_21 at the
    nodes (21, 22), and the map (21, 21) from values at the nodes to the
    Chebyshev coefficients of their interpolant (condition number 1.8)."""
    from .stationary import _GK_KRONROD, _GK_NODES  # stationary imports this module

    T = np.cos(np.arccos(_GK_NODES)[:, None] * np.arange(22))
    return _GK_NODES, _GK_KRONROD, T, np.linalg.inv(T[:, :21])


class JumpWeights:
    """Weights of the jumps of every record segment of a law, in one table.

    Segment k owns n_k rows, and a jump that its uniform U places in it
    falls in row q = floor(U n_k) at t = 2 (U n_k - q) - 1 of [-1, 1]. A row
    weighs it by basis (e^{E(t)} o g(t)), E and g (p each) Chebyshev series
    on the row, summed by Clenshaw's recurrence:

    * a panel of a gap law (:func:`_gap_sums`): the coefficients of
      :func:`_panel_sums` on the stack's basis V;
    * a fine step (:func:`_fine_sums`) or a frozen step, of exponent
      M = V diag(w) V^-1 (:class:`StepLaw`) and carry L to its record:
      E = w (1 - t) / 2 and g = V^-1 C on the basis L V, V for a frozen step
      and none on the identity basis, so the weight is L e^{M (1 - t) / 2} C;
    * a step with no trusted basis: L expm(M (1 - t) / 2) C per jump.

    Segments with no rows have ``count`` 0. The table is laid out on first
    use, degree-major so that each Clenshaw term is contiguous.
    """

    def __init__(self, n_records: int):
        self.start, self.count = (np.zeros(n_records, dtype=np.int64) for _ in range(2))
        self.blocks, self.rows = [], 0  # (rows, coef (degree, k, 2p), basis, expm)

    def put(self, segs: np.ndarray, blocks: list) -> None:
        """Rows of the segments ``segs`` from ``blocks`` of (coef, basis,
        expm), first rows first: the coefficients (degree, g, k, 2p) of k rows
        per segment, their basis, (1, p, p) or (g k, p, p), or None for the
        identity, and (mask, M, C) of the g k rows, where the mask marks those
        that take expm, or None."""
        n = sum(coef.shape[2] for coef, *_ in blocks)
        self.start[segs], self.count[segs] = self.rows + n * np.arange(segs.size), n
        self.rows += n * segs.size
        q0 = 0
        for coef, *rest in blocks:
            rows = self.start[segs, None] + np.arange(q0, q0 + coef.shape[2])
            self.blocks.append((rows.ravel(), coef.reshape(len(coef), -1, coef.shape[-1]), *rest))
            q0 += coef.shape[2]

    def put_steps(self, segs: np.ndarray, blocks: list) -> None:
        """The steps of the segments ``segs`` from blocks ``(law, L)`` in step
        order: a :class:`StepLaw` of leading shape (g, k), or (g,) for one
        step per segment, and the carries L (law.M's shape) of its steps to
        their records, or None for I."""
        parts = []
        for law, L in blocks:
            p = law.M.shape[-1]
            w, V, Vinv, est = law.basis if law.shared is None else law.shared
            g = law.C if V is None else (Vinv @ law.C[..., None])[..., 0]
            coef = np.zeros((2, law.C.size // p, 2 * p), dtype=np.result_type(w, g))
            coef[0, :, :p] = 0.5 * w.reshape(-1, p)
            coef[1, :, :p] = -0.5 * w.reshape(-1, p)
            coef[0, :, p:] = g.reshape(-1, p)
            basis, expm = V if L is None else L if V is None else L @ V, None
            basis = None if basis is None else basis.reshape(-1, p, p)
            bad = ~np.broadcast_to(est <= _COND_MAX, law.M.shape[:-2]).ravel()
            if bad.any():
                L = np.broadcast_to(np.eye(p), law.M.shape) if L is None else L
                basis = np.where(bad[:, None, None], L.reshape(-1, p, p), basis)
                coef[:, bad] = 0.0
                expm = bad, law.M.reshape(-1, p, p), law.C.reshape(-1, p)
            parts.append((coef.reshape(2, segs.size, -1, 2 * p), basis, expm))
        self.put(segs, parts)

    @functools.cached_property
    def table(self):
        """The coefficients (degree, rows, 2p) and bases (rows, p, p) of every
        row (None where no row has a basis), the mask of the rows that take
        expm with their M and C (None where none does), and whether every
        segment has one row."""
        blocks, self.blocks = self.blocks, None
        c = [block[1] for block in blocks]
        coef = np.zeros((max(map(len, c)), self.rows, c[0].shape[-1]), dtype=np.result_type(*c))
        p, given = coef.shape[-1] // 2, [block[2] for block in blocks if block[2] is not None]
        bases = np.tile(np.eye(p, dtype=np.result_type(*given)), (self.rows, 1, 1)) if given else None
        expm = [block for block in blocks if block[3] is not None] or None
        if expm:
            expm = np.zeros(self.rows, dtype=bool), np.zeros((self.rows, p, p)), np.zeros((self.rows, p))
        for rows, c, basis, kept in blocks:
            coef[: len(c), rows] = c
            if basis is not None:
                bases[rows] = basis
            if kept is not None:
                for x, y in zip(expm, kept):
                    x[rows] = y
        return coef, bases, expm, self.count.max() == 1

    def __call__(self, seg: np.ndarray, unit: np.ndarray) -> np.ndarray:
        """Weights (len(seg), p) of jumps at the fractions ``unit`` of their segments ``seg``."""
        coef, bases, expm, single = self.table
        rows = self.start.take(seg)
        if single:  # one row per segment: q = 0
            f = unit
        else:
            n = self.count.take(seg)
            x = unit * n
            q = np.minimum(x.astype(np.int64), n - 1)
            rows += q
            f = x - q
        t = (2.0 * f - 1.0)[:, None]
        c = coef.take(rows, axis=1)  # (degree, jumps, 2p), each degree contiguous
        # Clenshaw: b_k = c_k + 2 t b_{k+1} - b_{k+2}, value c_0 + t b_1 - b_2
        val = c[-1]
        if len(c) > 1:
            b1, b2 = val, 0.0
            for j in range(len(c) - 2, 0, -1):
                b1, b2 = c[j] + 2.0 * t * b1 - b2, b1
            val = c[0] + t * b1
            if len(c) > 2:
                val -= b2
        p = c.shape[-1] // 2
        out = np.exp(val[:, :p]) * val[:, p:]
        if bases is not None:
            out = np.einsum("kab,kb->ka", bases.take(rows, axis=0), out).real
        if expm is not None and (at := expm[0].take(rows)).any():
            L, M, C = (x[rows[at]] for x in (bases.real, *expm[1:]))
            out[at] = (L @ linalg.expm(M * (1.0 - f[at])[:, None, None], C)[..., None])[..., 0]
        return out


def _scan_sums(law: "StepLaw") -> tuple:
    """D, drift and covariance of a stack (g, m) of fine steps, and the
    carries M_j (g, m, p, p) of its steps to the end of the stack, from the
    products of the scan :func:`_prefix_products`."""
    P = law.propagator()
    g, p = P.shape[0], P.shape[-1]
    # T[:, i] = P_{hi-1} ... P_{hi-1-i}
    T = _prefix_products(P[:, ::-1])
    # in step order, P_{hi-1} ... P_{j+1}, which is I for the last step
    M = np.concatenate([T[:, -2::-1], np.broadcast_to(np.eye(p), (g, 1, p, p))], axis=1)
    d, G = law.moments()
    return T[:, -1], np.einsum("gjab,gjb->ga", M, d), np.einsum("gjab,gjbc,gjdc->gad", M, G, M), M


def _driver_law(triplet: LevyTriplet, drift, cov, span, decay, B, jump_weight) -> SegmentLaw:
    """The :class:`SegmentLaw` of ``triplet`` on segments whose noise int K dL
    has ``drift`` = int K and ``cov`` = int K K': mean path_drift drift, the
    factor of sigma2 cov and Poisson(rate ``span``) jumps weighted by
    ``jump_weight``, the last two only for a positive sigma2 and rate."""
    has_jumps = triplet.jump_rate > 0
    return SegmentLaw(
        decay=decay,
        mean=triplet.path_drift * drift,
        chol=covariance_factor(triplet.sigma2 * cov) if triplet.sigma2 > 0 else None,
        jump_mean=triplet.jump_rate * span if has_jumps else None,
        jump_weight=jump_weight if has_jumps else None,
        jumps=triplet.jumps if has_jumps else None,
        B=B,
    )


def _plan_sums(plan: Plan, jumps: bool, values: bool = False) -> tuple:
    """Decay (n, p, p), unit-driver drift (n, p) and covariance (n, p, p) of
    every record segment of ``plan`` from :func:`_segment_stacks`; the span
    (n,) over which a jump reaches the record; the coefficient arrays of its
    stacks (when ``values``); and the :class:`JumpWeights` of its segments
    (when ``jumps``, else None)."""
    n, p = plan.record_steps.size, plan.spec.p
    weights = JumpWeights(n) if jumps else None
    decay, drift, cov, span, coeffs = (np.empty((n, p, p)), np.empty((n, p)), np.empty((n, p, p)),
                                       np.empty(n), [])
    for segs, D, d, G, live, vals in _segment_stacks(plan, weights, values):
        decay[segs], drift[segs], cov[segs], span[segs] = D, d, G, live
        coeffs += vals or []
    return decay, drift, cov, span, coeffs, weights


def build_segment_law(plan: Plan, triplet: LevyTriplet) -> SegmentLaw:
    """Segment law of ``plan`` under ``triplet``, from :func:`_plan_sums`; the
    jump weights are kept only when the driver has jumps."""
    decay, drift, cov, span, _, weights = _plan_sums(plan, triplet.jump_rate > 0)
    return _driver_law(triplet, drift, cov, span, decay,
                       coefficient_values(plan.spec, "B", plan.eval_rescaled / plan.N), weights)


def _draw_increments_rows(triplet: LevyTriplet, h: float, n: int, R: int, gen) -> np.ndarray:
    """Increments of the driver over n fine steps of length h for R
    replications, shape (R, n), all drawn from ``gen``: :func:`draw_segment_noise`
    on the law of L(h), one segment of unit weight, broadcast to n segments."""
    law = _driver_law(triplet, np.broadcast_to(h, (n, 1)), np.full((1, 1, 1), h), np.full(n, h),
                      None, None, lambda seg, unit: np.ones((seg.size, 1)))
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
# most entries (steps times p^2) of one block of the scan of a fine-step segment
_SCAN_ENTRIES = 1 << 16
# most fine steps of a run, burn-in included: its memory grows with its steps
_MAX_STEPS = 1 << 22
# gap laws (_gap_sums): segments per stack times p^2, and the panel bounds,
# _PANEL_DECAY / max |lambda| in rescaled time and _PANEL_TIME in original
# time. On [-1, 1] the K21 rule integrates e^{a x} and e^{i a x} within 2e-16
# for a <= 8 (1.7e-13 at a = 12), and the exponent of a covariance integrand
# moves by up to 2 _PANEL_DECAY across a panel
_GAP_SEGMENTS = 1024
_PANEL_DECAY = 8.0
_PANEL_TIME = 1.0
# node values of A per block of panels of a gap law, and the most panels a
# gap law takes per fine step of its gap
_GAP_ENTRIES = 16384
_GAP_PANELS = 64
# e^-x is 0 in floating point for x above 745.2
_UNDERFLOW = 760.0
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


def _shared_basis(M: np.ndarray, basis=None):
    """(w, V, V^-1, est): the eigenvalues w (..., p) of every matrix of the
    stack M (..., p, p) on one eigenbasis V (p, p), with its condition
    estimate, or None when they share none. With no nonzero off-diagonal
    entry in any matrix (every p = 1 stack, and every stack with no matrices)
    the basis is the identity, V = V^-1 = None and w = diag(M): no
    eigendecomposition and no residual test. Otherwise V and V^-1 are
    ``basis`` = (V, V^-1, est) when given, else those of the first matrix,
    and each matrix takes w = diag(V^-1 M V), provided the basis is trusted
    and every off-diagonal part ||V^-1 M V - diag(w)||_F is at most
    ``_RESIDUAL_MAX`` ||M||_F. A given identity basis is kept only by a
    diagonal stack."""
    p = M.shape[-1]
    diagonal = not M[..., ~np.eye(p, dtype=bool)].any()
    if diagonal and (basis is None or basis[0] is None):
        return np.diagonal(M, axis1=-2, axis2=-1), None, None, 1.0
    if basis is None:
        _, V, Vinv, est = eigenbasis(M.reshape(-1, p, p)[0])
    elif basis[0] is None:
        return None
    else:
        V, Vinv, est = basis
    if est > _COND_MAX:
        return None
    R = Vinv @ M @ V
    w = np.diagonal(R, axis1=-2, axis2=-1).copy()
    R[..., np.arange(p), np.arange(p)] = 0.0
    if np.any(np.linalg.norm(R, axis=(-2, -1)) > _RESIDUAL_MAX * np.linalg.norm(M, axis=(-2, -1))):
        return None
    return w, V, Vinv, est


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
        when every step shares it, else None (:func:`_shared_basis`)."""
        return _shared_basis(self.M)

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
