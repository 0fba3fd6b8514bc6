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

:func:`_segment_stacks` builds the segment data of the continuous model,
D_k = Phi(b, a), the drift int_a^b Phi(b, s) C(s) ds, the covariance
int_a^b Phi C C' Phi' ds and the jump weight Phi(b, x) C(x) of each gap
[a, b], from G10K21 panels, with A and C at the panel nodes only: by the gap
law of :func:`_gap_sums` where A is diagonal at the nodes, since the
transition of a diagonal A is exp(int A), and elsewhere by the
node-propagator law of :func:`_propagator_sums`, whose propagators from the
nodes come from Magnus steps between them. The fine step enters neither the
work nor the law. Every segment reports its span, the part of it whose
jumps reach the record, so its Poisson mean is rate times span. One table,
:class:`JumpWeights`, places and weighs the jumps of every law: a row per
panel, each a pair of Chebyshev series on [-1, 1], summed one state column
at a time.

The fine step keeps its checks (it must divide every gap, a run has at most
``_MAX_STEPS`` steps) for every model. The frozen process of ``stationary``
takes :class:`StepLaw`, the exact law of a step of one constant A, and the
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
    "draw_segment_jumps",
    "segment_states",
    "run_segment_law",
    "adjoint_weights",
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
    """Sampled checks of the declared commutation, margin and Lipschitz data.

    Each coefficient is evaluated once at every sampled time, and each check
    runs on the whole stack of samples: one batched product, norm or
    eigenvalue call per check.
    """
    rng = rng if rng is not None else np.random.default_rng(0)
    lo, hi = t_range
    ts = rng.uniform(lo, hi, size=n_samples)
    ss = rng.uniform(lo, hi, size=n_samples)
    times = np.concatenate([ts, ss])
    (At, As), (Bt, Bs), (Ct, Cs) = (np.split(coefficient_values(spec, name, times), 2)
                                    for name in "ABC")
    norm = functools.partial(np.linalg.norm, axis=(-2, -1))

    commuting_ok = True
    if spec.commuting:
        bound = 1e-10 * np.maximum(norm(At) * norm(As), 1e-300)
        commuting_ok = bool(np.all(norm(At @ As - As @ At) <= bound))

    tops = np.max(np.real(np.linalg.eigvals(At)), axis=-1)
    margin_ok = bool(np.all(tops <= -spec.stability_margin + 1e-8))

    gap = np.abs(ts - ss)
    slack = 1e-9 * np.maximum(1.0, gap)
    L = spec.lipschitz
    lipschitz_ok = bool(np.all((gap == 0.0)
                               | ((norm(At - As) <= L.L_A * gap + slack)
                                  & (np.linalg.norm(Bt - Bs, axis=-1) <= L.L_B * gap + slack)
                                  & (np.linalg.norm(Ct - Cs, axis=-1) <= L.L_C * gap + slack))))

    return ModelValidation(
        commuting_ok,
        margin_ok,
        lipschitz_ok,
        detail={"worst_real_part": float(tops.max()) if n_samples else -np.inf,
                "n_samples": n_samples},
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
    return _gauss_kronrod(lambda taus: coefficient_values(spec, "A", taus), [t0, t1])


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
    A_vals = coefficient_values(spec, "A", ts)  # (n, p, p)
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
    data come from, from one draw per segment. A record segment has the law
    of the continuous model (:func:`_segment_stacks`), exact up to rounding
    and the quadrature of its panels; a product that underflows to 0 is the
    right value. A frozen step is a segment of one step, and the per-step
    increments are the law of one unit-weight step, broadcast. One
    :class:`JumpWeights` table weighs the jumps of every kind of segment.
    """

    decay: np.ndarray  # (n_records, p, p) D_k
    mean: np.ndarray  # (n_records, p) path_drift times the unit-driver drift
    chol: np.ndarray | None  # (n_records, p, p) factor of sigma2 times the covariance; None without sigma2
    jump_mean: np.ndarray | None  # (n_records,) rate times the span of each segment; None without jumps
    jump_weight: "JumpWeights | None"  # weights of the jumps at (seg, U)
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
    record, and, when ``values`` is set, the list of ``(A, C)`` arrays at the
    panel nodes the stack was built from (else None); the only code that
    turns a plan into segment data. The rows of the jump weights of every
    stack go to the one table ``weights`` (when given). Stacks are chunks of
    ``_GAP_SEGMENTS`` / p^2 segments. Each reads A once at the nodes of its
    first cut (:func:`_first_cut`) and takes, with those values, the gap law
    of :func:`_gap_sums` where all are diagonal, else the node-propagator
    law of :func:`_propagator_sums`.
    """
    spec, h = plan.spec, plan.h
    bounds = np.concatenate([[0], plan.record_steps]).astype(np.int64)
    lengths = np.diff(bounds)
    chunk = max(1, _GAP_SEGMENTS // (spec.p * spec.p))
    for m in linalg.unique(lengths):
        same = np.flatnonzero(lengths == m)
        for segs in np.split(same, np.arange(chunk, same.size, chunk)):
            lo = plan.start + bounds[segs] * h
            diagonal, cut = _first_cut(spec, plan.N, lo, m * h) if m else (True, None)
            args = (spec, plan.N, lo, m * h, segs, weights, values, cut)
            yield (segs, *((diagonal and _gap_sums(*args)) or _propagator_sums(*args)))


def _first_cut(spec: ModelSpec, N: float, lo: np.ndarray, L: float) -> tuple:
    """Whether A is diagonal at every node of the first cut of the gaps
    [lo_k, lo_k + L], L > 0, into n0 panels of ``_PANEL_TIME`` in original
    time, and (n0, A, rho, kappa, size): the node values A (g, n0, 21, p, p)
    if they fit in one block (else None), per gap max |lambda| and
    min -Re lambda of the diagonals at the nodes where A is diagonal (else
    None: :func:`_spectrum` takes the eigenvalues where an error needs
    them), and max ||A||_F at the nodes."""
    p, g = spec.p, lo.size
    n0 = max(1, int(np.ceil(L / (N * _PANEL_TIME))))
    blocks = _panel_blocks(n0, g, p)
    diagonal, rho, kappa, size = True, np.zeros(g), np.full(g, np.inf), np.zeros(g)
    for q0, q1 in blocks:
        A = _panel_values(spec, N, "A", lo, L, n0, q0, q1)
        w = _diagonal(A) if diagonal else None
        diagonal = w is not None
        if diagonal:
            rho = np.maximum(rho, np.abs(w).max(axis=(1, 2, 3)))
            kappa = np.minimum(kappa, -w.max(axis=(1, 2, 3)))
        size = np.maximum(size, np.linalg.norm(A, axis=(-2, -1)).max(axis=(1, 2)))
    if not diagonal:
        rho = kappa = None
    return diagonal, (n0, A if len(blocks) == 1 else None, rho, kappa, size)


def _spectrum(spec: ModelSpec, N: float, lo: np.ndarray, L: float, n0: int) -> tuple:
    """max |lambda| and min -Re lambda over the eigenvalues lambda of A at
    the nodes of the first cut (n0 panels) of the gaps [lo_k, lo_k + L]."""
    w = np.concatenate([np.linalg.eigvals(_panel_values(spec, N, "A", lo, L, n0, q0, q1)).ravel()
                        for q0, q1 in _panel_blocks(n0, lo.size, spec.p)])
    return np.abs(w).max(), -w.real.max()


def _diagonal(M: np.ndarray) -> np.ndarray | None:
    """The diagonals (..., p) of the stack M (..., p, p), or None if an off-diagonal entry is not 0."""
    if M[..., ~np.eye(M.shape[-1], dtype=bool)].any():
        return None
    return np.diagonal(M, axis1=-2, axis2=-1)


def _propagator_sums(spec: ModelSpec, N: float, lo: np.ndarray, L: float, segs: np.ndarray,
                     weights: "JumpWeights | None", values: bool, cut: tuple) -> tuple:
    """D, drift, covariance, span and coefficient values (as
    :func:`_segment_stacks` yields them) of the continuous model over the gaps
    [lo_k, lo_k + L] of rescaled time, L > 0, for an A not diagonal at every
    node: the node-propagator law.

    The gaps are cut into panels as for a gap law (:func:`_panel_counts`),
    but no longer than ``_PANEL_DECAY`` / max ||A||_F at the nodes of the
    first cut ``cut`` (:func:`_first_cut`, whose values such panels take), so
    that a panel takes at most three Magnus substeps between two nodes, each
    with the sums and jump row of :func:`_node_propagators`. Panels run in
    blocks of about ``_GAP_ENTRIES`` node values of A from the end of the
    gaps, joined as steps are, by the scan :func:`_scan_sums` of a block's
    panels and, as its last step, the part already scanned. In a gap of more
    than one block, entries of the carry to the record below the smallest
    normal double are flushed to 0, as in :func:`affine_states`; once it is
    0, the earlier panels add only the exact 0 of the decay and no jump there
    reaches the record, so the scan stops, and the span is the part scanned.
    """
    p, g = spec.p, lo.size
    n0, first, _, _, size = cut
    counts = _panel_counts(L, N, size, lambda: _spectrum(spec, N, lo, L, n0))
    decay, drift, cov, span = np.empty((g, p, p)), np.empty((g, p)), np.empty((g, p, p)), np.empty(g)
    vals = []
    for n in linalg.unique(counts):
        sub = np.flatnonzero(counts == n)
        blocks, rows = _panel_blocks(n, sub.size, p), []
        D, d, G = np.eye(p) + np.zeros((sub.size, p, p)), np.zeros((sub.size, p)), np.zeros((sub.size, p, p))
        for q0, q1 in blocks:
            A = (first[sub, q0:q1] if first is not None and n == n0
                 else _panel_values(spec, N, "A", lo[sub], L, n, q0, q1))
            C = _panel_values(spec, N, "C", lo[sub], L, n, q0, q1)
            *panels, coef = _node_propagators(A, C, 0.5 * L / n)
            # the part already scanned is the last step of the block's scan
            D, d, G, carry = _scan_sums(*(np.concatenate([x, y[:, None]], axis=1)
                                          for x, y in zip(panels, (D, d, G))))
            if len(blocks) > 1:
                D[np.abs(D) < _TINY] = 0.0
            rows.insert(0, (coef, carry[:, :-1].reshape(-1, p, p), None))
            if values:
                vals.append((A, C))
            if not D.any():
                break
        decay[sub], drift[sub], cov[sub] = D, d, G
        span[sub] = L - q0 * (L / n)
        if weights is not None:
            weights.put(segs[sub], rows)
    return decay, drift, cov, span, vals


def _node_propagators(A: np.ndarray, C: np.ndarray, r: float) -> tuple:
    """Decays Phi(b, a) (s, b, p, p), drifts sum_i w_i Phi(b, s_i) C(s_i)
    (s, b, p) and covariances sum_i w_i Phi C C' Phi' (s, b, p, p), with the
    K21 weights w_i, of a block of panels [a, b] (s, b) of half-width r, from
    A (s, b, 21, p, p) and C (s, b, 21, p) at their nodes s_i; and their jump
    rows (degree, s, b, 2p): E = 0, then the Chebyshev interpolant of
    Phi(b, x) C(x) through the nodes.

    Phi(b, s_i) composes Magnus steps over the 22 intervals between a, the
    nodes and b, each cut into k equal substeps of length h, with the
    sixth-order exponent of Blanes, Casas, Oteo & Ros 2009 (Phys. Rep. 470)
    at the Gauss-Legendre points of a substep, A_1 .. A_3: with a1 = h A_2,
    a2 = sqrt(15) h (A_3 - A_1) / 3, a3 = 10 h (A_3 - 2 A_2 + A_1) / 3,
    c1 = [a1, a2] and c2 = -[a1, 2 a3 + c1] / 60, the exponent is
    a1 + a3 / 12 + [-20 a1 - a3 + c1, a2 + c2] / 240. A there is the
    interpolant of its node values, and k the least count of substeps no
    longer than ``_MAGNUS_STEP`` / max ||A||_F over the block's nodes.
    """
    s, b, _, p, _ = A.shape
    x, kron, _, Tinv = _panel_rule()
    size = np.linalg.norm(A, axis=(-2, -1)).max()
    k = max(1, int(np.ceil(r * np.diff(x).max() * size / _MAGNUS_STEP)))
    step, interpolant = _magnus_points(k)
    Ag = np.moveaxis((interpolant @ A.reshape(s, b, 21, p * p)).reshape(s, b, 22, k, 3, p, p), 4, 0)
    h = (r * step)[:, None, None, None]
    a1 = h * Ag[1]
    a2 = (np.sqrt(15.0) / 3.0) * h * (Ag[2] - Ag[0])
    a3 = (10.0 / 3.0) * h * (Ag[2] - 2.0 * Ag[1] + Ag[0])
    c1 = a1 @ a2 - a2 @ a1
    u = 2.0 * a3 + c1
    c2 = (a1 @ u - u @ a1) / -60.0
    u, v = -20.0 * a1 - a3 + c1, a2 + c2
    omega = a1 + a3 / 12.0 + (u @ v - v @ u) / 240.0
    E = linalg.expm(omega.reshape(-1, p, p)).reshape(s * b, 22 * k, p, p)
    # the products of the last j + 1 substeps; every k-th: Phi(b, s_{20-i}) for i <= 20, Phi(b, a)
    T = _prefix_products(E[:, ::-1])[:, k - 1::k].reshape(s, b, 22, p, p)
    y = (T[:, :, 20::-1] @ C[..., None])[..., 0]  # Phi(b, s_i) C(s_i)
    drift = r * np.einsum("i,sbia->sba", kron, y)
    cov = r * np.einsum("i,sbia,sbic->sbac", kron, y, y)
    coef = np.zeros((s, b, 2 * p, 21))
    coef[:, :, p:] = np.swapaxes(Tinv @ y, -1, -2)
    return T[:, :, 21], drift, cov, _chebyshev_rows(coef)


@functools.cache
def _magnus_points(k: int) -> tuple:
    """Lengths (22,) of k equal substeps of the intervals between -1, the
    nodes of :func:`_panel_rule` and 1, and the map (22 k 3, 21) from values
    at the nodes to their Chebyshev interpolant at the Gauss-Legendre points
    1/2 -+ sqrt(15)/10 and 1/2 of each substep."""
    x, _, _, Tinv = _panel_rule()
    edges = np.concatenate([[-1.0], x, [1.0]])
    step = np.diff(edges) / k
    gauss = 0.5 + np.array([-1.0, 0.0, 1.0]) * np.sqrt(15.0) / 10.0
    points = edges[:-1, None, None] + step[:, None, None] * (np.arange(k)[:, None] + gauss)
    T = np.cos(np.arccos(points.ravel())[:, None] * np.arange(21))
    return step, T @ Tinv


def _panel_counts(live: np.ndarray, N: float, rate: np.ndarray, spectrum) -> np.ndarray:
    """Panels (g,) of gaps of length ``live``, no longer than ``_PANEL_TIME``
    in original time and ``_PANEL_DECAY`` / ``rate`` (g,). More than
    ``_MAX_STEPS`` in all raise ValueError naming the ratio of max |lambda|
    to min -Re lambda of the spectrum of A at the nodes, which
    ``spectrum()`` returns."""
    counts = np.maximum(np.ceil(live / (N * _PANEL_TIME)), np.ceil(live * rate / _PANEL_DECAY))
    if counts.sum() > _MAX_STEPS:
        rho, kappa = spectrum()
        ratio = float(rho) / float(kappa) if kappa > 0 else float("inf")
        raise ValueError(
            f"model: a spectrum with max |lambda| / min(-Re lambda) = {ratio:.3g} "
            f"needs {counts.sum():.3g} panels, more than {_MAX_STEPS}")
    return counts.astype(np.int64)


def _gap_sums(spec: ModelSpec, N: float, lo: np.ndarray, L: float, segs: np.ndarray,
              weights: "JumpWeights | None", values: bool, cut: tuple | None):
    """D, drift, covariance, span and coefficient values (as
    :func:`_segment_stacks` yields them) of the continuous model over the gaps
    [lo_k, lo_k + L] in rescaled time, A diagonal at the nodes of the first
    cut ``cut`` (:func:`_first_cut`; None if L = 0), or None where A is not
    diagonal at a node of a finer cut, which :func:`_propagator_sums` takes.

    With A(s/N) = diag(lambda(s)) at every node and E(s) = int_s^b lambda on
    a gap [a, b] (exp(int A) is the transition of a diagonal A):

        D = diag(e^{E(a)}),   drift = int_a^b y(s) ds,
        cov = int_a^b y y' ds,   y = e^{E} o C,

    and a jump at x has weight e^{E(x)} o C(x) (:class:`JumpWeights`).

    Where E falls below -``_UNDERFLOW`` (min -lambda > 0 at the first cut's
    nodes), e^E is 0 in floating point: that head of the gap adds to E(a)
    alone, integrated on panels of the first cut's length, and no jump there
    reaches the record, so the segment's jumps fall on its live part (the
    span returned). The live part is cut into n equal panels (:func:`_panel_counts`), no longer than
    ``_PANEL_TIME`` in original time (A and C are then close to polynomials
    of degree 20 on each) and than ``_PANEL_DECAY`` / max |lambda| (the
    exponent of an integrand then moves by at most 2 ``_PANEL_DECAY`` across
    one). Each panel takes the G10K21 rule of ``stationary._gauss_kronrod``,
    and E the exact integral of the Chebyshev interpolant of lambda at its 21
    nodes (:func:`_panel_sums`); a live part cut as the first cut takes its
    node values of A. Panels run in blocks of about ``_GAP_ENTRIES`` node
    values of A, from the end of the gaps.
    """
    p, g = spec.p, lo.size
    if L == 0:  # records at step 0: the zero start
        return np.broadcast_to(np.eye(p), (g, p, p)), np.zeros((g, p)), np.zeros((g, p, p)), 0.0, []
    n0, first, rho, kappa, _ = cut
    live = np.where(kappa > 0, np.minimum(L, _UNDERFLOW / kappa), L)
    head = L - live
    total, drift, X = np.zeros((g, p)), np.empty((g, p)), np.empty((g, p, p))
    n_head = np.ceil(head / (N * _PANEL_TIME)).astype(np.int64)
    for n in linalg.unique(n_head[n_head > 0]):
        sub = np.flatnonzero(n_head == n)
        for q0, q1 in _panel_blocks(n, sub.size, p):
            w = _diagonal(_panel_values(spec, N, "A", lo[sub], head[sub], n, q0, q1))
            if w is None:
                return None
            dl = _nodes_last(w) @ _panel_rule()[1]  # per unit half-width
            total[sub] += (0.5 * head[sub] / n)[:, None] * dl.sum(axis=1)
    counts = _panel_counts(live, N, rho, lambda: (rho.max(), kappa.min()))
    vals, laws = [], []
    for n in linalg.unique(counts):
        sub = np.flatnonzero(counts == n)
        E = np.zeros((sub.size, p))
        d = G = 0.0
        coefs = []
        for q0, q1 in _panel_blocks(n, sub.size, p):
            A = (first[sub] if first is not None and n == n0 and not head[sub].any()
                 else _panel_values(spec, N, "A", lo[sub] + head[sub], live[sub], n, q0, q1))
            w = _diagonal(A)
            if w is None:
                return None
            C = _panel_values(spec, N, "C", lo[sub] + head[sub], live[sub], n, q0, q1)
            E, d_part, G_part, coef = _panel_sums(_nodes_last(w), _nodes_last(C), 0.5 * live[sub] / n,
                                                  E, weights is not None)
            d, G = d + d_part, G + G_part
            coefs.insert(0, coef)
            if values:
                vals.append((A, C))
        total[sub] += E
        drift[sub], X[sub] = d, G
        laws.append((segs[sub], coefs))
    if weights is not None:
        for sub, coefs in laws:
            weights.put(sub, [(coef, None, None) for coef in coefs])
    return np.eye(p) * np.exp(total)[:, None, :], drift, X, live, vals


def _panel_sums(w: np.ndarray, g: np.ndarray, r: np.ndarray, E: np.ndarray, jumps: bool) -> tuple:
    """One block of panels (s, b) of half-widths r (s,), with the diagonal w
    of A and C at their 21 nodes (s, b, p, 21), nodes last, and E (s, p) at
    the end of the last panel: E at the start of the first panel, the
    integrals of y and of y y' over the block, and, when ``jumps`` is set,
    the Chebyshev coefficients (degree, s, b, 2p) of E and of C on each panel
    (else None), E's first, cut by :func:`_chebyshev_rows`. Each map over
    the nodes is one matrix product of the (s b p, 21) values.

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
    e = np.empty(shape[:-1] + (22,))
    e[..., 1] = a[..., 0] - 0.5 * a[..., 2]
    e[..., 2:] = (pad[..., 1:21] - pad[..., 3:23]) / (2.0 * np.arange(2, 22))
    e[..., 1:] *= -r[..., None]
    e[..., 0] = tail - e[..., 1:].sum(axis=-1)
    y = np.exp((e.reshape(-1, 22) @ T.T).reshape(shape)) * g
    drift = r[:, 0] * (y.reshape(-1, 21) @ k).reshape(shape[:-1]).sum(axis=1)
    X = r * np.einsum("sbai,sbci->sac", y * k, y)
    if not jumps:
        return E + after[:, 0], drift, X, None
    gc = (g.reshape(-1, 21) @ Tinv.T).reshape(shape)
    coef = np.concatenate([e, np.concatenate([gc, np.zeros_like(gc[..., :1])], axis=-1)], axis=-2)
    return E + after[:, 0], drift, X, _chebyshev_rows(coef)


def _chebyshev_rows(coef: np.ndarray) -> np.ndarray:
    """The Chebyshev coefficients (s, b, 2p, terms) of E and g on panels as
    rows of :class:`JumpWeights`, (degree, s, b, 2p): cut after the last
    term above 16 eps of its function's largest one, E's constant term,
    which carries the later panels, aside."""
    size, p = np.abs(coef), coef.shape[2] // 2
    ref = np.concatenate([size[..., :p, 1:].max(axis=-1), size[..., p:, :].max(axis=-1)], axis=-1)
    big = (size[..., 1:] > 16.0 * np.finfo(float).eps * ref[..., None]).any(axis=(0, 1, 2))
    degree = int(np.flatnonzero(big)[-1]) + 1 if big.any() else 0
    return np.moveaxis(coef[..., : degree + 1], -1, 0)


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

    * a panel of a gap law (:func:`_gap_sums`), A diagonal: the
      coefficients of :func:`_panel_sums`, with no basis;
    * a panel of a node-propagator law (:func:`_propagator_sums`), every
      other A: E = 0 and g the interpolant of Phi(b, x) C(x), on the basis
      of the carry from the panel's end b to its record;
    * a frozen step of exponent M = V diag(w) V^-1 (:class:`StepLaw`):
      E = w (1 - t) / 2 and g = V^-1 C on the basis V, none on the identity
      basis, so the weight is e^{M (1 - t) / 2} C;
    * a frozen step with no trusted basis: expm(M (1 - t) / 2) C per jump.

    Segments with no rows have ``count`` 0. The table is laid out on first
    use as (2p, degree, rows), one block per column of E and g, and
    :meth:`columns` weighs the jumps one state column at a time.
    """

    def __init__(self, n_records: int):
        self.start, self.count = (np.zeros(n_records, dtype=np.int64) for _ in range(2))
        self.blocks, self.rows = [], 0  # (rows, coef (degree, k, 2p), basis, expm)

    @classmethod
    def unit(cls, n_records: int) -> "JumpWeights":
        """The table of ``n_records`` segments that share one row of weight 1."""
        weights = cls(1)
        weights.put(np.zeros(1, dtype=np.int64), [(np.array([[[[0.0, 1.0]]]]), None, None)])
        weights.start, weights.count = (np.broadcast_to(x, n_records)
                                        for x in (weights.start, weights.count))
        return weights

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

    def put_steps(self, segs: np.ndarray, law: "StepLaw") -> None:
        """One row for each frozen step of ``law`` (leading shape (g,)), the
        segments ``segs``: on the shared basis of its steps, or, with none,
        expm per jump."""
        p = law.M.shape[-1]
        if law.shared is None:
            coef = np.zeros((2, segs.size, 1, 2 * p))
            self.put(segs, [(coef, np.eye(p)[None], (np.ones(segs.size, dtype=bool), law.M, law.C))])
            return
        w, V, Vinv, _ = law.shared
        g = law.C if V is None else (Vinv @ law.C[..., None])[..., 0]
        coef = np.zeros((2, segs.size, 1, 2 * p), dtype=np.result_type(w, g))
        coef[0, :, 0, :p] = 0.5 * w
        coef[1, :, 0, :p] = -0.5 * w
        coef[0, :, 0, p:] = g
        self.put(segs, [(coef, None if V is None else V[None], None)])

    @functools.cached_property
    def table(self):
        """The coefficients (2p, degree, rows) of every row, each column of E
        and g cut after its last nonzero term (a list of 2p (degree_j, rows)
        blocks), the bases (rows, p, p) (None where no row has a basis), the
        mask of the rows that take expm with their M and C (None where none
        does), and whether every segment has one row."""
        blocks, self.blocks = self.blocks, None
        c = [block[1] for block in blocks]
        coef = np.zeros((c[0].shape[-1], max(map(len, c)), self.rows), dtype=np.result_type(*c))
        p, given = len(coef) // 2, [block[2] for block in blocks if block[2] is not None]
        bases = np.tile(np.eye(p, dtype=np.result_type(*given)), (self.rows, 1, 1)) if given else None
        expm = [block for block in blocks if block[3] is not None] or None
        if expm:
            expm = np.zeros(self.rows, dtype=bool), np.zeros((self.rows, p, p)), np.zeros((self.rows, p))
        for rows, c, basis, kept in blocks:
            coef[:, : len(c), rows] = np.moveaxis(c, -1, 0)
            if basis is not None:
                bases[rows] = basis
            if kept is not None:
                for x, y in zip(expm, kept):
                    x[rows] = y
        # a zero term adds only the sign of a zero to the sum, so a column
        # sums its terms up to its last nonzero one (at least its first)
        cut = []
        for col in coef:
            terms = np.flatnonzero(col.any(axis=1))
            cut.append(col[: terms[-1] + 1 if terms.size else 1])
        return cut, bases, expm, self.count.max() == 1

    def columns(self, seg: np.ndarray, unit: np.ndarray):
        """Weights of jumps at the fractions ``unit`` of their segments
        ``seg``, one state column (len(seg),) at a time; each is a new array
        or a column of one, which the caller may overwrite.

        Each column of E and g gathers its terms for the jumps as contiguous
        (degree, jumps) rows and sums them in place; e^E o g is then
        yielded column by column, or, on rows with a basis, contracted with
        it first."""
        coef, bases, expm, single = self.table
        p = len(coef) // 2
        rows = self.start.take(seg)
        if single:  # one row per segment: q = 0
            f = unit
        else:
            n = self.count.take(seg)
            x = unit * n
            q = np.minimum(x.astype(np.int64), n - 1)
            rows += q
            f = x - q
        t = 2.0 * f
        t -= 1.0
        y = None if bases is None else np.empty((seg.size, p), dtype=coef[0].dtype)
        for j in range(p):
            col = _clenshaw(coef[j].take(rows, axis=1), t)
            np.exp(col, out=col)
            g = _clenshaw(coef[p + j].take(rows, axis=1), t)
            if y is None:
                g *= col
                yield g
            else:  # numpy rounds a complex product of one element written into its input otherwise
                np.multiply(col, g, out=y[:, j])
        if y is None:
            return
        out = np.einsum("kab,kb->ka", bases.take(rows, axis=0), y).real
        if expm is not None and (at := expm[0].take(rows)).any():
            L, M, C = (x[rows[at]] for x in (bases.real, *expm[1:]))
            out[at] = (L @ linalg.expm(M * (1.0 - f[at])[:, None, None], C)[..., None])[..., 0]
        yield from out.T

    def __call__(self, seg: np.ndarray, unit: np.ndarray) -> np.ndarray:
        """Weights (len(seg), p) of jumps at the fractions ``unit`` of their segments ``seg``."""
        return np.stack(list(self.columns(seg, unit)), axis=-1)


def _clenshaw(c: np.ndarray, t: np.ndarray) -> np.ndarray:
    """sum_k c_k T_k(t) for terms c (degree, J) at t (J,), by Clenshaw's
    recurrence b_k = c_k + 2 t b_{k+1} - b_{k+2}, value c_0 + t b_1 - b_2,
    in the rows of c, which it overwrites; a row of c is returned."""
    if len(c) > 2:
        t2, scratch = 2.0 * t, np.empty_like(c[0])
        for k in range(len(c) - 2, 0, -1):
            c[k] += np.multiply(t2, c[k + 1], out=scratch)
            if k + 2 < len(c):
                c[k] -= c[k + 2]
    if len(c) > 1:
        c[1] *= t
        c[0] += c[1]
        if len(c) > 2:
            c[0] -= c[2]
    return c[0]


def _scan_sums(P: np.ndarray, d: np.ndarray, G: np.ndarray) -> tuple:
    """D, drift and covariance of a stack (g, m) of steps with propagators
    P (g, m, p, p), drifts d (g, m, p) and covariances G (g, m, p, p), and
    the carries M_j (g, m, p, p) of its steps to the end of the stack, from
    the products of the scan :func:`_prefix_products`."""
    g, p = P.shape[0], P.shape[-1]
    # T[:, i] = P_{m-1} ... P_{m-1-i}
    T = _prefix_products(P[:, ::-1])
    # in step order, P_{m-1} ... P_{j+1}, which is I for the last step
    M = np.concatenate([T[:, -2::-1], np.broadcast_to(np.eye(p), (g, 1, p, p))], axis=1)
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
                      None, None, JumpWeights.unit(n))
    return np.ascontiguousarray(draw_segment_noise(law, gen, R)[:, 0, :].T)


def draw_segment_noise(law: SegmentLaw, gen: np.random.Generator, R: int) -> np.ndarray:
    """Noise of every record segment for R replications, shape (n_records, p, R).

    ``gen`` draws the whole batch, one call per kind, in this order: standard
    normals (R, n_records, p) (when chol is set), the Poisson jump counts on
    the (R, n_records) broadcast of the segment rates, a uniform per jump that
    places it in its segment, then the jump sizes; jumps are ordered by
    replication, then by segment. The noise of every segment and replication
    is then built at once: the Gaussian product plus the mean, and the jumps
    of each state column (:meth:`JumpWeights.columns`) times their sizes,
    summed into their cells by one bincount. Each jump's segment and cell
    come from repeating the maps of the cells by their counts.
    """
    n, p = law.mean.shape
    if law.chol is None:
        eta = np.repeat(law.mean[:, :, None], R, axis=2)
    else:
        mul = _product if p == 1 else np.matmul
        eta = mul(law.chol, gen.standard_normal((R, n, p)).transpose(1, 2, 0))
        eta += law.mean[:, :, None]
    if law.jump_mean is None:
        return eta
    counts, seg, units, sizes = draw_segment_jumps(law, gen, R)
    if seg is not None:
        # the segment-major cell of each jump, in draw order, from the map of
        # the replication-major cells
        cell = np.repeat(np.arange(n * R).reshape(n, R).T.ravel(), counts)
        # one bincount per state column; it sums each cell in draw order, as np.add.at does
        for j, col in enumerate(law.jump_weight.columns(seg, units)):
            col *= sizes
            eta[:, j, :] += np.bincount(cell, col, n * R).reshape(n, R)
    return eta


def draw_segment_jumps(law: SegmentLaw, gen: np.random.Generator, R: int) -> tuple:
    """The jump draws of :func:`draw_segment_noise`, which follow its
    normals: the Poisson counts (R n,) of the replication-major cells, and
    the segment, uniform and size of each jump in draw order (each None when
    no jump falls)."""
    n = len(law.mean)
    counts = gen.poisson(np.broadcast_to(law.jump_mean, (R, n))).ravel()
    total = int(counts.sum())
    if not total:
        return counts, None, None, None
    units = gen.random(total)
    sizes = law.jumps.sample(total, gen)
    return counts, np.repeat(np.tile(np.arange(n), R), counts), units, sizes


def segment_states(law: SegmentLaw, eta: np.ndarray) -> np.ndarray:
    """States x_k (n_records, p, R) from a zero start under the noise ``eta``
    of :func:`draw_segment_noise`, by one affine scan over records."""
    return affine_states(law.decay, eta, np.zeros(eta.shape[1:]))


def run_segment_law(law: SegmentLaw, eta: np.ndarray) -> np.ndarray:
    """Recorded values B(t_k)' x_k, shape (R, n_records), of :func:`segment_states`."""
    return (law.B[:, None, :] @ segment_states(law, eta))[:, 0, :].T


def adjoint_weights(law: SegmentLaw, c: np.ndarray) -> np.ndarray:
    """Weights a (n_records, p) with sum_k a_k . eta_k = sum_k c_k . x_k for
    the states x_k of :func:`segment_states`: a_{n-1} = c_{n-1} and
    a_k = c_k + D_{k+1}' a_{k+1}, the transpose of the forward recursion
    (reverse accumulation), by one :func:`affine_states` over the records
    in reverse order with the decays transposed."""
    back = np.swapaxes(law.decay[::-1], -1, -2)  # back[m] = D_{n-1-m}'
    # step m takes a_{n-m} to a_{n-1-m} by D_{n-m}'; step 0 starts from 0
    return affine_states(np.roll(back, 1, axis=0), c[::-1], np.zeros(c.shape[1]))[::-1]


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


# most fine steps of a run, burn-in included, and most panels of one stack of
# gaps: the memory of a run grows with its steps, and its work with its panels
_MAX_STEPS = 1 << 22
# segments per stack times p^2, and the panel bounds of a gap law (_gap_sums),
# _PANEL_DECAY / max |lambda| in rescaled time and _PANEL_TIME in original
# time. On [-1, 1] the K21 rule integrates e^{a x} within 2e-16
# for a <= 8 (1.7e-13 at a = 12), and the exponent of a covariance integrand
# moves by up to 2 _PANEL_DECAY across a panel
_GAP_SEGMENTS = 1024
_PANEL_DECAY = 8.0
_PANEL_TIME = 1.0
# node values of A per block of panels of a gap law or a node-propagator law
_GAP_ENTRIES = 16384
# longest Magnus substep of a node-propagator law, times max ||A||_F at the
# nodes: on the noncommuting_lln model at N = 1, panels of length 1 reach the
# propagators of a DOP853 solve (rtol 1e-13) within 3e-14 with 2 substeps
_MAGNUS_STEP = 0.25
# e^-x is 0 in floating point for x above 745.2
_UNDERFLOW = 760.0
# eigenbasis condition number above which a matrix exponential is computed by
# expm instead of from the eigendecomposition (here and in stationary)
_COND_MAX = 1e8
# off-diagonal part of V^-1 M V, relative to M, up to which a matrix shares the
# eigenbasis V of its stack's reference matrix (_shared_basis)
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


def _shared_basis(M: np.ndarray):
    """(w, V, V^-1, est): the eigenvalues w (..., p) of every matrix of the
    stack M (..., p, p) on one eigenbasis V (p, p), with its condition
    estimate, or None when they share none. For a diagonal stack (every
    p = 1 stack, and every stack with no matrices) the basis is the
    identity, V = V^-1 = None and w = diag(M): no eigendecomposition and no
    residual test. Otherwise V and V^-1 are those of the first matrix, and
    each matrix takes w = diag(V^-1 M V), provided the basis is trusted and
    ||V^-1 M V - diag(w)||_F is at most ``_RESIDUAL_MAX`` ||M||_F."""
    w = _diagonal(M)
    if w is not None:
        return w, None, None, 1.0
    p = M.shape[-1]
    _, V, Vinv, est = eigenbasis(M.reshape(-1, p, p)[0])
    if est > _COND_MAX:
        return None
    R = Vinv @ M @ V
    w = np.diagonal(R, axis1=-2, axis2=-1).copy()
    R[..., np.arange(p), np.arange(p)] = 0.0
    if np.any(np.linalg.norm(R, axis=(-2, -1)) > _RESIDUAL_MAX * np.linalg.norm(M, axis=(-2, -1))):
        return None
    return w, V, Vinv, est


class StepLaw:
    """Exact law of steps x <- e^M x + int_0^h e^{M(h-r)/h} C L(dr) of one
    constant A, M = A h, the steps of the frozen process (Brockwell 2001,
    "Levy-driven CARMA processes", AISM 53). Drift weight d =
    int_0^h e^{Mr/h} dr C, covariance G = int_0^h e^{Mr/h} CC' e^{M'r/h} dr,
    jump weight e^{M(h-r)/h} C at offset r (:class:`JumpWeights`); all
    entrywise for p = 1. The steps, multiples of one A, share the eigenbasis
    M = V diag(w) V^-1 of the first (:func:`_shared_basis`; V = I for a
    diagonal A): e^M = V diag(e^w) V^-1 and, with g = V^-1 C and phi(x) =
    expm1(x) / x, d = h V (phi(w) g) and G = h V [g g^* o phi(w_i + conj w_k)]
    V^*. The terms g g^* grow like cond(V)^2 |C|^2 and cancel down to G, so d
    and G take that form only where the estimate of cond(V) is at most
    sqrt(``_COND_MAX``); otherwise d = h M^-1 (e^M - I) C and
    G = h (S - e^M S e^M'), S the Gramian of (M, C), which unlike a block
    exponential does not cancel on long steps. Where the basis is not trusted
    (a near-defective A), e^M comes from expm. ``M`` is (..., p, p), ``C``
    broadcasts to (..., p) and ``h`` to their leading shape.
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

    def _eigen(self) -> tuple:
        """w, V and V^-1 of the shared basis, V and V^-1 (I on the identity
        basis) as views of M's shape."""
        w, V, Vinv, _ = self.shared
        if V is None:
            V = Vinv = np.eye(self.M.shape[-1])
        return w, np.broadcast_to(V, self.M.shape), np.broadcast_to(Vinv, self.M.shape)

    def _expm(self) -> np.ndarray:
        """e^M of every step, once per distinct M."""
        M, at = np.unique(self.M, axis=0, return_inverse=True)
        return linalg.expm(M)[at.ravel()]

    def propagator(self) -> np.ndarray:
        """e^M, shape (..., p, p)."""
        if self.M.shape[-1] == 1:
            return np.exp(self.M)
        if self.shared is None:
            return self._expm()
        w, V, Vinv = self._eigen()
        return ((V * np.exp(w)[..., None, :]) @ Vinv).real

    def moments(self):
        """Drift weights d (..., p) and covariances G (..., p, p)."""
        h = self.h[..., None]
        if self.M.shape[-1] == 1:  # phi(2w) = phi(w) (1 + expm1(w) / 2)
            w = self.M[..., 0]
            e = np.expm1(w)
            q = h * _phi(w, e)
            return q * self.C, (q * (1.0 + 0.5 * e) * self.C**2)[..., None]
        if self.shared is None or self.shared[3] > np.sqrt(_COND_MAX):
            M, C, P = self.M, self.C[..., None], self._expm()
            S = _gramian(M, C)
            return h * np.linalg.solve(M, P @ C - C)[..., 0], h[..., None] * (S - P @ S @ P.swapaxes(-1, -2))
        w, V, Vinv = self._eigen()
        g = (Vinv @ self.C[..., None])[..., 0]
        d = (V @ (_phi(w) * g)[..., None])[..., 0].real
        X = g[..., :, None] * g.conj()[..., None, :] * _phi(w[..., :, None] + w.conj()[..., None, :])
        return h * d, h[..., None] * (V @ X @ V.conj().swapaxes(-1, -2)).real


def _gramian(M: np.ndarray, C: np.ndarray) -> np.ndarray:
    """S with M S + S M' = -C C' for each item of M (k, p, p) and C (k, p, 1),
    from one batched solve of the Kronecker form; the one Lyapunov solver."""
    k, p = M.shape[:2]
    K = np.einsum("kij,ab->kiajb", M, np.eye(p)) + np.einsum("ij,kab->kiajb", np.eye(p), M)
    CC = (C @ C.swapaxes(-1, -2)).reshape(k, p * p, 1)
    return np.linalg.solve(K.reshape(k, p * p, p * p), -CC).reshape(k, p, p)


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
