"""Monte Carlo campaigns verifying the limit behavior at desk scale.

Four experiment families:

  coupling      rate of the frozen-coefficient approximation: the rescaled
                process and its stationary approximation are simulated on the
                same noise and the L2 distance is fitted against N (slope -1)
  lln           localized discrete statistics (fixed or widening spacing) and
                the continuous-observation averages, RMSE against the frozen
                closed forms across an N ladder
  clt           distribution of the scaled localized statistic at the largest
                N against every candidate limit variance
  lipschitz_u   smoothness of the frozen family in the localization point,
                fitted on coupled simulations over a |u - v| ladder

Every campaign takes one model type, ``dynamics.ModelSpec``, whatever its
dimension p (a scalar model is its 1x1 case, ``dynamics.car1``). The lln
and clt campaigns need Y_N only at the observation nodes, and draw the
noise of each record segment in one exact draw (see ``dynamics.SegmentLaw``)
from a plan and segment law built once per N. A lagged product is quadratic
in the states: its chunks run the recursion over records only and reduce
each replication with ``estimators.localized_sum``, the statistic that
``estimate`` computes on an observed path. A statistic without a lag (the
localized mean and the continuous average) is linear in the noise: its
adjoint weights are taken once per law (``dynamics.adjoint_weights``), and
with them the variance s^2 of its Gaussian part. Its chunks draw that part
as s times one normal per replication and contract only the jumps with the
weights, building neither the noise nor the states (:func:`_localized_chunk`).
The coupling campaign draws every Y_N(u) and the frozen process at u as one
joint state, from the segment law of a block system on one driver, over the
burn-in before u.

Replications are deterministic: work is cut into fixed chunks of ``CHUNK``
replications, each chunk of every campaign draws all its replications from
its own counter-based stream keyed by (seed, purpose, chunk index)
(``_chunk_noise``), and reduction is in chunk order, so reports are
bit-identical for any worker count. With several workers, ``_map_chunks``
runs the first batch of chunks itself and each other batch in a child forked
for it, which inherits the chunk payload (the segment law) instead of
receiving it pickled, where each batch's share of the work, counted from
the law, pays for its fork.
"""

from dataclasses import dataclass, field, replace
import math
import os
import pickle
import signal

import numpy as np

from . import linalg, special, stationary as stat
from .dynamics import (
    _MAX_STEPS,
    _draw_increments_rows,  # noqa: F401  unused here; perfbench/spans.py traces it by this name
    _driver_law,
    _plan_sums,
    adjoint_weights,
    build_plan,
    build_scalar_plan_rescaled,  # noqa: F401  unused here; perfbench/spans.py traces it by this name
    build_segment_law,
    coefficient_values,
    draw_segment_jumps,
    draw_segment_noise,
    run_scalar_plan,  # noqa: F401  unused here; perfbench/spans.py traces it by this name
    run_segment_law,
    segment_states,
    validate_model,
)
from .estimators import _nearest, localized_sum, localized_weights
from .kernels import LocalizingKernel, rectangular
from .noise import LevyTriplet, triplet_moments
from .observation import BandwidthRule, clt_admissible, make_scheme
from .rng import stream

__all__ = [
    "ExperimentConfig",
    "ExperimentReport",
    "InadmissibleSchemeError",
    "run_coupling",
    "run_lln",
    "run_clt",
    "run_lipschitz_u",
    "run_experiment",
]

CHUNK = 64  # fixed chunk size; reduction order never depends on worker count
# least work (_work) of a forked child's batch. On a shared 2-core VM, forked
# clt_jumps campaigns (the benchmark's) took 32.5 ms at 2 workers against
# 26.7 ms at 1, a fork overhead of 6.0 ms (median gap of 24 alternating
# pairs), and a warm chunk of that campaign 0.33 ms for 64 x 105 units, 48.5 ns
# a unit; a batch of 2^18 units runs about 12.7 ms, twice the overhead
_FORK_WORK = 1 << 18


class InadmissibleSchemeError(ValueError):
    """Configuration violates a condition required by the target theorem."""


@dataclass(frozen=True)
class ExperimentConfig:
    kind: str  # coupling | lln_discrete | lln_continuous | clt_mean | clt_cov | lipschitz_u
    model: object
    triplet: LevyTriplet
    u: float
    N_list: tuple
    replications: int
    seed: int
    fine_step: float
    burn_in: float
    kernel: LocalizingKernel = field(default_factory=rectangular)
    bandwidth: BandwidthRule | None = None
    step_rule: object | None = None
    lag: int = 0
    statistic: str = "mean"  # lln_discrete: mean | autocov
    t_end: float = 1.0  # lln_continuous
    n_quad: int = 4096  # lln_continuous trapezoid intervals
    ladder: tuple = (0.01, 0.02, 0.05, 0.1, 0.2, 0.5)  # lipschitz_u
    p_norm: int = 2  # lipschitz_u
    time_points: int = 48  # lipschitz_u samples per path
    workers: int = 1
    validate_inputs: bool = True
    rmse_tol: float = 0.02

    def __post_init__(self):
        object.__setattr__(self, "N_list", tuple(int(n) for n in self.N_list))
        object.__setattr__(self, "ladder", tuple(self.ladder))
        if not self.N_list or self.N_list[0] < 1 or any(
                b <= a for a, b in zip(self.N_list, self.N_list[1:])):
            raise ValueError(f"N_list must be strictly increasing and positive, got {self.N_list}")
        if not 0 < float(self.t_end) < np.inf:
            raise ValueError(f"t_end must be positive and finite, got {self.t_end}")
        if not (float(self.n_quad) >= 1 and float(self.n_quad).is_integer()):
            raise ValueError(f"n_quad must be an integer >= 1, got {self.n_quad}")
        if not float(self.lag).is_integer():
            raise ValueError(f"lag must be an integer, got {self.lag}")
        object.__setattr__(self, "lag", int(self.lag))
        if self.kind == "lipschitz_u" and not self.ladder:
            raise ValueError("ladder must hold at least one separation")
        if self.kind in ("lln_discrete", "lln_continuous") and self.replications < 100:
            raise ValueError("lln experiments need at least 100 replications")
        if self.kind in ("clt_mean", "clt_cov") and self.replications < 1000:
            raise ValueError("clt experiments need at least 1000 replications")
        if self.kind in ("coupling", "lipschitz_u") and self.replications < 2:  # a std error needs 2
            raise ValueError(f"{self.kind} experiments need at least 2 replications")
        if self.kind == "lipschitz_u" and self.p_norm not in (2, 4):
            raise ValueError("p_norm must be 2 or 4")
        if not 0 < float(self.rmse_tol) < np.inf:
            raise ValueError(f"rmse_tol must be positive and finite, got {self.rmse_tol}")


@dataclass
class ExperimentReport:
    kind: str
    passed: bool
    rows: list
    summary: dict
    replication_values: np.ndarray | None = None  # raw statistics, CSV emission only

    def to_dict(self) -> dict:
        return _py(
            {"kind": self.kind, "passed": self.passed, "rows": self.rows, "summary": self.summary}
        )


def _py(obj):
    """Recursively convert numpy scalars/arrays for JSON emission."""
    if isinstance(obj, dict):
        return {k: _py(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_py(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return [_py(v) for v in obj.tolist()]
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    if isinstance(obj, (np.bool_, bool)):
        return bool(obj)
    return obj


def _std_error(x: np.ndarray) -> float:
    """np.std(x, ddof=1) / sqrt(n) on x scaled by 2^-k, k the exponent of
    max |x|, scaled back by 2^k: the same bits, as the scaling is exact, but
    no overflow in the squares of an x that is itself a square."""
    k = int(np.frexp(np.max(np.abs(x)))[1])
    return float(np.ldexp(np.std(np.ldexp(x, -k), ddof=1) / np.sqrt(len(x)), k))


def _map_chunks(fn, payload, n_reps: int, workers: int) -> np.ndarray:
    """``fn(payload, lo, hi)`` over the ``CHUNK``-sized chunks of ``n_reps``
    replications, concatenated in chunk order.

    The chunks are cut into contiguous batches, one per process. The parent
    runs batch 0; each other batch runs in a child forked for it, which
    inherits ``fn`` and ``payload`` and sends its parts back pickled on a
    pipe. ``min(workers, chunks, usable CPUs, k)`` processes run, k the most
    whose batches each carry ``_FORK_WORK`` units of the map's work
    (:func:`_work`), at least 1: a child's share must run about twice as long
    as its fork costs (6.0 ms against 48.5 ns a unit, see ``_FORK_WORK``).
    The count reads the payload alone, no clock or load, so it is the same
    on every host with as many usable CPUs. Where ``os.fork`` does not exist
    every chunk runs in the parent. The chunk bounds, and so the bits, never
    depend on the number of processes. No child outlives the call: after a
    failure the rest are killed and reaped.
    """
    chunks = [(lo, min(lo + CHUNK, n_reps)) for lo in range(0, n_reps, CHUNK)]
    procs = min(workers, len(chunks), _usable_cpus()) if hasattr(os, "fork") else 1
    work = _work(payload, n_reps)
    while procs > 1 and work < procs * _FORK_WORK:
        procs -= 1
    size = -(-len(chunks) // max(procs, 1))
    batches = [chunks[i:i + size] for i in range(0, len(chunks), size)]
    pids, fds = [], []  # children not yet reaped and read ends still open, in batch order
    try:
        for batch in batches[1:]:
            pid, fd = _fork_batch(fn, payload, batch, fds)
            pids.append(pid)
            fds.append(fd)
        parts = [fn(payload, lo, hi) for lo, hi in batches[0]]
        while pids:
            with open(fds[0], "rb", closefd=False) as fh:
                data = fh.read()
            os.close(fds.pop(0))
            status = os.waitpid(pids.pop(0), 0)[1]
            if not data:
                raise RuntimeError(f"a worker ended with exit code "
                                   f"{os.waitstatus_to_exitcode(status)} and no result")
            ok, value = pickle.loads(data)  # bytes our own child wrote
            if not ok:
                raise value
            parts.extend(value)
    finally:
        for fd in fds:
            os.close(fd)
        for pid in pids:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
    return np.concatenate(parts, axis=0)


def _usable_cpus() -> int:
    """CPUs this process may run on: its affinity mask where the platform
    has one (``taskset`` narrows it), else ``os.cpu_count()``."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _work(payload, n_reps: int) -> float:
    """Work of ``n_reps`` replications of the segment law ``payload["law"]``:
    per replication, records x p^2 (the entries of its decays) plus the
    expected jumps; 0 for a payload without a law."""
    law = payload.get("law") if isinstance(payload, dict) else None
    if law is None:
        return 0.0
    jumps = 0.0 if law.jump_mean is None else float(law.jump_mean.sum())
    return n_reps * (law.decay.size + jumps)


def _fork_batch(fn, payload, batch, inherited: list) -> tuple[int, int]:
    """Fork a child that runs the chunks of ``batch`` and writes
    ``(True, parts)``, or ``(False, exception)``, pickled to a pipe; returns
    its pid and the read end. The child closes the read ends of its elder
    siblings' pipes (``inherited``) and always leaves by ``os._exit``, so it
    flushes no output buffer that it shares with the parent."""
    read_fd, write_fd = os.pipe()
    try:
        pid = os.fork()
    except BaseException:
        os.close(read_fd)
        os.close(write_fd)
        raise
    if pid:
        os.close(write_fd)
        return pid, read_fd
    status = 70
    try:
        for fd in (read_fd, *inherited):
            os.close(fd)
        try:
            result = (True, [fn(payload, lo, hi) for lo, hi in batch])
        except BaseException as exc:  # the parent raises it again
            result = (False, exc)
            try:
                pickle.loads(pickle.dumps(exc))
            except Exception:
                result = (False, RuntimeError(
                    f"a worker raised {type(exc).__qualname__}, which cannot be sent back: {exc}"))
        with open(write_fd, "wb") as fh:
            pickle.dump(result, fh, pickle.HIGHEST_PROTOCOL)
        status = 0
    finally:
        os._exit(status)


def _validate(config: ExperimentConfig) -> None:
    if config.validate_inputs and not (report := validate_model(config.model)).passed:
        raise ValueError(f"model fails its declared invariants: {report}")


def _loglog_fit(x, dists, rows, slope_ok) -> tuple[float | None, float | None, bool]:
    """Slope, intercept and verdict of the fit of log(dists) against log(x).

    A distance of exactly 0 (a model whose coefficients do not move) has no
    logarithm. The fit is then skipped, slope and intercept are None (JSON
    null), and the run passes only when every distance is 0 and every row
    passes; otherwise ``slope_ok(slope)`` is the verdict.
    """
    if min(dists) == 0.0:
        return None, None, all(d == 0.0 for d in dists) and all(r["pass"] for r in rows)
    slope, intercept = np.polyfit(np.log(x), np.log(dists), 1)
    return float(slope), float(intercept), bool(slope_ok(slope))


# ---------------------------------------------------------------------------
# coupling


def _coupling_law(spec, triplet: LevyTriplet, u: float, N_list, h: float, burn_in: float):
    """Joint segment law of (x_{N_1}, ..., x_{N_K}, x~) at u, the rows b_k
    with D_k = b_k' x = B(u)'(x_{N_k} - x~), and the exact E D_k^2 under
    ``triplet``.

    Over the burn-in offset r in [-burn_in, 0], block k of the joint system
    has A(u + r / N_k) and C(u + r / N_k), the last block A(u) and C(u), and
    one driver drives them all. The plan is one record at r = 0: per
    replication, one Gaussian draw of the joint state plus its jumps, placed
    exactly, and E D_k^2 = Sigma_L b_k' cov b_k + (mu_L b_k' drift)^2 from the
    unit-driver drift and covariance of that segment. A block whose A and C
    equal the frozen ones at every node the law was built from
    moves with x~ exactly; its row is 0, as in
    ``_joint_frozen``, where the factor of the singular joint covariance
    would leave rounding noise in D_k.
    """
    fr = stat.freeze(spec, u)
    p, K = spec.p, len(N_list)
    P, blocks = (K + 1) * p, [slice(k * p, (k + 1) * p) for k in range(K + 1)]

    def stacked(name, frozen, r):  # r.shape + (K + 1,) + frozen.shape
        r = np.asarray(r, dtype=float)
        vals = [coefficient_values(spec, name, u + r / N) for N in N_list]
        return np.stack(vals + [np.broadcast_to(frozen, vals[0].shape)], axis=r.ndim)

    joint = replace(
        spec, p=P, model_id="coupling", B=lambda r: np.zeros(P),
        A=lambda r: np.einsum("...kij,kl->...kilj", stacked("A", fr.A, r),
                              np.eye(K + 1)).reshape(np.shape(r) + (P, P)),
        C=lambda r: stacked("C", fr.C, r).reshape(np.shape(r) + (P,)),
    )
    plan = build_plan(joint, 1, [0.0], h, burn_in)
    # one record, so one segment
    decay, drift, cov, span, coeffs, weights = _plan_sums(plan, triplet.jump_rate > 0, values=True)
    b = np.zeros((K, P))
    for k, blk in enumerate(blocks[:K]):
        if not all(np.array_equal(A[..., blk, blk], A[..., blocks[K], blocks[K]])
                   and np.array_equal(C[..., blk], C[..., blocks[K]]) for A, C in coeffs):
            b[k, blk], b[k, blocks[K]] = fr.B, -fr.B
    law = _driver_law(triplet, drift, cov, span, decay, np.zeros((1, P)), weights)
    mom = triplet_moments(triplet)
    # b' cov b of two nearly equal blocks can round below 0
    var = np.maximum(np.einsum("ka,ab,kb->k", b, cov[0], b), 0.0)
    return law, b, np.sqrt(mom.Sigma_L * var + (mom.mu_L * (b @ drift[0])) ** 2)


def _chunk_noise(payload, lo, hi):
    """Segment noise of replications [lo, hi) of ``payload["law"]``, drawn
    from the chunk's stream (seed, ``payload["purpose"]``, lo // CHUNK)."""
    gen = stream(payload["config"].seed, payload["purpose"], lo // CHUNK)
    return draw_segment_noise(payload["law"], gen, hi - lo)


def _coupling_chunk(payload, lo, hi):
    x = segment_states(payload["law"], _chunk_noise(payload, lo, hi))[-1]  # (joint p, R)
    return (payload["rows"] @ x).T  # (R, len(N_list))


def run_coupling(config: ExperimentConfig) -> ExperimentReport:
    """Fit the decay of || Y_N(u) - frozen(u) ||_{L2} against N.

    Every Y_N(u) and the frozen process at u are drawn jointly from one
    segment law on one driver (:func:`_coupling_law`), so the gap is measured
    on coupled noise, and each row is checked against its exact distance.
    Passes when the fitted log-log slope lies in [-1.3, -0.7]. A model that
    does not vary in time has D_k = 0 exactly at every N; there is no rate to
    fit, and every row must pass.
    """
    _validate(config)
    law, rows_b, targets = _coupling_law(config.model, config.triplet, config.u, config.N_list,
                                         config.fine_step, config.burn_in)
    payload = {"config": config, "law": law, "rows": rows_b, "purpose": "coupling"}
    D = _map_chunks(_coupling_chunk, payload, config.replications, config.workers)

    rows = []
    dists = []
    for j, N in enumerate(config.N_list):
        sq = D[:, j] ** 2
        est_sq = float(np.mean(sq))
        dist = float(np.sqrt(est_sq))
        se_sq = _std_error(sq)
        se = se_sq / (2.0 * dist) if dist > 0 else 0.0
        target = float(targets[j])
        ok = abs(dist - target) <= 4.0 * se + 1e-15
        rows.append({"N": N, "estimate": dist, "std_error": se, "target": target, "pass": bool(ok)})
        dists.append(dist)
    slope, intercept, passed = _loglog_fit(
        config.N_list, dists, rows, lambda slope: -1.3 <= slope <= -0.7
    )
    return ExperimentReport(
        kind="coupling",
        passed=passed,
        rows=rows,
        summary={
            "slope": slope,
            "slope_window": [-1.3, -0.7],
            "intercept": intercept,
            "replications": config.replications,
        },
    )


# ---------------------------------------------------------------------------
# localized statistic simulation shared by lln / clt


def _union_offsets(scheme, lag: int):
    """Rescaled node offsets around N u for the grid and its lagged shift."""
    s = scheme.rescaled_spacing
    base = s * np.arange(-scheme.m_N, scheme.m_N + 1)
    if lag <= 0:
        idx = np.arange(base.size)
        return base, idx, idx
    shifted = base + float(lag)
    offsets = linalg.unique(np.concatenate([base, shifted]))
    # collapse float near-duplicates (exact coincidence is the common case)
    keep = np.concatenate([[True], np.diff(offsets) > 1e-9 * max(s, 1.0)])
    offsets = offsets[keep]
    return offsets, _nearest(offsets, base), _nearest(offsets, shifted)


def _localized_payload(
    config: ExperimentConfig, N: int, lag: int, statistic: str, purpose: str,
    center: float = 0.0, clt: bool = False,
) -> dict:
    """Chunk payload of a localized statistic at one N: the segment law of the
    union of the observation grid and its lagged shift, the node indices (no
    shift for the statistic "mean"), and the weights and scale of
    ``estimators.localized_weights`` (its square root for clt). The mean is
    linear in the states, so its payload also holds what :func:`_adjoint`
    derives from the kernel weights of the records, and its chunks scan
    nothing; a lagged product has None there. Built once per N and shared
    by every chunk."""
    scheme = make_scheme(config.u, N, config.bandwidth, config.step_rule)
    offsets, base_idx, shift_idx = _union_offsets(scheme, lag)
    plan = build_plan(config.model, N, N * config.u + offsets, config.fine_step, config.burn_in)
    weights, scale = localized_weights(scheme, config.kernel, root=clt)
    law = build_segment_law(plan, config.triplet)
    adjoint = None
    if statistic == "mean":
        record_weights = np.zeros(len(offsets))
        record_weights[base_idx] = weights
        adjoint = _adjoint(law, record_weights)
    return {
        "config": config,
        "law": law,
        "base_idx": base_idx,
        "shift_idx": None if statistic == "mean" else shift_idx,
        "weights": weights,
        "scale": scale,
        "center": center,
        "purpose": purpose,
        "adjoint": adjoint,
    }


def _adjoint(law, record_weights: np.ndarray) -> tuple:
    """What a chunk needs to draw sum_k w_k B_k' x_k, for the weights w
    (n_records,) of the records: the adjoint weights a_k of c_k = w_k B_k
    (``dynamics.adjoint_weights``), the norm s = ||g|| of g_k = chol_k' a_k
    (None without a Gaussian part) and the constant sum_k a_k . mean_k.

    The Gaussian part sum_k g_k . z_k of the statistic, z_k standard normal,
    has the law N(0, s^2). ``math.hypot`` takes s without overflow or
    underflow where g . g would."""
    a = adjoint_weights(law, record_weights[:, None] * law.B)
    g = None if law.chol is None else np.einsum("kab,ka->kb", law.chol, a).ravel()
    return a, None if g is None else math.hypot(*g.tolist()), float(np.sum(a * law.mean))


def _localized_chunk(payload, lo, hi):
    """The statistic of replications [lo, hi), one value each.

    A lagged product is ``estimators.localized_sum`` of the scanned states.
    A statistic without a lag is linear in the noise eta_k, so it is
    sum_k a_k . eta_k with the adjoint weights of ``payload["adjoint"]``,
    drawn from the chunk's stream without building eta or the states: s z
    for one normal z per replication (the Gaussian part, of law N(0, s^2)),
    the constant, and then, from the jump draws of ``draw_segment_jumps``,
    each jump's weights contracted with a at its segment, times its size,
    summed per replication by one bincount. Each replication reads only its
    own draws.
    """
    law = payload["law"]
    if payload["adjoint"] is None:
        Y = run_segment_law(law, _chunk_noise(payload, lo, hi))
        return localized_sum(Y, payload["base_idx"], payload["shift_idx"], payload["weights"],
                             payload["scale"], payload["center"])
    a, s, const = payload["adjoint"]
    gen = stream(payload["config"].seed, payload["purpose"], lo // CHUNK)
    R = hi - lo
    if s is None:
        value = np.full(R, const)
    else:
        value = s * gen.standard_normal(R)
        value += const
    if law.jump_mean is not None:
        counts, seg, units, sizes = draw_segment_jumps(law, gen, R)
        if seg is not None:
            jump = None
            for j, col in enumerate(law.jump_weight.columns(seg, units)):
                col *= a[:, j].take(seg)
                jump = col if jump is None else np.add(jump, col, out=jump)
            jump *= sizes
            rep = np.repeat(np.arange(R), counts.reshape(R, -1).sum(axis=1))
            value += np.bincount(rep, jump, R)
    return payload["scale"] * value


def run_lln(config: ExperimentConfig) -> ExperimentReport:
    """Replication RMSE of the localized statistics against the frozen targets.

    Discrete: kernel-weighted mean or lagged product over the observation
    grid, per N; passes when the RMSE is strictly decreasing over N_list and
    the final RMSE is below ``rmse_tol``. Continuous: time average over
    [0, t_end]; passes when each replication mean is within three standard
    errors of the integrated frozen mean.
    """
    _validate(config)
    if config.kind == "lln_continuous":
        return _run_lln_continuous(config)
    model = config.model
    if config.statistic == "mean":
        target = stat.stationary_mean(model, config.u, config.triplet)
        lag = 0
    elif config.statistic == "autocov":
        lag = config.lag
        mean = stat.stationary_mean(model, config.u, config.triplet)
        target = float(stat.stationary_autocov(model, config.u, config.triplet, float(lag)))
        target += mean * mean  # the statistic estimates the uncentered product
    else:
        raise ValueError("statistic must be 'mean' or 'autocov'")

    rows, rmses = [], []
    for N in config.N_list:
        payload = _localized_payload(
            config, N, lag, config.statistic,
            purpose=f"lln:{config.statistic}:{config.step_rule.kind}:{N}",
        )
        vals = _map_chunks(_localized_chunk, payload, config.replications, config.workers)
        err_sq = (vals - target) ** 2
        rmse = float(np.sqrt(np.mean(err_sq)))
        se = _std_error(err_sq) / (2.0 * max(rmse, 1e-300))
        rows.append(
            {
                "N": N,
                "estimate": float(np.mean(vals)),
                "std_error": _std_error(vals),
                "rmse": rmse,
                "rmse_std_error": se,
                "target": target,
                "pass": True,
            }
        )
        rmses.append(rmse)
    decreasing = all(b < a for a, b in zip(rmses, rmses[1:]))
    passed = bool(decreasing and rmses[-1] < config.rmse_tol)
    for i, row in enumerate(rows):
        dropped = i == 0 or rmses[i] < rmses[i - 1]
        row["pass"] = bool(dropped and (i < len(rows) - 1 or rmses[i] < config.rmse_tol))
    return ExperimentReport(
        kind="lln_discrete",
        passed=passed,
        rows=rows,
        summary={
            "statistic": config.statistic,
            "scheme": config.step_rule.kind,
            "lag": lag,
            "rmse": rmses,
            "strictly_decreasing": bool(decreasing),
            "final_rmse": rmses[-1],
            "rmse_tol": config.rmse_tol,
        },
    )


def _run_lln_continuous(config: ExperimentConfig) -> ExperimentReport:
    N = config.N_list[-1]
    if not N * config.t_end / config.fine_step <= _MAX_STEPS:  # Python floats: inf, no warning
        raise ValueError(f"experiment.t_end {config.t_end} at N = {N} over fine_step "
                         f"{config.fine_step} is more than {_MAX_STEPS} steps")
    model = config.model
    mean = np.vectorize(lambda v: stat.stationary_mean(model, v, config.triplet), otypes=[float])
    target = float(stat._gauss_kronrod(mean, [0.0, config.t_end])) / config.t_end
    rows = []
    all_ok = True
    for N in config.N_list:
        gap = N * config.t_end / config.n_quad
        # a float count: an infinite gap reaches build_plan's checks, not int()
        h_eff = gap / max(1.0, np.rint(gap / config.fine_step))
        plan = build_plan(model, N, gap * np.arange(config.n_quad + 1), h_eff, config.burn_in)
        law = build_segment_law(plan, config.triplet)
        # (1/t) int_0^t Y dt in original time = (1/(N t)) trapezoid in rescaled time
        trapezoid = np.ones(config.n_quad + 1)
        trapezoid[[0, -1]] = 0.5
        payload = {"config": config, "law": law, "adjoint": _adjoint(law, trapezoid),
                   "scale": gap / (N * config.t_end), "purpose": f"lln_cont:{N}"}
        vals = _map_chunks(_localized_chunk, payload, config.replications, config.workers)
        est = float(np.mean(vals))
        se = _std_error(vals)
        ok = abs(est - target) <= 3.0 * se
        all_ok = all_ok and ok
        rows.append({"N": N, "estimate": est, "std_error": se, "target": float(target), "pass": bool(ok)})
    return ExperimentReport(
        kind="lln_continuous",
        passed=bool(all_ok),
        rows=rows,
        summary={"target": float(target), "t_end": config.t_end},
    )


# ---------------------------------------------------------------------------
# central limit experiment


def ks_distance_normal(z: np.ndarray) -> float:
    """Two-sided Kolmogorov-Smirnov distance of the sample z to N(0, 1).

    The same arithmetic as scipy's ``kstest(z, "norm").statistic``, so the
    value agrees with it bit for bit.
    """
    n = len(z)
    cdf = special.ndtr(np.sort(z))
    d_plus = (np.arange(1.0, n + 1) / n - cdf).max()
    d_minus = (cdf - np.arange(0.0, n) / n).max()
    return float(max(d_plus, d_minus))


def skewness_kurtosis(z: np.ndarray) -> tuple[float, float]:
    """Biased sample skewness and excess kurtosis of z.

    The same arithmetic as scipy's ``skew`` and ``kurtosis`` with their
    defaults, bit for bit, including NaN for a sample whose variance is at
    rounding level of its mean.
    """
    mean = z.mean()
    d = z - mean
    d2 = d**2
    m2 = d2.mean()
    if m2 <= (np.finfo(float).eps * mean) ** 2:
        return float("nan"), float("nan")
    return float(np.mean(d2 * d) / m2**1.5), float(np.mean(d2**2) / m2**2.0 - 3)


def clt_preconditions(kernel: LocalizingKernel, bandwidth: BandwidthRule, step_rule,
                      triplet: LevyTriplet) -> None:
    """Raise InadmissibleSchemeError unless the central limit statistic is
    established for the configuration: the rectangular kernel, a bandwidth
    and step chain with sqrt(m_N) b_N -> 0, and a centered driver."""
    if kernel.id != "rectangular":
        raise InadmissibleSchemeError(
            "the central limit statistic is established for the rectangular kernel only"
        )
    if not clt_admissible(bandwidth, step_rule):
        raise InadmissibleSchemeError(
            "scheme violates the bandwidth condition sqrt(m_N)*b_N -> 0 "
            f"(beta={bandwidth.beta}, step rule={step_rule}); "
            "O1 needs beta > 1/3, O2 needs alpha < 3*beta"
        )
    mu = triplet_moments(triplet).mu_L
    if abs(mu) > 1e-12:
        raise InadmissibleSchemeError(
            f"the statistic needs a centered driver; driver mean is {mu} "
            "(shift gamma by -mu_L, see noise.centered)"
        )


def run_clt(config: ExperimentConfig) -> ExperimentReport:
    """Standardize the scaled localized statistic by every candidate limit
    variance and test normality at the largest N.

    Requires what :func:`clt_preconditions` checks. Records which candidate
    yields unit empirical variance.
    """
    _validate(config)
    clt_preconditions(config.kernel, config.bandwidth, config.step_rule, config.triplet)
    is_cov = config.kind == "clt_cov"
    lag = config.lag if is_cov else 0

    N = config.N_list[-1]
    scheme = make_scheme(config.u, N, config.bandwidth, config.step_rule)
    spacing = scheme.rescaled_spacing
    scheme_kind = ("O1", spacing) if scheme.kind == "O1" else "O2"

    if is_cov:
        center = float(stat.stationary_autocov(config.model, config.u, config.triplet, float(lag)))
        res = stat.sigma2_tilde(config.model, config.u, config.triplet, float(lag), scheme_kind)
        candidates = dict(res.candidates)
        var_tol = 0.15
        statistic = "autocov"
    else:
        center = 0.0
        res = stat.sigma2(config.model, config.u, config.triplet, scheme_kind)
        candidates = dict(res.candidates)
        var_tol = 0.10
        statistic = "mean"

    payload = _localized_payload(
        config, N, lag, statistic,
        purpose=f"clt:{statistic}:{scheme.kind}:{N}", center=center, clt=True,
    )
    T = _map_chunks(_localized_chunk, payload, config.replications, config.workers)
    R = len(T)
    mean_tol = 3.13 / np.sqrt(R)
    ks_band = 2.0 * 1.3581 / np.sqrt(R)

    per_candidate = {}
    winners = []
    for name, s2 in candidates.items():
        if s2 <= 0:
            per_candidate[name] = {"sigma2": float(s2), "valid": False}
            continue
        z = T / np.sqrt(s2)
        ks = ks_distance_normal(z)
        skewness, excess_kurtosis = skewness_kurtosis(z)
        entry = {
            "sigma2": float(s2),
            "mean": float(np.mean(z)),
            "variance": float(np.var(z, ddof=1)),
            "skewness": skewness,
            "excess_kurtosis": excess_kurtosis,
            "ks_distance": ks,
        }
        entry["mean_ok"] = bool(abs(entry["mean"]) < mean_tol)
        entry["variance_ok"] = bool(abs(entry["variance"] - 1.0) <= var_tol)
        entry["ks_ok"] = bool(ks < ks_band)
        # the lagged product statistic keeps visible finite-sample skewness at
        # desk-scale m_N; its acceptance window is the variance band, with the
        # distributional distance reported alongside
        gates = ("mean_ok", "variance_ok") if is_cov else ("mean_ok", "variance_ok", "ks_ok")
        entry["all_ok"] = bool(all(entry[g] for g in gates))
        per_candidate[name] = entry
        if entry["all_ok"]:
            winners.append(name)

    passed = len(winners) >= 1
    rows = [
        {
            "N": N,
            "estimate": float(np.mean(T)),
            "std_error": _std_error(T),
            "target": 0.0,
            "pass": bool(passed),
        }
    ]
    return ExperimentReport(
        kind=config.kind,
        passed=bool(passed),
        rows=rows,
        summary={
            "N": N,
            "lag": lag,
            "scheme": scheme.kind,
            "m_N": scheme.m_N,
            "rescaled_spacing": float(spacing),
            "replications": R,
            "mean_tol": float(mean_tol),
            "var_tol": float(var_tol),
            "ks_band": float(ks_band),
            "candidates": per_candidate,
            "winning_candidates": winners,
            "exactly_one_candidate": bool(len(winners) == 1),
            "raw_variance": float(np.var(T, ddof=1)),
        },
        replication_values=T,
    )


# ---------------------------------------------------------------------------
# Lipschitz continuity in the localization point


def _joint_frozen(model, triplet, u1, u2):
    fr1 = stat.freeze(model, u1)
    fr2 = stat.freeze(model, u2)
    A = linalg.block_diag(fr1.A, fr2.A)
    B = np.concatenate([fr1.B, -fr2.B])  # projects onto the difference
    if all(np.array_equal(a, b) for a, b in ((fr1.A, fr2.A), (fr1.B, fr2.B), (fr1.C, fr2.C))):
        # equal systems on one driver differ by exactly 0; the factor of
        # their singular joint covariance would leave rounding noise of order
        # eps in the projected difference
        B = np.zeros_like(B)
    C = np.concatenate([fr1.C, fr2.C])  # one shared driver
    return stat.FrozenSystem(A, B, C, margin=min(fr1.margin, fr2.margin))


def _lipschitz_chunk(payload, lo, hi):
    # C-contiguous, as simulate_stationary_batch returns it: the mean over
    # time rounds by memory layout
    D = np.ascontiguousarray(run_segment_law(payload["law"], _chunk_noise(payload, lo, hi)))
    return np.mean(np.abs(D) ** payload["config"].p_norm, axis=1)


def run_lipschitz_u(config: ExperimentConfig) -> ExperimentReport:
    """Fit || frozen(u1) - frozen(u2) ||_{Lp} against |u1 - u2|.

    The two frozen processes are simulated jointly on one driver (a block
    system whose output is their difference), distances are averaged over
    replications and time points, and the log-log slope must be >= 0.9.
    The ladder is symmetric about u, which keeps the coefficient difference
    linear in the separation.
    """
    _validate(config)
    p = config.p_norm
    if p == 4:
        nu4 = triplet_moments(config.triplet).nu4
        if config.triplet.jumps is not None and not np.isfinite(nu4):
            raise ValueError("p_norm=4 requires a driver with finite fourth moment")
    mom = triplet_moments(config.triplet)
    low = config.u - max(config.ladder) / 2.0
    if low <= 0:  # checked before the campaign of any rung
        raise ValueError(f"ladder separation {max(config.ladder)} at u = {config.u} reaches "
                         f"nonpositive time: u - separation / 2 = {low:g}")
    rows, dists = [], []
    for j, eps in enumerate(config.ladder):
        u1, u2 = config.u - eps / 2.0, config.u + eps / 2.0
        fr = _joint_frozen(config.model, config.triplet, u1, u2)
        spacing = 4.0 / fr.margin
        gaps = np.full(config.time_points - 1, spacing)
        payload = {
            "config": config,
            "law": stat._frozen_law(fr, config.triplet, gaps),
            "purpose": f"lipschitz:p{p}:{j}",
        }
        vals = _map_chunks(_lipschitz_chunk, payload, config.replications, config.workers)
        est_pow = float(np.mean(vals))
        dist = est_pow ** (1.0 / p)
        se_pow = _std_error(vals)
        se = se_pow / (p * max(est_pow, 1e-300) ** ((p - 1) / p))
        if p == 2:
            target = np.sqrt(stat.second_moment(fr, 0.0, config.triplet))
        else:
            target = stat.fourth_moment_integral(fr, 0.0, config.triplet) ** 0.25
        ok = abs(dist - target) <= 4.0 * se + 1e-15
        rows.append(
            {
                "separation": float(eps),
                "estimate": float(dist),
                "std_error": float(se),
                "target": float(target),
                "pass": bool(ok),
            }
        )
        dists.append(dist)
    slope, intercept, passed = _loglog_fit(config.ladder, dists, rows, lambda slope: slope >= 0.9)
    return ExperimentReport(
        kind="lipschitz_u",
        passed=passed,
        rows=rows,
        summary={
            "slope": slope,
            "intercept": intercept,
            "p_norm": p,
            "min_slope": 0.9,
            "driver_mean": float(mom.mu_L),
        },
    )


def run_experiment(config: ExperimentConfig) -> ExperimentReport:
    if config.kind == "coupling":
        return run_coupling(config)
    if config.kind in ("lln_discrete", "lln_continuous"):
        return run_lln(config)
    if config.kind in ("clt_mean", "clt_cov"):
        return run_clt(config)
    if config.kind == "lipschitz_u":
        return run_lipschitz_u(config)
    raise ValueError(f"unknown experiment kind {config.kind!r}")
