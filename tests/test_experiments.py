import dataclasses
import hashlib
import json
import os
import signal
import time
import warnings

import numpy as np
import pytest
from scipy import stats

from locstat import experiments, models
from locstat.cli import _build_model
from locstat.experiments import (
    CHUNK,
    ExperimentConfig,
    InadmissibleSchemeError,
    _chunk_noise,
    _coupling_law,
    _localized_chunk,
    _localized_payload,
    _loglog_fit,
    _map_chunks,
    _union_offsets,
    ks_distance_normal,
    run_clt,
    run_coupling,
    run_lipschitz_u,
    run_lln,
    skewness_kurtosis,
)
from locstat.dynamics import (
    Lipschitz, ModelSpec, PathSample, draw_segment_noise, run_segment_law, simulate_yn,
)
from locstat.estimators import clt_statistic, localized_autocov, localized_mean, localized_sum
from locstat.kernels import biweight, rectangular
from locstat.noise import JumpSpec, LevyTriplet
from locstat.observation import BandwidthRule, StepRuleO1, make_scheme
from locstat.rng import stream

BROWNIAN = LevyTriplet(0.0, 1.0)


def test_config_validation():
    with pytest.raises(ValueError, match="increasing"):
        ExperimentConfig("coupling", models.ou(1.0), BROWNIAN, 1.0, (16, 16), 100, 0, 0.01, 8.0)
    with pytest.raises(ValueError, match="100"):
        ExperimentConfig("lln_discrete", models.ou(1.0), BROWNIAN, 1.0, (16,), 50, 0, 0.01, 8.0)
    with pytest.raises(ValueError, match="1000"):
        ExperimentConfig("clt_mean", models.ou(1.0), BROWNIAN, 1.0, (16,), 500, 0, 0.01, 8.0)


def test_union_offsets_merges_o1_lag():
    scheme = make_scheme(1.0, 256, BandwidthRule(0.5, 1.0 / 3.0), StepRuleO1(1.0))
    offsets, base_idx, shift_idx = _union_offsets(scheme, 1)
    # lag 1 equals one grid spacing: union adds exactly one extra node
    assert len(offsets) == len(scheme.grid) + 1
    assert np.array_equal(shift_idx, base_idx + 1)


def test_coupling_constant_coefficient_distance_is_roundoff():
    cfg = ExperimentConfig(
        "coupling", models.ou(1.5), BROWNIAN, 1.0, (16, 64), 120, 3, 0.01, 8.0
    )
    rep = run_coupling(cfg)
    for row in rep.rows:
        assert row["estimate"] == 0.0 and row["target"] == 0.0


def test_coupling_rate_and_negative_control():
    cfg = ExperimentConfig(
        "coupling", models.tvcar_sin(), BROWNIAN, 1.0, (16, 64, 256), 200, 3, 0.01, 8.0
    )
    rep = run_coupling(cfg)
    assert rep.passed
    assert -1.3 <= rep.summary["slope"] <= -0.7
    for row in rep.rows:  # Monte Carlo agrees with the exact discretized gap
        assert row["pass"]
    neg = dataclasses.replace(cfg, model=models.tvcar_step(), validate_inputs=False)
    nrep = run_coupling(neg)
    assert not nrep.passed
    assert nrep.summary["slope"] > -0.7


def test_coupling_weights_statespace_matches_scalar():
    # scalar reference of the coupling law for a(t) = 2 + sin t at u = 1, over
    # the burn-in r in [-8, 0] of rescaled time: Y_N decays from r to 0 by
    # e^{S(r)}, S(r) = -int_r^0 a(1 + x / N) dx = 2 r + N (cos(1) - cos(1 + r / N)),
    # the frozen process by e^{T(r)}, T(r) = a(1) r, and
    # E D^2 = Sigma_L int (e^S - e^T)^2 dr + (mu_L int (e^S - e^T) dr)^2
    from scipy import integrate

    car = models.tvcar_sin()
    n_cells, h = 800, 0.01
    tri = LevyTriplet(0.5, 1.0)
    Ns = (16, 64)
    for model in (car, car.to_state_space()):
        _, _, targets = _coupling_law(model, tri, 1.0, Ns, h, n_cells * h)
        for N, target in zip(Ns, targets):
            gap = lambda r: (np.exp(2.0 * r + N * (np.cos(1.0) - np.cos(1.0 + r / N)))  # noqa: E731
                             - np.exp((2.0 + np.sin(1.0)) * r))
            sq = integrate.quad(lambda r: gap(r) ** 2, -8.0, 0.0, epsabs=0.0, epsrel=1e-13)[0]
            mean = integrate.quad(gap, -8.0, 0.0, epsabs=0.0, epsrel=1e-13)[0]
            assert target == pytest.approx(np.sqrt(sq + (0.5 * mean) ** 2), rel=1e-10), N
    car_targets = _coupling_law(car, tri, 1.0, Ns, h, n_cells * h)[2]
    assert np.array_equal(car_targets, _coupling_law(car.to_state_space(), tri, 1.0, Ns, h, n_cells * h)[2])


def test_coupling_refuses_invalid_model():
    cfg = ExperimentConfig(
        "coupling", models.tvcar_step(), BROWNIAN, 1.0, (16,), 100, 3, 0.01, 8.0
    )
    with pytest.raises(ValueError, match="invariants"):
        run_coupling(cfg)


def test_lln_small_scale():
    cfg = ExperimentConfig(
        "lln_discrete",
        models.tvcar_sin(),
        LevyTriplet(1.0, 1.0),
        1.0,
        (2**8, 2**12),
        150,
        4,
        1.0 / 128.0,
        8.0,
        bandwidth=BandwidthRule(0.5, 1.0 / 3.0),
        step_rule=StepRuleO1(1.0),
        statistic="mean",
        rmse_tol=0.05,
    )
    rep = run_lln(cfg)
    assert rep.summary["strictly_decreasing"]
    assert rep.passed
    assert rep.rows[0]["target"] == pytest.approx(1.0 / (2.0 + np.sin(1.0)), abs=1e-12)


def test_lln_continuous_small_scale():
    cfg = ExperimentConfig(
        "lln_continuous",
        models.tvcar_sin(),
        LevyTriplet(1.0, 1.0),
        1.0,
        (2**8,),
        150,
        5,
        1e-3,
        8.0,
        n_quad=1024,
    )
    rep = run_lln(cfg)
    assert rep.passed


def test_clt_gates():
    bad_beta = ExperimentConfig(
        "clt_mean", models.ou(1.0), BROWNIAN, 1.0, (2**10,), 1000, 6, 0.01, 8.0,
        bandwidth=BandwidthRule(0.5, 0.25), step_rule=StepRuleO1(1.0),
    )
    with pytest.raises(InadmissibleSchemeError, match="sqrt"):
        run_clt(bad_beta)
    bad_kernel = ExperimentConfig(
        "clt_mean", models.ou(1.0), BROWNIAN, 1.0, (2**10,), 1000, 6, 0.01, 8.0,
        bandwidth=BandwidthRule(0.5, 2.0 / 3.0), step_rule=StepRuleO1(1.0), kernel=biweight(),
    )
    with pytest.raises(InadmissibleSchemeError, match="rectangular"):
        run_clt(bad_kernel)
    uncentered = ExperimentConfig(
        "clt_mean", models.ou(1.0), LevyTriplet(0.5, 1.0), 1.0, (2**10,), 1000, 6, 0.01, 8.0,
        bandwidth=BandwidthRule(0.5, 2.0 / 3.0), step_rule=StepRuleO1(1.0),
    )
    with pytest.raises(ValueError, match="centered"):
        run_clt(uncentered)


def test_clt_small_o1_mean():
    cfg = ExperimentConfig(
        "clt_mean", models.ou(1.0), BROWNIAN, 1.0, (2**10,), 1000, 7, 1.0 / 64.0, 8.0,
        bandwidth=BandwidthRule(0.5, 0.55), step_rule=StepRuleO1(1.0),
    )
    rep = run_clt(cfg)
    assert "O1" == rep.summary["scheme"]
    cand = rep.summary["candidates"]["series"]
    assert abs(cand["variance"] - 1.0) < 0.2
    assert rep.replication_values is not None
    assert len(rep.replication_values) == 1000


PM_ONE = JumpSpec(1.0, atoms=((1.0, 0.5), (-1.0, 0.5)))
# the model of the statespace_simulate workload
STATESPACE_SIMULATE = {
    "kind": "statespace", "p": 2,
    "A_entries": [["-1 - 0.5*sin(t)", "0"], ["0", "-2"]],
    "B": ["1", "1"], "C": ["1", "1"], "commuting": True,
    "stability_margin": 0.5, "lipschitz": {"A": 0.5, "B": 0.0, "C": 0.0},
}


def _noncommuting():
    """A(t) = A0 + sin(t) A1 with [A0, A1] != 0; eigenvalues -2.5 +- i ..."""
    A0, A1 = np.array([[-2.0, 1.0], [-1.0, -3.0]]), 0.5 * np.eye(2)[::-1]
    return ModelSpec(2, lambda t: A0 + np.sin(np.asarray(t, dtype=float))[..., None, None] * A1,
                     lambda t: np.ones(np.shape(t) + (2,)),
                     lambda t: np.broadcast_to([1.0, 0.5], np.shape(t) + (2,)),
                     Lipschitz(0.75, 0.0, 0.0), False, 1.0, "noncommuting")


def _campaign_outputs(model, h, jumps=PM_ONE):
    """lln rows, clt replication values, a simulate path and the coupling
    distances of small campaigns of ``model`` at the fine step h, with the
    jumps ``jumps`` (None for a driver without jumps)."""
    scheme = dict(bandwidth=BandwidthRule(0.5, 0.55), step_rule=StepRuleO1(1.0))
    burn = max(8.0, 8.0 / model.stability_margin)
    lln = run_lln(ExperimentConfig(
        "lln_discrete", model, LevyTriplet(1.0, 0.5, jumps), 1.0, (2**8, 2**10), 100, 3,
        h, burn, statistic="mean", **scheme,
    ))
    clt = run_clt(ExperimentConfig(
        "clt_cov", model, LevyTriplet(0.0, 0.5, jumps), 1.0, (2**10,), 1000, 5, h, burn,
        lag=1, **scheme,
    ))
    path = simulate_yn(model, LevyTriplet(1.0, 0.5, jumps), 16, np.linspace(0.5, 1.5, 9), h,
                       burn, stream(6, "simulate", 0))
    coupling = run_coupling(ExperimentConfig(
        "coupling", model, LevyTriplet(1.0, 0.5, jumps), 1.0, (16, 64), 100, 7, h, burn,
    ))
    rows = [[row[k] for k in ("estimate", "std_error", "rmse")] for row in lln.rows]
    distances = [[row[k] for k in ("estimate", "target")] for row in coupling.rows]
    return np.array(rows), clt.replication_values, path.values, np.array(distances)


@pytest.mark.parametrize("model", [models.ou(1.0), models.companion2(), models.tvcar_sin(),
                                   _build_model(STATESPACE_SIMULATE)],
                         ids=["ou", "companion2", "tvcar_sin", "statespace_simulate"])
def test_constant_model_outputs_do_not_depend_on_the_fine_step(model):
    # a model on a shared basis takes the law of the continuous model over
    # each gap, set by the record times alone, and a jump sits at U L into
    # its gap of length L. The segments, the Poisson rates and so every draw
    # are the same at h and h / 4, and with every node dyadic so is every
    # output byte: for a simulate path on one stream and for the lln, clt
    # and coupling reports. The coupling distances of a model that does not
    # vary in time are exactly 0
    fine_outputs, coarse_outputs = _campaign_outputs(model, 1.0 / 64.0), _campaign_outputs(model, 1.0 / 16.0)
    for fine, coarse in zip(fine_outputs, coarse_outputs):
        assert fine.tobytes() == coarse.tobytes()
    constant = model.model_id in ("ou_a1", "companion2")
    assert constant == (not fine_outputs[-1].any())


def test_noncommuting_model_outputs_keep_their_bytes():
    # a stack without a shared basis runs the fine-step recursion (Magnus
    # steps, the matrix scan and, for its jumps, the fine-step rows of the
    # jump-weight table): the sha256 of the outputs of _campaign_outputs at
    # h = 1/64, taken after test_fine_step_rows_match_the_per_step_reference
    # checked those rows
    digest = hashlib.sha256(b"".join(x.tobytes() for x in _campaign_outputs(_noncommuting(), 1.0 / 64.0)))
    assert digest.hexdigest() == NONCOMMUTING_SHA256


NONCOMMUTING_SHA256 = "856216b7e2b464e79a8988a5271d0e9b2e79b3d646940a8259b2950b0c4ae4bd"


def test_noncommuting_model_outputs_without_jumps_keep_their_bytes():
    # the campaigns of the test above on a driver without jumps, whose
    # outputs no jump weight enters: the sha256 taken at efb71e3
    digest = hashlib.sha256(b"".join(x.tobytes() for x in _campaign_outputs(_noncommuting(), 1.0 / 64.0, None)))
    assert digest.hexdigest() == NONCOMMUTING_GAUSSIAN_SHA256


NONCOMMUTING_GAUSSIAN_SHA256 = "1fdfbb3abbd9f9fd2e38241b98f2780a5910f9a3f6565c270a4f80591b5bbf9e"


def test_lipschitz_small():
    cfg = ExperimentConfig(
        "lipschitz_u", models.tvcar_sin(), BROWNIAN, 1.0, (1,), 150, 8, 0.01, 8.0,
        ladder=(0.02, 0.1, 0.5), p_norm=2, time_points=32,
    )
    rep = run_lipschitz_u(cfg)
    assert rep.passed
    assert rep.summary["slope"] >= 0.9
    for row in rep.rows:
        assert row["pass"]  # matches the closed-form distance of the joint system


def test_determinism_across_runs_and_workers():
    cfg = ExperimentConfig(
        "coupling", models.tvcar_sin(), BROWNIAN, 1.0, (16, 64), CHUNK * 3, 9, 0.01, 8.0
    )
    a = json.dumps(run_coupling(cfg).to_dict(), sort_keys=True)
    b = json.dumps(run_coupling(cfg).to_dict(), sort_keys=True)
    c = json.dumps(run_coupling(dataclasses.replace(cfg, workers=3)).to_dict(), sort_keys=True)
    assert a == b == c


def test_segment_sampler_determinism_across_workers():
    # jump branch of the per-segment sampler, the continuous average, a state
    # space model in both, and the exact frozen simulation
    jumps = LevyTriplet(0.0, 0.5, JumpSpec(1.0, atoms=((1.0, 0.5), (-1.0, 0.5))))
    clt = ExperimentConfig(
        "clt_mean", models.ou(1.0), jumps, 1.0, (2**10,), 1000, 10, 1.0 / 64.0, 8.0,
        bandwidth=BandwidthRule(0.5, 0.55), step_rule=StepRuleO1(1.0),
    )
    clt_cov = ExperimentConfig(
        "clt_cov", models.diag2(), jumps, 1.0, (2**10,), 1000, 13, 1.0 / 32.0, 16.0,
        bandwidth=BandwidthRule(0.5, 0.55), step_rule=StepRuleO1(1.0), lag=1,
    )
    cont = ExperimentConfig(
        "lln_continuous", models.tvcar_sin(), LevyTriplet(1.0, 1.0), 1.0, (2**6,), 150, 11,
        1e-2, 8.0, n_quad=256,
    )
    cont_ss = dataclasses.replace(cont, model=models.diag2(), seed=14, burn_in=16.0)
    # the frozen paths of a chunk are simulated as one batch; the last chunk is short
    lip = ExperimentConfig(
        "lipschitz_u", models.tvcar_sin(), jumps, 1.0, (1,), 2 * CHUNK + 5, 12, 0.01, 8.0,
        ladder=(0.05, 0.5), p_norm=4, time_points=16,
    )
    lln_cont = lambda c: run_lln(c)  # noqa: E731
    runs = ((clt, run_clt), (clt_cov, run_clt), (cont, lln_cont), (cont_ss, lln_cont),
            (lip, run_lipschitz_u))
    for cfg, run in runs:
        a = json.dumps(run(cfg).to_dict(), sort_keys=True)
        b = json.dumps(run(cfg).to_dict(), sort_keys=True)
        c = json.dumps(run(dataclasses.replace(cfg, workers=2)).to_dict(), sort_keys=True)
        d = json.dumps(run(dataclasses.replace(cfg, workers=3)).to_dict(), sort_keys=True)
        assert a == b == c == d


def test_jump_driven_reports_are_identical_across_workers():
    # criterion 11 with a jump driver: clt, lipschitz_u and coupling reports
    # are the same bytes at 1, 2 and 3 workers, with a short last chunk
    jumps = LevyTriplet(0.0, 0.5, JumpSpec(1.0, atoms=((1.0, 0.5), (-1.0, 0.5))))
    clt = ExperimentConfig(
        "clt_mean", models.ou(1.0), jumps, 1.0, (2**8,), 1000, 15, 1.0 / 16.0, 8.0,
        bandwidth=BandwidthRule(0.5, 0.55), step_rule=StepRuleO1(1.0),
    )
    lip = ExperimentConfig(
        "lipschitz_u", models.tvcar_sin(), jumps, 1.0, (1,), 130, 16, 0.01, 8.0,
        ladder=(0.05, 0.5), time_points=16,
    )
    coupling = ExperimentConfig(
        "coupling", models.tvcar_sin(), jumps, 1.0, (16, 64), 130, 17, 0.01, 8.0
    )
    for cfg, run in ((clt, run_clt), (lip, run_lipschitz_u), (coupling, run_coupling)):
        assert cfg.replications % CHUNK != 0
        reports = {
            json.dumps(run(dataclasses.replace(cfg, workers=w)).to_dict(), sort_keys=True)
            for w in (1, 2, 3)
        }
        assert len(reports) == 1, cfg.kind


def test_noncommuting_reports_are_identical_across_workers():
    # criterion 11 on a non-commuting p = 2 model with a jump driver: its
    # steps take per-step eigenbases, complex where A(t) has complex
    # eigenvalues (sin t < -1/2), and lln and clt reports are the same bytes at
    # 1, 2 and 3 workers, with a short last chunk
    model = _build_model({
        "kind": "statespace", "p": 2, "A_entries": [["-2", "1"], ["0.5*sin(t)", "-3"]],
        "B": ["1", "0.5"], "C": ["1", "-0.5"], "commuting": False, "stability_margin": 1.5,
        "lipschitz": {"A": 0.5, "B": 0.0, "C": 0.0},
    })
    jumps = LevyTriplet(0.0, 0.5, JumpSpec(1.0, atoms=((1.0, 0.5), (-1.0, 0.5))))
    scheme = dict(bandwidth=BandwidthRule(0.5, 0.55), step_rule=StepRuleO1(1.0))
    lln = ExperimentConfig(
        "lln_discrete", model, jumps, 4.5, (2**6, 2**8), 130, 19, 1.0 / 16.0, 8.0,
        statistic="mean", **scheme,
    )
    clt = ExperimentConfig(
        "clt_mean", model, jumps, 4.5, (2**8,), 1000, 20, 1.0 / 16.0, 8.0, **scheme,
    )
    for cfg, run in ((lln, run_lln), (clt, run_clt)):
        assert cfg.replications % CHUNK != 0
        reports = {
            json.dumps(run(dataclasses.replace(cfg, workers=w)).to_dict(), sort_keys=True)
            for w in (1, 2, 3)
        }
        assert len(reports) == 1, cfg.kind


def _counted_forks(monkeypatch, cpus):
    """pids of the children ``_map_chunks`` forks, on a host of ``cpus`` cores."""
    pids, fork = [], os.fork

    def counting_fork():
        pid = fork()
        if pid:
            pids.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", counting_fork)
    monkeypatch.setattr(os, "cpu_count", lambda: cpus)
    return pids


def _chunk_ids(payload, lo, hi):
    return np.arange(lo, hi, dtype=float) + payload


def _assert_reaped(pids):
    for pid in pids:
        with pytest.raises(ChildProcessError):
            os.waitpid(pid, os.WNOHANG)


def test_fork_map_forks_one_child_per_batch_but_the_first(monkeypatch):
    # at most min(workers, chunks, cores) processes; the parent is one of them
    n_reps = 3 * CHUNK - 5
    want = np.arange(n_reps, dtype=float) + 0.5
    pids = _counted_forks(monkeypatch, cpus=64)
    assert np.array_equal(_map_chunks(_chunk_ids, 0.5, n_reps, 16), want)
    assert len(pids) == 2  # chunks - 1
    _assert_reaped(pids)
    pids.clear()
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    assert np.array_equal(_map_chunks(_chunk_ids, 0.5, n_reps, 16), want)
    assert len(pids) == 1
    _assert_reaped(pids)
    pids.clear()
    assert np.array_equal(_map_chunks(_chunk_ids, 0.5, CHUNK, 16), want[:CHUNK])
    assert pids == []


def test_fork_map_runs_in_the_parent_without_fork(monkeypatch):
    monkeypatch.delattr(os, "fork")
    monkeypatch.setattr(os, "cpu_count", lambda: 8)
    vals = _map_chunks(_chunk_ids, 0.25, 5 * CHUNK, 4)
    assert np.array_equal(vals, np.arange(5 * CHUNK, dtype=float) + 0.25)


class _TwoArgError(Exception):
    """Pickles, but cannot be rebuilt from its args."""

    def __init__(self, a, b):
        super().__init__(f"{a} and {b}")


def _failing_chunk(payload, lo, hi):
    if lo >= payload["from"]:
        raise payload["error"]()
    return np.zeros(hi - lo)


def test_child_exception_is_raised_with_its_type(monkeypatch):
    # the child of the last batch raises; an exception that cannot make the
    # round trip through pickle comes back as a RuntimeError naming its type
    class Local(ValueError):  # no module attribute names it, so it cannot be pickled
        pass

    pids = _counted_forks(monkeypatch, cpus=4)
    payload = {"from": 2 * CHUNK, "error": lambda: KeyError("no such key")}
    with pytest.raises(KeyError, match="no such key"):
        _map_chunks(_failing_chunk, payload, 3 * CHUNK, 3)
    assert len(pids) == 2
    payload["error"] = lambda: Local("local")
    with pytest.raises(RuntimeError, match="Local"):
        _map_chunks(_failing_chunk, payload, 3 * CHUNK, 3)
    payload["error"] = lambda: _TwoArgError(1, 2)
    with pytest.raises(RuntimeError, match="_TwoArgError"):
        _map_chunks(_failing_chunk, payload, 3 * CHUNK, 3)
    assert len(pids) == 6
    _assert_reaped(pids)


def _stuck_chunk(payload, lo, hi):
    if lo == 0:
        raise ValueError("the parent's batch fails")
    if lo == CHUNK:
        time.sleep(30)
    return np.ones((hi - lo, 4096))  # 2 MB, well beyond a pipe's 64 KB


def test_parent_failure_frees_children_blocked_on_large_results(monkeypatch):
    # one child blocks writing its 2 MB, the other is still at work; the
    # parent's own batch raises, and the call must return at once, without
    # waiting on either, and leave no child behind
    def timeout(signum, frame):
        raise TimeoutError("the fork map hung")

    pids = _counted_forks(monkeypatch, cpus=4)
    previous = signal.signal(signal.SIGALRM, timeout)
    signal.alarm(60)
    start = time.monotonic()
    try:
        with pytest.raises(ValueError, match="parent's batch"):
            _map_chunks(_stuck_chunk, None, 3 * CHUNK, 3)
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
    assert time.monotonic() - start < 10.0
    assert len(pids) == 2
    _assert_reaped(pids)


def test_child_exception_gives_the_cli_exit_code_of_the_serial_run(monkeypatch, tmp_path):
    # a ValueError in a chunk exits 3 (semantic) whether the chunk ran in the
    # parent or in a forked child
    from locstat.cli import main

    chunk = experiments._localized_chunk

    def failing(payload, lo, hi):
        if lo >= CHUNK:
            raise ValueError("chunk failed")
        return chunk(payload, lo, hi)

    monkeypatch.setattr(experiments, "_localized_chunk", failing)
    pids = _counted_forks(monkeypatch, cpus=4)
    cfg = tmp_path / "lln.json"
    cfg.write_text(json.dumps({
        "model": {"kind": "car1", "a": "2 + sin(t)", "lipschitz": 1.0, "infimum": 1.0},
        "triplet": {"gamma": 0.0, "sigma2": 1.0},
        "scheme": {"u": 1.0, "b": 0.5, "beta": 1.0 / 3.0, "scheme": "O1", "Delta": 1.0},
        "simulation": {"fine_step": 0.0625, "burn_in": 8.0},
        "experiment": {"kind": "lln_discrete", "N_list": [16, 64], "replications": 2 * CHUNK},
    }))
    codes = [main(["lln", "--config", str(cfg), "--out", str(tmp_path), "--workers", w])
             for w in ("1", "2")]
    assert codes == [3, 3]
    assert len(pids) == 1
    _assert_reaped(pids)


def test_chunk_draws_from_the_stream_of_its_index():
    # chunk [lo, hi) draws its replications from stream (seed, purpose,
    # lo // CHUNK) alone, the short last chunk too
    jumps = LevyTriplet(0.0, 0.5, JumpSpec(1.0, atoms=((1.0, 0.5), (-1.0, 0.5))))
    cfg = ExperimentConfig(
        "lln_discrete", models.tvcar_sin(), jumps, 1.0, (2**8,), 130, 18, 1.0 / 16.0, 8.0,
        bandwidth=BandwidthRule(0.5, 1.0 / 3.0), step_rule=StepRuleO1(1.0),
    )
    payload = _localized_payload(cfg, 2**8, 0, "mean", purpose="chunk-identity")
    law = payload["law"]
    vals = _map_chunks(_localized_chunk, payload, cfg.replications, 1)
    for k, (lo, hi) in enumerate(((0, 64), (64, 128), (128, 130))):
        Y = run_segment_law(law, draw_segment_noise(law, stream(18, "chunk-identity", k), hi - lo))
        want = payload["scale"] * (Y[:, payload["base_idx"]] @ payload["weights"])
        assert np.array_equal(vals[lo:hi], want), k


def test_experiment_lag_must_be_an_integer():
    # a clt_cov lag of 1.5 used to build the statistic at lag 1 and center it
    # at lag 1.5
    with pytest.raises(ValueError, match="lag must be an integer"):
        ExperimentConfig("clt_cov", models.ou(1.0), BROWNIAN, 1.0, (16,), 1000, 0, 0.01, 8.0,
                         lag=1.5)
    cfg = ExperimentConfig("lln_discrete", models.ou(1.0), BROWNIAN, 1.0, (16,), 100, 0, 0.01,
                           8.0, lag=2.0)
    assert cfg.lag == 2 and isinstance(cfg.lag, int)


@pytest.mark.parametrize("statistic, lag, clt", [
    ("mean", 0, False), ("autocov", 1, False), ("mean", 0, True), ("autocov", 1, True),
], ids=["lln-mean", "lln-autocov-1", "clt-mean", "clt-cov-1"])
def test_localized_chunk_agrees_with_the_estimators(statistic, lag, clt):
    # a campaign chunk is localized_sum of its batch, bit for bit, and each of
    # its rows is the statistic that estimate computes on the replication's
    # recorded path (record time, value), up to the rounding of a batched
    # matrix-vector product against a dot product
    jumps = LevyTriplet(0.0, 0.5, JumpSpec(1.0, atoms=((1.0, 0.5), (-1.0, 0.5))))
    kernel = rectangular() if clt else biweight()
    N, center = 2**10, 0.3 if statistic == "autocov" and clt else 0.0
    cfg = ExperimentConfig(
        ("clt_cov" if lag else "clt_mean") if clt else "lln_discrete", models.tvcar_sin(), jumps,
        1.0, (N,), 1000, 19, 1.0 / 16.0, 8.0, kernel=kernel, bandwidth=BandwidthRule(0.5, 0.55),
        step_rule=StepRuleO1(1.0),
    )
    payload = _localized_payload(cfg, N, lag, statistic, purpose="agree", center=center, clt=clt)
    scheme = make_scheme(cfg.u, N, cfg.bandwidth, cfg.step_rule)
    times = (N * scheme.u + _union_offsets(scheme, lag)[0]) / N
    for lo, hi in ((0, CHUNK), (CHUNK, CHUNK + 6)):
        Y = run_segment_law(payload["law"], _chunk_noise(payload, lo, hi))
        vals = _localized_chunk(payload, lo, hi)
        want = localized_sum(Y, payload["base_idx"], payload["shift_idx"], payload["weights"],
                             payload["scale"], center)
        assert np.array_equal(vals, want)
        for value, row in zip(vals, Y):
            path = PathSample(times=times, values=row)
            if clt:
                est = clt_statistic(path, scheme, kernel, k=lag if lag else None, center=center)
            elif lag:
                est = localized_autocov(path, scheme, kernel, lag).value
            else:
                est = localized_mean(path, scheme, kernel).value
            # relative to the size of the terms, as their sum may cancel to near 0
            size = localized_sum(np.abs(row), payload["base_idx"], payload["shift_idx"],
                                 np.abs(payload["weights"]), payload["scale"], -abs(center))
            assert abs(value - est) <= 1e-13 * size, (value, est)


def _clt_samples():
    rng = np.random.default_rng(21)
    for n in (5, 6, 17, 100, 999, 1000, 5000):
        yield rng.standard_normal(n)
        yield rng.standard_t(4, n)
        yield rng.integers(-3, 4, n) / 2.0  # ties
        yield 3.0 + 0.5 * rng.integers(0, 2, n)  # two values, nonzero mean


def test_clt_statistics_match_scipy_stats_bit_for_bit():
    for z in _clt_samples():
        assert ks_distance_normal(z) == float(stats.kstest(z, "norm").statistic), len(z)
        skew, kurt = skewness_kurtosis(z)
        assert skew == float(stats.skew(z)), len(z)
        assert kurt == float(stats.kurtosis(z)), len(z)


def test_clt_statistics_of_a_constant_sample_are_nan():
    # scipy's guard returns NaN here (and may warn of catastrophic cancellation)
    z = np.full(50, 0.3)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        expected = (float(stats.skew(z)), float(stats.kurtosis(z)))
    assert np.all(np.isnan(expected))
    assert np.all(np.isnan(skewness_kurtosis(z)))


def test_loglog_fit_with_zero_distances():
    rows = [{"pass": True}, {"pass": True}]
    assert _loglog_fit([1.0, 2.0], [0.0, 0.0], rows, lambda s: False) == (None, None, True)
    assert _loglog_fit([1.0, 2.0], [0.0, 1e-3], rows, lambda s: True) == (None, None, False)
    failed_row = [{"pass": True}, {"pass": False}]
    assert _loglog_fit([1.0, 2.0], [0.0, 0.0], failed_row, lambda s: True)[2] is False
    slope, intercept, passed = _loglog_fit([1.0, 2.0], [1.0, 2.0], rows, lambda s: s >= 0.9)
    assert passed and slope == pytest.approx(1.0) and intercept == pytest.approx(0.0, abs=1e-12)
