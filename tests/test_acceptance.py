"""Acceptance suite: one test per criterion, printed as one line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines; every tolerance is fixed here, none are tuned at runtime.
"""

import dataclasses
import json
import os

import numpy as np
import pytest
from scipy import integrate

from locstat import models
from locstat import stationary as st
from locstat.cli import main as cli_main
from locstat.dynamics import transition_matrix
from locstat.experiments import (
    ExperimentConfig,
    run_clt,
    run_coupling,
    run_lipschitz_u,
    run_lln,
)
from locstat.kernels import biweight, kernel_validate, rectangular
from locstat.noise import JumpSpec, LevyTriplet
from locstat.observation import BandwidthRule, StepRuleO1, StepRuleO2
from locstat.rng import stream
from test_experiments import _counted_forks

BROWNIAN = LevyTriplet(0.0, 1.0)
CPOIS = LevyTriplet(0.0, 0.0, JumpSpec(1.0, atoms=((1.0, 0.5), (-1.0, 0.5))))
FIXTURES = os.path.join(os.path.dirname(__file__), "fixtures")


def report(criterion: str, passed: bool, detail: str) -> None:
    print(f"[{criterion}] {'PASS' if passed else 'FAIL'}: {detail}")
    assert passed, f"{criterion}: {detail}"


def test_criterion_01_transition_matrix_agreement():
    spec = models.diag2()
    target = np.diag([np.exp(-1 - 0.5 * (1 - np.cos(1.0))), np.exp(-2.0)])
    psis = {
        m: transition_matrix(spec, 1.0, 0.0, method=m)
        for m in ("commuting_exp", "peano_baker", "ode_rk4")
    }
    pairwise = max(
        np.linalg.norm(psis[a] - psis[b])
        for a in psis
        for b in psis
        if a < b
    )
    exact_err = max(np.linalg.norm(p - target) for p in psis.values())
    rng = np.random.default_rng(0)
    semigroup = 0.0
    for _ in range(50):
        t0 = rng.uniform(-2.0, 2.0)
        s = t0 + rng.uniform(0.05, 0.9)
        t1 = s + rng.uniform(0.05, 0.9)
        full = transition_matrix(spec, t1, t0, method="ode_rk4", step=1e-3)
        split = transition_matrix(spec, t1, s, method="ode_rk4", step=1e-3) @ transition_matrix(
            spec, s, t0, method="ode_rk4", step=1e-3
        )
        semigroup = max(semigroup, np.linalg.norm(full - split))
    ok = pairwise <= 1e-7 and semigroup <= 1e-7 and exact_err <= 1e-7
    report(
        "criterion 1",
        ok,
        f"method agreement {pairwise:.2e} <= 1e-7, semigroup residual {semigroup:.2e} <= 1e-7",
    )


def test_criterion_02_stationary_moments_vs_simulation():
    n, spacing = 10**5, 3.0
    fr = st.freeze(models.ou(1.0), 1.0)
    gauss = st.simulate_stationary_batch(fr, BROWNIAN, np.full(n, spacing), 1,
                                          stream(20, "acc2:gauss", 0))[0]
    se_var = np.std(gauss**2) / np.sqrt(len(gauss))
    se_m4 = np.std(gauss**4) / np.sqrt(len(gauss))
    var_ok = abs(gauss.var() - 0.5) < 4 * se_var
    m4_ok = abs(np.mean(gauss**4) - 0.75) < 4 * se_m4
    cpois = st.simulate_stationary_batch(fr, CPOIS, np.full(n, spacing), 1,
                                         stream(20, "acc2:cpois", 0))[0]
    se_c4 = np.std(cpois**4) / np.sqrt(len(cpois))
    c4_ok = abs(np.mean(cpois**4) - 1.0) < 4 * se_c4
    report(
        "criterion 2",
        var_ok and m4_ok and c4_ok,
        f"gaussian var {gauss.var():.4f} (0.5), fourth {np.mean(gauss**4):.4f} (0.75), "
        f"compound-poisson fourth {np.mean(cpois**4):.4f} (1.0), all within 4 SE",
    )


def test_criterion_03_lyapunov_residual_and_variance_identity():
    worst_res, worst_var = 0.0, 0.0
    for name, spec in models.shipped_specs().items():
        fr = st.freeze(spec, 1.0)
        gam = st.lyapunov_gram(fr)
        cct = np.outer(fr.C, fr.C)
        res = np.linalg.norm(fr.A @ gam + gam @ fr.A.T + cct) / np.linalg.norm(cct)
        worst_res = max(worst_res, res)
        _, i2, _, _ = st.kernel_power_integrals(fr)
        var = float(st.stationary_autocov(spec, 1.0, BROWNIAN, 0.0))
        worst_var = max(worst_var, abs(var - i2) / abs(var))
    ok = worst_res <= 1e-10 and worst_var <= 1e-10
    report(
        "criterion 3",
        ok,
        f"max relative Lyapunov residual {worst_res:.2e} <= 1e-10, "
        f"variance vs quadrature {worst_var:.2e} <= 1e-10",
    )


def test_criterion_04_coupling_rate_with_negative_control():
    cfg = ExperimentConfig(
        kind="coupling", model=models.tvcar_sin(), triplet=BROWNIAN, u=1.0,
        N_list=tuple(2**k for k in range(4, 11)), replications=500, seed=24,
        fine_step=0.005, burn_in=8.0,
    )
    rep = run_coupling(cfg)
    neg = run_coupling(
        dataclasses.replace(cfg, model=models.tvcar_step(), validate_inputs=False)
    )
    ok = rep.passed and -1.3 <= rep.summary["slope"] <= -0.7 and not neg.passed
    report(
        "criterion 4",
        ok,
        f"slope {rep.summary['slope']:.3f} in [-1.3, -0.7]; "
        f"discontinuous control slope {neg.summary['slope']:.3f} fails the window",
    )


def test_criterion_05_lipschitz_in_u():
    base = ExperimentConfig(
        kind="lipschitz_u", model=models.tvcar_sin(), triplet=BROWNIAN, u=1.0,
        N_list=(1,), replications=400, seed=25, fine_step=0.01, burn_in=8.0,
        p_norm=2, time_points=48,
    )
    rep2 = run_lipschitz_u(base)
    driver4 = LevyTriplet(0.0, 1.0, JumpSpec(1.0, atoms=((1.0, 0.5), (-1.0, 0.5))))
    rep4 = run_lipschitz_u(dataclasses.replace(base, triplet=driver4, p_norm=4, seed=26))
    ok = rep2.passed and rep4.passed
    report(
        "criterion 5",
        ok,
        f"L2 slope {rep2.summary['slope']:.3f} >= 0.9, "
        f"L4 slope {rep4.summary['slope']:.3f} >= 0.9 (fourth-moment driver)",
    )


N_LADDER = (2**8, 2**10, 2**12, 2**14)


def _lln_config(statistic, step_rule, triplet, h, seed):
    return ExperimentConfig(
        kind="lln_discrete", model=models.tvcar_sin(), triplet=triplet, u=1.0,
        N_list=N_LADDER, replications=400, seed=seed, fine_step=h, burn_in=8.0,
        bandwidth=BandwidthRule(0.5, 1.0 / 3.0), step_rule=step_rule,
        statistic=statistic, lag=0, rmse_tol=0.02,
    )


def test_criterion_06_lln_discrete():
    drift = LevyTriplet(1.0, 1.0)
    arms = {
        "O1 mean": _lln_config("mean", StepRuleO1(1.0), drift, 1.0 / 256.0, 61),
        "O2 mean": _lln_config("mean", StepRuleO2(1.0 / 128.0, 0.5), drift, 1.0 / 512.0, 62),
        "O1 autocov": _lln_config("autocov", StepRuleO1(1.0), BROWNIAN, 1.0 / 256.0, 63),
        "O2 autocov": _lln_config("autocov", StepRuleO2(1.0 / 128.0, 0.5), BROWNIAN, 1.0 / 512.0, 64),
    }
    results = {name: run_lln(cfg) for name, cfg in arms.items()}
    detail = "; ".join(
        f"{name}: rmse {'->'.join(f'{r:.4f}' for r in rep.summary['rmse'])}"
        for name, rep in results.items()
    )
    ok = all(rep.passed for rep in results.values())
    report("criterion 6", ok, detail + " (strictly decreasing, final < 0.02)")


def test_criterion_07_lln_continuous():
    target, _ = integrate.quad(lambda v: 1.0 / (2.0 + np.sin(v)), 0.0, 1.0)
    cfg = ExperimentConfig(
        kind="lln_continuous", model=models.tvcar_sin(), triplet=LevyTriplet(1.0, 1.0),
        u=1.0, N_list=(2**10,), replications=200, seed=27, fine_step=5e-4, burn_in=8.0,
        t_end=1.0, n_quad=2048,
    )
    rep = run_lln(cfg)
    row = rep.rows[0]
    assert row["target"] == pytest.approx(target, abs=1e-9)
    report(
        "criterion 7",
        rep.passed,
        f"global average {row['estimate']:.5f} within 3 SE ({3 * row['std_error']:.5f}) "
        f"of quadrature value {target:.6f}",
    )


def test_criterion_08_clt():
    o2 = dict(
        u=1.0, N_list=(2**14,), replications=2000, fine_step=0.01, burn_in=8.0,
        bandwidth=BandwidthRule(0.5, 2.0 / 3.0), step_rule=StepRuleO2(5.0 / 128.0, 0.5),
    )
    gauss = run_clt(ExperimentConfig(kind="clt_mean", model=models.ou(1.0),
                                     triplet=BROWNIAN, seed=81, **o2))
    cpois = run_clt(ExperimentConfig(kind="clt_mean", model=models.ou(1.0),
                                     triplet=CPOIS, seed=82, **o2))
    lagged = run_clt(ExperimentConfig(
        kind="clt_cov", model=models.ou(1.0), triplet=BROWNIAN, u=1.0,
        N_list=(2**14,), replications=2000, seed=83, fine_step=1.0 / 128.0, burn_in=8.0,
        bandwidth=BandwidthRule(0.5, 2.0 / 3.0), step_rule=StepRuleO1(1.0), lag=1,
    ))
    g = gauss.summary
    c = cpois.summary
    lagged_var = lagged.summary["candidates"]["centered_series"]["variance"]
    ok = (
        gauss.passed
        and cpois.passed
        and g["exactly_one_candidate"]
        and c["exactly_one_candidate"]
        and g["winning_candidates"] == ["half_second_moment"]
        and c["winning_candidates"] == ["half_second_moment"]
        and lagged.passed
        and 0.85 <= lagged_var <= 1.15
    )
    gw = g["candidates"]["half_second_moment"]
    cw = c["candidates"]["half_second_moment"]
    report(
        "criterion 8",
        ok,
        f"O2 normalization resolved to half_second_moment for both drivers "
        f"(gaussian: mean {gw['mean']:.3f}, var {gw['variance']:.3f}, KS {gw['ks_distance']:.3f}; "
        f"compound-poisson: mean {cw['mean']:.3f}, var {cw['variance']:.3f}, "
        f"KS {cw['ks_distance']:.3f}); lagged variance {lagged_var:.3f} in [0.85, 1.15]",
    )


def test_criterion_09_admissibility_gate(tmp_path, capsys):
    fixture = os.path.join(FIXTURES, "clt_beta_quarter.json")
    code = cli_main(["clt", "--config", fixture, "--out", str(tmp_path)])
    err = capsys.readouterr().err
    ok = code == 3 and "sqrt(m_N)*b_N -> 0" in err
    report(
        "criterion 9",
        ok,
        f"beta = 1/4 configuration rejected at parse time with exit 3 citing the "
        f"bandwidth condition",
    )


def test_criterion_10_kernel_suite():
    worst_integral = 0.0
    riemann_ok = True
    for maker in (rectangular, biweight):
        k = maker()
        rep = kernel_validate(k)
        assert rep.passed
        worst_integral = max(worst_integral, abs(rep.integral - 1.0))
        for ratio in (10, 100, 1000):
            m = int(np.floor(ratio))
            xs = np.arange(-m, m + 1) / ratio
            riemann = float(np.sum(k(xs))) / ratio
            riemann_ok = riemann_ok and abs(riemann - 1.0) < 2.0 * k.bv_constant / ratio
    ok = worst_integral <= 1e-10 and riemann_ok
    report(
        "criterion 10",
        ok,
        f"both kernels validate (max |integral - 1| = {worst_integral:.1e}); "
        f"Riemann-sum bound holds for b/delta in {{10, 100, 1000}}",
    )


def test_criterion_11_determinism(monkeypatch):
    # every multi-worker run forks its children, whatever its work
    pids = _counted_forks(monkeypatch)
    checks = []
    coupling = ExperimentConfig(
        kind="coupling", model=models.tvcar_sin(), triplet=BROWNIAN, u=1.0,
        N_list=(16, 64), replications=130, seed=90, fine_step=0.01, burn_in=8.0,
    )
    a = json.dumps(run_coupling(coupling).to_dict(), sort_keys=True)
    b = json.dumps(run_coupling(coupling).to_dict(), sort_keys=True)
    w = json.dumps(run_coupling(dataclasses.replace(coupling, workers=2)).to_dict(), sort_keys=True)
    checks.append(a == b == w and len(pids) == 1)

    lln = ExperimentConfig(
        kind="lln_discrete", model=models.tvcar_sin(), triplet=BROWNIAN, u=1.0,
        N_list=(2**8,), replications=128, seed=91, fine_step=1.0 / 64.0, burn_in=8.0,
        bandwidth=BandwidthRule(0.5, 1.0 / 3.0), step_rule=StepRuleO1(1.0),
        statistic="autocov",
    )
    a = json.dumps(run_lln(lln).to_dict(), sort_keys=True)
    w = json.dumps(run_lln(dataclasses.replace(lln, workers=3)).to_dict(), sort_keys=True)
    checks.append(a == w and len(pids) == 2)

    clt = ExperimentConfig(
        kind="clt_mean", model=models.ou(1.0), triplet=BROWNIAN, u=1.0,
        N_list=(2**10,), replications=1024, seed=92, fine_step=1.0 / 64.0, burn_in=8.0,
        bandwidth=BandwidthRule(0.5, 0.55), step_rule=StepRuleO1(1.0),
    )
    a = json.dumps(run_clt(clt).to_dict(), sort_keys=True)
    w = json.dumps(run_clt(dataclasses.replace(clt, workers=2)).to_dict(), sort_keys=True)
    checks.append(a == w and len(pids) == 3)

    lip = ExperimentConfig(
        kind="lipschitz_u", model=models.tvcar_sin(), triplet=BROWNIAN, u=1.0,
        N_list=(1,), replications=128, seed=93, fine_step=0.01, burn_in=8.0,
        ladder=(0.05, 0.5), time_points=16,
    )
    a = json.dumps(run_lipschitz_u(lip).to_dict(), sort_keys=True)
    w = json.dumps(run_lipschitz_u(dataclasses.replace(lip, workers=2)).to_dict(), sort_keys=True)
    checks.append(a == w and len(pids) == 5)  # one map per rung of the ladder

    report(
        "criterion 11",
        all(checks),
        "coupling, lln, clt and lipschitz reports bit-identical across reruns and worker counts",
    )
