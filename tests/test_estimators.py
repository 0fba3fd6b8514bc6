import numpy as np
import pytest

from locstat import models
from locstat import stationary as st
from locstat.dynamics import PathSample
from locstat.estimators import (
    clt_statistic,
    global_average,
    localized_autocov,
    localized_continuous_mean,
    localized_mean,
)
from locstat.kernels import biweight, rectangular
from locstat.noise import BROWNIAN, LevyTriplet
from locstat.observation import BandwidthRule, StepRuleO1, make_scheme
from locstat.rng import stream

RECT = rectangular()


def small_scheme():
    return make_scheme(1.0, 100, BandwidthRule(0.5, 2.0 / 3.0), StepRuleO1(1.0))


def test_constant_path_mean():
    s = small_scheme()
    path = PathSample(times=s.grid, values=np.full(len(s.grid), 3.0))
    stat = localized_mean(path, s, RECT)
    expected = 3.0 * s.delta_N * (2 * s.m_N + 1) / (2 * s.b_N)  # raw factor, no renormalization
    assert stat.value == pytest.approx(expected, rel=1e-14)
    assert stat.weight_sum == pytest.approx(s.delta_N * (2 * s.m_N + 1) / (2 * s.b_N), rel=1e-14)


def test_single_atom_mean():
    s = small_scheme()
    v = np.zeros(len(s.grid))
    v[s.m_N] = 1.0
    stat = localized_mean(PathSample(times=s.grid, values=v), s, RECT)
    assert stat.value == pytest.approx(s.delta_N / (2 * s.b_N), rel=1e-14)


def test_grid_mismatch_reports_index():
    s = small_scheme()
    bad_times = s.grid.copy()
    bad_times[3] += 1e-6
    with pytest.raises(ValueError, match="index 3"):
        localized_mean(PathSample(times=bad_times, values=np.zeros(len(s.grid))), s, RECT)


def test_weight_sum_band():
    s = small_scheme()
    path = PathSample(times=s.grid, values=np.zeros(len(s.grid)))
    stat = localized_mean(path, s, RECT)
    bound = 2.0 * RECT.bv_constant * s.delta_N / s.b_N
    assert 1.0 - bound <= stat.weight_sum <= 1.0 + bound


def test_linearity_machine_precision():
    s = small_scheme()
    gen = stream(0, "lin", 0)
    y = gen.standard_normal(len(s.grid))
    z = gen.standard_normal(len(s.grid))
    a, b = 1.7, -0.3
    lhs = localized_mean(PathSample(times=s.grid, values=a * y + b * z), s, RECT).value
    rhs = a * localized_mean(PathSample(times=s.grid, values=y), s, RECT).value + b * (
        localized_mean(PathSample(times=s.grid, values=z), s, RECT).value
    )
    assert lhs == pytest.approx(rhs, rel=1e-13)


def test_shift_covariance():
    # same offsets and values, scheme moved by s: identical statistic
    s1 = make_scheme(1.0, 100, BandwidthRule(0.5, 2.0 / 3.0), StepRuleO1(1.0))
    s2 = make_scheme(2.0, 100, BandwidthRule(0.5, 2.0 / 3.0), StepRuleO1(1.0))
    gen = stream(0, "shift", 0)
    vals = gen.standard_normal(len(s1.grid))
    v1 = localized_mean(PathSample(times=s1.grid, values=vals), s1, RECT).value
    v2 = localized_mean(PathSample(times=s2.grid, values=vals), s2, RECT).value
    assert v1 == v2


def test_autocov_constant_path():
    s = small_scheme()
    times = np.union1d(s.grid, s.grid + 1.0 / s.N)
    path = PathSample(times=times, values=np.ones(len(times)))
    stat = localized_autocov(path, s, RECT, 0)
    assert stat.value == pytest.approx(s.delta_N * (2 * s.m_N + 1) / (2 * s.b_N), rel=1e-14)


def test_autocov_missing_shift_errors():
    s = small_scheme()
    path = PathSample(times=s.grid, values=np.ones(len(s.grid)))
    with pytest.raises(ValueError, match="shifted"):
        localized_autocov(path, s, RECT, 3)


def test_hereditarity_bitwise():
    # the lagged product statistic is exactly the mean statistic applied to
    # the transformed path
    s = small_scheme()
    k = 1
    times = np.union1d(s.grid, s.grid + k / s.N)
    gen = stream(1, "hered", 0)
    path = PathSample(times=times, values=gen.standard_normal(len(times)))
    ac = localized_autocov(path, s, RECT, k)
    base = np.searchsorted(times, s.grid)
    shift = np.searchsorted(times, s.grid + k / s.N)
    prod_path = PathSample(times=s.grid, values=path.values[base] * path.values[shift])
    lm = localized_mean(prod_path, s, RECT)
    assert ac.value == lm.value  # bitwise


def test_localized_mean_consistency_stationary():
    # stationary driver with mean 2: replication mean recovers the target up
    # to the documented finite-sample weight-sum slack (the raw factor is not
    # renormalized, so the statistic's expectation is weight_sum * target)
    tri = LevyTriplet(2.0, 1.0)
    spec = models.ou(1.0)
    scheme = make_scheme(1.0, 2**12, BandwidthRule(0.5, 2.0 / 3.0), StepRuleO1(1.0))
    fr = st.freeze(spec, 1.0)
    gaps = np.diff(scheme.N * scheme.grid)
    reps = 200
    vals = np.empty(reps)
    wsum = None
    for r in range(reps):
        y = st.simulate_stationary_batch(fr, tri, gaps, 1, stream(2, "lmc", r))[0]
        stat = localized_mean(PathSample(times=scheme.grid, values=y), scheme, RECT)
        vals[r] = stat.value
        wsum = stat.weight_sum
    se = vals.std(ddof=1) / np.sqrt(reps)
    assert abs(vals.mean() - 2.0) < 3 * se + abs(wsum - 1.0) * 2.0
    # and exactly against the finite-m expectation
    assert abs(vals.mean() - wsum * 2.0) < 3 * se


def test_localized_autocov_consistency_stationary():
    tri = BROWNIAN
    spec = models.ou(1.0)
    scheme = make_scheme(1.0, 2**12, BandwidthRule(0.5, 2.0 / 3.0), StepRuleO1(1.0))
    fr = st.freeze(spec, 1.0)
    base_rescaled = scheme.N * scheme.grid
    union = np.union1d(base_rescaled, base_rescaled + 1.0)
    gaps = np.diff(union)
    bidx = np.searchsorted(union, base_rescaled)
    sidx = np.searchsorted(union, base_rescaled + 1.0)
    reps = 200
    vals0 = np.empty(reps)
    vals1 = np.empty(reps)
    times = union / scheme.N
    wsum = None
    for r in range(reps):
        y = st.simulate_stationary_batch(fr, tri, gaps, 1, stream(3, "acc", r))[0]
        path = PathSample(times=times, values=y)
        s0 = localized_autocov(path, scheme, RECT, 0)
        vals0[r] = s0.value
        vals1[r] = localized_autocov(path, scheme, RECT, 1).value
        wsum = s0.weight_sum
    slack0 = abs(wsum - 1.0) * 0.5
    slack1 = abs(wsum - 1.0) * 0.5 * np.exp(-1)
    assert abs(vals0.mean() - 0.5) < 3 * vals0.std(ddof=1) / np.sqrt(reps) + slack0
    assert abs(vals1.mean() - 0.5 * np.exp(-1)) < 3 * vals1.std(ddof=1) / np.sqrt(reps) + slack1


def test_clt_statistic_trivial_cases():
    s = small_scheme()
    zero = PathSample(times=s.grid, values=np.zeros(len(s.grid)))
    assert clt_statistic(zero, s, RECT) == 0.0
    c = 2.0
    const = PathSample(times=s.grid, values=np.full(len(s.grid), c))
    got = clt_statistic(const, s, RECT)
    # diverges like sqrt(m_N): the scaling is documented, not renormalized away
    assert got == pytest.approx(c * np.sqrt(s.delta_N / s.b_N) * (2 * s.m_N + 1) / 2, rel=1e-14)


def test_clt_statistic_requires_rectangular():
    s = small_scheme()
    path = PathSample(times=s.grid, values=np.zeros(len(s.grid)))
    with pytest.raises(ValueError, match="rectangular"):
        clt_statistic(path, s, biweight())
    with pytest.raises(ValueError, match="center"):
        clt_statistic(path, s, RECT, k=None, center=0.3)


def test_global_average_trivial():
    times = np.linspace(0.0, 1.0, 1001)
    assert global_average(PathSample(times=times, values=np.full(1001, 2.5)), 1.0) == pytest.approx(
        2.5, rel=1e-14
    )
    # trapezoid is exact for linear integrands
    assert global_average(PathSample(times=times, values=times), 1.0) == pytest.approx(
        0.5, rel=1e-13
    )
    with pytest.raises(ValueError, match="cover"):
        global_average(PathSample(times=times, values=times), 2.0)


def test_localized_continuous_mean_consistency():
    # kernel-weighted fine-grid average of Y_N recovers the frozen mean
    from locstat.dynamics import _draw_increments_rows, build_plan, simulate_yn

    spec = models.tvcar_sin()
    tri = LevyTriplet(1.0, 1.0)
    u, N = 1.0, 2**12
    b = 0.5 * N ** (-2.0 / 3.0)
    n_nodes = 257
    times = np.linspace(u - b, u + b, n_nodes)
    rescaled = N * u + np.linspace(-N * b, N * b, n_nodes)
    gap = (rescaled[-1] - rescaled[0]) / (n_nodes - 1)
    h = gap / 4.0
    plan = build_plan(spec, N, rescaled, h, 8.0)
    reps = 200
    inc = _draw_increments_rows(tri, h, plan.n_steps, reps, stream(4, "cont-mean", 0))
    Y = [simulate_yn(spec, tri, N, plan.eval_rescaled / N, h, 8.0, None, increments=row).values
         for row in inc]
    vals = np.array(
        [
            localized_continuous_mean(PathSample(times=times, values=row), u, b, biweight())
            for row in Y
        ]
    )
    target = st.stationary_mean(spec, u, tri)
    assert target == pytest.approx(1.0 / (2.0 + np.sin(1.0)), abs=1e-12)
    se = vals.std(ddof=1) / np.sqrt(reps)
    assert abs(vals.mean() - target) < 3 * se


def test_localized_continuous_mean():
    u, b = 1.0, 0.25
    times = np.linspace(u - b, u + b, 40_001)
    const = PathSample(times=times, values=np.full(len(times), 3.0))
    assert localized_continuous_mean(const, u, b, biweight()) == pytest.approx(3.0, abs=1e-8)
    # linear path and symmetric kernel: odd part integrates to zero
    lin = PathSample(times=times, values=2.0 * times - 1.0)
    assert localized_continuous_mean(lin, u, b, biweight()) == pytest.approx(
        2.0 * u - 1.0, abs=1e-8
    )
    with pytest.raises(ValueError, match="differentiable"):
        localized_continuous_mean(const, u, b, RECT)
