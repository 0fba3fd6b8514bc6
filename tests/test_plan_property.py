"""Invariants of observation schemes and simulation plans over random inputs."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from locstat import models
from locstat.dynamics import build_plan
from locstat.observation import BandwidthRule, StepRuleO1, StepRuleO2, make_scheme

SETTINGS = settings(max_examples=200, deadline=None, derandomize=True, database=None)

# ranges keep m_N below about 1e5, so a grid stays small
step_rules = st.one_of(
    st.builds(StepRuleO1, st.floats(0.05, 5.0)),
    st.builds(StepRuleO2, st.floats(0.05, 1.0), st.floats(0.05, 0.95)),
)


@SETTINGS
@given(
    u=st.floats(0.05, 10.0),
    N=st.integers(1, 4096),
    bandwidth=st.builds(BandwidthRule, st.floats(0.01, 2.0), st.floats(0.05, 0.95)),
    step=step_rules,
)
def test_scheme_is_symmetric_or_rejected(u, N, bandwidth, step):
    b_N, delta_N = bandwidth.at(N), step.at(N)
    if b_N >= u or np.floor(b_N / delta_N) < 2:
        with pytest.raises(ValueError):
            make_scheme(u, N, bandwidth, step)
        return
    s = make_scheme(u, N, bandwidth, step)
    m = s.m_N
    assert m >= 2
    assert s.grid.shape == (2 * m + 1,)
    assert s.grid[m] == u
    assert np.all(s.grid[m - np.arange(1, m + 1)] + s.grid[m + np.arange(1, m + 1)] == 2.0 * u)
    assert np.all(np.diff(s.grid) > 0)


@SETTINGS
@given(
    a=st.floats(0.5, 4.0),
    N=st.integers(1, 4096),
    first=st.floats(0.0, 1000.0),
    h=st.floats(1.0 / 64.0, 1.0),
    gaps=st.lists(st.integers(1, 50), max_size=8),
    extra_burn=st.floats(0.0, 5.0),
)
def test_plan_records_on_the_nodes_and_tiles_the_grid(a, N, first, h, gaps, extra_burn):
    rescaled = first + h * np.concatenate([[0], np.cumsum(gaps)])
    plan = build_plan(models.ou(a), N, rescaled, h, 8.0 / a + extra_burn)
    scale = max(np.abs(rescaled).max(), abs(plan.start))
    np.testing.assert_allclose(plan.eval_rescaled, rescaled, rtol=0, atol=1e-12 * scale)

    bounds = plan.segment_bounds
    assert len(bounds) == len(rescaled)
    assert bounds[0][0] == 0 and bounds[-1][1] == plan.n_steps
    assert all(lo < hi for lo, hi in bounds)
    assert all(prev[1] == nxt[0] for prev, nxt in zip(bounds, bounds[1:]))
    assert [hi for _, hi in bounds] == list(plan.record_steps)
