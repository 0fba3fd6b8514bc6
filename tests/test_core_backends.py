"""The numpy scan kernel (kept for the benchmark's trace; the package does
not import it) and the record segments of a long, strongly decaying run."""

import numpy as np

from locstat import backend_name, models
from locstat._core import scan_segment
from locstat.dynamics import build_plan, build_segment_law, simulate_yn
from locstat.noise import BROWNIAN


def _reference_scan(phi, eta_t, x):
    out = x.copy()
    for j in range(len(phi)):
        out = phi[j] * out + eta_t[j]
    return out


def test_fallback_matches_reference():
    rng = np.random.default_rng(0)
    phi = np.exp(rng.uniform(-0.2, -0.01, 200))
    eta_t = rng.standard_normal((200, 7))
    x = rng.standard_normal(7)
    expect = _reference_scan(phi, eta_t, x)
    got = x.copy()
    scan_segment(phi, eta_t, got)
    assert np.allclose(got, expect, rtol=1e-12, atol=1e-14)


def test_strong_decay_stays_representable():
    # total decay exp(-2000): the early suffix products underflow to 0, which
    # is their value to double precision, and the rest of the scan stays exact
    m = 20000
    phi = np.full(m, np.exp(-0.1))
    eta_t = np.zeros((m, 2))
    eta_t[0, :] = 1.0
    eta_t[-2, :] = 0.5
    eta_t[-1, :] = 2.0
    x = np.ones(2)
    expect = _reference_scan(phi, eta_t, x)
    scan_segment(phi, eta_t, x)
    assert np.all(np.isfinite(x))
    np.testing.assert_allclose(x, expect, rtol=1e-15)
    np.testing.assert_allclose(x, 2.0 + 0.5 * np.exp(-0.1), rtol=1e-15)


def test_long_burn_in_runs_as_one_segment():
    # burn-in decay exp(-800): the first segment's early suffix weights underflow
    spec, h, burn_in = models.ou(2.0), 0.05, 400.0
    times = np.array([0.0, 0.5, 0.55, 1.25])
    plan = build_plan(spec, 1, times, h, burn_in)
    n_burn = 8000
    record_steps = n_burn + np.rint(times / h).astype(int)
    assert plan.segment_bounds == list(zip([0, *record_steps[:-1]], record_steps))

    inc = np.sqrt(h) * np.random.default_rng(3).standard_normal(plan.n_steps)
    got = simulate_yn(spec, BROWNIAN, 1, times, h, burn_in, None, increments=inc).values
    x, expect = 0.0, []
    for j in range(plan.n_steps):
        x = np.exp(-0.1) * x + inc[j]
        if j + 1 in record_steps:
            expect.append(x)
    assert np.all(np.isfinite(got))
    np.testing.assert_allclose(got, expect, rtol=1e-12)

    law = build_segment_law(plan, BROWNIAN)
    # the blocked product associates the factors differently from np.prod,
    # and the burn-in decay exp(-800) underflows to 0 or to a subnormal
    expected = [np.prod(np.full(hi - lo, np.exp(-0.1))) for lo, hi in plan.segment_bounds]
    np.testing.assert_allclose(law.decay[:, 0, 0], expected, rtol=1e-14, atol=1e-300)
    assert law.decay[0, 0, 0] < 1e-300
    for arr in (law.decay, law.mean, law.chol):
        assert not np.any(np.isnan(arr))


def test_selected_backend_reported():
    assert backend_name() == "numpy"
