"""The numpy scan kernel, kept for the benchmark's trace; the package does
not import it."""

import numpy as np

from locstat import backend_name
from locstat._core import scan_segment


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


def test_selected_backend_reported():
    assert backend_name() == "numpy"
