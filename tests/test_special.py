"""The package's normal distribution function against scipy.special.ndtr,
bit for bit."""

import numpy as np
from scipy import special as ssp

from locstat import special


def same_bits(a, b) -> bool:
    return bool(np.array_equal(np.asarray(a).view(np.int64), np.asarray(b).view(np.int64)))


def test_ndtr_matches_scipy_bit_for_bit():
    # the branch points of Cephes: |a| sqrt(1/2) at sqrt(1/2) (erf or erfc),
    # 1 (erfc's own erf branch) and 8 (its two rational forms), and
    # a^2 / 2 at the log of the largest double (underflow to 0)
    edges = np.sqrt(2.0) * np.array([np.sqrt(0.5), 1.0, 8.0, np.sqrt(7.09782712893383996843e2)])
    near = (edges[:, None] + np.arange(-300, 301) * np.spacing(edges)[:, None]).ravel()
    rng = np.random.default_rng(2022)
    x = np.concatenate([
        [0.0, -0.0, np.inf, -np.inf, 40.0, -40.0, 5e-324, -5e-324, 1e300, -1e300],
        near, -near, rng.standard_normal(50_000), rng.uniform(-40.0, 40.0, 50_000),
        np.linspace(-40.0, 40.0, 20_001),
    ])
    assert same_bits(special.ndtr(x), ssp.ndtr(x))
    assert np.isnan(special.ndtr(np.nan)) and np.isnan(special.ndtr([1.0, np.nan])[1])


def test_ndtr_keeps_the_shape_and_gives_a_scalar_for_a_scalar():
    x = np.linspace(-3.0, 3.0, 12).reshape(3, 4)
    assert special.ndtr(x).shape == (3, 4)
    assert same_bits(special.ndtr(x), ssp.ndtr(x))
    value = special.ndtr(np.float64(0.3))
    assert np.ndim(value) == 0 and same_bits(value, ssp.ndtr(0.3))
    assert special.ndtr(np.zeros(0)).shape == (0,)
