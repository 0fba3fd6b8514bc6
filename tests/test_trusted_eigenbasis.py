"""The one rule by which e^{As} of a frozen system is taken on an eigenbasis.

``dynamics.trusted_eigenbasis`` trusts the eigenbasis V of A when its
condition estimate is at most ``_COND_MAX`` and ||V^-1 A V - diag(w)||_F is
at most ``_RESIDUAL_MAX`` ||A||_F. Both the frozen steps (``StepLaw``) and
the closed-form moments of ``stationary`` read it. The band where the two
bounds disagree, a near-defective, non-normal A whose estimate is below the
first but whose residual is above the second, is where the eigenvector
route loses digits (Moler & Van Loan 2003, "Nineteen dubious ways to
compute the exponential of a matrix", SIAM Rev. 45): there every e^{As}
must come from expm and match a 40-digit ``mpmath`` reference.
"""

from unittest import mock

import mpmath as mp
import numpy as np
import pytest

from locstat import dynamics, linalg
from locstat import stationary as st
from locstat.dynamics import StepLaw, trusted_eigenbasis
from locstat.noise import BROWNIAN

LAGS = np.array([0.0, 0.5, 2.0, 6.0])
STEPS = np.array([1.0 / 64.0, 0.5, 2.0, 6.0])


def middle_band(rng, p: int):
    """A = S J S^-1 in the middle band and its margin a: J holds the block
    [[-a, 1], [0, -a (1 + d)]], d in [1e-7, 10^-6.3], and p - 2 roots in
    [-3, -a] besides, S = I plus 0.4 of a normal matrix. The basis estimate
    is about 1e6 to 1e8, so the rounding of V^-1 A V alone is above
    ``_RESIDUAL_MAX`` of A; the few draws (about 2 in 100) outside the band
    are drawn again."""
    while True:
        a = rng.uniform(0.8, 2.0)
        J = np.diag(-rng.uniform(a, 3.0, p))
        J[0, 0] = J[1, 1] = -a
        J[0, 1] = 1.0
        J[1, 1] *= 1.0 + 10.0 ** rng.uniform(-7.0, -6.3)
        S = np.eye(p) + 0.4 * rng.standard_normal((p, p))
        A = S @ J @ np.linalg.inv(S)
        if in_middle_band(A):
            return A, a


def in_middle_band(A) -> bool:
    """Whether the estimate of A's basis is within ``_COND_MAX`` and its residual is not."""
    w, V, Vinv, est = dynamics.eigenbasis(A)
    residual = np.linalg.norm(Vinv @ A @ V - np.diag(w))
    return est <= dynamics._COND_MAX and residual > dynamics._RESIDUAL_MAX * np.linalg.norm(A)


def systems():
    rng = np.random.default_rng(20)
    out = []
    for p in (2, 2, 2, 3, 3, 3):
        A, a = middle_band(rng, p)
        out.append(st.FrozenSystem(A, rng.standard_normal(p), rng.standard_normal(p), margin=a))
    return out


SYSTEMS = systems()


def _mp(x):
    return mp.matrix(np.atleast_2d(x).tolist())


def _float(x) -> np.ndarray:
    return np.array(x.tolist(), dtype=float)


def mp_expm(A, s):
    return mp.expm(_mp(A) * mp.mpf(float(s)))


def mp_kron_sum(A, k: int):
    """A (+) ... (+) A, k terms, as a 40-digit matrix: e^{Ks} = e^{As} (x) ... (x) e^{As}."""
    p = A.shape[0]
    K = np.zeros((p**k, p**k))
    for j in range(k):
        K += np.kron(np.kron(np.eye(p**j), A), np.eye(p ** (k - j - 1)))
    return _mp(K)


def mp_kron_power(x, k: int):
    out = np.ones(1)
    for _ in range(k):
        out = np.kron(out, x)
    return _mp(out).T


def assert_close(got, want):
    got, want = np.asarray(got, dtype=float), np.asarray(want, dtype=float)
    assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()


@pytest.mark.parametrize("k", range(len(SYSTEMS)))
def test_the_middle_band_takes_expm_in_both_modules(k):
    fr = SYSTEMS[k]
    assert in_middle_band(fr.A)
    assert trusted_eigenbasis(fr.A) is None
    law = StepLaw(fr.A, fr.C, STEPS)
    assert law.basis is None
    for run in (lambda: law.propagator(), lambda: law.moments(),
                lambda: st.stationary_autocov(fr, 0.0, BROWNIAN, LAGS),
                lambda: st.kernel_power_integrals(fr)):
        with mock.patch.object(linalg, "expm", wraps=linalg.expm) as expm:
            run()
        assert expm.call_count > 0


@pytest.mark.parametrize("k", range(len(SYSTEMS)))
def test_autocov_on_the_middle_band_matches_mpmath(k):
    # the reference takes the same float Gramian, so only e^{As} is tested
    fr = SYSTEMS[k]
    gam_b = st.lyapunov_gram(fr) @ fr.B
    with mp.workdps(40):
        want = [(_mp(fr.B) * mp_expm(fr.A, s) * _mp(gam_b).T)[0] for s in LAGS]
    assert_close(st.stationary_autocov(fr, 0.0, BROWNIAN, LAGS), want)


@pytest.mark.parametrize("k", range(len(SYSTEMS)))
def test_kernel_power_integrals_on_the_middle_band_match_mpmath(k):
    # int_0^inf f^j = -(B (x) .. (x) B)' K^-1 (C (x) .. (x) C), K the
    # Kronecker sum of j copies of A; the tail past 60 / margin is below
    # e^-60 of it
    fr = SYSTEMS[k]
    with mp.workdps(40):
        want = [-(mp_kron_power(fr.B, j).T * mp.lu_solve(mp_kron_sum(fr.A, j),
                                                         mp_kron_power(fr.C, j)))[0]
                for j in range(1, 5)]
    assert_close(st.kernel_power_integrals(fr), want)


@pytest.mark.parametrize("k", range(len(SYSTEMS)))
def test_step_law_on_the_middle_band_matches_mpmath(k):
    # d = A^-1 (e^{Ah} - I) C and G = S - e^{Ah} S e^{A'h}, S the 40-digit
    # Gramian of (A, C)
    fr = SYSTEMS[k]
    p = fr.p
    law = StepLaw(fr.A, fr.C, STEPS)
    P = law.propagator()
    d, G = law.moments()
    with mp.workdps(40):
        A, C = _mp(fr.A), _mp(fr.C).T
        S = mp.lu_solve(mp_kron_sum(fr.A, 2), -mp_kron_power(fr.C, 2))
        S = mp.matrix([[S[i * p + j] for j in range(p)] for i in range(p)])
        for h, P_h, d_h, G_h in zip(STEPS, P, d, G):
            E = mp_expm(fr.A, h)
            assert_close(P_h, _float(E))
            assert_close(d_h, _float(mp.lu_solve(A, E * C - C)).ravel())
            assert_close(G_h, _float(S - E * S * E.T))
