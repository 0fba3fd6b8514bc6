"""Moments of the batched exact frozen simulator on random stable systems.

Random A with p = 1..3: real eigenvalues, complex-conjugate pairs, and
two near-defective kinds that take the expm path: Jordan-like blocks whose
eigenbasis has condition number far past ``dynamics._COND_MAX``, and the
middle band of ``test_trusted_eigenbasis``, whose basis is within that bound
but fails the residual test of ``dynamics.trusted_eigenbasis``.
Independent replications give the mean, the variance and the covariance at
one lag of the output, and the covariance of the final state; each must
match its closed form (`stationary_mean`, `stationary_autocov`, and Sigma_L
times `lyapunov_gram`) within 4.5 standard errors.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as hst

from test_trusted_eigenbasis import middle_band

from locstat import dynamics
from locstat import stationary as st
from locstat.dynamics import draw_segment_noise, run_segment_law, segment_states
from locstat.noise import JumpSpec, LevyTriplet, triplet_moments

R = 1000


@hst.composite
def frozen_systems(draw):
    kind = draw(hst.sampled_from(["real", "complex", "middle_band", "near_defective"]))
    p = draw(hst.integers(1 if kind == "real" else 2, 3))
    rng = np.random.default_rng(draw(hst.integers(0, 2**32 - 1)))
    rates = rng.uniform(0.8, 2.5, p)
    if kind == "middle_band":
        A, margin = middle_band(rng, p)
    elif kind == "near_defective":
        # -a I plus a superdiagonal, the last root moved by 1e-10: the
        # eigenbasis has condition number far beyond eigenbasis's bound
        A = -rates[0] * np.eye(p) + np.diag(np.ones(p - 1), 1)
        A[-1, -1] *= 1.0 + 1e-10
        assert dynamics.eigenbasis(A)[3] > dynamics._COND_MAX
        margin = rates[0]
    else:
        D = np.diag(-rates)
        if kind == "complex":
            D[0, 1] = rng.uniform(1.0, 3.0)
            D[1, 0] = -D[0, 1]
            D[1, 1] = D[0, 0]
        V = np.eye(p) + 0.4 * rng.standard_normal((p, p))
        A = V @ D @ np.linalg.inv(V)
        margin = float(np.min(np.diag(-D)))
    fr = st.FrozenSystem(A, rng.standard_normal(p), rng.standard_normal(p), margin=margin)
    assert (dynamics.trusted_eigenbasis(A) is None) == (kind in ("middle_band", "near_defective"))
    return fr


@hst.composite
def drivers(draw):
    gamma = draw(hst.floats(-1.0, 1.0))
    jumps = draw(hst.sampled_from(["none", "atoms", "normal"]))
    sigma2 = 1.0 if jumps == "none" else draw(hst.sampled_from([0.0, 0.5]))
    spec = {
        "none": None,
        "atoms": JumpSpec(0.5, atoms=((1.5, 0.4), (-0.5, 0.6))),
        "normal": JumpSpec(0.4, normal=(0.3, 1.5)),
    }[jumps]
    return LevyTriplet(gamma, sigma2, spec)


@settings(max_examples=20, deadline=None, derandomize=True, database=None)
@given(
    fr=frozen_systems(), tri=drivers(), lag=hst.floats(0.2, 2.0), seed=hst.integers(0, 2**32 - 1)
)
def test_batched_simulator_matches_closed_form_moments(fr, tri, lag, seed):
    gen = np.random.default_rng(seed)
    gap = lag / fr.margin
    # one generator for every replication: the paths stay independent
    law = st._frozen_law(fr, tri, np.array([gap]))
    eta = draw_segment_noise(law, gen, R)
    y, x = run_segment_law(law, eta), segment_states(law, eta)[-1].T
    mean = st.stationary_mean(fr, 0.0, tri)
    c0, c1 = y[:, 0] - mean, y[:, 1] - mean
    checks = {
        "mean": (y[:, 0], mean),
        "variance": (c0**2, st.stationary_autocov(fr, 0.0, tri, 0.0)),
        "lag covariance": (c0 * c1, st.stationary_autocov(fr, 0.0, tri, gap)),
    }
    mom = triplet_moments(tri)
    cx = x + mom.mu_L * np.linalg.solve(fr.A, fr.C)  # state minus its mean -mu_L A^-1 C
    gram = mom.Sigma_L * st.lyapunov_gram(fr)
    for i in range(fr.p):
        for j in range(i, fr.p):
            checks[f"state covariance {i}{j}"] = (cx[:, i] * cx[:, j], gram[i, j])
    for name, (sample, target) in checks.items():
        se = np.std(sample) / np.sqrt(R)
        assert abs(np.mean(sample) - target) <= 4.5 * se, name
