"""The lag-free chunk of ``experiments._localized_chunk``, which draws its
Gaussian part as s z, one normal z per replication, and contracts its jumps
with adjoint weights. Its law: s^2 is the variance of
``estimators.localized_sum`` of the states that the affine scan runs on the
unit directions of the Gaussian noise. Its draws: the chunk equals
``localized_sum`` (or ``np.trapezoid``, for the continuous average) of the
states scanned on a noise replayed from its stream, rank one in its normals,
with the mean and its own jumps.

The laws are drawn for p = 1..3: gap laws (a diagonal A), node-propagator
laws (a commuting A that is not diagonal, and a non-commuting A), frozen
steps (``stationary._frozen_law``), each with and without jumps and a
Gaussian part, and, for a stiff A with one long gap, decays that underflow
to 0, so that the carry of the later records to the earlier ones is 0.
The record weights vanish on some records, as a kernel's do off its support.
"""

from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from locstat import stationary
from locstat.dynamics import (
    Lipschitz, ModelSpec, adjoint_weights, affine_states, build_plan, build_segment_law,
    draw_segment_jumps, draw_segment_noise, run_segment_law,
)
from locstat.estimators import localized_sum
from locstat.experiments import CHUNK, _adjoint, _localized_chunk
from locstat.noise import JumpSpec, LevyTriplet
from locstat.rng import stream

H = 1.0 / 32.0  # binary fractions keep every grid time exact
KINDS = ("gap_identity", "gap_eigen", "fine", "frozen")


class _Diagonal:
    """A(t) = scale V diag(-rates - amps (1 + sin(freqs t))) V^-1."""

    def __init__(self, V, rates, amps, freqs, scale):
        self.V, self.Vinv = V, np.linalg.inv(V)
        self.rates, self.amps, self.freqs, self.scale = rates, amps, freqs, scale

    def __call__(self, t):
        t = np.asarray(t, dtype=float)
        vals = -self.rates - self.amps * (1.0 + np.sin(np.multiply.outer(t, self.freqs)))
        return self.scale * (self.V * vals[..., None, :]) @ self.Vinv


class _NonCommuting:
    def __init__(self, A0, A1):
        self.A0, self.A1 = A0, A1

    def __call__(self, t):
        return self.A0 + np.sin(np.asarray(t, dtype=float))[..., None, None] * self.A1


class _Vector:
    def __init__(self, base, slope):
        self.base, self.slope = base, slope

    def __call__(self, t):
        return self.base + np.multiply.outer(np.cos(np.asarray(t, dtype=float)), self.slope)


def _law(kind, p, rng, triplet, rescaled, stiff):
    """The segment law of a system of ``kind`` recording at ``rescaled``;
    a stiff system decays 40 times faster."""
    scale = 40.0 if stiff else 1.0
    B = _Vector(rng.standard_normal(p), 0.3 * rng.standard_normal(p))
    C = _Vector(rng.standard_normal(p), 0.3 * rng.standard_normal(p))
    if kind == "frozen":
        V = np.eye(p) + 0.3 * rng.standard_normal((p, p))
        A = scale * V @ np.diag(-rng.uniform(1.0, 3.0, p)) @ np.linalg.inv(V)
        fr = stationary.FrozenSystem(A, B(0.0), C(0.0), margin=float(-np.linalg.eigvals(A).real.max()))
        return stationary._frozen_law(fr, triplet, np.diff(rescaled) if rescaled.size > 1 else [H])
    if kind == "fine":
        G = rng.standard_normal((p, p))
        A0 = -2.0 * np.eye(p) - rng.uniform(0.0, 1.0) * G @ G.T + (G - G.T)
        A1 = rng.standard_normal((p, p))
        A = _NonCommuting(scale * A0, scale * 0.5 * A1 / np.linalg.norm(A1, 2))
    else:
        V = np.eye(p) if kind == "gap_identity" else np.eye(p) + 0.3 * rng.standard_normal((p, p))
        A = _Diagonal(V, rng.uniform(1.0, 3.0, p), rng.uniform(0.0, 0.5, p),
                      rng.uniform(0.5, 2.0, p), scale)
    spec = ModelSpec(p, A, B, C, Lipschitz(1.0, 1.0, 1.0), kind != "fine", 1.0, kind)
    return build_segment_law(build_plan(spec, 4, rescaled, H / scale, 8.0), triplet)


def rank_one(law, adjoint):
    """u_k = chol_k g_k / s (n_records, p) of the ``_adjoint`` of ``law``:
    the noise u_k z has the Gaussian part s z of a lag-free chunk as its
    statistic, for one normal z per replication. None without a Gaussian
    part, and 0 when s is 0."""
    a, s, _ = adjoint
    if s is None:
        return None
    g = np.einsum("kab,ka->kb", law.chol, a)
    return np.einsum("kab,kb->ka", law.chol, g / s) if s > 0 else np.zeros_like(g)


def chunk_noise(law, adjoint, gen, R):
    """The noise (n_records, p, R) whose scanned statistic is that of a
    lag-free chunk that draws from ``gen``: u_k z for its R normals z (see
    :func:`rank_one`), then the mean and the jumps that follow them on the
    stream. A law without a Gaussian part draws no normals, and this is
    ``draw_segment_noise``."""
    u = rank_one(law, adjoint)
    z = None if u is None else gen.standard_normal(R)
    eta = draw_segment_noise(replace(law, chol=None), gen, R)
    return eta if u is None else eta + u[:, :, None] * z


def abs_noise(law, adjoint, gen, R):
    """|mean| + |chol| |g / s| |z| + the sum of |weight| |size| over the
    jumps of each cell (n_records, p, R): the absolute terms of
    :func:`chunk_noise` on ``gen``, from the same draws."""
    n, p = law.mean.shape
    out = np.repeat(np.abs(law.mean)[:, :, None], R, axis=2)
    a, s, _ = adjoint
    if s is not None:
        g = np.abs(np.einsum("kab,ka->kb", law.chol, a))
        u = np.einsum("kab,kb->ka", np.abs(law.chol), g / s) if s > 0 else np.zeros_like(g)
        out += u[:, :, None] * np.abs(gen.standard_normal(R))
    if law.jump_mean is not None:
        counts, seg, units, sizes = draw_segment_jumps(law, gen, R)
        if seg is not None:
            rep = np.repeat(np.repeat(np.arange(R), n), counts)
            np.add.at(out, (seg, slice(None), rep),
                      np.abs(law.jump_weight(seg, units)) * np.abs(sizes)[:, None])
    return out


def abs_terms(law, noise, record_weights, scale):
    """scale sum_k |w_k| |B_k| . X_k, X the scan of the absolute terms of the
    noise under |D|: a bound of the absolute terms of the statistic, the
    scale of its rounding."""
    X = affine_states(np.abs(law.decay), noise, np.zeros(noise.shape[1:]))
    return abs(scale) * np.einsum("k,ka,kar->r", np.abs(record_weights), np.abs(law.B), X)


def _case(kind, p, gaps, trapezoid, stiff, rng, triplet):
    """The law, record weights and scale of a drawn case: the trapezoid
    weights of the continuous average on a uniform grid, or random weights
    with zeros; a stiff case without them has one long gap over which its
    decays underflow to 0."""
    if kind == "fine" and p == 1:  # every A of order 1 commutes
        kind = "gap_identity"
    if trapezoid:  # the continuous average lives on a uniform grid
        gaps = [gaps[0] if gaps else 4] * max(len(gaps), 1)
    elif stiff:  # a long gap over which the stiff decays underflow
        gaps = gaps[:2] + [640] + gaps[2:]
    rescaled = H * (3 + np.concatenate([[0], np.cumsum(gaps, dtype=float)]))
    law = _law(kind, p, rng, triplet, rescaled, stiff)
    n = len(law.B)
    if stiff and not trapezoid:
        assert (law.decay == 0.0).all(axis=(1, 2)).any()
    if trapezoid:
        record_weights, scale = np.ones(n), 0.75 * gaps[0] * H
        record_weights[[0, -1]] = 0.5
    else:
        record_weights = rng.standard_normal(n) * (rng.random(n) < 0.7)
        scale = rng.uniform(0.1, 2.0)
    return law, record_weights, scale


CASES = dict(
    kind=st.sampled_from(KINDS),
    p=st.integers(1, 3),
    gaps=st.lists(st.integers(1, 24), min_size=0, max_size=8),
    trapezoid=st.booleans(),
    stiff=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)


@settings(max_examples=120, deadline=None, derandomize=True, database=None)
@given(**CASES)
def test_adjoint_norm_is_the_standard_deviation_of_the_scanned_statistic(kind, p, gaps, trapezoid,
                                                                          stiff, seed):
    # the Gaussian part of the statistic is linear in the normals Z_k of the
    # segments, eta_k = chol_k Z_k: its variance is the sum of the squares of
    # the statistic of the n p unit directions chol_k e_i, each scanned as
    # the noise of one replication
    rng = np.random.default_rng(seed)
    law, record_weights, _ = _case(kind, p, gaps, trapezoid, stiff, rng,
                                   LevyTriplet(rng.uniform(-1.0, 1.0), 0.5))
    n = len(law.B)
    cell = np.arange(n * p)
    eta = np.zeros((n, p, n * p))
    eta[cell // p, :, cell] = law.chol[cell // p, :, cell % p]
    L = localized_sum(run_segment_law(law, eta), np.arange(n), None, record_weights, 1.0)
    s = _adjoint(law, record_weights)[1]
    assert abs(s * s - np.sum(L * L)) <= 1e-12 * np.sum(L * L), (s * s, np.sum(L * L))


@pytest.mark.parametrize("size", [1e200, 1e-200])
def test_adjoint_norm_neither_overflows_nor_underflows(size):
    # g . g overflows to inf at entries of 1e200 and underflows to 0 at
    # 1e-200; s = ||g|| is finite and nonzero at both
    v = np.array([3.0, -4.0, 12.0, 0.5, -0.25])
    n = len(v)
    law = SimpleNamespace(decay=np.zeros((n, 1, 1)), B=np.ones((n, 1)), mean=np.zeros((n, 1)),
                          chol=(size * v)[:, None, None])
    s = _adjoint(law, np.ones(n))[1]
    assert np.isfinite(s) and s > 0
    assert s == pytest.approx(size * np.linalg.norm(v), rel=1e-15, abs=0.0)


@settings(max_examples=120, deadline=None, derandomize=True, database=None)
@given(**CASES, sigma2=st.sampled_from([0.0, 0.5]), jumps=st.booleans(), R=st.integers(1, CHUNK + 6))
def test_adjoint_chunk_matches_the_scanned_statistic(kind, p, gaps, trapezoid, stiff, seed, sigma2,
                                                     jumps, R):
    # the chunk's value is the scanned statistic of chunk_noise replayed from
    # its stream: the rank-one Gaussian noise of its normals, then the mean
    # and its own jumps; a law without a Gaussian part draws the noise of
    # draw_segment_noise
    rng = np.random.default_rng(seed)
    triplet = LevyTriplet(rng.uniform(-1.0, 1.0), sigma2,
                          JumpSpec(2.0, normal=(0.3, 1.0)) if jumps else None)
    law, record_weights, scale = _case(kind, p, gaps, trapezoid, stiff, rng, triplet)
    n = len(law.B)
    adjoint = _adjoint(law, record_weights)
    payload = {"config": SimpleNamespace(seed=seed), "law": law, "purpose": "adjoint",
               "adjoint": adjoint, "scale": scale}
    lo = CHUNK * int(rng.integers(0, 3))
    got = _localized_chunk(payload, lo, lo + R)
    Y = run_segment_law(law, chunk_noise(law, adjoint, stream(seed, "adjoint", lo // CHUNK), R))
    if trapezoid:
        want = scale * np.trapezoid(Y, axis=1)
    else:
        want = localized_sum(Y, np.arange(n), None, record_weights, scale)
    size = abs_terms(law, abs_noise(law, adjoint, stream(seed, "adjoint", lo // CHUNK), R),
                     record_weights, scale)
    assert got.shape == (R,)
    assert np.all(np.abs(got - want) <= 1e-14 * size), np.max(np.abs(got - want) / size)


def test_adjoint_weights_are_the_transposed_recursion():
    # a_k = c_k + D_{k+1}' a_{k+1}, one record at a time
    rng = np.random.default_rng(5)
    n, p = 9, 3
    law = SimpleNamespace(decay=rng.standard_normal((n, p, p)) * 0.5)
    law.decay[4] = 0.0
    c = rng.standard_normal((n, p))
    want = c.copy()
    for k in range(n - 2, -1, -1):
        want[k] += law.decay[k + 1].T @ want[k + 1]
    np.testing.assert_allclose(adjoint_weights(law, c), want, rtol=1e-13, atol=1e-15)
