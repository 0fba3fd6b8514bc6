"""The segment laws of commuting models against 40-digit quadrature of the
variation-of-constants integrals of the continuous model.

For a commuting A(t) the transition over [s, b] is exp(int_s^b A), so the
noise a record gap [a, b] adds has the decay D = Phi(b, a), the drift
int_a^b Phi(b, s) C(s) ds, the covariance int_a^b Phi C C' Phi' ds, and a
jump at x the weight Phi(b, x) C(x). The models: p = 1 rates (strong decay
a = 40 among them), diagonal p = 2 and 3 and the model of the
``statespace_simulate`` workload, which take the gap law; and a(t) K, which
takes the node-propagator law, with K the companion matrix of eigenvalues
-1 and -2, a matrix of the complex pair -1 +- 2i, and a rotated diagonal
matrix. Their exponents int A have closed forms, so the oracle is one
``mpmath.quad`` per entry. The node-propagator law of non-commuting models
is checked against a DOP853 solve in ``test_panel_law.py``; here, the
choice between the two laws, and a spectrum too stiff for any panel budget.
"""

import json


import functools

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from locstat import dynamics, models
from locstat.cli import _build_model, main
from locstat.dynamics import Lipschitz, ModelSpec, build_plan

mp.mp.dps = 40
COMPANION = [[0.0, 1.0], [-2.0, -3.0]]  # eigenvalues -1, -2
COMPLEX_PAIR = [[-1.0, 2.0], [-2.0, -1.0]]  # eigenvalues -1 +- 2i
_R = np.array([[np.cos(0.3), -np.sin(0.3)], [np.sin(0.3), np.cos(0.3)]])
ROTATED = (_R @ np.diag([-1.0, -3.0]) @ _R.T).tolist()  # eigenvalues -1, -3, rounded


class Rates:
    """A(t) = -diag(rate + amp (1 + sin(freq t))), C(t) = c + d cos(t): the
    exponent int_s^b A(t/N) dt of each state in closed form."""

    def __init__(self, rate, amp, freq, c, d):
        self.rate, self.amp, self.freq = (np.asarray(x, dtype=float) for x in (rate, amp, freq))
        self.c, self.d = np.asarray(c, dtype=float), np.asarray(d, dtype=float)

    def spec(self):
        p = self.rate.size

        def A(t):
            t = np.asarray(t, dtype=float)
            vals = -(self.rate + self.amp * (1.0 + np.sin(np.multiply.outer(t, self.freq))))
            return vals[..., None] * np.eye(p)

        def C(t):
            return self.c + np.multiply.outer(np.cos(np.asarray(t, dtype=float)), self.d)

        return ModelSpec(p, A, C, C, Lipschitz(1.0, 1.0, 1.0), True, float(self.rate.min()), "rates")

    def exponents(self, s, b, N):
        out = []
        for r, m, f in zip(self.rate, self.amp, self.freq):
            r, m, f = mp.mpf(r), mp.mpf(m), mp.mpf(f)
            sin_int = (mp.cos(f * s / N) - mp.cos(f * b / N)) * N / f if f else 0
            out.append(-(r + m) * (b - s) - m * sin_int)
        return out

    def vector(self, s, N):  # C(s / N)
        return [mp.mpf(c) + mp.mpf(d) * mp.cos(s / N) for c, d in zip(self.c, self.d)]

    def basis(self):
        return mp.eye(self.rate.size)


class Scaled:
    """A(t) = (1 + amp sin(t)) K, C(t) = (c0, c1 + d cos t): exponents mu_i
    int (1 + amp sin) on the eigenbasis of K, the eigenvalues mu and vectors
    of the double matrix K to 40 digits (``mpmath.eig``); every Re mu <= -1."""

    def __init__(self, K, amp, c, d):
        self.K, self.amp = np.array(K, dtype=float), float(amp)
        self.c, self.d = np.asarray(c, dtype=float), float(d)
        self.mu, self.V = mp.eig(mp.matrix(self.K.tolist()))

    def spec(self):
        def A(t):
            return (1.0 + self.amp * np.sin(np.asarray(t, dtype=float)))[..., None, None] * self.K

        def C(t):
            t = np.asarray(t, dtype=float)
            return np.stack([np.broadcast_to(self.c[0], t.shape),
                             self.c[1] + self.d * np.cos(t)], axis=-1)

        return ModelSpec(2, A, C, C, Lipschitz(1.0, 1.0, 1.0), True, 0.5, "scaled")

    def exponents(self, s, b, N):
        m = mp.mpf(self.amp)
        alpha = (b - s) + m * (mp.cos(s / N) - mp.cos(b / N)) * N
        return [mu * alpha for mu in self.mu]

    def vector(self, s, N):
        return [mp.mpf(self.c[0]), mp.mpf(self.c[1]) + mp.mpf(self.d) * mp.cos(s / N)]

    def basis(self):
        return self.V


def oracle(model, N, a, b, xs):
    """D (p, p), drift (p,), covariance (p, p) and the jump weights (len(xs), p)
    of the gap [a, b] (rescaled time) to 40 digits: the real parts of their
    products on a basis V that may be complex."""
    V = model.basis()
    Vinv = V ** -1
    p = V.rows
    a, b = mp.mpf(a), mp.mpf(b)

    @functools.cache  # every quad below evaluates at the same nodes
    def y(s):  # diag(e^{E(s)}) V^-1 C(s / N)
        g = Vinv * mp.matrix(model.vector(s, N))
        return [mp.exp(E) * g[i] for i, E in enumerate(model.exponents(s, b, N))]

    # the integrands decay like e^{-rate (b - s)}: panels of length 1 / rate
    rate = max(abs(x) for x in model.exponents(b - 1, b, N)) + 1
    points = mp.linspace(a, b, int(min(200, mp.ceil((b - a) * rate))) + 2)
    drift_e = [mp.quad(lambda s, i=i: y(s)[i], points) for i in range(p)]
    cov_e = [[mp.quad(lambda s, i=i, k=k: y(s)[i] * y(s)[k], points) for k in range(p)]
             for i in range(p)]
    D = V * mp.diag([mp.exp(E) for E in model.exponents(a, b, N)]) * Vinv
    drift = V * mp.matrix(drift_e)
    cov = V * mp.matrix(cov_e) * V.T
    weights = [V * mp.matrix(y(mp.mpf(x))) for x in xs]
    f = lambda m: np.array([[float(mp.re(x)) for x in row] for row in m.tolist()])  # noqa: E731
    return f(D), f(drift)[:, 0], f(cov), np.array([f(w)[:, 0] for w in weights])


def gap_law(model, N, a, b, h, units):
    """D, drift, covariance and jump weights at the fractions ``units`` of the
    gap [a, b] (segment 1 of a plan recording at a and b)."""
    plan = build_plan(model.spec(), N, [a, b], h, 16.0)
    decay, drift, cov, span, _, weight = dynamics._plan_sums(plan, True)
    assert span[1] == b - a
    seg = np.ones(len(units), dtype=np.int64)
    return decay[1], drift[1], cov[1], weight(seg, np.asarray(units, dtype=float))


def assert_close(got, want):
    """Within 1e-12 of each value, or 1e-13 of the largest where values cancel."""
    scale = np.abs(want).max(initial=0.0)
    assert np.all(np.abs(got - want) <= 1e-12 * np.abs(want) + 1e-13 * scale), (got, want)


UNITS = (0.0, 0.3, 0.71, 0.999)


def _check(model, N, a, b, h):
    want = oracle(model, N, a, b, [mp.mpf(a) + mp.mpf(u) * (b - a) for u in UNITS])
    for got, ref in zip(gap_law(model, N, a, b, h, UNITS), want):
        assert_close(got, ref)


@pytest.mark.parametrize("model,N,gap", [
    (Rates([40.0], [0.0], [0.0], [1.0], [0.0]), 1, 1.0),
    (Rates([1.0], [1.0], [1.0], [1.0], [0.0]), 1, 1.0),
    (Rates([1.0], [1.0], [1.0], [1.0], [0.0]), 16, 1.0),
    # the statespace_simulate workload model: rates 1 + 0.5 sin t and 2
    (Rates([0.5, 2.0], [0.5, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 0.0]), 256, 4.0),
    (Rates([1.0, 1.5, 2.5], [0.5, 0.0, 1.0], [1.0, 1.0, 2.0], [1.0, -0.5, 0.3], [0.2, 0.0, 0.1]), 4, 2.0),
    (Scaled(COMPANION, 0.5, [0.0, 1.0], 0.0), 1, 1.0),
    (Scaled(COMPANION, 0.5, [0.3, 1.0], 0.2), 8, 3.0),
    (Scaled(COMPLEX_PAIR, 0.5, [0.3, 1.0], 0.2), 1, 1.0),
    (Scaled(COMPLEX_PAIR, 0.5, [0.3, 1.0], 0.2), 64, 3.0),
    (Scaled(ROTATED, 0.5, [0.3, 1.0], 0.2), 1, 1.0),
    (Scaled(ROTATED, 0.5, [0.3, 1.0], 0.2), 64, 3.0),
], ids=["a40", "tvcar_sin_N1", "tvcar_sin_N16", "statespace_simulate", "diag3", "aK", "aK_C",
        "complex_pair_N1", "complex_pair_N64", "rotated_N1", "rotated_N64"])
def test_gap_law_matches_the_continuous_model(model, N, gap):
    _check(model, N, 1.0 * N, 1.0 * N + gap, gap / 4.0)


@settings(max_examples=15, deadline=None, derandomize=True, database=None)
@given(
    p=st.integers(1, 3),
    seed=st.integers(0, 2**32 - 1),
    N=st.sampled_from([1, 4, 64]),
    gap=st.sampled_from([0.25, 1.0, 3.0]),
)
def test_gap_law_matches_the_continuous_model_on_drawn_rates(p, seed, N, gap):
    rng = np.random.default_rng(seed)
    model = Rates(rng.uniform(0.5, 3.0, p) * rng.choice([1.0, 10.0]), rng.uniform(0.0, 1.0, p),
                  rng.uniform(0.5, 2.0, p), rng.normal(size=p), rng.normal(0.0, 0.3, p))
    _check(model, N, 0.5 * N, 0.5 * N + gap, gap / 8.0)


def test_a_long_burn_in_keeps_only_its_live_tail():
    # e^E underflows to 0 more than 760 / min(-Re lambda) = 760 before the
    # record (a >= 1): that head adds to the decay alone, and the jumps of the
    # segment fall on the rest
    model = Rates([1.0], [1.0], [1.0], [1.0], [0.0])
    plan = build_plan(model.spec(), 256, [256.0, 257.0], 1.0, 1e5)
    decay, drift, cov, span, _, weight = dynamics._plan_sums(plan, True)
    assert 759.0 < span[0] < 760.0 and span[1] == 1.0
    units = np.array([0.0, 0.5, 1.0 - 2.0**-10])
    want = oracle(model, 256, 256.0 - 900.0, 256.0,
                  [mp.mpf(256.0) - mp.mpf(span[0]) * (1 - mp.mpf(u)) for u in units])
    assert decay[0, 0, 0] == 0.0
    assert_close(drift[0], want[1])
    assert_close(cov[0], want[2])
    got = weight(np.zeros(3, dtype=np.int64), units)
    assert got[0, 0] < 1e-300 and want[3][0, 0] < 1e-300  # where the span starts
    for g, w in zip(got[1:], want[3][1:]):
        assert_close(g, w)


def test_shipped_commuting_models_take_the_gap_law():
    # the law is chosen by whether A is diagonal at the nodes: tvcar_sin,
    # diag2 and ou take the gap law, companion2 (constant, not diagonal) the
    # node-propagator law; the law not taken is None here
    for spec, law in ((models.tvcar_sin(), "gap"), (models.diag2(), "gap"), (models.ou(2.0), "gap"),
                      (models.companion2(), "propagator")):
        plan = build_plan(spec, 64, 64.0 + np.arange(5.0), 1.0 / 64.0, 16.0)
        with pytest.MonkeyPatch.context() as mp_:
            mp_.setattr(dynamics, "_propagator_sums" if law == "gap" else "_gap_sums", None)
            dynamics._plan_sums(plan, True)


def _fine_segments(plan, jumps):
    """``dynamics._plan_sums`` of ``plan``, and a mask of the segments that
    ``dynamics._propagator_sums`` took, those where A is not diagonal."""
    taken, propagator_sums = [], dynamics._propagator_sums

    def counted(spec, N, lo, L, segs, *rest):
        taken.append(segs)
        return propagator_sums(spec, N, lo, L, segs, *rest)

    with pytest.MonkeyPatch.context() as mp_:
        mp_.setattr(dynamics, "_propagator_sums", counted)
        out = dynamics._plan_sums(plan, jumps)
    fine = np.zeros(plan.record_steps.size, dtype=bool)
    for segs in taken:
        fine[segs] = True
    return out, fine


def test_a_plan_with_gap_and_fine_segments_weighs_each_jump_by_its_own_law():
    # A is diagonal before t = 1.25 and does not commute after it: the
    # segments before take gap laws, the ones after the node-propagator law,
    # and each jump takes the weight of its own segment's law
    A0, E = np.diag([-1.0, -2.0]), np.array([[0.0, 0.5], [-0.5, 0.0]])

    def A(t):
        t = np.asarray(t, dtype=float)
        return A0 + ((t > 1.25) * np.sin(t))[..., None, None] * E

    spec = ModelSpec(2, A, lambda t: np.ones(np.shape(t) + (2,)),
                     lambda t: np.ones(np.shape(t) + (2,)), Lipschitz(1.0, 0.0, 0.0), False, 1.0, "half")
    plan = build_plan(spec, 1, [1.0, 1.25, 1.375, 1.5, 1.625], 1.0 / 64.0, 8.0)
    (*_, span, _, weight), fine = _fine_segments(plan, True)
    assert not fine[:2].any() and fine[2:].all()
    assert np.array_equal(span[1:], np.diff(plan.eval_rescaled))
    seg = np.repeat(np.arange(5), 2)
    unit = np.tile([0.25, 0.75], 5)
    both = weight(seg, unit)
    for k in range(5):
        alone = weight(seg[2 * k: 2 * k + 2], unit[2 * k: 2 * k + 2])
        assert np.array_equal(both[2 * k: 2 * k + 2], alone)


def test_a_spectrum_stiff_beyond_the_panel_bound_exits_3(tmp_path, capsys):
    # rates 1e6 and 1e-3: the live part of the burn-in is 8000 long and needs
    # 1e6 / 8 panels per unit, 1e9 in all, more than the 2^22 that bound a
    # run; no law is built, and the CLI exits 3 naming the spectrum's ratio.
    # The same spectrum rotated, R diag(-1e6, -1e-3) R' (R a rotation by
    # 0.3), is not diagonal and takes node-propagator panels no longer than
    # 8 / ||A||_F, as many; its error names the ratio of A's eigenvalues. It
    # is run on the burn-in alone: the 125,000 panels of a second gap of
    # length 1 take 9 s to build before the burn-in's stack is reached
    spec = Rates([1e6, 1e-3], [0.0, 0.0], [0.0, 0.0], [1.0, 1.0], [0.0, 0.0]).spec()
    plan = build_plan(spec, 1, [8000.0, 8001.0], 1.0 / 4.0, 8000.0)
    ratio = r"max \|lambda\| / min\(-Re lambda\) = 1e\+09 needs 1e\+09 panels, more than 4194304"
    with pytest.raises(ValueError, match="^model: a spectrum with " + ratio):
        dynamics._plan_sums(plan, False)
    R = np.array([[np.cos(0.3), -np.sin(0.3)], [np.sin(0.3), np.cos(0.3)]])
    rotated = R @ np.diag([-1e6, -1e-3]) @ R.T
    for entries, times in (([["-1e6", "0"], ["0", "-0.001"]], [8000.0, 8001.0]),
                           ([[repr(float(x)) for x in row] for row in rotated], [8000.0])):
        model = {"kind": "statespace", "p": 2, "A_entries": entries,
                 "B": ["1", "1"], "C": ["1", "1"], "commuting": True, "stability_margin": 0.001,
                 "lipschitz": {"A": 0.0, "B": 0.0, "C": 0.0}}
        plan = build_plan(_build_model(model), 1, times, 1.0 / 4.0, 8000.0)
        with pytest.raises(ValueError, match="^model: a spectrum with " + ratio):
            dynamics._plan_sums(plan, False)
        config = tmp_path / "stiff.json"
        config.write_text(json.dumps({
            "model": model, "triplet": {"gamma": 0.0, "sigma2": 1.0},
            "simulation": {"fine_step": 0.25, "burn_in": 8000.0},
            "experiment": {"kind": "lln_discrete", "N_list": [1], "replications": 100},
            "simulate": {"times": times},
        }))
        assert main(["simulate", "--config", str(config), "--out", str(tmp_path / "out")]) == 3
        err = capsys.readouterr().err
        assert err.startswith("semantic error: model: a spectrum with max |lambda| / "
                              "min(-Re lambda) = 1e+09 needs"), err
        assert not (tmp_path / "out").exists() or not any((tmp_path / "out").iterdir())
