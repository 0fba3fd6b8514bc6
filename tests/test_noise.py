"""Driver moments and increment sampling."""

import dataclasses
import pickle

import numpy as np
import pytest
from scipy import stats

from locstat.noise import (
    BROWNIAN,
    JumpSpec,
    LevyTriplet,
    centered,
    sample_increments,
    triplet_moments,
)
from locstat.rng import stream


def test_pure_brownian_moments():
    m = triplet_moments(LevyTriplet(0.0, 1.0))
    assert (m.mu_L, m.Sigma_L, m.nu2, m.nu3, m.nu4) == (0.0, 1.0, 0.0, 0.0, 0.0)


def test_symmetric_unit_atoms_moments():
    # atoms exactly at +-1 lie outside {|x| > 1}, so they leave mu_L = gamma
    tri = LevyTriplet(0.0, 0.0, JumpSpec(1.0, atoms=((1.0, 0.5), (-1.0, 0.5))))
    m = triplet_moments(tri)
    assert m.mu_L == 0.0
    assert m.Sigma_L == 1.0
    assert (m.nu2, m.nu3, m.nu4) == (1.0, 0.0, 1.0)


def test_atom_arithmetic_moments():
    # direct atom arithmetic: mu = 0.5 + 2*2, Sigma = 2 + 2*4, nu4 = 2*16
    tri = LevyTriplet(0.5, 2.0, JumpSpec(2.0, atoms=((2.0, 1.0),)))
    m = triplet_moments(tri)
    assert m.mu_L == pytest.approx(4.5, abs=0)
    assert m.Sigma_L == pytest.approx(10.0, abs=0)
    assert m.nu4 == pytest.approx(32.0, abs=0)


def test_atom_arithmetic_vs_monte_carlo():
    tri = LevyTriplet(0.5, 2.0, JumpSpec(2.0, atoms=((2.0, 1.0),)))
    m = triplet_moments(tri)
    x = sample_increments(tri, 1.0, 10**6, stream(0, "noise-mc", 0))
    assert abs(x.mean() - m.mu_L) < 4 * x.std() / 1000.0
    var_se = np.std((x - x.mean()) ** 2) / 1000.0
    assert abs(x.var() - m.Sigma_L) < 4 * var_se


def test_normal_jump_moments_closed_form():
    spec = JumpSpec(1.0, normal=(0.5, 2.0))
    gen = stream(1, "normal-jumps", 0)
    draws = gen.normal(0.5, 2.0, 10**6)
    for k in (1, 2, 3, 4):
        mc = np.mean(draws**k)
        se = np.std(draws**k) / 1000.0
        assert abs(spec.moment(k) - mc) < 4 * se
    trunc_mc = np.mean(draws * (np.abs(draws) > 1.0))
    trunc_se = np.std(draws * (np.abs(draws) > 1.0)) / 1000.0
    assert abs(spec.mean_outside_unit() - trunc_mc) < 4 * trunc_se


def test_normal_truncated_mean_matches_scipy_norm_bit_for_bit():
    # the closed form with scipy.stats.norm, as the package computed it before
    # it stopped importing scipy.stats
    rng = np.random.default_rng(11)
    means = np.concatenate([rng.normal(0.0, 2.0, 300), [0.0, 1.0, -1.0, 7.5, -40.0]])
    stds = np.concatenate([rng.uniform(0.01, 5.0, 300), [1.0, 0.5, 2.0, 0.1, 3.0]])
    for m, s in zip(means.tolist(), stds.tolist()):
        zu, zl = (1.0 - m) / s, (-1.0 - m) / s
        upper = m * stats.norm.sf(zu) + s * stats.norm.pdf(zu)
        lower = m * stats.norm.cdf(zl) - s * stats.norm.pdf(zl)
        assert JumpSpec(1.0, normal=(m, s)).mean_outside_unit() == float(upper + lower), (m, s)


def test_invalid_specs_rejected():
    with pytest.raises(ValueError):
        LevyTriplet(0.0, -1.0)
    with pytest.raises(ValueError):
        JumpSpec(-1.0, atoms=((1.0, 1.0),))
    with pytest.raises(ValueError):
        JumpSpec(1.0, atoms=((1.0, 0.5), (-1.0, 0.4)))
    with pytest.raises(ValueError):
        JumpSpec(1.0)
    with pytest.raises(ValueError):
        sample_increments(BROWNIAN, 0.0, 10, stream(0, "x", 0))


def test_deterministic_drift_increments():
    tri = LevyTriplet(3.0, 0.0)
    x = sample_increments(tri, 0.5, 100, stream(0, "drift", 0))
    assert np.all(x == 1.5)


def test_standard_gaussian_increments():
    n = 10**5
    x = sample_increments(BROWNIAN, 1.0, n, stream(0, "gauss", 0))
    assert abs(x.mean()) < 3.0 / np.sqrt(n)
    assert abs(x.var() - 1.0) < 3.0 * np.sqrt(2.0 / n)


def test_compound_poisson_fourth_moment():
    # cumulant oracle: kappa4 = rate E[J^4] = 1, kappa2 = rate E[J^2] = 1,
    # so E[L(1)^4] = kappa4 + 3 kappa2^2 = 4
    tri = LevyTriplet(0.0, 0.0, JumpSpec(1.0, atoms=((1.0, 0.5), (-1.0, 0.5))))
    kappa2 = 1.0 * (0.5 * 1 + 0.5 * 1)
    kappa4 = 1.0 * (0.5 * 1 + 0.5 * 1)
    oracle = kappa4 + 3 * kappa2**2
    assert oracle == 4.0
    n = 10**5
    x = sample_increments(tri, 1.0, n, stream(0, "cp4", 0))
    m4 = np.mean(x**4)
    se = np.std(x**4) / np.sqrt(n)
    assert abs(m4 - oracle) < 3 * se


@pytest.mark.parametrize("dt", [0.25, 1.0, 2.0])
def test_cumulants_scale_linearly_in_dt(dt):
    tri = LevyTriplet(0.3, 0.5, JumpSpec(1.5, atoms=((1.0, 0.25), (-0.5, 0.75))))
    m = triplet_moments(tri)
    theory = {1: m.mu_L * dt, 2: m.Sigma_L * dt, 3: m.nu3 * dt, 4: m.nu4 * dt}
    n_batches, batch = 20, 5000
    gen = stream(2, "cumulants", 0)
    draws = sample_increments(tri, dt, n_batches * batch, gen).reshape(n_batches, batch)
    for order in (1, 2, 3, 4):
        ks = np.array([stats.kstat(row, order) for row in draws])
        se = ks.std(ddof=1) / np.sqrt(n_batches)
        assert abs(ks.mean() - theory[order]) < 4 * se, f"cumulant {order} at dt={dt}"


def test_additivity_of_increments():
    tri = LevyTriplet(0.2, 1.0, JumpSpec(0.5, atoms=((1.0, 0.5), (-1.0, 0.5))))
    n, dt = 10**5, 0.7
    gen = stream(3, "additivity", 0)
    two_halves = sample_increments(tri, dt, n, gen) + sample_increments(tri, dt, n, gen)
    one = sample_increments(tri, 2 * dt, n, stream(3, "additivity", 1))
    for order in (1, 2, 3, 4):
        a, b = two_halves**order, one**order
        se = np.sqrt(a.var() / n + b.var() / n)
        assert abs(a.mean() - b.mean()) < 4 * se, f"moment {order}"


def test_determinism():
    tri = LevyTriplet(0.1, 0.4, JumpSpec(2.0, atoms=((0.5, 1.0),)))
    x = sample_increments(tri, 0.3, 1000, stream(7, "det", 4))
    y = sample_increments(tri, 0.3, 1000, stream(7, "det", 4))
    assert np.array_equal(x, y)
    z = sample_increments(tri, 0.3, 1000, stream(7, "det", 5))
    assert not np.array_equal(x, z)


def test_centered_driver():
    tri = LevyTriplet(0.5, 2.0, JumpSpec(2.0, atoms=((2.0, 1.0),)))
    assert triplet_moments(centered(tri)).mu_L == pytest.approx(0.0, abs=1e-15)


def test_jump_sample_draws_as_rng_choice_on_fresh_arrays():
    # the atom arrays are built once at construction; the draws are those of
    # rng.choice (atoms) and rng.normal (normal law) on freshly built arguments
    atoms = ((1.5, 0.2), (-0.5, 0.3), (2.0, 0.5))
    spec = JumpSpec(1.0, atoms=atoms)
    values = np.array([v for v, _ in atoms])
    probs = np.array([p for _, p in atoms])
    for _ in range(2):  # repeated calls reuse the prebuilt arrays unchanged
        got = spec.sample(500, stream(8, "choice", 0))
        assert np.array_equal(got, stream(8, "choice", 0).choice(values, 500, p=probs / probs.sum()))
    normal = JumpSpec(1.0, normal=(0.5, 2.0))
    assert np.array_equal(normal.sample(500, stream(8, "normal", 0)),
                          stream(8, "normal", 0).normal(0.5, 2.0, 500))
    # the arrays are not fields: equality, hash and a pickle round trip see only the atoms
    assert [f.name for f in dataclasses.fields(JumpSpec)] == ["rate", "atoms", "normal"]
    for s in (spec, normal):
        back = pickle.loads(pickle.dumps(s))
        assert back == s and hash(back) == hash(s)
        assert np.array_equal(back.sample(50, stream(8, "pk", 0)), s.sample(50, stream(8, "pk", 0)))


def test_atom_sample_is_rng_choice_bit_for_bit():
    # sample looks the uniforms up in a cdf built as Generator.choice builds
    # it; on random atom laws (zero-probability atoms included, n from 0 to
    # 500) the sizes and the generator state afterwards equal choice's
    laws = np.random.default_rng(20)
    for law in range(240):
        k = int(laws.integers(1, 9))
        w = laws.exponential(size=k) * (laws.random(k) < 0.8)
        if not w.any():
            w[laws.integers(k)] = 1.0
        probs = w / w.sum()
        values = np.round(laws.normal(scale=3.0, size=k), 3)
        spec = JumpSpec(1.0, atoms=tuple(zip(values, probs)))
        p = np.array([q for _, q in spec.atoms])
        n = (0, 1, 500)[law] if law < 3 else int(laws.integers(0, 501))
        got_gen, ref_gen = stream(9, "atoms", law), stream(9, "atoms", law)
        got = spec.sample(n, got_gen)
        want = ref_gen.choice(np.array(values), size=n, p=p / p.sum())
        assert got.shape == want.shape == (n,) and np.array_equal(got, want), law
        assert _philox_state(got_gen) == _philox_state(ref_gen), law


def _philox_state(gen) -> tuple:
    s = gen.bit_generator.state
    return (s["state"]["counter"].tolist(), s["state"]["key"].tolist(), s["buffer"].tolist(),
            s["buffer_pos"], s["has_uint32"], s["uinteger"])
