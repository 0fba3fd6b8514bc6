"""The package's matrix exponential and block diagonal against mpmath and
scipy, which stay in the tests as oracles."""

import mpmath
import numpy as np
import pytest
from scipy import linalg as sla

from locstat import linalg

# lower Jordan block of the near-defective family of test_statespace_property,
# and the upper one with its double root split by 1e-10
JORDAN3 = np.array([[-1.0, 0.0, 0.0], [1.0, -1.0, 0.0], [0.0, 1.0, -1.0]])
NEAR2 = np.array([[-1.0, 1.0], [0.0, -1.0 - 1e-10]])
JORDAN2 = np.array([[-1.0, 1.0], [0.0, -1.0]])


def stiff(t):
    """A(t) of the stiff non-commuting model of test_dynamics."""
    return np.array([[-40.0, 1.0 + 0.5 * np.sin(t)], [0.5 * np.cos(t), -50.0]])


def exact(A) -> np.ndarray:
    with mpmath.workdps(40):
        return np.array(mpmath.expm(mpmath.matrix(A.tolist())).tolist(), dtype=float)


def normwise(X, R) -> float:
    return float(np.linalg.norm(X - R) / np.linalg.norm(R))


def mixed_stack(n: int) -> np.ndarray:
    """n matrices (3, 3) with 1-norms spread from 1e-3 to 1e3: rotations
    with a weak decay and companion forms with roots -1, -2 and -3."""
    rng = np.random.default_rng(22)
    companion = np.array([[0.0, 1.0, 0.0], [0.0, 0.0, 1.0], [-6.0, -11.0, -6.0]])
    out = []
    for i, norm in enumerate(np.logspace(-3, 3, n)):
        if i % 2:
            G = rng.standard_normal((3, 3))
            A = G - G.T - 0.1 * np.eye(3)
        else:
            A = companion
        out.append(A * norm / np.abs(A).sum(axis=0).max())
    return np.stack(out)


FAMILIES = {
    "near_defective": [(1.0 + 0.5 * np.sin(t)) * h * J for J in (NEAR2, JORDAN3)
                       for t in (0.0, 1.3, 4.0) for h in (0.01, 0.1, 1.0)],
    "jordan": [t * J for J in (JORDAN2, JORDAN3, NEAR2) for t in (1e-3, 0.5, 3.0, 10.0, 30.0, 60.0)],
    "stiff": [h * stiff(t) for t in (0.0, 0.7, 2.0) for h in (1 / 64, 1 / 16, 0.1, 0.5, 1.0)],
    "mixed": list(mixed_stack(25)),
}


@pytest.mark.parametrize("family", FAMILIES)
def test_expm_matches_mpmath(family):
    # within 1e-13, or within the relative condition number of e^A times the
    # unit roundoff where that is larger, a bound no algorithm beats: only
    # the companion form of norm 1e3 needs it (cond u = 8.4e-13; the error
    # is 5.4e-13)
    stack = FAMILIES[family]
    got = linalg.expm(np.stack(stack)) if len({A.shape for A in stack}) == 1 else None
    for i, A in enumerate(stack):
        X = linalg.expm(A)
        assert normwise(X, exact(A)) <= max(1e-13, sla.expm_cond(A) * 2.0**-53), (family, i)
        if got is not None:  # one call on the whole stack, each matrix scaled on its own
            np.testing.assert_array_equal(got[i], X)


@pytest.mark.parametrize("family", FAMILIES)
def test_expm_matches_scipy(family):
    # within 1e-12 of scipy wherever scipy is within 1e-12 of mpmath. Where
    # it is not (its triangular branch loses 5e-8 on NEAR2 at t = 10, the
    # exp-sinch of two roots 1e-10 apart, and 1.1e-12 on a rotation of norm
    # 178), this expm is the closer of the two to mpmath
    for i, A in enumerate(FAMILIES[family]):
        ref, want = sla.expm(A), exact(A)
        if normwise(ref, want) <= 1e-12:
            assert normwise(linalg.expm(A), ref) <= 1e-12, (family, i)
        else:
            assert normwise(linalg.expm(A), want) < normwise(ref, want), (family, i)


@pytest.mark.parametrize("family", FAMILIES)
def test_expm_of_vectors_matches_mpmath(family):
    # e^A v, as the jump weights take it: one right-hand side per matrix,
    # within 1e-13 of ||e^A|| ||v|| (cond u where larger, as above)
    rng = np.random.default_rng(7)
    for i, A in enumerate(FAMILIES[family]):
        v = rng.standard_normal(len(A))
        ref = exact(A)
        tol = max(1e-13, sla.expm_cond(A) * 2.0**-53) * np.linalg.norm(ref, 2) * np.linalg.norm(v)
        assert np.linalg.norm(linalg.expm(A, v) - ref @ v) <= tol, (family, i)
    A = mixed_stack(24).reshape(2, 12, 3, 3)
    v = rng.standard_normal((12, 3))  # broadcast against the leading axes
    got = linalg.expm(A, v)
    assert got.shape == (2, 12, 3)
    np.testing.assert_allclose(got, (linalg.expm(A) @ v[..., None])[..., 0], rtol=0, atol=1e-12)
    np.testing.assert_array_equal(linalg.expm(np.full((4, 1, 1), -0.3), np.full((4, 1), 2.0)),
                                  2.0 * np.exp(np.full((4, 1), -0.3)))


def test_expm_per_item_scaling_on_a_batch():
    # a stack with leading axes (2, 3, 4); a stack of scalar blocks gives e^a
    A = mixed_stack(24).reshape(2, 3, 4, 3, 3)
    got = linalg.expm(A)
    assert got.shape == A.shape
    for idx in np.ndindex(2, 3, 4):
        np.testing.assert_array_equal(got[idx], linalg.expm(A[idx]))
    np.testing.assert_array_equal(linalg.expm(np.full((4, 1, 1), -0.3)), np.exp(np.full((4, 1, 1), -0.3)))
    assert linalg.expm(np.zeros((0, 2, 2))).shape == (0, 2, 2)


def test_block_diag_matches_scipy():
    a, b, c = np.arange(4.0).reshape(2, 2), np.array([[5.0]]), np.arange(6.0).reshape(2, 3)
    for blocks in ((a, b), (a, c, b), (b,)):
        got = linalg.block_diag(*blocks)
        np.testing.assert_array_equal(got, sla.block_diag(*blocks))
        assert got.dtype == np.float64
