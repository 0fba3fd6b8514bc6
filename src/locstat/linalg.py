"""Matrix functions the package needs beyond numpy: the matrix exponential
of a stack of matrices and the block diagonal of two; and :func:`unique`,
``np.unique`` without its import of ``numpy.ma``.

:func:`expm` is the scaling and squaring method of Higham 2005 ("The scaling
and squaring method for the matrix exponential revisited", SIAM J. Matrix
Anal. Appl. 26, Algorithm 2.3), batched: each matrix of a stack takes the
Pade degree and the scaling 2^-s that its own 1-norm calls for, the matrices
of one degree go through one set of matrix products and one batched solve,
and the squarings run on the matrices that still need them.
"""

import functools

import numpy as np

__all__ = ["expm", "block_diag", "unique"]

# Higham 2005, Table 2.3: the 1-norm up to which the [m/m] Pade approximant
# of e^A has a backward error of at most the unit roundoff
_DEGREES = (3, 5, 7, 9, 13)
_THETA = (1.495585217958292e-2, 2.539398330063230e-1, 9.504178996162932e-1,
          2.097847961257068e0, 5.371920351148152e0)
# the coefficients b_0..b_m of the numerator p_m(X) = sum b_j X^j of each
# approximant; its denominator is p_m(-X)
_B = {
    3: (120.0, 60.0, 12.0, 1.0),
    5: (30240.0, 15120.0, 3360.0, 420.0, 30.0, 1.0),
    7: (17297280.0, 8648640.0, 1995840.0, 277200.0, 25200.0, 1512.0, 56.0, 1.0),
    9: (17643225600.0, 8821612800.0, 2075673600.0, 302702400.0, 30270240.0, 2162160.0,
        110880.0, 3960.0, 90.0, 1.0),
    13: (64764752532480000.0, 32382376266240000.0, 7771770303897600.0, 1187353796428800.0,
         129060195264000.0, 10559470521600.0, 670442572800.0, 33522128640.0, 1323241920.0,
         40840800.0, 960960.0, 16380.0, 182.0, 1.0),
}


def _pade(X: np.ndarray, m: int, v: np.ndarray | None) -> np.ndarray:
    """r_m(X) = p_m(-X)^-1 p_m(X) for each matrix of X (k, n, n), or r_m(X) v
    for vectors v (k, n), from the odd part U and the even part V of p_m(X):
    r_m = (V - U)^-1 (V + U)."""
    b, eye = _B[m], np.eye(X.shape[-1])
    X2 = X @ X
    if m == 13:  # as Higham 2005 evaluates it: six products instead of twelve
        X4 = X2 @ X2
        X6 = X4 @ X2
        U = X @ (X6 @ (b[13] * X6 + b[11] * X4 + b[9] * X2)
                 + b[7] * X6 + b[5] * X4 + b[3] * X2 + b[1] * eye)
        V = (X6 @ (b[12] * X6 + b[10] * X4 + b[8] * X2)
             + b[6] * X6 + b[4] * X4 + b[2] * X2 + b[0] * eye)
    else:
        powers = [X2]  # X^2, X^4, ..., X^(m-1)
        while len(powers) < m // 2:
            powers.append(powers[-1] @ X2)
        U = X @ (b[1] * eye + sum(b[2 * j + 3] * P for j, P in enumerate(powers)))
        V = b[0] * eye + sum(b[2 * j + 2] * P for j, P in enumerate(powers))
    if v is None:
        return np.linalg.solve(V - U, V + U)
    # one right-hand side: the batched solve takes less than half the time
    return np.linalg.solve(V - U, (V + U) @ v[..., None])[..., 0]


def expm(A, v=None) -> np.ndarray:
    """e^A for each matrix of A, shape (..., n, n), or e^A v for the vectors
    v (..., n) when v is given.

    A matrix of 1-norm at most theta_m takes the [m/m] Pade approximant of
    the least such degree m in (3, 5, 7, 9, 13). A larger one is scaled by
    2^-s, s the least integer with ||A||_1 2^-s <= theta_13, takes the
    approximant of degree 13, and the result is squared s times.
    """
    A = np.asarray(A, dtype=float)
    shape, n = A.shape, A.shape[-1]
    if v is not None:
        v = np.broadcast_to(v, shape[:-1])
    if n == 1:
        return np.exp(A) if v is None else np.exp(A[..., 0]) * v
    X = A.reshape(-1, n, n)
    w = None if v is None else v.reshape(-1, n)
    # the 1-norm max_j sum_i |X_ij| by n-fold adds and maxima over the stack,
    # which numpy runs several times faster than its reductions of short axes
    norm = functools.reduce(np.maximum, functools.reduce(np.add, np.abs(X).transpose(1, 2, 0)))
    degree = np.searchsorted(_THETA, norm)  # index into _DEGREES; 5 past theta_13
    R = np.empty(X.shape if w is None else w.shape)
    for i in unique(degree):
        at = degree == i
        at = ... if at.all() else at
        if i < len(_DEGREES):
            R[at] = _pade(X[at], _DEGREES[i], None if w is None else w[at])
            continue
        # frexp gives norm / theta_13 = f 2^e with f in [0.5, 1): s = e, or e - 1 at f = 0.5
        f, e = np.frexp(norm[at] / _THETA[-1])
        s = np.where(f == 0.5, e - 1, e)
        P = _pade(np.ldexp(X[at], -s[:, None, None]), 13, None)
        for k in range(s.max()):
            sq = s > k
            sq = ... if sq.all() else sq
            P[sq] = P[sq] @ P[sq]
        R[at] = P if w is None else (P @ w[at][..., None])[..., 0]
    return R.reshape(shape if v is None else v.shape)


def block_diag(*blocks) -> np.ndarray:
    """The block diagonal matrix of the 2-D ``blocks``."""
    out = np.zeros(tuple(map(sum, zip(*(np.shape(b) for b in blocks)))))
    r = c = 0
    for b in blocks:
        out[r:r + b.shape[0], c:c + b.shape[1]] = b
        r, c = r + b.shape[0], c + b.shape[1]
    return out


def unique(a) -> np.ndarray:
    """The sorted distinct values of ``a`` (flattened, NaN-free), the values
    ``np.unique`` gives, by one sort. In numpy 2.4 ``np.unique`` and
    ``np.union1d`` import ``numpy.ma`` on their first call, which takes
    about 13 ms, longer than a campaign's whole use of them."""
    a = np.sort(a, axis=None)
    keep = np.ones(a.size, dtype=bool)
    keep[1:] = a[1:] != a[:-1]
    return a[keep]
