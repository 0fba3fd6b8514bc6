"""The standard normal distribution function, as Cephes evaluates it.

:func:`ndtr` follows the Cephes ``ndtr``, ``erf`` and ``erfc`` (Moshier,
*Methods and Programs for Mathematical Functions*, 1989) step for step, with
their rational approximations, branch points and order of operations, as
``scipy.special.ndtr`` evaluates them, and so gives its values bit for bit.
Each branch runs only on the entries that take it. ``e^{-x^2}`` comes from
the C library's ``exp`` (``math.exp``), the function Cephes calls: numpy's
vectorized ``exp`` differs from it in the last bit on some arguments.
"""

import math

import numpy as np

__all__ = ["ndtr"]

# erf(x) = x T(x^2) / U(x^2) on |x| <= 1
_T = (9.60497373987051638749e0, 9.00260197203842689217e1, 2.23200534594684319226e3,
      7.00332514112805075473e3, 5.55923013010394962768e4)
_U = (3.35617141647503099647e1, 5.21357949780152679795e2, 4.59432382970980127987e3,
      2.26290000613890934246e4, 4.92673942608635921086e4)
# erfc(x) = e^{-x^2} P(x) / Q(x) on 1 <= x < 8
_P = (2.46196981473530512524e-10, 5.64189564831068821977e-1, 7.46321056442269912687e0,
      4.86371970985681366614e1, 1.96520832956077098242e2, 5.26445194995477358631e2,
      9.34528527171957607540e2, 1.02755188689515710272e3, 5.57535335369399327526e2)
_Q = (1.32281951154744992508e1, 8.67072140885989742329e1, 3.54937778887819891062e2,
      9.75708501743205489753e2, 1.82390916687909736289e3, 2.24633760818710981792e3,
      1.65666309194161350182e3, 5.57535340817727675546e2)
# erfc(x) = e^{-x^2} R(x) / S(x) on x >= 8
_R = (5.64189583547755073984e-1, 1.27536670759978104416e0, 5.01905042251180477414e0,
      6.16021097993053585195e0, 7.40974269950448939160e0, 2.97886665372100240670e0)
_S = (2.26052863220117276590e0, 9.39603524938001434673e0, 1.20489539808096656605e1,
      1.70814450747565897222e1, 9.60896809063285878198e0, 3.36907645100081516050e0)
# log of the largest double: erfc underflows to 0 where x^2 exceeds it
_MAXLOG = 7.09782712893383996843e2
_SQRT1_2 = 0.70710678118654752440


def _polevl(x, coef):
    """Horner's rule, leading coefficient first (Cephes ``polevl``)."""
    y = np.full_like(x, coef[0])
    for c in coef[1:]:
        y = y * x + c
    return y


def _p1evl(x, coef):
    """Horner's rule with an implied leading coefficient 1 (Cephes ``p1evl``)."""
    y = x + coef[0]
    for c in coef[1:]:
        y = y * x + c
    return y


def _erf(x):
    """erf(x) for 0 <= x <= 1."""
    z = x * x
    return x * _polevl(z, _T) / _p1evl(z, _U)


def _erfc(x):
    """erfc(x) for x >= 1/sqrt(2); 0 where x^2 exceeds ``_MAXLOG``, as it
    does for every x above 27."""
    y = np.zeros_like(x)
    near = x < 1.0
    y[near] = 1.0 - _erf(x[near])
    for at, num, den in ((~near & (x < 8.0), _P, _Q), ((x >= 8.0) & (x < 27.0), _R, _S)):
        v = x[at]
        sq = v * v
        e = np.array(list(map(math.exp, (-sq).tolist())))
        y[at] = np.where(sq > _MAXLOG, 0.0, (e * _polevl(v, num)) / _p1evl(v, den))
    return y


def ndtr(a):
    """Phi(a), the standard normal distribution function, entrywise; NaN
    at NaN, 0 and 1 at -inf and +inf."""
    a = np.asarray(a, dtype=float)
    x = a * _SQRT1_2
    z = np.abs(x)
    y = np.full(a.shape, np.nan)
    inner = z < _SQRT1_2
    y[inner] = 0.5 + 0.5 * np.copysign(_erf(z[inner]), x[inner])
    outer = z >= _SQRT1_2
    tail = 0.5 * _erfc(z[outer])
    y[outer] = np.where(x[outer] > 0, 1.0 - tail, tail)
    return y[()]
