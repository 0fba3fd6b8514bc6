"""Numpy scalar scan kernel.

Over a segment of m steps the scalar recursion X <- phi[j] X + eta[j] unrolls
to X <- prod(phi) X + sum_j s_j eta[j] with the suffix products
s_j = prod(phi[j+1:]), so a segment is one matrix-vector product on BLAS
instead of a Python loop. Every phi lies in (0, 1): a suffix product can only
underflow, and 0 is then the right value, so segments of any length are exact.
"""

import numpy as np


def suffix_products(phi: np.ndarray) -> np.ndarray:
    """``s[j] = prod(phi[j+1:])`` for every j, so ``s[-1] = 1``."""
    s = np.ones(phi.shape[0])
    s[:-1] = np.cumprod(phi[:0:-1])[::-1]
    return s


# perfbench/spans.py traces this name as its core.scan layer
def scan_segment(phi: np.ndarray, eta_t: np.ndarray, x: np.ndarray) -> None:
    """Advance states ``x`` (shape (R,)) through one segment, in place.

    phi: per-step decay factors, shape (m,).
    eta_t: per-step noise contributions, step-major, shape (m, R).
    """
    m = phi.shape[0]
    if eta_t.shape[0] != m:
        raise ValueError("phi and eta_t disagree on step count")
    if eta_t.shape[1] != x.shape[0]:
        raise ValueError("eta_t and x disagree on replication count")
    x *= float(np.prod(phi))
    x += suffix_products(phi) @ eta_t
