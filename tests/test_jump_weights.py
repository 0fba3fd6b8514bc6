"""The column-wise evaluator of ``dynamics.JumpWeights`` against the
evaluator it replaced, bit for bit, on every kind of row.

``reference_table`` and ``reference_weights`` are the table layout
(degree, rows, 2p) and the ``__call__`` that weighed every jump before the
table was evaluated one state column at a time: one gather of every
column's terms for the jumps, Clenshaw's recurrence on (jumps, 2p) arrays,
then e^E o g, the basis and the expm rows. The tables are drawn for
p = 1..3, with one or several rows per segment:

* gap-law panels of degree 1 to 20, on the identity basis and on a shared
  (real or complex) basis, some columns of g with zero trailing terms;
* node-propagator panels (E = 0) with carries to their record as bases, in
  one block or in two;
* near-defective frozen steps, whose rows take expm;
* frozen steps on the identity basis and on a complex eigenbasis.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from locstat import linalg
from locstat.dynamics import JumpWeights, StepLaw

JORDANS = (
    np.array([[-1.0, 1.0], [0.0, -1.0 - 1e-10]]),
    np.array([[-1.0, 0.0, 0.0], [1.0, -1.0, 0.0], [0.0, 1.0, -1.0]]),
)
KINDS = ("panel_identity", "panel_shared", "propagator", "near_defective", "frozen_identity",
         "frozen_complex")


def reference_table(blocks: list, n_rows: int, count: np.ndarray):
    """The table (degree, rows, 2p) of the blocks of ``JumpWeights.put``,
    with the bases, expm rows and single-row flag, as it was laid out."""
    c = [block[1] for block in blocks]
    coef = np.zeros((max(map(len, c)), n_rows, c[0].shape[-1]), dtype=np.result_type(*c))
    p, given_ = coef.shape[-1] // 2, [block[2] for block in blocks if block[2] is not None]
    bases = np.tile(np.eye(p, dtype=np.result_type(*given_)), (n_rows, 1, 1)) if given_ else None
    expm = [block for block in blocks if block[3] is not None] or None
    if expm:
        expm = np.zeros(n_rows, dtype=bool), np.zeros((n_rows, p, p)), np.zeros((n_rows, p))
    for rows, c, basis, kept in blocks:
        coef[: len(c), rows] = c
        if basis is not None:
            bases[rows] = basis
        if kept is not None:
            for x, y in zip(expm, kept):
                x[rows] = y
    return coef, bases, expm, count.max() == 1


def reference_weights(table, start, count, seg, unit):
    """Weights (len(seg), p) of jumps at the fractions ``unit`` of their
    segments ``seg``, by the evaluator the column-wise one replaced."""
    coef, bases, expm, single = table
    rows = start.take(seg)
    if single:  # one row per segment: q = 0
        f = unit
    else:
        n = count.take(seg)
        x = unit * n
        q = np.minimum(x.astype(np.int64), n - 1)
        rows += q
        f = x - q
    t = (2.0 * f - 1.0)[:, None]
    c = coef.take(rows, axis=1)  # (degree, jumps, 2p), each degree contiguous
    # Clenshaw: b_k = c_k + 2 t b_{k+1} - b_{k+2}, value c_0 + t b_1 - b_2
    val = c[-1]
    if len(c) > 1:
        b1, b2 = val, 0.0
        for j in range(len(c) - 2, 0, -1):
            b1, b2 = c[j] + 2.0 * t * b1 - b2, b1
        val = c[0] + t * b1
        if len(c) > 2:
            val -= b2
    p = c.shape[-1] // 2
    out = np.exp(val[:, :p]) * val[:, p:]
    if bases is not None:
        out = np.einsum("kab,kb->ka", bases.take(rows, axis=0), out).real
    if expm is not None and (at := expm[0].take(rows)).any():
        L, M, C = (x[rows[at]] for x in (bases.real, *expm[1:]))
        out[at] = (L @ linalg.expm(M * (1.0 - f[at])[:, None, None], C)[..., None])[..., 0]
    return out


def _basis(rng, p: int, complex_: bool) -> np.ndarray:
    V = np.eye(p) + 0.4 * rng.standard_normal((p, p))
    return V + 0.3j * rng.standard_normal((p, p)) if complex_ else V


def _panels(rng, p, g, k, degree, basis):
    """Rows of random Chebyshev terms (degree + 1, g, k, 2p): E falls off
    with its degree and stays below 0 at t = -1, g's columns end at random
    degrees."""
    complex_ = basis is not None and np.iscomplexobj(basis)
    shape = (degree + 1, g, k, 2 * p)
    coef = rng.standard_normal(shape) * 0.5 ** np.arange(degree + 1)[:, None, None, None]
    if complex_:
        coef = coef + 1j * rng.standard_normal(shape) * 0.5 ** np.arange(degree + 1)[:, None, None, None]
    coef[0, ..., :p] -= 3.0
    for j in range(p, 2 * p):
        coef[rng.integers(1, degree + 2):, ..., j] = 0.0
    return coef


@st.composite
def tables(draw):
    """A JumpWeights table of one kind of row over g segments of k rows."""
    kind = draw(st.sampled_from(KINDS))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    p = draw(st.integers(2 if kind in ("near_defective", "frozen_complex") else 1, 3))
    g = draw(st.integers(1, 4))
    k = draw(st.integers(1, 4)) if kind.startswith("p") else 1
    n_records = g + draw(st.integers(0, 2))  # segments with no rows besides
    segs = np.sort(rng.choice(n_records, size=g, replace=False))
    weights = JumpWeights(n_records)
    if kind.startswith("panel"):
        basis = None
        if kind == "panel_shared":
            basis = _basis(rng, p, draw(st.booleans()))[None]
        blocks = [(_panels(rng, p, g, k, draw(st.integers(1, 20)), basis), basis, None)
                  for _ in range(draw(st.integers(1, 2)))]
        weights.put(segs, blocks)
    elif kind == "propagator":
        cut = draw(st.integers(0, k - 1))
        blocks = []
        for lo, hi in ((0, cut), (cut, k)) if cut else ((0, k),):
            coef = _panels(rng, p, g, hi - lo, draw(st.integers(1, 20)), None)
            coef[..., :p] = 0.0
            L = np.eye(p) + 0.5 * rng.standard_normal((g * (hi - lo), p, p))
            blocks.append((coef, L, None))
        weights.put(segs, blocks)
    else:
        if kind == "near_defective":
            A = JORDANS[p - 2]
        elif kind == "frozen_identity":
            A = np.diag(-rng.uniform(0.2, 3.0, p))
        else:  # V D V^-1, D with a block [[a, b], [-b, a]]: eigenvalues a +- i b
            D = np.diag(-rng.uniform(0.2, 3.0, p))
            D[1, 1] = D[0, 0]
            D[0, 1] = rng.uniform(0.5, 2.0)
            D[1, 0] = -D[0, 1]
            V = _basis(rng, p, False)
            A = V @ D @ np.linalg.inv(V)
        gaps = rng.choice([0.01, 0.25, 1.0, 3.0], size=g)
        law = StepLaw(A, rng.standard_normal(p), gaps)
        weights.put_steps(segs, law)
    return kind, weights, segs


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(drawn=tables(), n_jumps=st.integers(1, 40), seed=st.integers(0, 2**32 - 1))
def test_column_weights_keep_the_bits_of_the_reference(drawn, n_jumps, seed):
    kind, weights, segs = drawn
    table = reference_table(list(weights.blocks), weights.rows, weights.count)
    rng = np.random.default_rng(seed)
    seg = rng.choice(segs, size=n_jumps)
    unit = rng.random(n_jumps)
    unit[: 2] = (0.0, 1.0 - 2.0**-53)[: n_jumps]  # the ends of a segment
    want = reference_weights(table, weights.start, weights.count, seg, unit)
    got = weights(seg, unit)
    assert got.shape == want.shape and got.dtype == want.dtype, kind
    assert np.array_equal(got, want), (kind, np.abs(got - want).max())
    if kind == "near_defective":
        assert table[2] is not None and table[2][0].any()
    if kind in ("panel_identity", "frozen_identity"):
        assert table[1] is None
    if kind == "frozen_complex":
        assert np.iscomplexobj(table[0])


def test_the_unit_table_weighs_every_jump_1():
    weights = JumpWeights.unit(5)
    seg = np.array([0, 4, 2, 2])
    got = weights(seg, np.array([0.0, 0.3, 0.5, 0.99]))
    assert np.array_equal(got, np.ones((4, 1)))
