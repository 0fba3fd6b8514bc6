import pickle

import numpy as np
import pytest

from locstat.expressions import ExprFunc, ExprMatrix, ExprVector


def test_basic_evaluation():
    f = ExprFunc("2 + sin(t)")
    assert float(f(0.0)) == 2.0
    assert float(f(np.pi / 2)) == pytest.approx(3.0)
    arr = f(np.array([0.0, 1.0, 2.0]))
    assert arr.shape == (3,)
    assert arr[1] == pytest.approx(2 + np.sin(1.0))


def test_constants_broadcast():
    f = ExprFunc("1.5")
    assert f(np.zeros(4)).shape == (4,)
    assert np.all(f(np.zeros(4)) == 1.5)


def test_grammar_operations():
    f = ExprFunc("-cos(2*t) + exp(t/4) - 1")
    t = 0.8
    assert float(f(t)) == pytest.approx(-np.cos(1.6) + np.exp(0.2) - 1)


@pytest.mark.parametrize(
    "bad",
    [
        "__import__('os')",
        "t ** 2",
        "tan(t)",
        "x + 1",
        "sin(t, 2)",
        "lambda t: t",
        "[1, 2]",
        "'str'",
        "t % 2",
    ],
)
def test_rejects_outside_grammar(bad):
    with pytest.raises(ValueError):
        ExprFunc(bad)


def test_picklable():
    f = ExprFunc("2 + sin(t)")
    g = pickle.loads(pickle.dumps(f))
    assert float(g(1.0)) == float(f(1.0))


def test_vector_and_matrix():
    v = ExprVector(["1", "t"])
    assert np.allclose(v(2.0), [1.0, 2.0])
    m = ExprMatrix([["-1 - 0.5*sin(t)", "0"], ["0", "-2"]])
    out = m(0.0)
    assert out.shape == (2, 2)
    assert out[0, 0] == -1.0 and out[1, 1] == -2.0
    # an array of times of shape S gives S + (p,) and S + (p, q)
    t = np.array([[0.0, 1.0, 2.0], [3.0, 4.0, 5.0]])
    assert v(t).shape == (2, 3, 2) and m(t).shape == (2, 3, 2, 2)
    for idx in np.ndindex(t.shape):
        assert np.array_equal(v(t)[idx], v(t[idx]))
        assert np.array_equal(m(t)[idx], m(t[idx]))
    with pytest.raises(ValueError):
        ExprMatrix([["1", "2"], ["3"]])


@pytest.mark.parametrize("t", [0.7, np.linspace(-2.0, 3.0, 7).reshape(7, 1)])
def test_filled_values_are_the_stacked_bytes(t):
    # one preallocated array, each entry added to zeros, gives the bytes of
    # stacking each entry's ExprFunc value; the -0.0 entry comes out +0.0
    sources = [["-1 - 0.5*sin(t)", "-0.0"], ["0", "-2"]]
    rows = [[ExprFunc(s) for s in row] for row in sources]
    stacked = np.stack([np.stack([f(t) for f in row], axis=-1) for row in rows], axis=-2)
    got = ExprMatrix(sources)(t)
    assert got.shape == stacked.shape and got.tobytes() == stacked.tobytes()
    assert not np.signbit(got[..., 0, 1]).any()
    vector = np.stack([f(t) for f in rows[0]], axis=-1)
    got = ExprVector(sources[0])(t)
    assert got.shape == vector.shape and got.tobytes() == vector.tobytes()


@pytest.mark.parametrize("source", ["t", "-t", "0 * t", "-0.0", "1.5", "sin(t)"])
@pytest.mark.parametrize("t", [-0.0, 0.5, [-0.0, 0.0, 1.0], [[-0.0], [2.0]]],
                         ids=["-0", "scalar", "vector", "column"])
def test_call_returns_a_new_array_with_signed_zeros_cleared(source, t):
    # the raw value plus +0 broadcast to the shape of t: -0.0 comes out
    # +0.0, a constant takes the shape of t, and the bare t is a new array
    f = ExprFunc(source)
    t = np.asarray(t, dtype=float)
    raw = np.asarray(f._raw(t), dtype=float)
    want = raw + np.zeros_like(t)
    got = f(t)
    assert type(got) is type(want) and np.shape(got) == t.shape
    assert np.asarray(got).tobytes() == np.asarray(want).tobytes()
    assert not np.signbit(np.where(got == 0, got, 1.0)).any()
    assert got is not t and not np.shares_memory(got, t)
