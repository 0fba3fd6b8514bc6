import numpy as np
import pytest

from locstat.rng import stream, streams


def test_same_identity_same_draws():
    a = stream(42, "purpose", 3).standard_normal(100)
    b = stream(42, "purpose", 3).standard_normal(100)
    assert np.array_equal(a, b)


def test_distinct_identities_differ():
    base = stream(42, "purpose", 3).standard_normal(100)
    for other in (stream(43, "purpose", 3), stream(42, "other", 3), stream(42, "purpose", 4)):
        assert not np.array_equal(base, other.standard_normal(100))


def test_index_order_irrelevant():
    # streams are counter-based: generating index 5 first never shifts index 2
    a5 = stream(0, "p", 5).standard_normal(10)
    a2 = stream(0, "p", 2).standard_normal(10)
    b2 = stream(0, "p", 2).standard_normal(10)
    b5 = stream(0, "p", 5).standard_normal(10)
    assert np.array_equal(a2, b2) and np.array_equal(a5, b5)


def test_negative_index_rejected():
    with pytest.raises(ValueError):
        stream(0, "p", -1)


def _philox_state(gen) -> tuple:
    s = gen.bit_generator.state
    return (s["state"]["counter"].tolist(), s["state"]["key"].tolist(), s["buffer"].tolist(),
            s["buffer_pos"], s["has_uint32"], s["uinteger"])


# every purpose the experiments draw from, in the forms they build
EXPERIMENT_PURPOSES = (
    "coupling",
    "lln:mean:O1:256",
    "lln:autocov:O2:4096",
    "clt:mean:O1:16384",
    "clt:cov:O2:1024",
    "lln_cont:64",
    "lipschitz:p2:0",
    "lipschitz:p4:5",
)


@pytest.mark.parametrize("purpose", EXPERIMENT_PURPOSES)
def test_streams_draw_what_stream_draws(purpose):
    # each replication makes an odd number of 32-bit draws, which leaves a
    # cached half word and a half-used Philox buffer behind; the next
    # replication's re-key must drop both, so its first 32-bit draw matches
    lo, hi = 61, 70
    gens = streams(7, purpose, lo, hi)
    assert len(gens) == hi - lo
    n_seen = 0
    for i, gen in zip(range(lo, hi), gens):
        ref = stream(7, purpose, i)
        got = _replication_draws(gen, i)
        want = _replication_draws(ref, i)
        assert all(np.array_equal(a, b) for a, b in zip(got, want)), (purpose, i)
        assert gen.bit_generator.state["has_uint32"] == 1
        assert _philox_state(gen) == _philox_state(ref), (purpose, i)
        n_seen += 1
    assert n_seen == hi - lo


def _replication_draws(gen, i):
    return (
        gen.integers(0, 2**32, size=1 + 2 * (i % 3), dtype=np.uint32),
        gen.standard_normal(5),
        gen.poisson(3.0, i % 4),
        gen.random(i % 5),
        gen.integers(0, 2**32, size=2, dtype=np.uint32),
    )


def test_streams_index_range():
    with pytest.raises(ValueError):
        streams(0, "p", -1, 4)
    assert len(streams(0, "p", 3, 3)) == 0 and list(streams(0, "p", 3, 3)) == []
    first = next(iter(streams(5, "p", 0, 2))).standard_normal(4)
    assert np.array_equal(first, stream(5, "p", 0).standard_normal(4))
