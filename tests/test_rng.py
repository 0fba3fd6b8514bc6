import hashlib

import numpy as np
import pytest

from locstat.rng import stream


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
def test_chunk_stream_keys_of_each_experiment_purpose(purpose):
    # the Philox key of (seed, purpose, chunk index) is (seed ^ h1 ^ index *
    # golden, h2 + index) mod 2^64 with h1, h2 the first two little-endian
    # words of sha256(purpose); every chunk index keys its own stream
    digest = hashlib.sha256(purpose.encode("utf-8")).digest()
    h1, h2 = int.from_bytes(digest[:8], "little"), int.from_bytes(digest[8:16], "little")
    mask, golden, seed = 2**64 - 1, 0x9E3779B97F4A7C15, 7
    keys = set()
    for index in (0, 1, 2, 61, 2**40):
        key = stream(seed, purpose, index).bit_generator.state["state"]["key"].tolist()
        assert key == [(seed ^ h1 ^ (index * golden & mask)) & mask, (h2 + index) & mask]
        keys.add(tuple(key))
    assert len(keys) == 5


def test_streams_index_range():
    # stream indices run from 0, the default and the stream of a one-path
    # run, upwards; a negative index is refused
    with pytest.raises(ValueError):
        stream(0, "p", -1)
    assert np.array_equal(stream(5, "p").standard_normal(4), stream(5, "p", 0).standard_normal(4))
