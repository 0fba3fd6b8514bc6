"""Counter-based random streams.

Every stochastic routine in the package takes an explicit stream. A stream
is identified by ``(seed, purpose, index)``: the global seed, a short tag
naming what the draws are for, and a replication index. Identical identity
gives a bit-identical draw sequence, and distinct identities give
statistically independent streams, so replications can be generated in any
order or on any number of workers without shared state.

:func:`stream` builds the generator of one identity. :func:`streams` serves a
run of replications from one generator, re-keyed to each index in turn: a
Philox stream is its key and its counter, so setting the key of the next
identity with a zero counter, an empty buffer and no cached half word gives
the draws of a new generator at a fraction of its set-up cost. Because the
generator is shared, a consumer of :func:`streams` takes the replications in
order, finishes each before it takes the next, and never indexes them.
"""

import functools
import hashlib

import numpy as np

__all__ = ["stream", "streams"]

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15


@functools.lru_cache(maxsize=256)
def _purpose_words(purpose: str) -> tuple[int, int]:
    digest = hashlib.sha256(purpose.encode("utf-8")).digest()
    return (
        int.from_bytes(digest[:8], "little"),
        int.from_bytes(digest[8:16], "little"),
    )


def _keys(seed: int, purpose: str, lo: int, hi: int) -> np.ndarray:
    """Philox keys, shape (hi - lo, 2), of the identities (seed, purpose, i)
    for i in [lo, hi)."""
    if lo < 0:
        raise ValueError("stream index must be nonnegative")
    h1, h2 = _purpose_words(purpose)
    base = int(seed) ^ h1
    words = [((base ^ ((i * _GOLDEN) & _MASK64)) & _MASK64, (h2 + i) & _MASK64) for i in range(lo, hi)]
    return np.array(words, dtype=np.uint64).reshape(-1, 2)


def stream(seed: int, purpose: str, index: int = 0) -> np.random.Generator:
    """Return the Philox generator for stream identity (seed, purpose, index)."""
    return np.random.Generator(np.random.Philox(key=_keys(seed, purpose, index, index + 1)[0]))


class streams:
    """The generators of identities (seed, purpose, i) for i in [lo, hi).

    A sized iterable: ``len`` is ``hi - lo`` and iteration yields, in index
    order, one generator that is re-keyed to each identity before it is
    yielded, so it draws what ``stream(seed, purpose, i)`` would. The
    generator is the same object every time. A consumer therefore iterates
    in order, finishes drawing a replication before it takes the next, and
    never indexes or keeps the generators.
    """

    def __init__(self, seed: int, purpose: str, lo: int, hi: int):
        if lo < 0:
            raise ValueError("stream index must be nonnegative")
        self.seed, self.purpose, self.lo, self.hi = seed, purpose, lo, max(lo, hi)

    def __len__(self) -> int:
        return self.hi - self.lo

    def __iter__(self):
        keys = _keys(self.seed, self.purpose, self.lo, self.hi)
        if not len(keys):
            return
        bitgen = np.random.Philox(key=keys[0])
        gen = np.random.Generator(bitgen)
        state = bitgen.state  # zero counter, empty buffer, no cached half word
        for key in keys:
            state["state"]["key"] = key
            bitgen.state = state
            yield gen
