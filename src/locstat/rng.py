"""Counter-based random streams.

Every stochastic routine in the package takes an explicit stream. A stream
is identified by ``(seed, purpose, index)``: the global seed, a short tag
naming what the draws are for, and an index. Identical identity gives a
bit-identical draw sequence, and distinct identities give statistically
independent streams (a Philox stream is its key, and each identity has its
own key), so streams can be drawn in any order or on any number of workers
without shared state.

A campaign cuts its replications into fixed chunks and keys one stream per
chunk (``experiments._chunk_noise``): the index is the chunk index
``lo // CHUNK``, and the chunk draws all its replications from that stream,
one call per kind of draw. The chunk, not
the replication, is the unit of determinism; chunk bounds never depend on
the worker count. A one-path routine (``simulate``) draws its one path from
index 0.
"""

import functools
import hashlib

import numpy as np

__all__ = ["stream"]

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15


@functools.lru_cache(maxsize=256)
def _purpose_words(purpose: str) -> tuple[int, int]:
    digest = hashlib.sha256(purpose.encode("utf-8")).digest()
    return (
        int.from_bytes(digest[:8], "little"),
        int.from_bytes(digest[8:16], "little"),
    )


def stream(seed: int, purpose: str, index: int = 0) -> np.random.Generator:
    """Return the Philox generator for stream identity (seed, purpose, index)."""
    if index < 0:
        raise ValueError("stream index must be nonnegative")
    h1, h2 = _purpose_words(purpose)
    key = ((int(seed) ^ h1) ^ ((index * _GOLDEN) & _MASK64)) & _MASK64, (h2 + index) & _MASK64
    return np.random.Generator(np.random.Philox(key=np.array(key, dtype=np.uint64)))
