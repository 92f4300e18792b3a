"""Splittable counter-based random streams.

Every random decision in the toolkit flows through a Philox generator keyed
by ``(seed, stream id, index)``. Philox is counter-based, so a generator for
any (stream, index) pair can be constructed directly without drawing through
the preceding indices. That is what makes sharded packing and sampling
reproduce the serial results exactly: worker k derives the same generator for
sequence index i that a serial run would.

Stream ids separate independent uses of the same user seed so that, e.g.,
language draws and constraint flags never share a stream.
"""

from __future__ import annotations

import numpy as np

_MASK64 = (1 << 64) - 1

# Stream ids. Append only; reordering changes every downstream result.
STREAM_LANGUAGE = 1  # no longer drawn from; kept so the ids below keep their values
STREAM_FLAGS = 2
STREAM_PACK = 3
STREAM_INIT = 4
STREAM_GRAD_CHECK = 5
STREAM_DATA = 6  # reserved: nothing draws from it
STREAM_TRANSFER = 7
STREAM_TRANSFER_TABLE = 8


def _splitmix64(x: int) -> int:
    x = (x + 0x9E3779B97F4A7C15) & _MASK64
    z = x
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return z ^ (z >> 31)


def derive_key(*words: int) -> tuple[int, int]:
    """Mix an arbitrary tuple of integers into a 128-bit Philox key."""
    state = 0
    for w in words:
        state = _splitmix64(state ^ (int(w) & _MASK64))
    k0 = _splitmix64(state)
    k1 = _splitmix64(k0)
    return k0, k1


def stream(seed: int, stream_id: int, index: int = 0) -> np.random.Generator:
    """Generator for (seed, stream, index), independent of all other indices."""
    k0, k1 = derive_key(seed, stream_id, index)
    bitgen = np.random.Philox(key=np.array([k0, k1], dtype=np.uint64))
    return np.random.Generator(bitgen)
