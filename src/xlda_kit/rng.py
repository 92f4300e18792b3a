"""Splittable counter-based random streams.

Every random decision in the toolkit flows through a Philox generator keyed
by ``(seed, stream id, index)``. Philox is counter-based, so a generator for
any (stream, index) pair can be constructed directly without drawing through
the preceding indices: the packer's generator for sequence i, say, does not
depend on how many draws sequences 0 to i-1 took.

Stream ids separate independent uses of the same user seed so that, e.g.,
language draws and constraint flags never share a stream.
"""

from __future__ import annotations

import numpy as np

_MASK64 = (1 << 64) - 1

# Stream ids. Renumbering one changes every result drawn from it; 1 and 6
# are retired and not reused.
STREAM_FLAGS = 2
STREAM_PACK = 3
STREAM_INIT = 4
STREAM_GRAD_CHECK = 5
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


class Stream:
    """The generators ``stream(seed, stream_id, index)`` of one (seed, stream
    id), drawn from one kept ``Philox`` that ``at`` re-keys for each index.

    ``at`` returns the same ``Generator`` each time, set to draw exactly what
    a fresh ``stream`` would, so a caller that holds one index's generator
    while it draws from another index needs a second ``Stream``.
    """

    def __init__(self, seed: int, stream_id: int):
        self.seed = seed
        self.stream_id = stream_id
        self._bitgen = np.random.Philox(key=np.zeros(2, dtype=np.uint64))
        self._gen = np.random.Generator(self._bitgen)
        self._state = self._bitgen.state

    def at(self, index: int) -> np.random.Generator:
        """The generator of ``index``, re-keyed: counter 0 and an empty
        buffer, as ``Philox(key=...)`` starts."""
        self._state["state"]["key"] = np.array(derive_key(self.seed, self.stream_id, index),
                                               dtype=np.uint64)
        self._bitgen.state = self._state
        return self._gen
