"""Host speed, measured by a fixed reference kernel next to the timed work.

The benchmark's host is a shared VM whose speed changes by up to 2x from
one second to the next and for minutes at a time, while nothing else runs
in it. A raw wall time therefore mixes the program's cost with the host's
current speed. The benchmark runs a short fixed kernel at the boundaries of
the operations it times (a tick) and converts each raw interval into the
time it would have taken at the reference speed, where one chunk of the
kernel takes ``REFERENCE_CHUNK_S``:

    time at reference speed = raw time * REFERENCE_CHUNK_S / chunk time

The chunk time of a stretch between two ticks is the mean of the two ticks
that bound it; before the first or after the last tick, the nearest tick.
The time spent in ticks is left out of every interval.

There are two kernels, because the host's slow phases slow interpreted code
and numpy array code by different amounts. ``python`` (JSON parsing and
dict counting, then building and serialising small dicts and lists) tracks
the data side; ``numpy`` (a softmax and a matrix product over 4 MiB of
float64) tracks the reference model. Measured on the benchmark's VM over
4 s blocks of a 150 s run, the matching kernel cut the spread of the time
of a fixed operation (a `mask` inspection, an ingest of 800 records, an
L=128 or an L=512 training step) by a factor of two to three; the other
kernel helped less or not at all. A tight loop of small function calls,
the first candidate for ``python``, slowed down more than the data side did
and over-corrected it. Set-up, which is mostly process start and imports,
is converted with ``spawn_s``, the time to start a bare interpreter
(``python -S -c pass``): over 2 s blocks it cut the spread of a worker's
start-up and imports from 0.15 to 0.03 with a log-log slope of 1.0, where
the ``python`` kernel left 0.06 and over-corrected (slope 0.75). Nothing
here depends on the package under test, so a change to the program moves
the converted time as it moves the raw time.
"""

from __future__ import annotations

import functools
import json
import statistics
import subprocess
import sys
from time import perf_counter

import numpy as np

CHUNKS_PER_TICK = 3  # a tick reports the median chunk, robust to a one-off stall
# about one chunk's time, and one bare interpreter start, on the benchmark's
# 2-core Xeon VM
REFERENCE_CHUNK_S = {"python": 0.0025, "numpy": 0.006}
REFERENCE_SPAWN_S = 0.012


# the kernels' inputs are built at the first tick, so that importing this
# module adds nothing to a worker's set-up time
@functools.cache
def _python_input() -> list[str]:
    gen = np.random.default_rng(20250421)
    return [json.dumps({"id": f"ref-{i:05d}", "lang": "en", "score": round(float(s), 2),
                        "tokens": gen.integers(1, 50_000, 48).tolist()})
            for i, s in enumerate(gen.uniform(0.0, 5.0, 48))]


@functools.cache
def _numpy_input() -> tuple[np.ndarray, np.ndarray]:
    scores = np.random.default_rng(20250421).standard_normal((2, 4, 256, 256))
    return scores, np.ascontiguousarray(scores[..., :32])


def python_chunk(lines: list[str]) -> None:
    counts: dict[int, int] = {}
    for _ in range(2):
        for line in lines:
            for tok in json.loads(line)["tokens"]:
                counts[tok % 251] = counts.get(tok % 251, 0) + 1
    records = [{"id": i, "span": [i, i + 1], "lang": str(i)} for i in range(1_500)]
    json.dumps(records[:150])


def numpy_chunk(arrays: tuple[np.ndarray, np.ndarray]) -> None:
    scores, values = arrays
    weights = np.exp(scores - scores.max(axis=-1, keepdims=True))
    weights /= weights.sum(axis=-1, keepdims=True)
    weights @ values


KERNELS = {"python": (_python_input, python_chunk), "numpy": (_numpy_input, numpy_chunk)}


def spawn_s() -> float:
    """Median seconds, of three, to start and stop a bare interpreter."""
    times = []
    for _ in range(3):
        start = perf_counter()
        subprocess.run([sys.executable, "-S", "-c", "pass"], check=True)
        times.append(perf_counter() - start)
    return statistics.median(times)


class Yardstick:
    """The ticks of one kernel taken in one process, and the conversion."""

    def __init__(self, kernel: str):
        self.kernel = kernel
        self.reference_s = REFERENCE_CHUNK_S[kernel]
        # (start, end, chunk seconds) of every tick, in time order
        self.ticks: list[tuple[float, float, float]] = []

    def tick(self) -> float:
        """Time ``CHUNKS_PER_TICK`` chunks; the median chunk's seconds."""
        make_input, run = KERNELS[self.kernel]
        start = perf_counter()
        data = make_input()
        times = []
        for _ in range(CHUNKS_PER_TICK):
            t = perf_counter()
            run(data)
            times.append(perf_counter() - t)
        chunk_s = statistics.median(times)
        self.ticks.append((start, perf_counter(), chunk_s))
        return chunk_s

    def chunk_s(self) -> list[float]:
        return [t[2] for t in self.ticks]

    def at_reference(self, a: float, b: float) -> float:
        """Seconds of [a, b], ticks excluded, converted to reference speed."""
        ticks = self.ticks
        if not ticks:
            raise ValueError("no tick taken: host speed unknown")
        # stretches between ticks: (from, to, chunk seconds)
        stretches = [(float("-inf"), ticks[0][0], ticks[0][2])]
        stretches += [(t0[1], t1[0], (t0[2] + t1[2]) / 2) for t0, t1 in zip(ticks, ticks[1:])]
        stretches.append((ticks[-1][1], float("inf"), ticks[-1][2]))
        total = 0.0
        for lo, hi, chunk_s in stretches:
            overlap = min(b, hi) - max(a, lo)
            if overlap > 0:
                total += overlap * self.reference_s / chunk_s
        return total

    def raw(self, a: float, b: float) -> float:
        """Seconds of [a, b] with the ticks inside it left out."""
        inside = sum(max(0.0, min(b, t1) - max(a, t0)) for t0, t1, _ in self.ticks)
        return b - a - inside
