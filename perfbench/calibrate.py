"""A fixed calibration kernel that measures the machine's speed of the moment.

The machine's speed drifts by itself by tens of percent over minutes, so raw
times cannot be compared between runs.  The runner calls :func:`kernel` once
after every operation it times and reports the program's time over the
kernel's, which cancels the drift.  The kernel does the same work every call,
in the mix the program's hot paths use: big-int xor, popcount and shifts,
small-object allocation, list and dict stores, scalar draws from a numpy
generator and small numpy unpacks.

Never change the kernel or its sizes: that moves every reported time.
"""

from __future__ import annotations

import time

import numpy as np

# Steps per call: about 6 ms on the machine the benchmark was defined on.
_REPS = 1000
_MASK = (1 << 256) - 1
_WORDS = [(i * 0x9E3779B97F4A7C15) ** 3 & _MASK for i in range(64)]
_BIG = [(i * 0x9E3779B97F4A7C15) ** 200 & ((1 << 4096) - 1) for i in range(16)]


class _Pair:
    __slots__ = ("pos", "word")

    def __init__(self, pos, word):
        self.pos = pos
        self.word = word


def kernel() -> int:
    """The fixed unit of work; returns a checksum so nothing is optimised away."""
    rng = np.random.default_rng(1)
    store, table, acc = [], {}, 0
    for r in range(_REPS):
        w, x = _WORDS[r & 63], _WORDS[(r * 7) & 63]
        pos = int(rng.integers(64))
        y = w ^ (1 << pos)
        store.append(y)
        pair = _Pair(pos, y)
        acc += (w ^ x).bit_count() + pair.pos
        table[r & 255] = pair
        if r % 50 == 0:
            word = _BIG[r % 16].to_bytes(512, "little")
            acc += np.flatnonzero(np.unpackbits(np.frombuffer(word, dtype=np.uint8))).size
    return acc + len(store) + len(table)


def timed_kernel() -> float:
    """Seconds one kernel call takes now."""
    t0 = time.perf_counter()
    kernel()
    return time.perf_counter() - t0
