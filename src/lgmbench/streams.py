"""Deterministic counter-based random number streams.

Every random draw in this package flows through a Philox counter-based
generator keyed by a (seed, label path) pair.  Streams derived from the
same key are bit-identical regardless of process scheduling or worker
count, which is what makes the reproducibility audit meaningful: a
dataset generated as ``stream(seed, "dataset", 7)`` is the same bytes
whether it is produced by worker 0 of 1 or worker 3 of 4.
"""

from __future__ import annotations

import hashlib

import numpy as np

__all__ = ["derive_key", "stream", "substream_seed", "CounterStream"]


def derive_key(seed: int, *path) -> np.ndarray:
    """Hash (seed, path) into a 128-bit Philox key.

    Path components are rendered with ``repr`` and length-prefixed so
    that distinct paths can never collide by concatenation.
    """
    h = hashlib.blake2b(digest_size=16)
    h.update(int(seed).to_bytes(16, "little", signed=True))
    for part in path:
        token = repr(part).encode("utf-8")
        h.update(len(token).to_bytes(4, "little"))
        h.update(token)
    return np.frombuffer(h.digest(), dtype=np.uint64).copy()


def stream(seed: int, *path) -> np.random.Generator:
    """Return an independent Generator for the given (seed, path) key."""
    return np.random.Generator(np.random.Philox(key=derive_key(seed, *path)))


def substream_seed(seed: int, *path) -> int:
    """Derive a 63-bit integer seed for a child component.

    Used where a config object wants a plain integer seed (for example
    the per-dataset chain seed derived from a study master seed).
    """
    return int(derive_key(seed, *path)[0] >> 1)


class CounterStream:
    """A family of Generators indexed by an integer counter.

    The key is fixed at construction; ``at(i)`` returns a Generator
    whose Philox counter block starts at ``i``.  This gives the "keyed
    by (seed, block id, iteration)" discipline used by the MCMC engine
    without hashing in the hot loop.

    The stream holds a single Generator, which ``at(i)`` rewinds to
    counter ``i`` with an empty output buffer, so its draws are those
    of a freshly built ``Philox(counter=[0, 0, 0, i], key=...)``.  The
    returned Generator is therefore valid only until the next ``at()``
    on the same stream.
    """

    def __init__(self, seed: int, *path):
        key = derive_key(seed, *path)
        # The rewind template holds Python ints in lists: the state setter
        # reads each entry by index and converts a Python int faster than
        # a numpy uint64 scalar.
        self._counter = [0, 0, 0, 0]
        self._state = {
            "bit_generator": "Philox",
            "state": {"counter": self._counter, "key": [int(k) for k in key]},
            "buffer": [0, 0, 0, 0],
            "buffer_pos": 4,
            "has_uint32": 0,
            "uinteger": 0,
        }
        self._bit_generator = np.random.Philox(key=key)
        self._generator = np.random.Generator(self._bit_generator)

    def at(self, counter: int) -> np.random.Generator:
        # The state setter copies every value, so the template is reused.
        self._counter[3] = counter
        self._bit_generator.state = self._state
        return self._generator
