"""Counter-keyed random streams for bit-reproducible simulation.

Every source of randomness in a run is drawn from a stream keyed by the run
seed plus a structured path (purpose tag, round, client, replay index, ...).
Two calls with the same key always produce the same draws, independent of
evaluation order, so running all clients of a round as one batch draws
exactly what a client-by-client loop would.
"""

import hashlib

import numpy as np
from numpy.random.bit_generator import ISeedSequence


class _PhiloxKey(ISeedSequence):
    """Seeds a Philox with a fixed 128-bit key: the state ``Philox(key=key)``
    has, without the unused OS-entropy ``SeedSequence`` that a ``key``
    argument makes ``Philox`` build first."""

    def __init__(self, key):
        self.key = key

    def generate_state(self, n_words, dtype=np.uint32):
        if n_words != 2 or np.dtype(dtype) != np.uint64:
            raise ValueError("a Philox key is two uint64 words")
        return self.key


def stream(seed: int, *path) -> np.random.Generator:
    """Return an independent Generator keyed by ``(seed, *path)``.

    Path components may be ints or short strings. The key is derived by
    hashing, so distinct paths give statistically independent Philox
    streams and the mapping is stable across processes. The stream is the
    one ``Generator(Philox(key=key))`` gives: the key, counter 0.
    """
    label = ":".join([str(int(seed))] + [str(p) for p in path])
    digest = hashlib.sha256(label.encode("utf-8")).digest()
    key = np.frombuffer(digest[:16], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(_PhiloxKey(key)))
