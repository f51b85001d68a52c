"""Counter-keyed random streams for bit-reproducible simulation.

Every source of randomness in a run is drawn from a stream keyed by the run
seed plus a structured path (purpose tag, round, client, replay index, ...).
Two calls with the same key always produce the same draws, independent of
evaluation order, so running all clients of a round as one batch draws
exactly what a client-by-client loop would.
"""

import hashlib

import numpy as np


def stream(seed: int, *path) -> np.random.Generator:
    """Return an independent Generator keyed by ``(seed, *path)``.

    Path components may be ints or short strings. The key is derived by
    hashing, so distinct paths give statistically independent Philox
    streams and the mapping is stable across processes.
    """
    label = ":".join([str(int(seed))] + [str(p) for p in path])
    digest = hashlib.sha256(label.encode("utf-8")).digest()
    key = np.frombuffer(digest[:16], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))
