"""Counter-based random streams derived from a master seed.

Every stochastic routine takes an explicit stream. Streams are keyed by a
(master_seed, *path) tuple, so any scan point or repetition can be simulated
independently of execution order and worker count.
"""

from __future__ import annotations

import numpy as np

__all__ = ["derive_stream"]


def derive_stream(master_seed: int, *path: int) -> np.random.Generator:
    """Return the generator for a (master_seed, *path) key.

    Same key, same stream, always; distinct keys give statistically
    independent Philox streams. The seed must fit in 64 unsigned bits and
    each path component in 32: SeedSequence splits a wider component into
    32-bit words, so (s, 2**32) would draw the same stream as (s, 0, 1).
    """
    if isinstance(master_seed, bool) or not (isinstance(master_seed, (int, np.integer))
                                             and 0 <= master_seed <= 0xFFFFFFFFFFFFFFFF):
        raise ValueError("master_seed must be an integer that fits in an unsigned 64-bit integer")
    if any(isinstance(p, bool) or not isinstance(p, (int, np.integer)) or not 0 <= p <= 0xFFFFFFFF
           for p in path):
        raise ValueError("stream path components must be integers that fit in 32 unsigned bits")
    seq = np.random.SeedSequence(entropy=int(master_seed), spawn_key=tuple(int(p) for p in path))
    return np.random.Generator(np.random.Philox(seq))
