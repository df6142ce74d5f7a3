"""Counter-based random streams derived from a master seed.

Every stochastic routine takes an explicit stream. Streams are keyed by a
(master_seed, *path) tuple, so any scan point or repetition can be simulated
independently of execution order and worker count.

A stream is ``Generator(Philox(SeedSequence(master_seed, spawn_key=path)))``.
Philox is counter-based, so its 128-bit key alone fixes the stream (Salmon et
al., "Parallel random numbers: as easy as 1, 2, 3", SC'11); the key is the
seed sequence's ``generate_state(2, np.uint64)``. ``_philox_keys`` ports that
hash, O'Neill's ``seed_seq_fe`` (pcg-random.org, 2015, as numpy implements
it), to uint32 arithmetic over a block of keys, mixing the words all keys
share once and only the index words as arrays. A key reaches Philox as its
``key=`` argument. A shaped call re-keys one generator's Philox to each
index's fresh state through the public ``BitGenerator.state`` setter: a
yield is valid until the iterator advances, as an ``itertools.groupby``
group is. No derived generator can ``spawn``: a longer path derives a child
stream instead.
"""

from __future__ import annotations

import functools
import math
import operator
from collections.abc import Iterator

import numpy as np

__all__ = ["derive_stream"]

_M32 = 0xFFFFFFFF
_XSHIFT = 16
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715
_POOL = 4
# each hash moves its constant h to h * MULT mod 2**32; word i of a run of
# hashes is xored with h_i and multiplied by h_{i+1}
_A_POWERS = np.array([pow(_MULT_A, i, 2**32) for i in range(_POOL + 1)], dtype=np.uint32)
_OUT_CONSTS = np.array([_INIT_B * pow(_MULT_B, i, 2**32) & _M32 for i in range(_POOL + 1)],
                       dtype=np.uint32)[:, None]


def _is_int(x) -> bool:
    return isinstance(x, (int, np.integer)) and not isinstance(x, bool)


def _hashmix(value: int, h: int) -> tuple[int, int]:
    """seed_seq_fe's hashmix of value under hash constant h, and the next constant."""
    h_next = h * _MULT_A & _M32
    value = (value ^ h) * h_next & _M32
    return value ^ (value >> _XSHIFT), h_next


def _mix(x: int, y: int) -> int:
    r = (_MIX_L * x - _MIX_R * y) & _M32
    return r ^ (r >> _XSHIFT)


@functools.lru_cache(maxsize=16)
def _seed_pool(master_seed: int) -> tuple[tuple[int, ...], int]:
    """The four pool words after the seed is mixed in, and the hash constant
    that comes next. The seed fills the pool zero-padded, as two words if
    it needs 64 bits."""
    pool, h = [], _INIT_A
    for word in (master_seed & _M32, master_seed >> 32, 0, 0):
        value, h = _hashmix(word, h)
        pool.append(value)
    for src in range(_POOL):
        for dst in range(_POOL):
            if src != dst:
                value, h = _hashmix(pool[src], h)
                pool[dst] = _mix(pool[dst], value)
    return tuple(pool), h


def _philox_keys(master_seed: int, path: list[int], shape: tuple[int, ...]) -> np.ndarray:
    """The (prod(shape), 2) uint64 Philox keys of (master_seed, *path, *index),
    one row per index in np.ndindex(shape) order.

    Row k equals SeedSequence(master_seed, spawn_key=(*path, *index_k))
    .generate_state(2, np.uint64).
    """
    pool, h = _seed_pool(master_seed)
    pool = list(pool)
    for word in path:
        for dst in range(_POOL):
            value, h = _hashmix(word, h)
            pool[dst] = _mix(pool[dst], value)

    # An index word is hashed once per pool word, with hash constants that
    # do not depend on the data: h_n xored in, h_{n+1} as multiplier, for
    # the n-th hash. So the pool mixes each index word as one (4, K) step
    # in uint32 arithmetic, which wraps as the C code does.
    pool = np.array(pool, dtype=np.uint32)[:, None]
    consts = h * _A_POWERS  # h_n, ..., h_{n+4}
    xor, mul = consts[:-1, None], consts[1:, None]
    for word in np.indices(shape, dtype=np.uint32).reshape(len(shape), math.prod(shape)):
        hashed = (word ^ xor) * mul
        hashed ^= hashed >> _XSHIFT
        pool = _MIX_L * pool - _MIX_R * hashed
        pool ^= pool >> _XSHIFT
        xor, mul = xor * _A_POWERS[_POOL], mul * _A_POWERS[_POOL]

    # generate_state: four output words, little-endian halves of two uint64
    words = (pool ^ _OUT_CONSTS[:-1]) * _OUT_CONSTS[1:]
    words ^= words >> _XSHIFT
    return np.ascontiguousarray(words.T, dtype="<u4").view("<u8").astype(np.uint64)


class _Family(Iterator):
    """One generator, re-keyed in place to each key in turn; len() counts the keys left."""

    def __init__(self, generator, keys: np.ndarray):
        self._generator, self._keys = generator, iter(keys)
        # a freshly keyed Philox: counter 0, output buffer spent, no spare 32-bit half
        self._state = {"bit_generator": "Philox", "state": {"counter": [0] * 4},
                       "buffer": [0] * 4, "buffer_pos": 4, "has_uint32": 0, "uinteger": 0}

    def __len__(self) -> int:
        return operator.length_hint(self._keys)

    def __next__(self) -> np.random.Generator:
        self._state["state"]["key"] = next(self._keys).tolist()
        self._generator.bit_generator.state = self._state
        return self._generator


def derive_stream(
    master_seed: int, *path: int, shape: tuple[int, ...] | None = None
) -> np.random.Generator | Iterator[np.random.Generator]:
    """Return the generator for a (master_seed, *path) key, or, given a
    shape, an iterator over the generators of (master_seed, *path, *index)
    for every index of that shape in np.ndindex order.

    Same key, same stream, always; distinct keys give statistically
    independent Philox streams. The seed must fit in 64 unsigned bits and
    each path component and index in 32: SeedSequence splits a wider
    component into 32-bit words, so (s, 2**32) would draw the same stream as
    (s, 0, 1). A shaped call hashes all its keys at once; its iterator
    re-keys one generator per index and its len() counts the indices left.
    """
    if not (_is_int(master_seed) and 0 <= master_seed <= 0xFFFFFFFFFFFFFFFF):
        raise ValueError("master_seed must be an integer that fits in an unsigned 64-bit integer")
    if not all(_is_int(p) and 0 <= p <= _M32 for p in path):
        raise ValueError("stream path components must be integers that fit in 32 unsigned bits")
    if shape is not None and not (isinstance(shape, tuple)
                                  and all(_is_int(d) and 0 <= d <= 2**32 for d in shape)):
        raise ValueError("shape must be a tuple of integers >= 0 whose indices fit in "
                         "32 unsigned bits")
    keys = _philox_keys(int(master_seed), [int(p) for p in path],
                        () if shape is None else tuple(int(d) for d in shape))
    first = np.random.Generator(np.random.Philox(key=keys[0])) if len(keys) else None
    return first if shape is None else _Family(first, keys)
