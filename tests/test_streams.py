"""Counter-based stream derivation: key validation, equal draws exactly for
equal keys, and shaped calls held to numpy's SeedSequence as the oracle."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ramsey_sensing.streams import derive_stream

# small values make near-miss keys (a shared prefix, a trailing zero) likely
SEEDS = st.integers(0, 3) | st.just(2**64 - 1) | st.integers(0, 2**64 - 1)
COMPONENTS = st.integers(0, 3) | st.just(2**32 - 1) | st.integers(0, 2**32 - 1)
KEYS = st.tuples(SEEDS, st.lists(COMPONENTS, max_size=4).map(tuple))
# seed 0, below 2**32, 64-bit, 2**64 - 1; shapes of 0-3 dimensions, () and zero sizes included
ORACLE_SEEDS = (st.just(0) | st.integers(1, 2**32 - 1) | st.integers(2**32, 2**64 - 2)
                | st.just(2**64 - 1))
PREFIXES = st.lists(COMPONENTS, max_size=4).map(tuple)
SHAPES = st.lists(st.integers(0, 3), max_size=3).map(tuple)


def _draws(key) -> list[int]:
    seed, path = key
    return derive_stream(seed, *path).integers(0, 2**63, size=4).tolist()


def test_master_seed_must_be_an_integer():
    assert derive_stream(np.uint64(3), 1).random() == derive_stream(3, 1).random()
    for bad in (1.5, 1.0, "1", True, False):
        with pytest.raises(ValueError):
            derive_stream(bad)
        with pytest.raises(ValueError):  # nor may a path component be one
            derive_stream(1, bad)


@pytest.mark.parametrize("key", [(-1,), (2**64,), (0, -1), (0, 2**32), (0, 1, 2**40)])
def test_keys_outside_the_word_sizes_are_rejected(key):
    # (0, 2**32) would otherwise draw the stream of (0, 0, 1)
    with pytest.raises(ValueError):
        derive_stream(*key)


@pytest.mark.parametrize("shape", [
    [2], 2, np.array([2]), "2", range(2),          # not a tuple
    (2.0,), (True,), (np.bool_(True),), ("2",), (None,), (np.float64(2),),  # not integers
    (-1,), (2, -1),                                # negative
    (2**32 + 1,), (1, 2**33), (0, 2**40),          # an index past 32 bits
])
def test_bad_shapes_are_rejected(shape):
    # index 2**32 would otherwise draw the stream of the index pair (0, 1)
    with pytest.raises(ValueError):
        derive_stream(1, 2, shape=shape)


@settings(max_examples=200, deadline=None)
@given(a=KEYS, b=KEYS)
def test_draws_are_equal_exactly_when_keys_are(a, b):
    assert _draws(a) == _draws(a)
    assert (_draws(a) == _draws(b)) == (a == b)


@settings(max_examples=200, deadline=None)
@given(key=KEYS, extra=st.lists(COMPONENTS, min_size=1, max_size=2))
def test_a_path_and_its_extensions_draw_differently(key, extra):
    seed, path = key
    assert _draws(key) != _draws((seed, path + tuple(extra)))


def _oracle(seed, key) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(np.random.SeedSequence(seed, spawn_key=key)))


@settings(max_examples=200, deadline=None)
@given(seed=ORACLE_SEEDS, prefix=PREFIXES, shape=SHAPES)
def test_batched_keys_are_the_seed_sequence_keys(seed, prefix, shape):
    streams = derive_stream(seed, *prefix, shape=shape)
    assert iter(streams) is streams  # an iterator, not a built list
    keys = [g.bit_generator.state["state"]["key"].tolist() for g in streams]
    assert keys == [
        np.random.SeedSequence(seed, spawn_key=prefix + index).generate_state(2, np.uint64).tolist()
        for index in np.ndindex(shape)]


@settings(max_examples=100, deadline=None)
@given(seed=ORACLE_SEEDS, prefix=PREFIXES, shape=SHAPES)
def test_batched_streams_draw_as_their_single_keys(seed, prefix, shape):
    streams = derive_stream(seed, *prefix, shape=shape)
    for index, g in zip(np.ndindex(shape), streams, strict=True):
        draws = g.integers(0, 2**63, size=4).tolist()
        assert draws == derive_stream(seed, *prefix, *index).integers(0, 2**63, size=4).tolist()
        assert draws == _oracle(seed, prefix + index).integers(0, 2**63, size=4).tolist()


def test_a_family_re_keys_one_generator_to_a_fresh_state():
    # three 32-bit draws leave a spare half (has_uint32, uinteger) and take
    # two of a Philox block's four words (the counter, buffer and
    # buffer_pos mid-block); the next yield must draw as a new generator
    family = derive_stream(9, 4, shape=(4,))
    assert len(family) == 4
    first = next(family)
    first.random(3, dtype=np.float32)
    for index in range(1, 4):
        g = next(family)
        assert g is first and len(family) == 3 - index
        oracle = _oracle(9, (4, index))
        assert g.random(3, dtype=np.float32).tolist() == oracle.random(3, dtype=np.float32).tolist()
        assert g.integers(0, 2**63, size=3).tolist() == oracle.integers(0, 2**63, size=3).tolist()
        assert g.random(5).tolist() == oracle.random(5).tolist()
    assert next(family, None) is None


def test_a_family_generator_cannot_spawn():
    family = derive_stream(5, 1, shape=(2, 2))
    next(family)
    g = next(family)
    with pytest.raises(TypeError):
        g.spawn(1)


@pytest.mark.parametrize("shape", [(0,), (2, 0), (0, 3)])
def test_a_shape_of_size_zero_yields_nothing(shape):
    family = derive_stream(1, 2, shape=shape)
    assert len(family) == 0 and list(family) == []
