"""Counter-based stream derivation: key validation, and equal draws exactly
for equal keys."""

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
