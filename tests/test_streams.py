"""Counter-based stream derivation: key validation."""

from __future__ import annotations

import numpy as np
import pytest

from ramsey_sensing.streams import derive_stream


def test_master_seed_must_be_an_integer():
    assert derive_stream(np.uint64(3), 1).random() == derive_stream(3, 1).random()
    for bad in (1.5, 1.0, "1"):
        with pytest.raises(ValueError):
            derive_stream(bad)
