"""Every name a module exports must exist: a stale `__all__` entry breaks
`from module import *` and misleads readers about the public API."""

from __future__ import annotations

import importlib

import pytest

# every library module; cli is an entry point and exports nothing
MODULES = [
    "ramsey_sensing",
    "ramsey_sensing.estimators",
    "ramsey_sensing.experiments",
    "ramsey_sensing.io_utils",
    "ramsey_sensing.montecarlo",
    "ramsey_sensing.sensitivity",
    "ramsey_sensing.sensor",
    "ramsey_sensing.signals",
    "ramsey_sensing.streams",
]


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(name)
    exported = module.__all__
    assert len(exported) == len(set(exported))
    assert [n for n in exported if not hasattr(module, n)] == []
