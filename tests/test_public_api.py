"""Every name a module exports must exist: a stale `__all__` entry breaks
`from module import *` and misleads readers about the public API. The
runtime needs numpy only: scipy is a test dependency."""

from __future__ import annotations

import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import ramsey_sensing

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


def test_runtime_imports_no_scipy():
    # a fresh interpreter: this test process has scipy loaded by other tests
    package_root = str(Path(ramsey_sensing.__file__).resolve().parents[1])
    inherited = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [package_root, inherited])))
    code = ("import sys, ramsey_sensing, ramsey_sensing.cli, ramsey_sensing.experiments; "
            "print(sorted(m for m in sys.modules if m.startswith('scipy')))")
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"
