"""Every name a module exports must exist: a stale `__all__` entry breaks
`from module import *` and misleads readers about the public API. Every
exported function must have a caller in the package or its demos, unless
it is one of the few references the tests check the package against, and so
must every public method or property of an exported class. Every pipeline
parameter must be set by some caller, and every demo must run. The runtime
needs numpy only: scipy is a test dependency."""

from __future__ import annotations

import ast
import importlib
import inspect
import os
import subprocess
import sys
import types
from pathlib import Path

import pytest

import ramsey_sensing
from ramsey_sensing import experiments

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


ROOT = Path(__file__).resolve().parents[1]

# Exact or independent implementations that no pipeline, CLI command or
# demo calls; the tests hold the package's fast paths to them.
REFERENCES = {
    "sample_realizations", "accrued_phases", "signal_value",  # signals
    "exact_snr", "root_found_gmin", "brentq",  # sensitivity: the exact SNR = 1 crossing
    "mc_gmin_crossing", "gmin_continuous_two_tone",
}


def _loaded_names(paths) -> set[str]:
    """Names and attributes code refers to, outside the def of the same name
    (a recursive call is not a caller); strings and docstrings do not count."""
    found = set()

    def visit(node, enclosing):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            enclosing = enclosing | {node.name}
        elif isinstance(node, ast.Name) and node.id not in enclosing:
            found.add(node.id)
        elif isinstance(node, ast.Attribute) and node.attr not in enclosing:
            found.add(node.attr)
        for child in ast.iter_child_nodes(node):
            visit(child, enclosing)

    for path in paths:
        visit(ast.parse(path.read_text()), frozenset())
    return found


def _exported_functions(name):
    module = importlib.import_module(name)
    return [n for n in module.__all__ if isinstance(getattr(module, n), types.FunctionType)]


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_function_has_a_caller(name):
    used = _loaded_names([*(ROOT / "src").rglob("*.py"), *(ROOT / "demos").glob("*.py")])
    assert [f for f in _exported_functions(name) if f not in used | REFERENCES] == []


def _public_members(name):
    """(class, member) for each public method or property of an exported class."""
    module = importlib.import_module(name)
    classes = [getattr(module, n) for n in module.__all__ if isinstance(getattr(module, n), type)]
    return [(cls.__name__, member) for cls in classes for member, value in vars(cls).items()
            if not member.startswith("_")
            and isinstance(value, (types.FunctionType, property, classmethod, staticmethod))]


@pytest.mark.parametrize("name", MODULES)
def test_every_public_method_has_a_caller(name):
    # only `obj.member` counts: a bare name (a loop variable `check`) is no call
    paths = [*(ROOT / "src").rglob("*.py"), *(ROOT / "demos").glob("*.py")]
    called = {node.attr for path in paths for node in ast.walk(ast.parse(path.read_text()))
              if isinstance(node, ast.Attribute)}
    assert [m for m in _public_members(name) if m[1] not in called] == []


def test_every_reference_is_defined_and_tested():
    defined = {n for m in MODULES for n, v in vars(importlib.import_module(m)).items()
               if isinstance(v, types.FunctionType)}
    tested = _loaded_names([p for p in (ROOT / "tests").glob("*.py")
                            if p.name != Path(__file__).name])
    assert REFERENCES <= defined & tested


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(name)
    exported = module.__all__
    assert len(exported) == len(set(exported))
    assert [n for n in exported if not hasattr(module, n)] == []


PIPELINES = ("run_fig2", "run_fig3", "run_experiment_replica", "run_fidelity_degradation")
# No caller in the tree sets these: they are set by hand to time the solvers
# on perfbench's closed_form_points studies (perfbench/README.md).
UNSET_BY_CALLERS = {("run_fig2", "n_shots"), ("run_fig2", "t2")}


def test_every_pipeline_parameter_is_set_by_a_caller():
    callers = [ROOT / "src" / "ramsey_sensing" / "cli.py", *(ROOT / "demos").glob("*.py"),
               ROOT / "perfbench" / "workloads.py"]
    params = {name: list(inspect.signature(getattr(experiments, name)).parameters)
              for name in PIPELINES}
    calls = [node for path in callers for node in ast.walk(ast.parse(path.read_text()))
             if isinstance(node, ast.Call)]
    set_by_callers = set()
    for call in calls:
        name = getattr(call.func, "attr", getattr(call.func, "id", None))
        if name in params:
            set_by_callers |= {(name, p) for p in params[name][:len(call.args)]}
            for k in call.keywords:
                # `**_given(a=..., b=...)` passes a and b whenever their flags are given
                unpacked = k.arg is None and isinstance(k.value, ast.Call)
                passed = k.value.keywords if unpacked else [k]
                set_by_callers |= {(name, kw.arg) for kw in passed}
    every = {(name, p) for name, names in params.items() for p in names}
    assert every - set_by_callers == UNSET_BY_CALLERS


def _package_env() -> dict[str, str]:
    """Environment of a fresh interpreter that imports the package under test."""
    package_root = str(Path(ramsey_sensing.__file__).resolve().parents[1])
    inherited = os.environ.get("PYTHONPATH")
    return dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [package_root, inherited])))


def test_runtime_imports_no_scipy():
    # a fresh interpreter: this test process has scipy loaded by other tests
    code = ("import sys, ramsey_sensing, ramsey_sensing.cli, ramsey_sensing.experiments; "
            "print(sorted(m for m in sys.modules if m.startswith('scipy')))")
    proc = subprocess.run([sys.executable, "-c", code], env=_package_env(), capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_runtime_imports_leave_numpy_random_unloaded():
    # numpy loads numpy.random on first use
    code = ("import sys, ramsey_sensing, ramsey_sensing.cli, ramsey_sensing.experiments; "
            "print('numpy.random' in sys.modules)")
    proc = subprocess.run([sys.executable, "-c", code], env=_package_env(), capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


@pytest.mark.parametrize("demo", sorted((ROOT / "demos").glob("*.py")), ids=lambda p: p.stem)
def test_demo_runs_to_completion(demo, tmp_path):
    # the caller check above only parses the demos; a call that no longer
    # matches a signature fails only when the demo runs
    proc = subprocess.run([sys.executable, str(demo)], env=_package_env(), cwd=tmp_path,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
