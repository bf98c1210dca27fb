"""Import-time layout of the package: every name lives in its module.

Each check runs in a fresh interpreter, so what one import loads is not
hidden by what this test process has already imported.
"""
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import conformalts

SRC = Path(conformalts.__file__).resolve().parents[1]
MODULES = ["conformalts"] + sorted(
    f"conformalts.{m.name}" for m in pkgutil.iter_modules(conformalts.__path__)
)
TRAINING_STACK = ("pipelines", "quantile_net", "metrics", "adaptive", "conformal", "seeding")


def _run(code):
    """Run ``code`` in a fresh interpreter that imports this package from ``SRC``."""
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=path),
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def _loaded_after(module):
    """The ``conformalts.*`` submodules in ``sys.modules`` after importing ``module``."""
    out = _run(f"import sys, {module}\n"
               "print(*(k for k in sys.modules if k.startswith('conformalts.')))")
    return set(out.split())


def test_every_module_is_found():
    assert len(MODULES) == 11


@pytest.mark.parametrize("module", MODULES)
def test_module_imports_on_its_own(module):
    _run(f"import {module}")


def test_root_loads_no_submodule():
    assert _loaded_after("conformalts") == set()


def test_data_leaves_the_training_stack_unloaded():
    loaded = _loaded_after("conformalts.data")
    assert not loaded & {f"conformalts.{name}" for name in TRAINING_STACK}, loaded


def test_version():
    assert _run("import conformalts; print(conformalts.__version__)").strip() == "0.1.0"
