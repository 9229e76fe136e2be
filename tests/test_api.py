"""The package exports exactly the public names its modules list."""

import importlib
import os
import subprocess
import sys

import pytest

import blindspot
from conftest import DATA_DIR

MODULES = ("abstraction", "counts", "errors", "estimators", "ingest", "report", "simulator")
SRC_DIR = DATA_DIR.parent.parent / "src"


def _module(name):
    return importlib.import_module(f"blindspot.{name}")


@pytest.mark.parametrize("name", MODULES)
def test_every_module_name_is_a_package_name(name):
    module = _module(name)
    for public in module.__all__:
        assert getattr(blindspot, public) is getattr(module, public), public


def test_package_list_is_the_union_of_the_module_lists():
    assert len(blindspot.__all__) == len(set(blindspot.__all__))
    union = {"__version__"}.union(*(_module(name).__all__ for name in MODULES))
    assert set(blindspot.__all__) == union


def test_import_leaves_the_cli_unloaded():
    path = os.pathsep.join(filter(None, [str(SRC_DIR), os.environ.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-c", "import sys, blindspot; print('blindspot.cli' in sys.modules)"],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": path}, timeout=60,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout == "False\n"
