"""Each ``medquery`` module imports alone, in a fresh interpreter.

Importing ``medquery.x`` normally runs the package's ``__init__`` first,
whose import order can hide a cycle between two modules. Here the package
is a bare module with the right ``__path__``, so the module under test is
the first of the package to load and its imports run in its own order.
"""

import pkgutil
import subprocess
import sys

import pytest

import medquery

_ALONE = """
import importlib, sys, types
package = types.ModuleType("medquery")
package.__path__ = [sys.argv[1]]
sys.modules["medquery"] = package
importlib.import_module("medquery." + sys.argv[2])
"""


@pytest.mark.parametrize("name", sorted(info.name for info in pkgutil.iter_modules(medquery.__path__)))
def test_a_module_imports_alone(name):
    result = subprocess.run([sys.executable, "-c", _ALONE, medquery.__path__[0], name],
                            capture_output=True, text=True, timeout=60)
    assert result.returncode == 0, result.stderr

