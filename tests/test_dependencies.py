"""The package runs on the standard library alone (pyproject: dependencies
= []): importing every module must not pull in numpy or sympy, which may be
installed but are not declared."""

import os
import subprocess
import sys
from pathlib import Path

import superprolong

SCRIPT = """
import importlib, pkgutil, sys
import superprolong
names = sorted(m.name for m in pkgutil.iter_modules(superprolong.__path__))
for name in names:
    importlib.import_module("superprolong." + name)
print(len(names))
print(" ".join(sorted(m for m in ("numpy", "sympy") if m in sys.modules)))
"""


def test_importing_every_module_needs_no_numpy_or_sympy():
    src = str(Path(superprolong.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run(
        [sys.executable, "-c", SCRIPT], env=env, capture_output=True,
        text=True, check=True,
    ).stdout.split("\n")
    assert int(out[0]) >= 12  # every module of the package was imported
    assert out[1] == ""
