"""Importing the package and its CLI loads no SciPy subpackage, not even
``scipy.linalg``, off Windows runs no SciPy package code at all, and
leaves the oracles of ``soflqr.verify`` to the check commands.  The
LAPACK wrapper the package loads by itself is the one ``scipy.linalg``
uses, whichever is imported first."""

import importlib.machinery
import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import pytest

import soflqr
import soflqr._lapack

# Loaded by scipy.integrate, which only verify.quadrature_cost uses.
HEAVY = ("scipy.integrate", "scipy.optimize", "scipy.special",
         "scipy.sparse", "scipy.stats")
# Loaded by scipy.linalg's __init__, which the package does not run.
LINALG = ("scipy.linalg", "scipy._lib._array_api", "numpy.f2py")
# The scipy package, which the package imports only on Windows, and the
# oracles, which only the check commands load.
PACKAGE = ("soflqr.verify",) + (() if os.name == "nt"
                                else ("scipy", "scipy._lib"))


def _run(body):
    # A fresh interpreter, so that modules the test session has already
    # loaded do not count; it imports this session's copy of the package.
    root = str(Path(soflqr.__file__).resolve().parent.parent)
    probe = f"import sys\nsys.path.insert(0, {root!r})\n{body}"
    proc = subprocess.run([sys.executable, "-c", probe], capture_output=True,
                          text=True, check=True)
    return proc.stdout.split()


def test_import_loads_no_heavy_scipy_subpackage():
    loaded = _run(
        "import soflqr, soflqr.cli\n"
        f"print(' '.join(m for m in {HEAVY + LINALG + PACKAGE!r}\n"
        f"               if m in sys.modules))\n"
    )
    assert loaded == []


def test_lapack_wrapper_is_shared_with_scipy_linalg():
    check = (
        "import numpy as np, scipy.linalg, soflqr._lapack\n"
        "a = np.array([[1.0, 2.0], [-3.0, 0.5]])\n"
        "T, U = scipy.linalg.schur(a)\n"
        "flapack = soflqr._lapack.flapack\n"
        "print(sys.modules['scipy.linalg._flapack'] is flapack,\n"
        "      scipy.linalg.get_lapack_funcs('gees', dtype=float)\n"
        "      is flapack.dgees, np.allclose(U @ T @ U.T, a))\n"
    )
    assert _run("import soflqr\n" + check) == ["True"] * 3
    assert _run("import scipy.linalg\n" + check) == ["True"] * 3


def test_loader_names_what_is_missing(monkeypatch, tmp_path):
    # The loader reads SciPy's directory from its spec: without SciPy,
    # or without the wrapper in that directory, it raises ImportError.
    monkeypatch.delitem(sys.modules, soflqr._lapack._NAME)
    monkeypatch.setattr(importlib.util, "find_spec", lambda name: None)
    with pytest.raises(ModuleNotFoundError, match="'scipy'"):
        soflqr._lapack._load()
    empty = importlib.machinery.ModuleSpec("scipy", None, is_package=True)
    empty.submodule_search_locations.append(str(tmp_path))
    monkeypatch.setattr(importlib.util, "find_spec", lambda name: empty)
    with pytest.raises(ImportError, match="LAPACK wrapper not found"):
        soflqr._lapack._load()
