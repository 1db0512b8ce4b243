"""Importing the package and its CLI loads no scipy subpackage beyond
``scipy.linalg``."""

import subprocess
import sys
from pathlib import Path

import soflqr

# Loaded by scipy.integrate, which only verify.quadrature_cost uses.
HEAVY = ("scipy.integrate", "scipy.optimize", "scipy.special",
         "scipy.sparse", "scipy.stats")


def test_import_loads_no_heavy_scipy_subpackage():
    # A fresh interpreter, so that modules the test session has already
    # loaded do not count; it imports this session's copy of the package.
    root = str(Path(soflqr.__file__).resolve().parent.parent)
    probe = (
        "import sys\n"
        f"sys.path.insert(0, {root!r})\n"
        "import soflqr, soflqr.cli\n"
        f"print(' '.join(m for m in {HEAVY!r} if m in sys.modules))\n"
    )
    proc = subprocess.run([sys.executable, "-c", probe], capture_output=True,
                          text=True, check=True)
    assert proc.stdout.split() == []
