"""SciPy's compiled LAPACK wrapper, loaded without running SciPy.

The package calls a handful of LAPACK routines directly.  Reaching them
through ``scipy.linalg`` runs its ``__init__``, which loads SciPy's
array-API layer, ``numpy.f2py``, ``numpy.testing`` and ``numpy.ma``:
about half the wall time of a cold ``soflqr`` call.  So this module
loads SciPy's private extension ``scipy.linalg._flapack`` from its file
instead.  Its routines are the same compiled objects that
``scipy.linalg.get_lapack_funcs`` returns, so every result is unchanged.
The module is registered in ``sys.modules`` under its own name, so a
later ``import scipy.linalg`` reuses it, and one loaded earlier is
reused here.  SciPy's directory comes from
``importlib.util.find_spec("scipy")``, which does not execute the
``scipy`` package either; only on Windows is ``scipy`` imported, because
its ``__init__`` registers the directory of the wheel's DLLs there.
The load depends on SciPy's install layout
(``scipy/linalg/_flapack.<extension suffix>``) and raises ``ImportError``
naming the path if it changes.  The package calls every routine
through :func:`lapack`, which reads every ``info`` the same way.
"""

import importlib.machinery
import importlib.util
import os
import sys

if os.name == "nt":
    import scipy  # noqa: F401  (adds SciPy's DLL directories)

__all__ = ["flapack", "lapack"]

_NAME = "scipy.linalg._flapack"


def _load():
    if _NAME in sys.modules:
        return sys.modules[_NAME]
    package = importlib.util.find_spec("scipy")
    if package is None:
        raise ModuleNotFoundError("No module named 'scipy'", name="scipy")
    stem = os.path.join(package.submodule_search_locations[0], "linalg",
                        "_flapack")
    suffixes = importlib.machinery.EXTENSION_SUFFIXES
    path = next((stem + s for s in suffixes if os.path.exists(stem + s)),
                None)
    if path is None:
        raise ImportError(f"SciPy's LAPACK wrapper not found: no {stem} "
                          f"with an extension suffix in {suffixes}")
    spec = importlib.util.spec_from_file_location(_NAME, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    sys.modules[_NAME] = module
    return module


flapack = _load()


def lapack(name, *args, query=False, **kwargs):
    """Outputs of the wrapper's routine ``name``, looked up at call time;
    the last is ``info``.  With ``query``, LAPACK's workspace query runs
    first and its optimal ``lwork`` is used, as ``scipy.linalg`` does.
    Raises ``ValueError`` for ``info < 0``, an illegal argument; what a
    positive ``info`` means is the caller's to say."""
    routine = getattr(flapack, name)
    if query:
        kwargs["lwork"] = int(routine(*args, lwork=-1, **kwargs)[-2][0])
    out = routine(*args, **kwargs)
    if out[-1] < 0:
        raise ValueError(f"{name}: illegal value in argument {-out[-1]}")
    return out
