"""SciPy's vendored HiGHS binding, loaded without the ``scipy.optimize`` package.

``import scipy.optimize`` also loads scipy.linalg, scipy.sparse and all of
linprog; the exact LPs need only the extension module
``scipy.optimize._highspy._core``. :func:`highs_core` loads that one file and
registers it under its own name, so a later ``import scipy.optimize`` reuses it:
the pybind11 extension cannot be loaded twice.
"""

import importlib.machinery
import importlib.util
import os
import sys

NAME = "scipy.optimize._highspy._core"


def highs_core():
    """The module ``scipy.optimize._highspy._core``, loaded on the first call."""
    if NAME in sys.modules:
        return sys.modules[NAME]
    import scipy

    stem = os.path.join(scipy.__path__[0], "optimize", "_highspy", "_core")
    paths = [stem + suffix for suffix in importlib.machinery.EXTENSION_SUFFIXES]
    found = [path for path in paths if os.path.isfile(path)]
    if not found:
        raise ImportError(f"SciPy's HiGHS binding not found at {' or '.join(paths)}", name=NAME)
    spec = importlib.util.spec_from_file_location(NAME, found[0])
    module = importlib.util.module_from_spec(spec)
    sys.modules[NAME] = module
    spec.loader.exec_module(module)
    return module
