"""Pin the OpenBLAS builds shipped with numpy and scipy to one thread.

The last digits of dense results depend on the BLAS thread count, and
the command line's output bytes must not, so every command runs with
BLAS on one thread.  Only `cli.main` calls `pin_single_thread`:
importing robinlab changes no process state.
"""
from __future__ import annotations

import ctypes
import functools
from pathlib import Path

_SETTERS = ("scipy_openblas_set_num_threads64_", "scipy_openblas_set_num_threads",
            "openblas_set_num_threads")


def _library_dirs() -> list[Path]:
    import numpy
    import scipy

    return [Path(pkg.__file__).resolve().parent.parent / f"{pkg.__name__}.libs"
            for pkg in (numpy, scipy)]


def openblas_libraries(dirs=None) -> list[ctypes.CDLL]:
    """The OpenBLAS builds in the wheels' library directories (none if absent)."""
    dirs = _library_dirs() if dirs is None else dirs
    return [ctypes.CDLL(str(p)) for d in dirs
            for p in sorted(Path(d).glob("libscipy_openblas*.so"))]


@functools.cache
def _setters(dirs) -> tuple:
    """The thread-count setters of the builds in `dirs`, looked up once."""
    found = []
    for lib in openblas_libraries(dirs):
        setter = next((getattr(lib, s) for s in _SETTERS if hasattr(lib, s)), None)
        if setter is not None:
            setter.argtypes, setter.restype = [ctypes.c_int], None
            found.append(setter)
    return tuple(found)


def pin_single_thread(dirs=None) -> int:
    """Set every OpenBLAS build found to one thread; returns how many were set.

    The builds are found once per process, but each call sets them
    again, so a thread count changed since the last call is undone.
    """
    setters = _setters(None if dirs is None else tuple(dirs))
    for setter in setters:
        setter(1)
    return len(setters)
