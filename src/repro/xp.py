"""Array-backend provenance and the BLAS thread pin.

The package has a single array path, so ``active_backend().name`` is
always ``"numpy"``; ``active_backend().blas_threads`` is the thread
count of the OpenBLAS library NumPy loaded, or ``None`` when no such
library (or its thread-count symbol) is found.

Every dense kernel here is small: the penalized-ML solve runs on
subspace-reduced matrices of dimension at most ~15 and the gain scans
on 64x64 codebooks. A threaded BLAS cannot split such work profitably,
yet OpenBLAS keeps one busy-waiting helper per core, which doubles the
CPU per trial and makes concurrent worker processes fight over the
cores. :func:`pin_blas_threads`, run once on ``import repro``, sets the
pool to one thread unless ``OPENBLAS_NUM_THREADS`` or
``OMP_NUM_THREADS`` is set: those standard variables stay the only
override. Forked workers inherit the setting and spawned workers
re-import ``repro``, so no executor needs code of its own. Thread count
never changes results: every seeded output is byte-identical either way.
"""

from __future__ import annotations

import ctypes
import glob
import os
from typing import Callable, List, Optional

import numpy as np

__all__ = ["active_backend", "pin_blas_threads"]

#: ``(setter, getter)`` symbol pairs: the scipy-openblas build bundled in
#: NumPy wheels first, then a system OpenBLAS.
_SYMBOLS = (
    ("scipy_openblas_set_num_threads64_", "scipy_openblas_get_num_threads64_"),
    ("openblas_set_num_threads", "openblas_get_num_threads"),
)

_set_threads: Optional[Callable[[int], None]] = None
_get_threads: Optional[Callable[[], int]] = None


class _NumpyBackend:
    name = "numpy"

    @property
    def blas_threads(self) -> Optional[int]:
        """The BLAS pool's thread count now, or ``None`` when unknown."""
        return None if _get_threads is None else int(_get_threads())


_NUMPY = _NumpyBackend()


def active_backend() -> _NumpyBackend:
    """The backend in effect; ``.name`` is always ``"numpy"``."""
    return _NUMPY


def _openblas_candidates() -> List[str]:
    """Paths of the OpenBLAS libraries this process may have loaded."""
    try:
        with open("/proc/self/maps", encoding="utf-8") as maps:
            paths = [line.split()[-1] for line in maps if "openblas" in line]
    except OSError:  # no procfs: look where NumPy wheels bundle it
        numpy_dir = os.path.dirname(np.__file__)
        paths = []
        for folder in (os.path.join(os.pardir, "numpy.libs"), ".dylibs"):
            paths += glob.glob(os.path.join(numpy_dir, folder, "*openblas*"))
    return list(dict.fromkeys(paths))


def _bind() -> None:
    global _set_threads, _get_threads
    for path in _openblas_candidates():
        try:
            library = ctypes.CDLL(path)
        except OSError:
            continue
        for setter_name, getter_name in _SYMBOLS:
            setter = getattr(library, setter_name, None)
            getter = getattr(library, getter_name, None)
            if setter is not None and getter is not None:
                setter.argtypes, setter.restype = [ctypes.c_int], None
                getter.argtypes, getter.restype = [], ctypes.c_int
                _set_threads, _get_threads = setter, getter
                return


def pin_blas_threads() -> None:
    """Pin NumPy's OpenBLAS to one thread unless the environment chose.

    Does nothing when no OpenBLAS with thread control is loaded.
    """
    _bind()
    if _set_threads is not None and not (
        os.environ.get("OPENBLAS_NUM_THREADS") or os.environ.get("OMP_NUM_THREADS")
    ):
        _set_threads(1)
