"""One BLAS thread per serving process.

numpy and scipy each ship their own OpenBLAS, and each starts a thread
pool sized to the machine's cores.  The engine's GEMMs are small (a
micro-batch of program graphs times a ``hidden_dim`` weight), so those
pools gain nothing: their workers spin-wait between calls and take CPU
from the threads that do the serving work (HTTP handlers, decode, the
batcher pool, the journal writer).  Serving already runs requests in
parallel — across the batcher pool's threads and the replica processes —
so the serving layer pins every OpenBLAS in its process to one thread.

This module wraps the foreign calls that do it.  On Linux it finds every
OpenBLAS mapped into the process by reading ``/proc/self/maps`` and calls
the library's own ``*_set_num_threads`` through :mod:`ctypes`.  Elsewhere,
or when numpy/scipy are built against another BLAS, it finds nothing and
does nothing.  OpenBLAS splits a GEMM across threads by blocks of the
output, so each entry's dot product runs in the same order on one thread
or many and results are bit-identical (asserted in
``tests/test_engine.py``).
"""

from __future__ import annotations

import ctypes
import os
import threading
from typing import Dict, List

__all__ = ["pin_single_thread", "thread_counts"]

_MAPS_PATH = "/proc/self/maps"

#: Symbol names in lookup order: the scipy-openblas wheels (numpy's ILP64
#: build carries the ``64_`` suffix) and plain OpenBLAS builds.
_SETTERS = (
    "scipy_openblas_set_num_threads64_",
    "scipy_openblas_set_num_threads",
    "openblas_set_num_threads64_",
    "openblas_set_num_threads",
)
_GETTERS = (
    "scipy_openblas_get_num_threads64_",
    "scipy_openblas_get_num_threads",
    "openblas_get_num_threads64_",
    "openblas_get_num_threads",
)

# Process-wide by nature: the thread count belongs to the shared library,
# not to any caller.  The pin runs once, so a front-end built later (a hub
# reload) never resizes a pool while another thread is inside a GEMM.
_pin_lock = threading.Lock()
_pinned = False


def _loaded_openblas() -> List[str]:
    """Paths of every OpenBLAS mapped into this process, in map order."""
    try:
        with open(_MAPS_PATH, "r", encoding="utf-8") as maps:
            lines = maps.readlines()
    except OSError:
        return []
    paths: List[str] = []
    for line in lines:
        fields = line.split(None, 5)
        if len(fields) < 6:
            continue
        path = fields[5].strip()
        if "openblas" in os.path.basename(path) and path not in paths:
            paths.append(path)
    return paths


def _first_symbol(library: ctypes.CDLL, names):
    """The first of ``names`` that ``library`` exports, else None."""
    for name in names:
        function = getattr(library, name, None)
        if function is not None:
            return function
    return None


def pin_single_thread() -> None:
    """Set every loaded OpenBLAS to one thread; only the first call acts."""
    global _pinned
    with _pin_lock:
        if _pinned:
            return
        _pinned = True
        for path in _loaded_openblas():
            setter = _first_symbol(ctypes.CDLL(path), _SETTERS)
            if setter is not None:
                setter.argtypes = [ctypes.c_int]
                setter.restype = None
                setter(1)


def thread_counts() -> Dict[str, int]:
    """Thread count of each loaded OpenBLAS, keyed by library file name.

    Empty when no OpenBLAS is loaded or none exports a getter.
    """
    counts: Dict[str, int] = {}
    for path in _loaded_openblas():
        getter = _first_symbol(ctypes.CDLL(path), _GETTERS)
        if getter is not None:
            getter.argtypes = []
            getter.restype = ctypes.c_int
            counts[os.path.basename(path)] = int(getter())
    return counts
