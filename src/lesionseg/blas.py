"""One BLAS thread, so results do not depend on the core count.

OpenBLAS splits a large GEMM over its threads, and the split changes the
order of the sums: at 64x64 the decoder's 16x432 @ 432x1024 product
differs in its last bits between one and two threads, and training
drifts from there. Importing the package sets every OpenBLAS mapped
into the process to one thread, whatever OPENBLAS_NUM_THREADS says.
"""

from __future__ import annotations

import ctypes
import warnings

_SETTERS = ("scipy_openblas_set_num_threads64_", "openblas_set_num_threads64_",
            "openblas_set_num_threads")


def pin_one_thread() -> None:
    """Set each mapped OpenBLAS to one thread; warn if none could be set."""
    try:
        with open("/proc/self/maps") as maps:
            libs = sorted({line.split()[-1] for line in maps if "openblas" in line.lower()})
    except OSError:
        libs = []
    pinned = False
    for lib in libs:
        handle = ctypes.CDLL(lib)
        setter = next((getattr(handle, name) for name in _SETTERS if hasattr(handle, name)),
                      None)
        if setter is not None:
            setter.argtypes, setter.restype = [ctypes.c_int], None
            setter(1)
            pinned = True
    if not pinned:
        warnings.warn("lesionseg could not pin BLAS to one thread: no OpenBLAS thread "
                      "setter found, so results may depend on the BLAS thread count")
