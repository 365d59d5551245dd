"""One BLAS thread, so results do not depend on the core count.

OpenBLAS splits a large GEMM over its threads, and the split changes the
order of the sums: at 64x64 the decoder's 16x432 @ 432x1024 product
differs in its last bits between one and two threads, and training
drifts from there. Importing the package sets every OpenBLAS mapped
into the process to one thread, whatever OPENBLAS_NUM_THREADS says.
The bits still depend on the build and the kernels OpenBLAS picks for
the CPU; `platform_key` names them.
"""

from __future__ import annotations

import ctypes
import warnings

import numpy as np

_SETTERS = ("scipy_openblas_set_num_threads64_", "openblas_set_num_threads64_",
            "openblas_set_num_threads")
_GETTERS = (("scipy_openblas_get_config64_", "scipy_openblas_get_corename64_"),
            ("openblas_get_config64_", "openblas_get_corename64_"),
            ("openblas_get_config", "openblas_get_corename"))


def _mapped_openblas() -> list[ctypes.CDLL]:
    try:
        with open("/proc/self/maps") as maps:
            libs = sorted({line.split()[-1] for line in maps if "openblas" in line.lower()})
    except OSError:
        libs = []
    return [ctypes.CDLL(lib) for lib in libs]


def pin_one_thread() -> None:
    """Set each mapped OpenBLAS to one thread; warn if none could be set."""
    pinned = False
    for handle in _mapped_openblas():
        setter = next((getattr(handle, name) for name in _SETTERS if hasattr(handle, name)),
                      None)
        if setter is not None:
            setter.argtypes, setter.restype = [ctypes.c_int], None
            setter(1)
            pinned = True
    if not pinned:
        warnings.warn("lesionseg could not pin BLAS to one thread: no OpenBLAS thread "
                      "setter found, so results may depend on the BLAS thread count")


def platform_key() -> tuple[str, str, str]:
    """(numpy version, OpenBLAS config string, OpenBLAS core name).

    The bits a run computes depend on these, so golden digests are keyed
    by them. Both strings are "?" when no mapped OpenBLAS reports them.
    """
    for handle in _mapped_openblas():
        for names in _GETTERS:
            if all(hasattr(handle, name) for name in names):
                config, core = (getattr(handle, name) for name in names)
                config.restype = core.restype = ctypes.c_char_p
                return np.__version__, config().decode(), core().decode()
    return np.__version__, "?", "?"
