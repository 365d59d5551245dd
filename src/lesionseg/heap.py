"""A fixed glibc heap policy, so freed temporaries stay in the heap.

glibc serves a large allocation with mmap and raises that threshold to
the size of each mmapped block it frees, up to 32 MiB; it gives the top
of the heap back to the system once more than twice that threshold is
free there. The program's temporaries range from kilobytes to a few
megabytes and interleave, so the heap was trimmed and regrown around
them: a long128 propagation unit took 81K-181K minor page faults, and
after the taped conv stopped keeping its buffers, eval64 took thousands
per unit too. Importing the package fixes both thresholds, which also
turns off their dynamic adjustment: blocks under 32 MiB come from the
heap, and the heap is trimmed only past 128 MiB of free top.
"""

from __future__ import annotations

import ctypes
import platform

M_TRIM_THRESHOLD = -1   # mallopt parameters, from glibc's malloc.h
M_MMAP_THRESHOLD = -3
MMAP_THRESHOLD = 32 << 20
TRIM_THRESHOLD = 128 << 20


def pin_heap_policy() -> None:
    """Set glibc's mmap and trim thresholds; do nothing without glibc."""
    if platform.libc_ver()[0] != "glibc":
        return
    mallopt = ctypes.CDLL(None).mallopt
    mallopt.argtypes, mallopt.restype = [ctypes.c_int, ctypes.c_int], ctypes.c_int
    mallopt(M_MMAP_THRESHOLD, MMAP_THRESHOLD)
    mallopt(M_TRIM_THRESHOLD, TRIM_THRESHOLD)
