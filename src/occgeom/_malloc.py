"""Fixed glibc malloc thresholds, so big arrays reuse freed heap memory.

glibc starts with a 128 KiB mmap threshold and raises it to the size of
each mapped block freed, up to 32 MiB, with the trim threshold at twice
that. Whether the occupancy pipeline's big arrays (lifted point features,
world points, conv im2col blocks, the 94 MB concatenation of the lifted
features) are then mapped or heap-grown depends on the order of frees, and
small long-lived blocks can land between them. In a loop of identical
calls the peak RSS settled either near its live data or about 31 MB above
it, from run to run. A fixed 32 MiB threshold is no better: the
concatenation stays mapped while the smaller blocks fragment the heap,
and occ-pipeline peaked at 315 MB in each of 3 bench runs, against
267-271 MB with the thresholds below.

Both thresholds are therefore fixed above what one operation uses. With
the mmap threshold at 256 MiB, every block the pipeline allocates comes
from the heap; with the trim threshold at 1 GiB, the heap keeps its free
memory after a call. The next call reuses those pages instead of getting
fresh mappings that the kernel must fault in and zero again. A 4 MiB
threshold, which mapped each such block afresh, cost the in-process
pipeline about 8,100 minor faults per call; now it takes about one.

The process keeps its peak heap between operations, so its RSS after a
call stays near its peak. Recycled memory is not zero: `np.empty` never
promised zeros, and for `np.zeros` calloc now clears the memory itself
instead of taking pages the kernel zeroed.
"""

from __future__ import annotations

import ctypes
import os

M_TRIM_THRESHOLD = -1  # mallopt parameter numbers from glibc's malloc.h
M_MMAP_THRESHOLD = -3
MMAP_THRESHOLD = 256 << 20  # bytes; blocks this large are mapped, not heap-grown
TRIM_THRESHOLD = 1 << 30  # free bytes the heap top keeps before it shrinks

# settings a user may already have made for these thresholds
_ENV = ("MALLOC_MMAP_THRESHOLD_", "MALLOC_TRIM_THRESHOLD_")
_TUNABLES = ("glibc.malloc.mmap_threshold", "glibc.malloc.trim_threshold")


def is_glibc() -> bool:
    try:
        return os.confstr("CS_GNU_LIBC_VERSION").startswith("glibc")
    except (AttributeError, OSError, ValueError):
        return False


def fix_thresholds(environ=os.environ) -> bool:
    """Set glibc's mmap and trim thresholds; returns whether they were set.

    Leaves malloc alone off glibc and when `environ` already sets either
    threshold, through the MALLOC_*_ variables or GLIBC_TUNABLES.
    """
    tunables = environ.get("GLIBC_TUNABLES", "")
    if not is_glibc() or any(k in environ for k in _ENV) or any(t in tunables for t in _TUNABLES):
        return False
    mallopt = ctypes.CDLL(None).mallopt
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    return bool(mallopt(M_MMAP_THRESHOLD, MMAP_THRESHOLD)) and bool(
        mallopt(M_TRIM_THRESHOLD, TRIM_THRESHOLD)
    )
