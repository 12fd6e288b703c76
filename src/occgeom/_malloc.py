"""Fixed glibc malloc thresholds, so peak memory follows live data.

glibc starts with a 128 KiB mmap threshold and raises it to the size of
each mapped block freed, up to 32 MiB, with the trim threshold at twice
that. Once the first big temporary has been freed, the occupancy
pipeline's 5-30 MiB arrays (lifted point features, world points, conv
im2col blocks) grow the brk heap instead of getting their own mapping.
Whether that heap shrinks after a call then depends on where small
long-lived blocks (a returned label grid, a resized dict) happen to land:
one near the top keeps the free pages below it resident. In a loop of
identical calls the peak RSS settled either near its live data or about
31 MB above it, from run to run.

With the mmap threshold fixed at 4 MiB, a block that size or larger that
the heap's free top cannot hold gets its own mapping, which goes back to
the system when freed, instead of growing the heap. The renderer's
per-chunk temporaries (mostly 0.1-1 MiB, see `renderer._BLOCK_SAMPLES`)
stay on the heap and keep being reused. The trim threshold lets the heap
keep up to 64 MiB free at its top rather than return it after each call
and fault it back in on the next. At 8 MiB, twice the mmap threshold as
glibc's own rule would set it, the pipeline took about 16.5k minor faults
per call instead of 9k and ran 8-10% slower.
"""

from __future__ import annotations

import ctypes
import os

M_TRIM_THRESHOLD = -1  # mallopt parameter numbers from glibc's malloc.h
M_MMAP_THRESHOLD = -3
MMAP_THRESHOLD = 4 << 20  # bytes; blocks this large are mapped, not heap-grown
TRIM_THRESHOLD = 64 << 20  # free bytes the heap top keeps before it shrinks

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
