"""The glibc malloc thresholds fixed on import."""

import ctypes
import os
import subprocess
import sys

import pytest

from occgeom import _malloc

# Run in a fresh interpreter: in this one, earlier tests may have left a
# free heap top big enough to serve the array without a new mapping.
_MAPPED_CHECK = """
import ctypes, sys
import numpy as np
import occgeom
from occgeom import _malloc

class Mallinfo2(ctypes.Structure):
    _fields_ = [(n, ctypes.c_size_t) for n in (
        "arena ordblks smblks hblks hblkhd usmblks fsmblks uordblks fordblks keepcost".split())]

libc = ctypes.CDLL(None)
libc.mallinfo2.restype = Mallinfo2
n = _malloc.MMAP_THRESHOLD // 8
# freeing a mapped 12 MiB block raises glibc's sliding threshold past the
# next array, which would then grow the heap instead of being mapped
big = np.ones(3 * n)
del big
before = libc.mallinfo2().hblkhd
arr = np.ones(n)
sys.exit(0 if libc.mallinfo2().hblkhd - before >= arr.nbytes else 1)
"""


class TestFixThresholds:
    @pytest.mark.parametrize(
        "environ",
        [
            {"MALLOC_MMAP_THRESHOLD_": "131072"},
            {"MALLOC_TRIM_THRESHOLD_": "0"},
            {"GLIBC_TUNABLES": "glibc.malloc.mmap_threshold=65536"},
            {"GLIBC_TUNABLES": "glibc.malloc.tcache_count=0:glibc.malloc.trim_threshold=1"},
        ],
    )
    def test_user_settings_win(self, environ):
        assert not _malloc.fix_thresholds(environ)

    def test_unrelated_tunables_do_not_block(self):
        if not _malloc.is_glibc():
            pytest.skip("glibc only")
        assert _malloc.fix_thresholds({"GLIBC_TUNABLES": "glibc.malloc.tcache_count=0"})

    @pytest.mark.skipif(
        not (_malloc.is_glibc() and hasattr(ctypes.CDLL(None), "mallinfo2")),
        reason="needs glibc's mallinfo2",
    )
    def test_block_at_threshold_is_mapped(self):
        env = {
            k: v
            for k, v in os.environ.items()
            if k not in ("MALLOC_MMAP_THRESHOLD_", "MALLOC_TRIM_THRESHOLD_", "GLIBC_TUNABLES")
        }
        env["PYTHONPATH"] = os.pathsep.join(sys.path)
        proc = subprocess.run([sys.executable, "-c", _MAPPED_CHECK], env=env)
        assert proc.returncode == 0
