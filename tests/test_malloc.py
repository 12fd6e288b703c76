"""The glibc malloc thresholds fixed on import."""

import ctypes
import os
import subprocess
import sys

import pytest

from occgeom import _malloc

# Run in a fresh interpreter: in this one, earlier tests may have left a
# free heap big enough to serve the array, or set other thresholds.
_REUSE_CHECK = """
import ctypes, resource, sys
import numpy as np
import occgeom

class Mallinfo2(ctypes.Structure):
    _fields_ = [(n, ctypes.c_size_t) for n in (
        "arena ordblks smblks hblks hblkhd usmblks fsmblks uordblks fordblks keepcost".split())]

libc = ctypes.CDLL(None)
libc.mallinfo2.restype = Mallinfo2
n = 12 << 20  # a 96 MiB float64 array, just above occ-pipeline's largest
arr = np.ones(n)
del arr
mapped = libc.mallinfo2().hblkhd
faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
arr = np.ones(n)
faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - faults
mapped = libc.mallinfo2().hblkhd - mapped
print(f"{faults} minor faults, {mapped} bytes newly mapped")
sys.exit(0 if faults < 100 and mapped <= 0 else 1)
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
    def test_freed_block_is_reused(self):
        # the second array takes the heap memory the first one freed,
        # instead of a new mapping the kernel must fault in and zero
        env = {
            k: v
            for k, v in os.environ.items()
            if k not in ("MALLOC_MMAP_THRESHOLD_", "MALLOC_TRIM_THRESHOLD_", "GLIBC_TUNABLES")
        }
        env["PYTHONPATH"] = os.pathsep.join(sys.path)
        proc = subprocess.run(
            [sys.executable, "-c", _REUSE_CHECK], env=env, capture_output=True, text=True
        )
        assert proc.returncode == 0, proc.stdout + proc.stderr
