"""Pin every OpenBLAS in the process to one thread for a block of work.

numpy and scipy each map their own OpenBLAS build, each with its own thread
pool.  The episode loop makes small per-replication LAPACK calls whose
BLAS-3 parts wake a second thread: on 2 cores that thread only spins against
the other library's pool and against the other workers of a process pool.
`one_thread` finds the builds through /proc/self/maps and their
`scipy_openblas_{get,set}_num_threads` entry points (with the 64-bit
build's `64_` suffix), resolved once per process on first use.  Where the
maps file or the symbols are missing it does nothing.
"""

from __future__ import annotations

import contextlib
import ctypes
import functools
import os

MAPS = "/proc/self/maps"


@functools.cache
def _libraries() -> list[tuple]:
    """(get, set) thread-count functions of every OpenBLAS mapped now."""
    try:
        with open(MAPS, encoding="utf-8") as fh:
            paths = {line.split()[-1] for line in fh}
    except OSError:
        return []
    found = []
    for path in sorted(p for p in paths if "openblas" in os.path.basename(p).lower()):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for suffix in ("64_", ""):
            get = getattr(lib, f"scipy_openblas_get_num_threads{suffix}", None)
            set_ = getattr(lib, f"scipy_openblas_set_num_threads{suffix}", None)
            if get is not None and set_ is not None:
                get.restype, set_.restype = ctypes.c_int, None
                set_.argtypes = [ctypes.c_int]
                found.append((get, set_))
                break
    return found


def thread_counts() -> list[int]:
    """Current thread count of each library the probe found."""
    return [get() for get, _ in _libraries()]


@contextlib.contextmanager
def one_thread():
    """Run the block with every library at one thread, then give back the
    caller's counts.  The counts are process-global: blocks that overlap in
    threads of one process share them, and each restores on exit the counts
    it found on entry."""
    libs, saved = _libraries(), thread_counts()
    for _, set_ in libs:
        set_(1)
    try:
        yield
    finally:
        for (_, set_), n in zip(libs, saved):
            set_(n)
