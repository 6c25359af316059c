"""Pin every OpenBLAS in the process to one thread for a block of work.

numpy and scipy each map their own OpenBLAS build, each with its own thread
pool.  The episode loop makes small per-replication LAPACK calls whose
BLAS-3 parts wake a second thread: on 2 cores that thread only spins against
the other library's pool and against the other workers of a process pool.
`one_thread` finds the builds through /proc/self/maps and their
`scipy_openblas_{get,set}_num_threads` entry points (with the 64-bit
build's `64_` suffix), resolved once per process on first use.  Where the
maps file or the symbols are missing it does nothing.

A fork stops each pool (the library's fork handler), and the next change
of its thread count starts it again with threads that spin for about
0.1 s before they sleep.  `stop_pools` calls that handler, so a process
that forked can stop the pools its restored counts started; each starts
again on its next call that needs more than one thread.

scipy's f2py LAPACK wrappers hold the GIL for the whole call, so two
threads of one process never overlap in them: work that should overlap the
episode loop's LAPACK calls runs in another process, as the gram_min_eig
record does (env.GramHelper).
"""

from __future__ import annotations

import contextlib
import ctypes
import functools
import os
import threading

MAPS = "/proc/self/maps"

# The pin shared by every thread of the process: how many blocks are inside
# one_thread, and the counts the first of them found.
_pin_lock = threading.Lock()
_pin_depth = 0
_pin_saved: list[int] = []


@functools.cache
def _libraries() -> list[tuple]:
    """(get, set, config, stop) entry points of every OpenBLAS mapped now, in
    the order of their paths; stop is None where the library has none."""
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
            config = getattr(lib, f"scipy_openblas_get_config{suffix}", None)
            if get is not None and set_ is not None and config is not None:
                get.restype, set_.restype = ctypes.c_int, None
                set_.argtypes = [ctypes.c_int]
                config.restype = ctypes.c_char_p
                stop = getattr(lib, "blas_thread_shutdown_", None)
                if stop is not None:
                    stop.argtypes, stop.restype = [], ctypes.c_int
                found.append((get, set_, config, stop))
                break
    return found


def thread_counts() -> list[int]:
    """Current thread count of each library the probe found."""
    return [get() for get, *_ in _libraries()]


def configs() -> list[str]:
    """Build string of each library the probe found: version, build options
    and the CPU core whose kernels it runs."""
    return [config().decode() for _, _, config, _ in _libraries()]


@contextlib.contextmanager
def one_thread():
    """Run the block with every library at one thread, then give back the
    caller's counts.  The counts are process-global, so blocks that overlap
    in threads of one process share one pin: the first to enter saves the
    counts and sets them to one, and the last to exit restores them."""
    global _pin_depth, _pin_saved
    libs = _libraries()
    with _pin_lock:
        if _pin_depth == 0:
            _pin_saved = thread_counts()
            for _, set_, *_ in libs:
                set_(1)
        _pin_depth += 1
    try:
        yield
    finally:
        with _pin_lock:
            _pin_depth -= 1
            if _pin_depth == 0:
                for (_, set_, *_), n in zip(libs, _pin_saved):
                    set_(n)


def stop_pools() -> None:
    """Stop each library's thread pool, as its fork handler
    (`blas_thread_shutdown_`) does; the library starts it again at its next
    call that needs more than one thread.  No other thread of the process
    may be inside a library meanwhile."""
    for *_, stop in _libraries():
        if stop is not None:
            stop()
