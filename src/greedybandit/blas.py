"""Pin every OpenBLAS in the process to one thread for a block of work, and
call scipy's LAPACK eigensolver without holding the GIL.

numpy and scipy each map their own OpenBLAS build, each with its own thread
pool.  The episode loop makes small per-replication LAPACK calls whose
BLAS-3 parts wake a second thread: on 2 cores that thread only spins against
the other library's pool and against the other workers of a process pool.
`one_thread` finds the builds through /proc/self/maps and their
`scipy_openblas_{get,set}_num_threads` entry points (with the 64-bit
build's `64_` suffix), resolved once per process on first use.  Where the
maps file or the symbols are missing it does nothing.

scipy's f2py LAPACK wrappers hold the GIL for the whole call, so two
threads never overlap in them.  `min_eigenvalue_solver` calls the same
routine, `scipy_dsyevr_` in scipy's LP64 build (not numpy's ILP64
`scipy_dsyevr_64_`, a different OpenBLAS release), through ctypes, which
releases the GIL, with the arguments scipy's wrapper passes.  It is resolved
on first use, like the thread entry points, and checks itself once against
`lapack.dsyevr` on a fixed matrix: if the symbol is missing or any bit of
the check differs, there is no solver.
"""

from __future__ import annotations

import contextlib
import ctypes
import functools
import os
import threading

import numpy as np
from scipy.linalg import lapack

MAPS = "/proc/self/maps"

# The pin shared by every thread of the process: how many blocks are inside
# one_thread, and the counts the first of them found.
_pin_lock = threading.Lock()
_pin_depth = 0
_pin_saved: list[int] = []


def _openblas() -> list[ctypes.CDLL]:
    """Every OpenBLAS mapped now, in the order of their paths."""
    try:
        with open(MAPS, encoding="utf-8") as fh:
            paths = {line.split()[-1] for line in fh}
    except OSError:
        return []
    found = []
    for path in sorted(p for p in paths if "openblas" in os.path.basename(p).lower()):
        try:
            found.append(ctypes.CDLL(path))
        except OSError:
            continue
    return found


@functools.cache
def _libraries() -> list[tuple]:
    """(get, set, config) entry points of every OpenBLAS mapped now."""
    found = []
    for lib in _openblas():
        for suffix in ("64_", ""):
            get = getattr(lib, f"scipy_openblas_get_num_threads{suffix}", None)
            set_ = getattr(lib, f"scipy_openblas_set_num_threads{suffix}", None)
            config = getattr(lib, f"scipy_openblas_get_config{suffix}", None)
            if get is not None and set_ is not None and config is not None:
                get.restype, set_.restype = ctypes.c_int, None
                set_.argtypes = [ctypes.c_int]
                config.restype = ctypes.c_char_p
                found.append((get, set_, config))
                break
    return found


def thread_counts() -> list[int]:
    """Current thread count of each library the probe found."""
    return [get() for get, _, _ in _libraries()]


def configs() -> list[str]:
    """Build string of each library the probe found: version, build options
    and the CPU core whose kernels it runs."""
    return [config().decode() for _, _, config in _libraries()]


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
            for _, set_, _ in libs:
                set_(1)
        _pin_depth += 1
    try:
        yield
    finally:
        with _pin_lock:
            _pin_depth -= 1
            if _pin_depth == 0:
                for (_, set_, _), n in zip(libs, _pin_saved):
                    set_(n)


@functools.cache
def _dsyevr():
    """scipy's `scipy_dsyevr_`, or None where it is missing or differs from
    `lapack.dsyevr` on the check matrix."""
    fn = next((lib.scipy_dsyevr_ for lib in _openblas()
               if hasattr(lib, "scipy_dsyevr_")), None)
    if fn is None:
        return None
    # JOBZ, RANGE, UPLO, 18 pointers from N to INFO, then the three hidden
    # string lengths.
    fn.argtypes = [ctypes.c_char_p] * 3 + [ctypes.c_void_p] * 18 + [ctypes.c_size_t] * 3
    fn.restype = None
    # A rank-deficient Gram matrix: its smallest eigenvalue is roundoff, so
    # it shows any difference in the reduction.
    x = np.random.default_rng(0).standard_normal((12, 16))
    sigma = x.T @ x
    w, _, _, _, info = lapack.dsyevr(sigma, compute_v=0, lower=1, range="I",
                                     il=1, iu=1)
    try:
        got = _solver(fn, len(sigma))(np.asfortranarray(sigma))
    except np.linalg.LinAlgError:
        return None
    return fn if info == 0 and w[:1].tobytes() == np.float64(got).tobytes() else None


def _solver(fn, n: int):
    # Every argument but A is fixed: scipy's defaults for a subset solve of
    # the lowest eigenvalue without vectors (vl 0, vu 1, abstol 0, lwork 26n
    # and liwork 10n; LDZ 1, and Z and ISUPPZ are not read).  lwork sets
    # dsytrd's block size, so it must be scipy's for the same bits.
    ints = np.array([n, 1, 1, 0, 1, 0, 26 * n, 10 * n, 0, 0], dtype=np.intc)
    floats = np.array([0.0, 1.0, 0.0, 0.0])
    w, work, iwork = np.empty(n), np.empty(26 * n), np.empty(10 * n, dtype=np.intc)
    N, IL, IU, M, LDZ, INFO, LWORK, LIWORK, ISUPPZ = (
        ints.ctypes.data + k * ints.itemsize for k in range(9))
    VL, VU, ABSTOL, Z = (floats.ctypes.data + k * floats.itemsize for k in range(4))
    args = [b"N", b"I", b"L", N, None, N, VL, VU, IL, IU, ABSTOL, M,
            w.ctypes.data, Z, LDZ, ISUPPZ, work.ctypes.data, LWORK,
            iwork.ctypes.data, LIWORK, INFO, 1, 1, 1]

    def solve(a: np.ndarray) -> float:
        if a.shape != (n, n) or a.dtype != np.float64 or not a.flags.f_contiguous:
            raise ValueError(f"need a Fortran-ordered ({n}, {n}) float64 array")
        args[4] = a.ctypes.data
        fn(*args)
        if ints[5] != 0:
            raise np.linalg.LinAlgError(f"dsyevr failed (info {ints[5]})")
        return float(w[0])

    # The function holds every buffer it passes by address.
    solve.buffers = (ints, floats, w, work, iwork)
    return solve


def min_eigenvalue_solver(n: int):
    """A function of one Fortran-ordered (n, n) float64 array that returns
    the array's smallest eigenvalue (lower triangle read), bit for bit as
    `lapack.dsyevr(a, compute_v=0, lower=1, range="I", il=1, iu=1)` and
    without holding the GIL; it overwrites the array and raises LinAlgError
    where dsyevr reports a failure.  None where the binding is absent.  The
    function owns its workspace, so one thread at a time may call it."""
    fn = _dsyevr()
    return None if fn is None else _solver(fn, int(n))
