"""Run a loop's independent units as contiguous runs, one run per worker.

``runs(n, fn)`` cuts ``range(n)`` into WORKERS contiguous runs and calls
``fn(start, stop)`` once per run, side by side, and returns the results in
run order.  The calling thread is worker 0 and runs the first run; a pool of
WORKERS - 1 threads, started on the first call that needs it, runs the rest.
A forked child starts its own pool.  Each unit must write only its own part
of the output, so the result is the same at any worker count; the loops in
``layers`` and ``activations`` that use this keep the order of every sum.

WORKERS is the cores this process may run on divided by the threads each
BLAS call uses, at least 1, so the workers' GEMMs do not oversubscribe the
cores.  The BLAS thread count is read once, at import, from the variables
OpenBLAS, MKL and OpenMP read when they load (OPENBLAS_NUM_THREADS, then
MKL_NUM_THREADS, then OMP_NUM_THREADS); with none of them set the BLAS runs
one thread per core, so there is one worker.  With one BLAS thread, as
``perfbench/run.py`` sets it, there is one worker per core.  On a 2-core
x86-64 box, two workers each calling a 2-thread OpenBLAS GEMM made a
batch-64 depth-2 relu training step slower than one thread did: medians of
80.6 against 61.6 ms and 82.7 against 77.4 ms in two sets of five
alternating runs.

The loop runs inline, as ``[fn(0, n)]``, when there is one worker, when it
has no more units than workers (so small inputs, such as every array of the
catalog scans, start no thread), and when the caller is itself a pool thread,
which rules out nested pools and deadlock.  Each run executes in a copy of
the caller's context, so under the caller's numpy error state (``np.errstate``
is per thread otherwise); an exception raised in a run is re-raised in the
caller once every run has stopped, the first run's first.

``fn`` must call only private helpers and numpy, never a public oscnet
function: a tracer that wraps those by module attribute keeps its span stack
on the calling thread.
"""

from __future__ import annotations

import contextvars
import os
import threading


def _cores() -> int:
    """The cores this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no sched_getaffinity on this platform
        return os.cpu_count() or 1


BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "OMP_NUM_THREADS")


def _blas_threads(cores: int) -> int:
    """The threads a BLAS call uses: the first of BLAS_THREAD_VARS that holds
    a positive integer, else one per core."""
    for var in BLAS_THREAD_VARS:
        value = os.environ.get(var, "").strip()
        if value.isdigit() and int(value) > 0:
            return int(value)
    return cores


def _worker_count() -> int:
    cores = _cores()
    return max(1, cores // _blas_threads(cores))


WORKERS = _worker_count()

_lock = threading.Lock()
_pool = None  # the ThreadPoolExecutor, once a loop has started it
_local = threading.local()


def _forget_pool() -> None:
    """In a forked child: the parent's pool threads and any holder of _lock
    do not exist here, so start afresh."""
    global _lock, _pool
    _lock = threading.Lock()
    _pool = None


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_forget_pool)


def _mark_pool_thread() -> None:
    _local.in_pool = True


def _executor():
    global _pool
    with _lock:
        if _pool is None:
            # imported here: it costs about 0.8 MB and a few ms at import,
            # which the catalog path, which never starts a pool, need not pay
            from concurrent.futures import ThreadPoolExecutor
            _pool = ThreadPoolExecutor(max(1, WORKERS - 1), "oscnet-worker",
                                       initializer=_mark_pool_thread)
        return _pool


def runs(n: int, fn) -> list:
    """[fn(start, stop) for each contiguous run of range(n)], in run order."""
    workers = WORKERS
    if workers <= 1 or n <= workers or getattr(_local, "in_pool", False):
        return [fn(0, n)]
    bounds = [n * r // workers for r in range(workers + 1)]
    pool = _executor()
    futures = [pool.submit(contextvars.copy_context().run, fn, lo, hi)
               for lo, hi in zip(bounds[1:-1], bounds[2:])]
    results, error = [None], None
    try:
        results[0] = fn(bounds[0], bounds[1])
    except BaseException as exc:
        error = exc
    for future in futures:  # wait for every run, so none still writes after this returns
        try:
            results.append(future.result())
        except BaseException as exc:
            error = error or exc
    if error is not None:
        raise error
    return results
