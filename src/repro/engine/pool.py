"""The one process-wide worker pool of the engine.

Two solve paths spread independent work over the machine's CPUs, and
both use this pool: :func:`repro.engine.restarts.run_portfolio` sends
each live restart run of the float64 serial step to a worker, and the
``sparse`` backend's block solves run on it
(:func:`repro.scale.executor.run_blocks`).  Both are pure scheduling:
a worker runs the same code on a pickled copy of the same inputs
(float64 pickling is lossless), so every result is bit for bit what
the caller's serial loop computes.

The workers are forked (``multiprocessing.get_context("fork")``): a
two-worker pool whose tasks import :mod:`repro.engine.restarts`
answered after 11–14 ms with fork, 470–490 ms with forkserver and
550–1,015 ms with spawn.  A fork copies only the calling thread, so
the pool is created only while the process runs a single thread.
With fork, CPython forks every worker at the executor's first submit,
before its manager thread starts, and never forks again
(cpython#90622), so no fork ever happens in a threaded process.  The
pool is created by the first call that has two or more tasks, or by
:meth:`repro.serve.AlignmentService.start` before its worker threads
exist, and lives until the interpreter exits; a worker whose parent
dies without that exit ends itself.

:func:`pool_map` returns ``None`` and the caller runs its serial loop
when the machine has one CPU, when there are fewer than two tasks,
inside a pool worker (the pool object a worker inherits is unusable),
when no pool can start, and when the pool breaks (a worker died): the
pool is then dropped and the next call may create a new one.  Restart
runs also stay in the caller while BLAS may start several threads per
call (:func:`blas_threads`).
"""

from __future__ import annotations

import multiprocessing
import multiprocessing.connection
import os
import threading
from concurrent.futures import ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool

_lock = threading.Lock()
_pool: ProcessPoolExecutor | None = None  # read and set under _lock


def available_cpus() -> int:
    """CPUs actually usable by this process.

    ``os.cpu_count()`` reports host cores; under cgroup quotas or CPU
    affinity (CI containers, ``taskset``) the process may see far
    fewer, and sizing a pool by host cores adds pure overhead.
    """
    try:
        return len(os.sched_getaffinity(0)) or 1
    except (AttributeError, OSError):  # non-Linux fallback
        return os.cpu_count() or 1


def blas_threads() -> int:
    """Threads one BLAS call may start, as OpenBLAS reads them at load.

    A worker inherits its parent's BLAS setting, and must: the thread
    count changes the bits of the reductions BLAS splits.  So restart
    runs go to the pool only where this is 1; with more, every
    worker's spinning BLAS threads compete for the same CPUs.
    """
    for name in ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS"):
        value = os.environ.get(name, "").strip()
        if value.isdigit() and int(value) > 0:
            return int(value)
    return available_cpus()


def shared_pool() -> ProcessPoolExecutor | None:
    """The process-wide pool, created on first use.

    ``None`` on a one-CPU machine, inside a pool worker, and when no
    pool exists and none may start: another thread is running, or the
    fork failed.
    """
    global _pool
    if multiprocessing.parent_process() is not None or available_cpus() < 2:
        return None
    with _lock:
        if _pool is None and threading.active_count() == 1:
            _pool = _start_pool()
        return _pool


def pool_map(fn, calls: list[tuple]) -> list | None:
    """``[fn(*args) for args in calls]`` on the shared pool, in order.

    ``None`` when the caller must run the calls itself (see the module
    docstring).  Every call finishes before anything is raised; the
    first exception in call order then reaches the caller unchanged,
    with the worker's traceback as its ``__cause__``.
    """
    if len(calls) < 2:
        return None
    pool = shared_pool()
    if pool is None:
        return None
    try:
        futures = [pool.submit(fn, *args) for args in calls]
    except RuntimeError:
        # BrokenProcessPool, or shut down by another thread or by the
        # exiting interpreter
        _drop_pool(pool)
        return None
    wait(futures)
    try:
        return [future.result() for future in futures]
    except BrokenProcessPool:
        _drop_pool(pool)
        return None


def _exit_with_parent() -> None:
    """Worker initializer: end the worker when its parent process dies.

    The executor stops its workers at a normal interpreter exit; a
    parent killed outright would leave them waiting for tasks forever.
    """
    sentinel = multiprocessing.parent_process().sentinel

    def watch() -> None:
        multiprocessing.connection.wait([sentinel])
        os._exit(1)

    threading.Thread(target=watch, name="repro-pool-watch", daemon=True).start()


def _start_pool() -> ProcessPoolExecutor | None:
    pool = ProcessPoolExecutor(
        max_workers=available_cpus(),
        mp_context=multiprocessing.get_context("fork"),
        initializer=_exit_with_parent,
    )
    try:
        # the first submit forks every worker, here and now
        pool.submit(int)
    except OSError:  # fork refused (sandbox) or out of processes
        # no manager thread runs yet to stop a worker forked before the
        # refusal, so stop it here
        for process in pool._processes.values():
            process.terminate()
            process.join()
        pool.shutdown()
        return None
    return pool


def _drop_pool(pool: ProcessPoolExecutor) -> None:
    """Forget a broken or shut-down pool; its workers are stopped."""
    global _pool
    with _lock:
        if _pool is pool:
            _pool = None
    pool.shutdown()
