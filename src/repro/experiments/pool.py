"""The persistent warm worker pool.

Cross-process sweep telemetry pinned why a cold ``--jobs 2`` sweep was
*slower* than serial (0.61x at the time): every batch paid a fresh
``ProcessPoolExecutor`` spawn and ``chunksize=1`` dispatch put a queue
round-trip behind every ~35 ms simulation.  :class:`WorkerPool` removes
both: a lazily-spawned process pool that *survives* across batches and
sweeps, fed in adaptive chunks.  :func:`shared_pool` hands out one
process-global pool per worker count (spawned once per process, reused
by every executor and CLI command in that process; shut down at
interpreter exit or explicitly via :func:`shutdown_worker_pools`).
Fork-safety is guarded: a pool handle inherited into a forked child is
detected by pid and re-spawned rather than used, and a broken pool is
discarded so the next batch gets a fresh one.

A task carries its :class:`~repro.experiments.executor.SweepPoint`
itself.  ``pool.map`` pickles each chunk once, so a cluster spec or
fault schedule shared by a chunk's points is written once per chunk.

The pool is transport only: workers run the same ``_run_point`` code on
value-equal specs (pickled specs round-trip exactly), so results are
bit-identical to the serial path -- test-enforced.
"""

from __future__ import annotations

import atexit
import os
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from typing import Any, Callable, Iterable, Iterator

from ..obs.spans import wall_now

__all__ = [
    "WorkerPool",
    "shared_pool",
    "shutdown_worker_pools",
]


def _init_worker(pool_created_at: float) -> None:
    """Pool initializer run once in every worker at startup.

    Installs the worker's telemetry, stamping a ``spawn`` span from the
    parent-side pool-creation timestamp -- under *both* the fork and
    spawn start methods, since the timestamp travels through
    ``initargs`` rather than relying on fork inheritance.
    """
    from ..obs.telemetry import init_worker_telemetry

    init_worker_telemetry(pool_created_at)


# -- the persistent pool -------------------------------------------------------

class WorkerPool:
    """A lazily-spawned process pool that survives across batches.

    The pool is created empty; :meth:`ensure` spawns the underlying
    ``ProcessPoolExecutor`` on first use and is a cheap no-op while the
    pool stays healthy, so callers simply ``ensure()`` before every
    batch.  :attr:`spawns` counts cold spawns over the pool's lifetime
    (the pool-reuse telemetry marker and CI assertions read it).

    Fork-safety: the owning pid is recorded at spawn; a handle
    inherited into a forked child is silently discarded and re-spawned
    there rather than corrupting the parent's queues.  A
    ``BrokenProcessPool`` poisons only the current batch -- the dead
    executor is dropped so the next ``ensure()`` starts fresh.

    ``start_method`` pins the multiprocessing start method (tests force
    ``"spawn"`` to cover the no-fork platforms); the default prefers
    fork, which inherits warm marked-speed caches for free.
    """

    def __init__(self, workers: int, start_method: str | None = None):
        if workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        self.workers = int(workers)
        self.start_method = start_method
        self.spawns = 0
        self.created_at: float | None = None
        self._pool: ProcessPoolExecutor | None = None
        self._pid: int | None = None

    # -- lifecycle ---------------------------------------------------------
    @property
    def alive(self) -> bool:
        """True when a usable executor exists in *this* process."""
        return self._pool is not None and self._pid == os.getpid()

    def needs_spawn(self) -> bool:
        """Would the next :meth:`ensure` call cold-spawn workers?"""
        return not self.alive

    def ensure(self) -> bool:
        """Spawn the pool if needed; returns True on a cold spawn."""
        if self._pool is not None and self._pid != os.getpid():
            # Inherited across fork: the handle's queues belong to the
            # parent.  Drop it (the parent's copy stays valid there).
            self._pool = None
        if self._pool is None:
            self._spawn()
            return True
        return False

    def _spawn(self) -> None:
        import multiprocessing

        if self.start_method is not None:
            ctx = multiprocessing.get_context(self.start_method)
        else:
            try:
                ctx = multiprocessing.get_context("fork")
            except ValueError:  # platform without fork
                ctx = multiprocessing.get_context()
        self.created_at = wall_now()
        self._pool = ProcessPoolExecutor(
            max_workers=self.workers,
            mp_context=ctx,
            initializer=_init_worker,
            initargs=(self.created_at,),
        )
        self._pid = os.getpid()
        self.spawns += 1

    def shutdown(self, wait: bool = True) -> None:
        """Terminate the workers; the next :meth:`ensure` re-spawns."""
        pool, self._pool = self._pool, None
        if pool is not None and self._pid == os.getpid():
            pool.shutdown(wait=wait)
        self._pid = None

    def warm_up(self) -> None:
        """Force every worker to exist and finish starting *now* (spawn
        is otherwise lazy: ``ProcessPoolExecutor`` forks workers at first
        submit).  Used to take the one-off spawn cost outside a measured
        window.  Probe rounds repeat until every worker has answered one:
        a fast worker can drain a whole round while a slow one is still
        booting."""
        self.ensure()
        seen: set[int] = set()
        while len(seen) < self.workers:
            seen.update(self.map(_warmup_probe, range(self.workers)))

    # -- dispatch ----------------------------------------------------------
    def chunksize_for(self, tasks: int) -> int:
        """Adaptive chunking: ~4 chunks per worker balances scheduling
        freedom against per-task queue round-trips."""
        return max(1, tasks // (4 * self.workers))

    def map(
        self,
        fn: Callable[[Any], Any],
        tasks: Iterable[Any],
        chunksize: int | None = None,
    ) -> Iterator[Any]:
        """Ordered map over the live pool (ensure first).

        A ``BrokenProcessPool`` drops the dead executor before
        re-raising, so the pool heals on its next use.
        """
        self.ensure()
        if chunksize is None:
            tasks = list(tasks)
            chunksize = self.chunksize_for(len(tasks))
        try:
            yield from self._pool.map(fn, tasks, chunksize=chunksize)
        except BrokenProcessPool:
            self._pool = None
            self._pid = None
            raise


def _warmup_probe(_: int) -> int:
    """No-op task used by :meth:`WorkerPool.warm_up`."""
    return os.getpid()


# -- process-global shared pools ----------------------------------------------

#: One persistent pool per worker count (a ``jobs=2`` executor must not
#: fan wider than 2, so differently-sized requests get separate pools).
_POOLS: dict[int, WorkerPool] = {}
_ATEXIT_REGISTERED = False


def shared_pool(workers: int) -> WorkerPool:
    """The process-global persistent pool for ``workers`` workers.

    Spawned lazily on first use and reused by every executor in the
    process -- consecutive sweeps, curves, figures and CLI commands all
    share it.  Shut down at interpreter
    exit (or explicitly with :func:`shutdown_worker_pools`).
    """
    global _ATEXIT_REGISTERED
    pool = _POOLS.get(workers)
    if pool is None:
        pool = _POOLS[workers] = WorkerPool(workers)
        if not _ATEXIT_REGISTERED:
            atexit.register(shutdown_worker_pools)
            _ATEXIT_REGISTERED = True
    return pool


def shutdown_worker_pools(wait: bool = True) -> None:
    """Terminate every shared pool (tests, explicit cleanup, atexit)."""
    pools = list(_POOLS.values())
    _POOLS.clear()
    for pool in pools:
        pool.shutdown(wait=wait)
