"""A deterministic worker pool for the sharded fleet's pump fan-out.

:class:`~repro.serve.shard.ShardedFleet` pumps its shards and gathers
scatter-gather queries through :meth:`WorkerPool.map`. Results come back
in submission order, so any merge over them sees the same sequence
regardless of worker count or completion order.

:func:`task_rng` gives one task — a k-means restart, an autotune trial
— its own named RNG substream, derived via :mod:`repro.rng` from a root
seed plus a stable task key, so no other task's draws can disturb it.

``workers <= 1`` runs tasks inline with zero thread overhead — the
serial reference path. Threads (not processes) are the backend, so the
shards share memory without pickling.

Queue depth and per-task latency are observable via :mod:`repro.obs`
(``repro_parallel_queue_depth``, ``repro_parallel_task_seconds``,
``repro_parallel_tasks_total``).
"""

from __future__ import annotations

import time
from concurrent.futures import ThreadPoolExecutor, wait
from typing import Callable, Iterable, Sequence, TypeVar

import numpy as np

from repro import obs
from repro import rng as rng_mod
from repro.errors import ConfigurationError

T = TypeVar("T")
R = TypeVar("R")

MAX_WORKERS = 64

_QUEUE_DEPTH = obs.gauge(
    "repro_parallel_queue_depth",
    "Tasks submitted to the shard-pump worker pool and not yet finished.",
)
_TASK_SECONDS = obs.histogram(
    "repro_parallel_task_seconds",
    "Wall time of one worker-pool task, by pool label.",
    labels=("pool",),
)
_TASKS_TOTAL = obs.counter(
    "repro_parallel_tasks_total",
    "Tasks executed by the worker pool, by pool label.",
    labels=("pool",),
)


def task_rng(seed: int, key: str) -> np.random.Generator:
    """A deterministic per-task generator, independent of all other tasks.

    Same ``(seed, key)`` → same stream, on any worker, in any order.
    """
    return rng_mod.stream(key, seed)


class WorkerPool:
    """Deterministic ordered-map executor over a fixed thread count.

    Usable as a context manager; with ``workers <= 1`` (the default) no
    threads are created and :meth:`map` degenerates to an inline loop.
    """

    def __init__(self, workers: int = 1, label: str = "pool"):
        if workers < 0:
            raise ConfigurationError("workers must be non-negative")
        if workers > MAX_WORKERS:
            raise ConfigurationError(f"workers must be <= {MAX_WORKERS}")
        self.workers = max(int(workers), 1)
        self.label = label
        self._executor: ThreadPoolExecutor | None = None

    # --- lifecycle ---------------------------------------------------------

    def __enter__(self) -> "WorkerPool":
        return self

    def __exit__(self, *exc_info) -> None:
        self.shutdown()

    def shutdown(self) -> None:
        """Stop the backing threads (idempotent; inline pools are no-ops)."""
        if self._executor is not None:
            self._executor.shutdown(wait=True)
            self._executor = None

    @property
    def is_serial(self) -> bool:
        return self.workers <= 1

    def _ensure_executor(self) -> ThreadPoolExecutor:
        if self._executor is None:
            self._executor = ThreadPoolExecutor(
                max_workers=self.workers, thread_name_prefix=f"repro-{self.label}"
            )
        return self._executor

    # --- execution ---------------------------------------------------------

    def _run_one(self, fn: Callable[[T], R], item: T) -> R:
        began = time.perf_counter()
        try:
            return fn(item)
        finally:
            _TASK_SECONDS.labels(pool=self.label).observe(time.perf_counter() - began)
            _TASKS_TOTAL.labels(pool=self.label).inc()
            _QUEUE_DEPTH.labels().dec()

    def map(self, fn: Callable[[T], R], items: Iterable[T]) -> list[R]:
        """Apply ``fn`` to every item; results come back in item order.

        On a threaded pool every task runs to completion before the
        earliest-submitted task's exception propagates; the inline
        pool raises at the first failure, as a plain loop would.
        """
        tasks: Sequence[T] = list(items)
        if not tasks:
            return []
        _QUEUE_DEPTH.labels().inc(len(tasks))
        with obs.trace(
            "parallel.map", pool=self.label, tasks=len(tasks), workers=self.workers
        ):
            if self.is_serial:
                return [self._run_one(fn, item) for item in tasks]
            executor = self._ensure_executor()
            futures = [executor.submit(self._run_one, fn, item) for item in tasks]
            wait(futures)
            return [future.result() for future in futures]
