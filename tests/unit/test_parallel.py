"""The deterministic worker pool behind the sharded fleet's pumps."""

import threading
import time

import numpy as np
import pytest

from repro import obs
from repro.errors import ConfigurationError
from repro.parallel import MAX_WORKERS, WorkerPool, task_rng


class TestWorkerPool:
    def test_serial_map_preserves_order(self):
        pool = WorkerPool(1)
        assert pool.is_serial
        assert pool.map(lambda x: x * 2, [3, 1, 2]) == [6, 2, 4]

    def test_parallel_map_preserves_submission_order(self):
        with WorkerPool(4) as pool:
            assert not pool.is_serial

            def slow_when_small(x):
                time.sleep(0.002 * (5 - x))  # later items finish first
                return x * 10

            assert pool.map(slow_when_small, [1, 2, 3, 4]) == [10, 20, 30, 40]

    def test_empty_map(self):
        assert WorkerPool(3).map(lambda x: x, []) == []

    def test_exception_propagates(self):
        def boom(x):
            raise ValueError(f"task {x}")

        with pytest.raises(ValueError, match="task"):
            WorkerPool(1).map(boom, [1])
        with WorkerPool(2) as pool:
            with pytest.raises(ValueError, match="task"):
                pool.map(boom, [1, 2, 3])

        # A failure surfaces only after every sibling task has ended.
        depth = obs.gauge("repro_parallel_queue_depth").labels()
        before = depth.value
        finished = threading.Event()

        def fail_first(x):
            if x == 0:
                raise ValueError("task 0")
            time.sleep(0.2)
            finished.set()
            return x

        with WorkerPool(2) as pool:
            with pytest.raises(ValueError, match="task 0"):
                pool.map(fail_first, [0, 1])
            assert finished.is_set()
            assert depth.value == before

        # The earliest-submitted failure wins, whatever fails first.
        def fail_late_items_first(x):
            time.sleep(0.05 * (2 - x))
            raise ValueError(f"task {x}")

        with WorkerPool(3) as pool:
            with pytest.raises(ValueError, match="task 0"):
                pool.map(fail_late_items_first, [0, 1, 2])

    def test_shutdown_idempotent(self):
        pool = WorkerPool(2)
        pool.map(lambda x: x, [1])
        pool.shutdown()
        pool.shutdown()
        # A fresh executor is created on next use.
        assert pool.map(lambda x: x + 1, [1]) == [2]

    def test_worker_bounds(self):
        with pytest.raises(ConfigurationError):
            WorkerPool(-1)
        with pytest.raises(ConfigurationError):
            WorkerPool(MAX_WORKERS + 1)
        assert WorkerPool(0).workers == 1  # 0 means "no parallelism"

    def test_queue_depth_returns_to_zero(self):
        depth = obs.gauge("repro_parallel_queue_depth").labels()
        before = depth.value
        WorkerPool(1, label="test").map(lambda x: x, [1, 2, 3])
        assert depth.value == before


class TestTaskRng:
    def test_same_key_same_stream(self):
        a = task_rng(7, "analyzer.kmeans/k=3/init=1").normal(size=8)
        b = task_rng(7, "analyzer.kmeans/k=3/init=1").normal(size=8)
        assert np.array_equal(a, b)

    def test_different_keys_differ(self):
        a = task_rng(7, "analyzer.kmeans/k=3/init=0").normal(size=8)
        b = task_rng(7, "analyzer.kmeans/k=3/init=1").normal(size=8)
        assert not np.array_equal(a, b)

    def test_different_seeds_differ(self):
        a = task_rng(7, "analyzer.kmeans/k=3/init=0").normal(size=8)
        b = task_rng(8, "analyzer.kmeans/k=3/init=0").normal(size=8)
        assert not np.array_equal(a, b)
