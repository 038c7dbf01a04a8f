"""repro.parallel — deterministic fan-out for the sharded fleet's pumps.

See :mod:`repro.parallel.pool` for the reproducibility contract:
submission-order results plus per-task RNG substreams.
"""

from repro.parallel.pool import MAX_WORKERS, WorkerPool, task_rng

__all__ = ["MAX_WORKERS", "WorkerPool", "task_rng"]
