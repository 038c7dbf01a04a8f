"""Input-pipeline stage cost models.

A tf.data input pipeline is a chain of stages, each of which costs CPU
time per example (decode, preprocess), storage bandwidth (read), or link
bandwidth (infeed transfer). Workload models describe their pipelines as
a list of :class:`StageSpec`; the pipeline turns those into per-batch
costs and into the named host operators the profiler observes.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

from repro.errors import ConfigurationError


class StageKind(enum.Enum):
    """Which resource a pipeline stage consumes."""

    READ = "read"  # storage-bandwidth bound
    CPU = "cpu"  # host-CPU bound (decode / preprocess / shuffle)
    BATCH = "batch"  # host-CPU bound batch assembly
    TRANSFER = "transfer"  # host-to-TPU link bound (infeed)


@dataclass(frozen=True)
class StageSpec:
    """One stage of an input pipeline.

    Attributes:
        name: human-readable stage name ("decode", "preprocess", ...).
        kind: resource the stage consumes.
        cpu_us_per_example: serial CPU microseconds per example (CPU/BATCH).
        parallelizable: whether ``num_parallel_calls`` applies to the stage.
        ops: named host operators this stage emits, with relative weights;
            the pipeline splits the stage's measured duration across them.
    """

    name: str
    kind: StageKind
    cpu_us_per_example: float = 0.0
    parallelizable: bool = True
    ops: tuple[tuple[str, float], ...] = field(default_factory=tuple)

    def __post_init__(self) -> None:
        if self.cpu_us_per_example < 0:
            raise ConfigurationError("cpu_us_per_example must be non-negative")
        if any(weight <= 0 for _, weight in self.ops):
            raise ConfigurationError("op weights must be positive")

