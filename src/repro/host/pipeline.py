"""tf.data-style input pipeline model.

The pipeline converts a workload's stage specs plus tuning knobs into the
cost of producing one training batch: storage read time, parallel CPU time
for decode/preprocess, batch assembly, and the host-to-TPU infeed
transfer. These per-batch costs drive both the step timing (how long the
TPU waits for data) and the host-side operator events the profiler sees
(``TransferBufferToInfeedLocked``, ``DecodeAndCropJpeg``, ...).

The knobs in :class:`PipelineConfig` are exactly the "adjustable
parameters" TPUPoint-Optimizer discovers and tunes (Section VII-A):
buffer sizes, thread counts, and stage ordering.

Only the jitter changes from batch to batch, so the pipeline compiles
one :class:`BatchPlan` per (configuration, batch size): each stage's
wall time before jitter and how the stage splits it across its host
ops. A batch then draws its jitter and scales the plan.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field, replace
from typing import NamedTuple, Sequence

import numpy as np

from repro.errors import ConfigurationError
from repro.host.stages import StageKind, StageSpec
from repro.host.vm import HostVM
from repro.storage.bucket import Bucket

# Parallel reads from cloud storage scale bandwidth sub-linearly and
# saturate; this exponent and cap model GCS multi-stream behaviour.
_READ_SCALING_EXPONENT = 0.7
_READ_SCALING_CAP = 8.0

# Host link used by TransferBufferToInfeedLocked (PCIe-class), bytes/s.
_HOST_LINK_BANDWIDTH = 10e9

# The op that absorbs the time a producer spends blocked on a full
# infeed queue; a pipeline without it charges its last op.
_BLOCKED_OP = "TransferBufferToInfeedLocked"

_INTEGER_KNOBS = (
    "num_parallel_reads",
    "num_parallel_calls",
    "prefetch_depth",
    "shuffle_buffer",
    "infeed_threads",
)
# The cost model reads the knobs as float64, which holds every integer
# up to 2**53 exactly (and numpy's int64 overflows well past it).
_MAX_KNOB = 2**53


def _is_integer(value) -> bool:
    """A Python or NumPy integer; ``bool`` is not a knob value."""
    # The exact-type test first: an ABC check costs most of a config's
    # construction, and the tuner builds one per candidate.
    if type(value) is int:
        return True
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


def _is_real(value) -> bool:
    """A Python or NumPy real number; ``bool`` is not a knob value."""
    if type(value) is float:
        return True
    return isinstance(value, numbers.Real) and not isinstance(value, bool)


@dataclass(frozen=True)
class PipelineConfig:
    """Tunable input-pipeline parameters.

    Attributes:
        num_parallel_reads: concurrent storage read streams (interleave).
        num_parallel_calls: worker threads for parallelizable CPU stages.
        prefetch_depth: batches the pipeline may run ahead of the TPU;
            0 disables overlap entirely (fully serial host→TPU handoff).
        shuffle_buffer: shuffle-buffer size in examples (costs CPU).
        infeed_threads: threads linearizing buffers for the infeed DMA.
        vectorized_preprocess: reorder batching before per-example maps
            (the classic map/batch swap): the same work runs vectorized,
            trimming per-example overhead without changing outputs.
        jitter: lognormal sigma applied to each batch's cost.
    """

    num_parallel_reads: int = 4
    num_parallel_calls: int = 8
    prefetch_depth: int = 2
    shuffle_buffer: int = 1024
    infeed_threads: int = 2
    vectorized_preprocess: bool = False
    jitter: float = 0.06

    def __post_init__(self) -> None:
        for knob in _INTEGER_KNOBS:
            value = getattr(self, knob)
            if not _is_integer(value) or value > _MAX_KNOB:
                raise ConfigurationError(f"{knob} must be an integer up to 2**53, got {value!r}")
        if not isinstance(self.vectorized_preprocess, (bool, np.bool_)):
            raise ConfigurationError(
                f"vectorized_preprocess must be a bool, got {self.vectorized_preprocess!r}"
            )
        jitter = self.jitter
        if not _is_real(jitter) or not math.isfinite(jitter) or jitter < 0:
            raise ConfigurationError(f"jitter must be finite and non-negative, got {jitter!r}")
        if self.num_parallel_reads <= 0 or self.num_parallel_calls <= 0:
            raise ConfigurationError("parallelism knobs must be positive")
        if self.prefetch_depth < 0 or self.shuffle_buffer < 0:
            raise ConfigurationError("buffer sizes must be non-negative")
        if self.infeed_threads <= 0:
            raise ConfigurationError("infeed_threads must be positive")

    def with_updates(self, **kwargs) -> "PipelineConfig":
        """Return a copy with some knobs replaced (used by the tuner)."""
        return replace(self, **kwargs)


@dataclass(frozen=True, eq=False)
class BatchPlan:
    """What producing one batch costs before jitter, laid out for its host ops.

    Attributes:
        walls: each stage's wall time before jitter, in stage order.
        transfer_stages: positions of the TRANSFER stages in ``walls``.
        names: the host op names a batch emits, in order. Every batch of
            the plan shares this one tuple.
        op_stages: each op's stage position.
        op_weights: each op's weight within its stage.
        op_stage_weights: each op's stage weight total, summed once in
            the stage's op order. A stage without ops emits one op named
            after the stage with weight 1.0 of 1.0, which scales its wall
            exactly.
        blocked: position of the op that absorbs backpressure: the first
            ``TransferBufferToInfeedLocked``, else the last op.
    """

    walls: tuple[float, ...]
    transfer_stages: tuple[int, ...]
    names: tuple[str, ...]
    op_stages: tuple[int, ...]
    op_weights: tuple[float, ...]
    op_stage_weights: tuple[float, ...]
    blocked: int

    @classmethod
    def compile(cls, stages: Sequence[StageSpec], walls: Sequence[float]) -> "BatchPlan":
        """The plan of ``stages`` with ``walls`` as their jitter-free wall times."""
        if len(stages) != len(walls) or not stages:
            raise ConfigurationError("a batch plan needs one wall per stage")
        names: list[str] = []
        op_stages: list[int] = []
        op_weights: list[float] = []
        op_stage_weights: list[float] = []
        for position, spec in enumerate(stages):
            ops = spec.ops or ((spec.name, 1.0),)
            total_weight = sum(weight for _, weight in ops)
            for name, weight in ops:
                names.append(name)
                op_stages.append(position)
                op_weights.append(weight)
                op_stage_weights.append(total_weight)
        blocked = names.index(_BLOCKED_OP) if _BLOCKED_OP in names else len(names) - 1
        return cls(
            walls=tuple(float(wall) for wall in walls),
            transfer_stages=tuple(
                position
                for position, spec in enumerate(stages)
                if spec.kind is StageKind.TRANSFER
            ),
            names=tuple(names),
            op_stages=tuple(op_stages),
            op_weights=tuple(op_weights),
            op_stage_weights=tuple(op_stage_weights),
            blocked=blocked,
        )

    def cost(self, jitter: float) -> "BatchCost":
        """One batch's cost: every stage wall scaled by ``jitter``."""
        walls = tuple([wall * jitter for wall in self.walls])
        transfer = 0.0
        for position in self.transfer_stages:
            transfer += walls[position]
        return BatchCost(self, walls, sum(walls), transfer)


class BatchCost(NamedTuple):
    """Realized cost of producing and transferring one batch.

    ``walls`` are the stage walls of ``plan`` after jitter, and the
    totals are their sequential sums in stage order.
    """

    plan: BatchPlan
    walls: tuple[float, ...]
    total_wall_us: float
    transfer_wall_us: float

    @property
    def produce_wall_us(self) -> float:
        """Host time to have the batch ready, excluding the infeed DMA."""
        return self.total_wall_us - self.transfer_wall_us

    def op_durations(self) -> list[float]:
        """Each host op's share of its stage's wall, in ``plan.names`` order."""
        plan, walls = self.plan, self.walls
        return [
            walls[stage] * weight / total_weight
            for stage, weight, total_weight in zip(
                plan.op_stages, plan.op_weights, plan.op_stage_weights
            )
        ]


@dataclass
class InputPipeline:
    """A configured input pipeline feeding one training run.

    Attributes:
        vm: host VM executing the CPU stages.
        bucket: storage bucket holding the dataset.
        stages: ordered stage specs from the workload model.
        config: tuning knobs.
        bytes_per_example_storage: serialized example size in the bucket.
        bytes_per_example_device: example size as staged for the TPU.
    """

    vm: HostVM
    bucket: Bucket
    stages: tuple[StageSpec, ...]
    config: PipelineConfig
    bytes_per_example_storage: float
    bytes_per_example_device: float
    _plans: dict[tuple[PipelineConfig, int], BatchPlan] = field(
        default_factory=dict, init=False, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        if self.bytes_per_example_storage < 0 or self.bytes_per_example_device < 0:
            raise ConfigurationError("example sizes must be non-negative")
        if not self.stages:
            raise ConfigurationError("pipeline needs at least one stage")

    # --- stage costing ----------------------------------------------------

    def _read_wall_us(self, batch_size: int) -> float:
        scale = min(self.config.num_parallel_reads**_READ_SCALING_EXPONENT, _READ_SCALING_CAP)
        effective_bandwidth = self.bucket.read_bandwidth * scale
        batch_bytes = self.bytes_per_example_storage * batch_size
        latency = self.bucket.request_latency_us / max(self.config.num_parallel_reads, 1)
        # Amortize the per-request latency over the examples a request returns.
        amortized_latency = latency * batch_bytes / max(self.bucket.read_bandwidth, 1.0) * 1e-6
        return batch_bytes / effective_bandwidth * 1e6 + amortized_latency

    def _cpu_wall_us(self, spec: StageSpec, batch_size: int) -> float:
        serial_us = spec.cpu_us_per_example * batch_size
        if self.config.vectorized_preprocess and spec.parallelizable:
            serial_us *= 0.85  # batched maps amortize per-example overhead
        threads = self.config.num_parallel_calls if spec.parallelizable else 1
        return self.vm.parallel_time_us(serial_us, threads)

    def _transfer_wall_us(self, batch_size: int) -> float:
        batch_bytes = self.bytes_per_example_device * batch_size
        link_us = batch_bytes / _HOST_LINK_BANDWIDTH * 1e6
        # Linearizing the buffer for DMA costs CPU and overlaps the link.
        linearize_serial_us = batch_bytes / 4e9 * 1e6
        linearize_us = self.vm.parallel_time_us(
            linearize_serial_us, self.config.infeed_threads
        )
        return max(link_us, linearize_us)

    def _shuffle_wall_us(self, batch_size: int) -> float:
        if self.config.shuffle_buffer == 0:
            return 0.0
        # Maintaining the reservoir costs a small, size-dependent CPU fee.
        per_example_us = 0.05 * (1.0 + np.log2(1 + self.config.shuffle_buffer) / 16.0)
        return self.vm.parallel_time_us(per_example_us * batch_size, 1)

    def _stage_wall_us(self, spec: StageSpec, batch_size: int) -> float:
        if spec.kind is StageKind.READ:
            return self._read_wall_us(batch_size) + self._shuffle_wall_us(batch_size)
        if spec.kind is StageKind.TRANSFER:
            return self._transfer_wall_us(batch_size)
        return self._cpu_wall_us(spec, batch_size)

    # --- public API ---------------------------------------------------------

    def plan(self, batch_size: int) -> BatchPlan:
        """The batch plan of the current configuration, compiled on first use.

        Plans are keyed by the configuration and the batch size, the
        only inputs of a stage wall that change during a run: the online
        tuner swaps ``config`` mid-run. The VM, the bucket's bandwidth
        and latency, the stages and the example sizes are fixed when the
        pipeline is built.
        """
        key = (self.config, batch_size)
        plan = self._plans.get(key)
        if plan is None:
            if batch_size <= 0:
                raise ConfigurationError("batch_size must be positive")
            plan = self._plans[key] = BatchPlan.compile(
                self.stages, [self._stage_wall_us(spec, batch_size) for spec in self.stages]
            )
        return plan

    def batch_cost(self, batch_size: int, rng: np.random.Generator) -> BatchCost:
        """Cost of producing one batch under the current configuration."""
        plan = self.plan(batch_size)
        jitter = float(rng.lognormal(mean=0.0, sigma=self.config.jitter)) if self.config.jitter else 1.0
        return plan.cost(jitter)

    def mean_batch_wall_us(self, batch_size: int) -> float:
        """Jitter-free per-batch production cost (for planning/tuning)."""
        return self.plan(batch_size).cost(1.0).total_wall_us
