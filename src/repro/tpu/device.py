"""TPU device: executes one step's worth of TPU operators.

The device consumes a *TPU op schedule* — an ordered list of work items
produced by the workload model after graph partitioning and fusion — and
turns it into timed executions using the MXU and HBM models. It also
accounts the two quantities TPUPoint's profiler reports as device
metadata: **idle time** (the TPU waiting on infeed/outfeed) and **MXU
utilization** (achieved matmul FLOPs against peak).
"""

from __future__ import annotations

import enum
import hashlib
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from repro.errors import ConfigurationError
from repro.tpu.hbm import HbmModel
from repro.tpu.mxu import MxuModel
from repro.tpu.specs import TpuChipSpec, TpuGeneration, chip_spec

# --- output digests -------------------------------------------------------
#
# The simulator carries no real tensor data, so "the numbers an op
# produced" are modeled as a 64-bit FNV-1a digest folded op by op from
# each op's observable outcome (name, achieved duration, and any
# corruption salt a silent-data-corruption model mixed in). Digests are
# only computed for injectors that ask for them (the scrubber's; fleet
# injectors corrupt without collecting, so arming SDC stays cheap) and
# are process-independent (SHA-256 name hashes, not randomized str
# hashes) so scrub golden runs compare exactly across processes.

DIGEST_SEED = 0xCBF29CE484222325
_DIGEST_PRIME = 0x100000001B3
_DIGEST_MASK = 0xFFFFFFFFFFFFFFFF
_NAME_HASHES: dict[str, int] = {}


def _name_hash(name: str) -> int:
    value = _NAME_HASHES.get(name)
    if value is None:
        value = int.from_bytes(hashlib.sha256(name.encode("utf-8")).digest()[:8], "big")
        _NAME_HASHES[name] = value
    return value


def fold_digest(digest: int, name: str, duration_us: float, salt: int = 0) -> int:
    """Fold one op's observable output into a running step digest."""
    value = _name_hash(name) ^ (int(duration_us * 1024.0) & _DIGEST_MASK) ^ (salt & _DIGEST_MASK)
    return ((digest ^ value) * _DIGEST_PRIME) & _DIGEST_MASK


class TpuOpCategory(enum.Enum):
    """How a TPU operator's cost is computed."""

    COMPUTE = "compute"  # MXU-bound: cost from FLOPs
    MEMORY = "memory"  # HBM-bound: cost from bytes moved
    INFEED = "infeed"  # waits for the host, then transfers over the link
    OUTFEED = "outfeed"  # transfers results back toward the host
    SYNC = "sync"  # fixed-cost synchronization (all-reduce, ...)


@dataclass(frozen=True)
class TpuOpWork:
    """One operator's worth of work to run on the device.

    Attributes:
        name: TensorFlow-style operator name (e.g. ``fusion``, ``Reshape``).
        category: cost model used for the op.
        flops: compute work (COMPUTE ops; counted toward MXU utilization
            when ``uses_mxu`` is set).
        num_bytes: memory or transfer traffic (MEMORY/INFEED/OUTFEED ops).
        efficiency: fraction of peak a COMPUTE op achieves (shape effects).
        uses_mxu: whether the op's FLOPs run on the matrix units.
        fixed_us: additive fixed cost (kernel launch, sync latency).
    """

    name: str
    category: TpuOpCategory
    flops: float = 0.0
    num_bytes: float = 0.0
    efficiency: float = 0.5
    uses_mxu: bool = False
    fixed_us: float = 0.0

    def __post_init__(self) -> None:
        if self.flops < 0 or self.num_bytes < 0 or self.fixed_us < 0:
            raise ConfigurationError("op work quantities must be non-negative")


@dataclass(frozen=True)
class TpuOpExecution:
    """A completed operator execution on the device timeline."""

    name: str
    category: TpuOpCategory
    start_us: float
    duration_us: float
    flops: float
    num_bytes: float

    @property
    def end_us(self) -> float:
        return self.start_us + self.duration_us


@dataclass
class StepExecution:
    """Result of running one step's TPU schedule.

    The executed ops are held as columns: ``ops`` in schedule order,
    with float64 ``starts`` and ``durations`` arrays beside them.
    """

    step_number: int
    start_us: float
    end_us: float
    idle_us: float = 0.0
    mxu_flops: float = 0.0
    #: Digest of the step's op outputs; ``None`` unless an SDC injector
    #: is attached (clean runs skip digesting entirely).
    output_digest: int | None = None
    ops: tuple[TpuOpWork, ...] = ()
    names: tuple[str, ...] = ()
    starts: np.ndarray = field(default_factory=lambda: np.empty(0), compare=False, repr=False)
    durations: np.ndarray = field(
        default_factory=lambda: np.empty(0), compare=False, repr=False
    )

    @property
    def executions(self) -> list[TpuOpExecution]:
        """The step's ops as :class:`TpuOpExecution` records, in schedule order.

        Built from the columns on each call: a step is kept as arrays, so
        a run creates no per-op objects unless a caller asks for them.
        """
        return [
            TpuOpExecution(
                name=op.name,
                category=op.category,
                start_us=start,
                duration_us=duration,
                flops=op.flops,
                num_bytes=op.num_bytes,
            )
            for op, start, duration in zip(
                self.ops, self.starts.tolist(), self.durations.tolist()
            )
        ]

    @property
    def elapsed_us(self) -> float:
        return self.end_us - self.start_us

    @property
    def idle_fraction(self) -> float:
        """Fraction of the step the TPU spent waiting on data exchange."""
        if self.elapsed_us <= 0:
            return 0.0
        return min(self.idle_us / self.elapsed_us, 1.0)


@dataclass(frozen=True, eq=False)
class StepPlan:
    """A schedule's costs on one chip, computed once and reused every step.

    An op's duration depends only on the op and the chip, except that an
    INFEED op adds the time it waits for the host's batch. The plan keeps
    each op's duration with no wait (``base_us``, read-only) and each
    INFEED op's fixed and transfer terms apart, so a step can evaluate
    ``(fixed + wait) + transfer`` exactly as the per-op path does.
    """

    schedule: tuple[TpuOpWork, ...]
    names: tuple[str, ...]
    base_us: np.ndarray
    #: ``(index, fixed_us, transfer_us)`` of each INFEED op, in order.
    infeeds: tuple[tuple[int, float, float], ...]
    #: Indices of the INFEED and OUTFEED ops, whose time is idle time.
    idle: tuple[int, ...]
    #: MXU FLOPs of one step, summed in schedule order.
    mxu_flops: float


class TpuDevice:
    """A single Cloud TPU chip executing op schedules step by step."""

    def __init__(self, spec: TpuChipSpec | TpuGeneration | str):
        if not isinstance(spec, TpuChipSpec):
            spec = chip_spec(spec)
        self.spec = spec
        self.mxu = MxuModel(spec)
        self.hbm = HbmModel(spec)
        self.total_busy_us = 0.0
        self.total_idle_us = 0.0
        self.total_mxu_flops = 0.0
        self.sdc = None
        self._plans: dict[int, StepPlan] = {}

    def attach_sdc(self, injector) -> None:
        """Attach (or detach with ``None``) a silent-data-corruption injector.

        The injector (see :mod:`repro.tpu.sdc`) perturbs op durations,
        achieved-FLOPs credit, and output digests — it never raises, so
        a corrupted chip is only distinguishable behaviorally. While one
        is attached, steps run op by op so it can act on each op.
        """
        self.sdc = injector

    # --- per-op costing --------------------------------------------------

    def _transfer_us(self, op: TpuOpWork) -> float:
        return op.num_bytes / self.spec.infeed_bandwidth * 1e6

    def _op_duration_us(self, op: TpuOpWork, data_wait_us: float) -> float:
        if op.category is TpuOpCategory.COMPUTE:
            return op.fixed_us + self.mxu.compute_time_us(op.flops, op.efficiency)
        if op.category is TpuOpCategory.MEMORY:
            return op.fixed_us + self.hbm.transfer_time_us(op.num_bytes, streams=2)
        if op.category in (TpuOpCategory.INFEED, TpuOpCategory.OUTFEED):
            return op.fixed_us + data_wait_us + self._transfer_us(op)
        return op.fixed_us  # SYNC

    def _plan(self, schedule: Sequence[TpuOpWork]) -> StepPlan:
        """The cost plan of ``schedule`` on this chip.

        Plans of tuple schedules are cached by identity, which is safe
        because the plan holds the tuple and a tuple cannot change; any
        other sequence is planned afresh on every call.
        """
        cacheable = type(schedule) is tuple
        plan = self._plans.get(id(schedule)) if cacheable else None
        if plan is None:
            plan = self._build_plan(tuple(schedule))
            if cacheable:
                self._plans[id(schedule)] = plan
        return plan

    def _build_plan(self, schedule: tuple[TpuOpWork, ...]) -> StepPlan:
        base = np.array([self._op_duration_us(op, 0.0) for op in schedule], dtype=np.float64)
        base.flags.writeable = False
        infeeds = []
        idle = []
        mxu_flops = 0.0
        for index, op in enumerate(schedule):
            if op.category is TpuOpCategory.INFEED:
                infeeds.append((index, op.fixed_us, self._transfer_us(op)))
            if op.category in (TpuOpCategory.INFEED, TpuOpCategory.OUTFEED):
                idle.append(index)
            if op.uses_mxu:
                mxu_flops += op.flops
        return StepPlan(
            schedule=schedule,
            names=tuple(op.name for op in schedule),
            base_us=base,
            infeeds=tuple(infeeds),
            idle=tuple(idle),
            mxu_flops=mxu_flops,
        )

    # --- step execution ---------------------------------------------------

    def execute_step(
        self,
        step_number: int,
        schedule: Sequence[TpuOpWork],
        start_us: float,
        infeed_ready_us: float = 0.0,
    ) -> StepExecution:
        """Run one step's schedule sequentially starting at ``start_us``.

        ``infeed_ready_us`` is the simulation time at which the host has
        fully staged this step's batch; an INFEED op issued before that
        time stalls the device, and the stall is accounted as idle time.
        """
        if self.sdc is not None:
            result = self._execute_per_op(step_number, schedule, start_us, infeed_ready_us)
        else:
            result = self._execute_planned(
                self._plan(schedule), step_number, start_us, infeed_ready_us
            )
        self.total_busy_us += result.elapsed_us - result.idle_us
        self.total_idle_us += result.idle_us
        self.total_mxu_flops += result.mxu_flops
        return result

    def _execute_planned(
        self, plan: StepPlan, step_number: int, start_us: float, infeed_ready_us: float
    ) -> StepExecution:
        """Lay the plan out from ``start_us``; no per-op Python work.

        ``times`` holds ``start_us`` followed by the durations, and a
        running sum turns it into each op's start and, last, the step's
        end. ``np.add.accumulate`` adds in order, so every time is the
        same float as ``now += duration`` would give. The running sum
        stops at each INFEED op to evaluate its wait from the time it is
        issued.
        """
        durations = plan.base_us
        times = np.empty(len(durations) + 1)
        times[0] = start_us
        times[1:] = durations
        done = 0
        for index, fixed_us, transfer_us in plan.infeeds:
            np.add.accumulate(times[done : index + 1], out=times[done : index + 1])
            wait = max(0.0, infeed_ready_us - float(times[index]))
            duration = (fixed_us + wait) + transfer_us
            if duration != durations[index]:
                if durations is plan.base_us:
                    durations = durations.copy()
                durations[index] = duration
                times[index + 1] = duration
            done = index
        np.add.accumulate(times[done:], out=times[done:])
        idle_us = 0.0
        for index in plan.idle:
            idle_us += float(durations[index])
        return StepExecution(
            step_number=step_number,
            start_us=start_us,
            end_us=float(times[-1]),
            idle_us=idle_us,
            mxu_flops=plan.mxu_flops,
            ops=plan.schedule,
            names=plan.names,
            starts=times[:-1],
            durations=durations,
        )

    def _execute_per_op(
        self,
        step_number: int,
        schedule: Sequence[TpuOpWork],
        start_us: float,
        infeed_ready_us: float,
    ) -> StepExecution:
        """Run the schedule op by op, letting the SDC injector act on each op."""
        starts: list[float] = []
        durations: list[float] = []
        idle_us = 0.0
        mxu_flops = 0.0
        now = start_us
        sdc = self.sdc
        active = sdc.begin_step()
        collect = sdc.digests
        digest = DIGEST_SEED
        for op in schedule:
            data_wait = 0.0
            if op.category is TpuOpCategory.INFEED:
                data_wait = max(0.0, infeed_ready_us - now)
            duration = self._op_duration_us(op, data_wait)
            flops_credit = op.flops
            salt = 0
            if active:
                effect = sdc.corrupt(op)
                if effect is not None:
                    duration *= effect.duration_scale
                    flops_credit = op.flops * effect.flops_scale
                    salt = effect.digest_salt
            if collect:
                digest = fold_digest(digest, op.name, duration, salt)
            starts.append(now)
            durations.append(duration)
            now += duration
            if op.category in (TpuOpCategory.INFEED, TpuOpCategory.OUTFEED):
                idle_us += duration
            if op.uses_mxu:
                mxu_flops += flops_credit
        schedule = tuple(schedule)
        return StepExecution(
            step_number=step_number,
            start_us=start_us,
            end_us=now,
            idle_us=idle_us,
            mxu_flops=mxu_flops,
            output_digest=digest if collect else None,
            ops=schedule,
            names=tuple(op.name for op in schedule),
            starts=np.array(starts, dtype=np.float64),
            durations=np.array(durations, dtype=np.float64),
        )

    # --- aggregate metrics --------------------------------------------------

    @property
    def total_elapsed_us(self) -> float:
        """Busy plus idle time accumulated across all executed steps."""
        return self.total_busy_us + self.total_idle_us

    def idle_fraction(self) -> float:
        """Lifetime fraction of time the device spent idle."""
        elapsed = self.total_elapsed_us
        if elapsed <= 0:
            return 0.0
        return self.total_idle_us / elapsed

    def mxu_utilization(self) -> float:
        """Lifetime achieved matmul FLOPs as a fraction of peak."""
        elapsed = self.total_elapsed_us
        if elapsed <= 0:
            return 0.0
        achieved = self.total_mxu_flops / (elapsed / 1e6)
        return min(achieved / self.spec.peak_flops, 1.0)

    def reset(self) -> None:
        """Clear accumulated counters and device memory."""
        self.total_busy_us = 0.0
        self.total_idle_us = 0.0
        self.total_mxu_flops = 0.0
        self.hbm.reset()
