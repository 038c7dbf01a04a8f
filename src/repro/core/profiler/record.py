"""Statistical profile records.

TPUPoint-Profiler does not keep raw event streams: to bound memory and
accelerate post-processing, it reduces each profile response to *per-step
operator statistics* — for every (step, device, operator) the number of
invocations and the accumulated duration — plus the device metadata (TPU
idle time, MXU utilization) the response carries (Section III-A).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from repro.errors import ProfilerError
from repro.runtime.events import DeviceKind, OpBlock, StepKind, StepMetadata
from repro.runtime.rpc import ProfileResponse


@lru_cache(maxsize=256)
def _fold_layout(names: tuple[str, ...], device: DeviceKind):
    """How a block with these op names folds into per-operator totals.

    Returns the distinct names in first-appearance order, their operator
    keys and counts, the table shape ``(distinct names, 1 + most
    occurrences)``, and for each op the flat table slot it fills: row
    of its name, column 1 + its occurrence number. Column 0 holds the
    operator's current total, and unused slots stay 0.0.
    """
    rows: dict[str, int] = {}
    counts: list[int] = []
    slots: list[int] = []
    for name in names:
        row = rows.setdefault(name, len(rows))
        if row == len(counts):
            counts.append(0)
        counts[row] += 1
        slots.append(row)
    width = 1 + max(counts, default=0)
    seen = [0] * len(counts)
    for index, row in enumerate(slots):
        seen[row] += 1
        slots[index] = row * width + seen[row]
    keys = tuple((name, device.value) for name in rows)
    return tuple(rows), keys, tuple(counts), (len(counts), width), np.array(slots, dtype=np.intp)


@dataclass
class OperatorStats:
    """Accumulated statistics for one operator within one step."""

    name: str
    device: DeviceKind
    count: int = 0
    total_duration_us: float = 0.0

    def observe(self, duration_us: float) -> None:
        """Fold one invocation into the stats."""
        self.count += 1
        self.total_duration_us += duration_us

    def merge(self, other: "OperatorStats") -> None:
        """Fold another stats object for the same operator into this one."""
        if (other.name, other.device) != (self.name, self.device):
            raise ProfilerError("cannot merge stats of different operators")
        self.count += other.count
        self.total_duration_us += other.total_duration_us


@dataclass
class StepStats:
    """All operator statistics for one step."""

    step: int
    operators: dict[tuple[str, str], OperatorStats] = field(default_factory=dict)
    kind: StepKind | None = None
    start_us: float = 0.0
    end_us: float = 0.0
    tpu_idle_us: float = 0.0
    mxu_flops: float = 0.0

    def observe(self, name: str, device: DeviceKind, duration_us: float) -> None:
        """Fold one operator invocation into the step."""
        key = (name, device.value)
        stats = self.operators.get(key)
        if stats is None:
            stats = OperatorStats(name=name, device=device)
            self.operators[key] = stats
        stats.observe(duration_us)

    def observe_block(self, block: OpBlock) -> None:
        """Fold a block's executions; the same result as ``observe`` on each in turn.

        Each operator's total must be the same float as adding its
        durations one by one, in log order, to its current total. The
        durations are gathered into one row per operator, after its
        current total, and ``np.cumsum`` adds along each row in order;
        rows are padded with 0.0, which leaves a non-negative total
        unchanged. A pairwise sum (``np.sum``) would round differently,
        and so would Python's ``sum()`` from 3.12 on, which compensates.
        """
        names, keys, counts, shape, slots = _fold_layout(block.names, block.device)
        operators = self.operators
        found = [operators.get(key) for key in keys]
        table = np.zeros(shape)
        table.put(slots, block.durations)
        if any(found):
            table[:, 0] = [0.0 if stats is None else stats.total_duration_us for stats in found]
        totals = table.cumsum(axis=1)[:, -1].tolist()
        device = block.device
        for name, key, count, total, stats in zip(names, keys, counts, totals, found):
            if stats is None:
                operators[key] = OperatorStats(
                    name=name, device=device, count=count, total_duration_us=total
                )
            else:
                stats.count += count
                stats.total_duration_us = total

    def attach_metadata(self, metadata: StepMetadata) -> None:
        """Attach the device counters reported for this step."""
        if metadata.step != self.step:
            raise ProfilerError(
                f"metadata for step {metadata.step} attached to step {self.step}"
            )
        self.kind = metadata.kind
        self.start_us = metadata.start_us
        self.end_us = metadata.end_us
        self.tpu_idle_us = metadata.tpu_idle_us
        self.mxu_flops = metadata.mxu_flops

    @property
    def elapsed_us(self) -> float:
        return max(0.0, self.end_us - self.start_us)

    @property
    def event_set(self) -> frozenset[tuple[str, str]]:
        """The set of unique events in the step (OLS's Equation 1 input)."""
        return frozenset(self.operators)

    def total_duration_us(self, device: DeviceKind | None = None) -> float:
        """Accumulated operator time, optionally restricted to one device."""
        return sum(
            stats.total_duration_us
            for stats in self.operators.values()
            if device is None or stats.device is device
        )

    def merge(self, other: "StepStats") -> None:
        """Fold a later record's view of the same step into this one."""
        if other.step != self.step:
            raise ProfilerError("cannot merge stats of different steps")
        for key, stats in other.operators.items():
            if key in self.operators:
                self.operators[key].merge(stats)
            else:
                self.operators[key] = OperatorStats(
                    name=stats.name,
                    device=stats.device,
                    count=stats.count,
                    total_duration_us=stats.total_duration_us,
                )
        if other.kind is not None:
            self.kind = other.kind
            self.start_us = other.start_us
            self.end_us = other.end_us
            self.tpu_idle_us = other.tpu_idle_us
            self.mxu_flops = other.mxu_flops


@dataclass
class ProfileRecord:
    """The statistical summary of one profile response.

    This is what the recording thread persists: per-step operator stats
    and the profile window's device metadata. Raw events are dropped.
    """

    index: int
    window_start_us: float
    window_end_us: float
    steps: dict[int, StepStats] = field(default_factory=dict)
    truncated: bool = False
    final: bool = False

    @classmethod
    def from_response(cls, index: int, response: ProfileResponse) -> "ProfileRecord":
        """Reduce a raw profile response into a statistical record."""
        record = cls(
            index=index,
            window_start_us=response.window_start_us,
            window_end_us=response.window_end_us,
            truncated=response.truncated,
            final=response.final,
        )
        for entry in response.entries:
            step = record.steps.get(entry.step)
            if step is None:
                step = StepStats(step=entry.step)
                record.steps[entry.step] = step
            if isinstance(entry, OpBlock):
                step.observe_block(entry)
            else:
                step.observe(entry.name, entry.device, entry.duration_us)
        for metadata in response.step_metadata:
            step = record.steps.get(metadata.step)
            if step is None:
                step = StepStats(step=metadata.step)
                record.steps[metadata.step] = step
            step.attach_metadata(metadata)
        return record

    @property
    def num_steps(self) -> int:
        return len(self.steps)

    @property
    def duration_ms(self) -> float:
        return (self.window_end_us - self.window_start_us) / 1000.0

    def estimated_bytes(self) -> float:
        """Approximate serialized size (for the recording thread's writes)."""
        operators = sum(len(step.operators) for step in self.steps.values())
        return 64.0 + 48.0 * self.num_steps + 40.0 * operators
