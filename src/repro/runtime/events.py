"""Trace events and the event log.

A running workload emits one operator execution per op on either device,
plus one :class:`StepMetadata` record per training step carrying the
device counters (idle time, MXU FLOPs) that the real Cloud TPU attaches
to profile responses. Executions that run back to back — a TPU step's
schedule, a host batch's production ops — are logged as one columnar
:class:`OpBlock`; single runtime ops are logged as :class:`TraceEvent`
records. The :class:`EventLog` keeps both in log order so the profile
service can serve bounded windows without copying history.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

import numpy as np

from repro.errors import SimulationError


class DeviceKind(enum.Enum):
    """Which processor an event ran on."""

    HOST = "host"
    TPU = "tpu"


class StepKind(enum.Enum):
    """Coarse role of a step in the training timeline."""

    INIT = "init"
    TRAIN = "train"
    EVAL = "eval"
    CHECKPOINT = "checkpoint"
    SHUTDOWN = "shutdown"


@dataclass(frozen=True, slots=True)
class TraceEvent:
    """One operator execution."""

    name: str
    device: DeviceKind
    step: int
    start_us: float
    duration_us: float

    @property
    def end_us(self) -> float:
        return self.start_us + self.duration_us


@dataclass(frozen=True, slots=True)
class StepMetadata:
    """Per-step device counters reported alongside events."""

    step: int
    kind: StepKind
    start_us: float
    end_us: float
    tpu_idle_us: float
    mxu_flops: float

    @property
    def elapsed_us(self) -> float:
        return self.end_us - self.start_us

    @property
    def idle_fraction(self) -> float:
        if self.elapsed_us <= 0:
            return 0.0
        return min(self.tpu_idle_us / self.elapsed_us, 1.0)


@dataclass(frozen=True, slots=True, eq=False)
class OpBlock:
    """Operator executions of one step on one device that ran back to back.

    Each op starts where the previous one ended, as laid out by
    ``now += duration``, so ``starts[i + 1]`` equals ``starts[i] +
    durations[i]`` exactly. ``starts`` and ``durations`` are float64
    arrays; durations are non-negative, so ends never decrease.
    """

    names: tuple[str, ...]
    device: DeviceKind
    step: int
    starts: np.ndarray
    durations: np.ndarray

    def __len__(self) -> int:
        return len(self.names)

    @property
    def ends(self) -> np.ndarray:
        return self.starts + self.durations

    @property
    def end_us(self) -> float:
        """End time of the block's last execution."""
        return float(self.starts[-1]) + float(self.durations[-1])

    def cut(self, begin: int, end: int) -> "OpBlock":
        """The executions ``begin:end`` as a block (arrays are views)."""
        return OpBlock(
            self.names[begin:end],
            self.device,
            self.step,
            self.starts[begin:end],
            self.durations[begin:end],
        )

    def events(self) -> list[TraceEvent]:
        """The block as :class:`TraceEvent` records, built on each call."""
        device, step = self.device, self.step
        return [
            TraceEvent(name, device, step, start, duration)
            for name, start, duration in zip(
                self.names, self.starts.tolist(), self.durations.tolist()
            )
        ]


def expand(entries) -> list[TraceEvent]:
    """Log entries (events and blocks) as one flat list of events."""
    events: list[TraceEvent] = []
    for entry in entries:
        if isinstance(entry, OpBlock):
            events.extend(entry.events())
        else:
            events.append(entry)
    return events


@dataclass
class EventLog:
    """Append-only buffer of operator executions and step metadata.

    ``entries`` holds the executions in log order, each a single
    :class:`TraceEvent` or a columnar :class:`OpBlock`; the profile
    service serves windows straight from them. ``events`` expands them
    into :class:`TraceEvent` records on each access, for callers that
    want one object per execution.

    ``steps`` holds the step metadata in step order. While no step
    starts or ends before the one logged ahead of it, which a training
    session guarantees, :meth:`steps_between` finds a window's steps
    from a cursor instead of scanning them all.
    """

    entries: list[TraceEvent | OpBlock] = field(default_factory=list)
    steps: list[StepMetadata] = field(default_factory=list)
    num_events: int = field(default=0, init=False)
    #: Whether step starts and ends never decrease in ``steps``.
    _steps_ordered: bool = field(default=True, init=False, repr=False)
    #: Where the last :meth:`steps_between` found its first step.
    _step_cursor: int = field(default=0, init=False, repr=False)

    def append_event(self, event: TraceEvent) -> None:
        """Record an operator execution."""
        self.entries.append(event)
        self.num_events += 1

    def append_block(self, block: OpBlock) -> None:
        """Record a block of back-to-back executions (empty blocks are dropped)."""
        if len(block):
            self.entries.append(block)
            self.num_events += len(block)

    def append_step(self, metadata: StepMetadata) -> None:
        """Record a completed step; steps must arrive in order."""
        if self.steps:
            last = self.steps[-1]
            if metadata.step <= last.step:
                raise SimulationError(
                    f"step metadata out of order: {metadata.step} after {last.step}"
                )
            # Written so that a NaN bound also counts as out of order.
            if not (metadata.start_us >= last.start_us and metadata.end_us >= last.end_us):
                self._steps_ordered = False
        self.steps.append(metadata)

    @property
    def events(self) -> list[TraceEvent]:
        """Every execution so far as a :class:`TraceEvent`, in log order."""
        return expand(self.entries)

    @property
    def last_time_us(self) -> float:
        """End time of the latest event recorded (0 when empty)."""
        if not self.entries:
            return 0.0
        return self.entries[-1].end_us

    def steps_between(self, start_us: float, end_us: float) -> list[StepMetadata]:
        """Step metadata whose interval overlaps [start_us, end_us), in step order.

        With ordered steps, the ones ending after ``start_us`` are a
        suffix of ``steps``, and the ones among them starting before
        ``end_us`` are a prefix of that suffix. The cursor walks to the
        suffix's first step from where the previous call found its own,
        backwards too: a window can start before the one served ahead of
        it. Profile windows advance a few steps at a time, so a call
        looks at a few steps however long the log is.
        """
        steps = self.steps
        if not self._steps_ordered:
            return [
                meta
                for meta in steps
                if meta.end_us > start_us and meta.start_us < end_us
            ]
        first = self._step_cursor
        while first > 0 and steps[first - 1].end_us > start_us:
            first -= 1
        while first < len(steps) and not steps[first].end_us > start_us:
            first += 1
        self._step_cursor = first
        last = first
        while last < len(steps) and steps[last].start_us < end_us:
            last += 1
        return steps[first:last]
