"""Statistical profile records.

TPUPoint-Profiler does not keep raw event streams: to bound memory and
accelerate post-processing, it reduces each profile response to *per-step
operator statistics* — for every (step, device, operator) the number of
invocations and the accumulated duration — plus the device metadata (TPU
idle time, MXU utilization) the response carries (Section III-A).

A step's operator statistics are a table with one row per operator, in
insertion order. :class:`OperatorColumns` holds that table as four
position-aligned tuples — (name, device) key, device, count and total
duration — and is never changed once built, so a step can be shared by
a record, a step stream and a live job without copying. The codec
decodes into columns and writes from them, and step assembly, live
folding and the feature builder read them. A profile response's
executions become columns in one fold per step, from a plan compiled
once per step layout (:func:`_step_plan`); :class:`OperatorTable` is
where columns are added up.

:attr:`StepStats.operators` is the same table as a dict of
:class:`OperatorStats`, for cold readers and for code that builds steps
by hand. A step holds exactly one of the two at a time: reading
``operators`` turns the step's columns into the dict, which from then
on is its one source of truth, and ``columns`` of such a step is
rebuilt from the dict on every read.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from operator import itemgetter
from typing import NamedTuple

import numpy as np

from repro.errors import ProfilerError
from repro.runtime.events import DeviceKind, OpBlock, StepKind, StepMetadata
from repro.runtime.rpc import ProfileResponse


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


class OperatorColumns(NamedTuple):
    """One step's operator statistics as position-aligned, immutable columns.

    Entry ``i`` of every column describes one operator; entries keep
    insertion order, which is the codec's order. Keys are unique.
    """

    keys: tuple[tuple[str, str], ...] = ()
    devices: tuple[DeviceKind, ...] = ()
    counts: tuple[int, ...] = ()
    durations: tuple[float, ...] = ()

    @classmethod
    def from_operators(
        cls, operators: dict[tuple[str, str], OperatorStats]
    ) -> "OperatorColumns":
        """The columns of a dict of stats, in its iteration order."""
        stats = operators.values()
        return _tuple_new(
            cls,
            (
                tuple(operators),
                tuple([entry.device for entry in stats]),
                tuple([entry.count for entry in stats]),
                tuple([entry.total_duration_us for entry in stats]),
            ),
        )

    def to_operators(self) -> dict[tuple[str, str], OperatorStats]:
        """The columns as a fresh dict of :class:`OperatorStats`."""
        return {
            key: OperatorStats(
                name=key[0], device=device, count=count, total_duration_us=duration
            )
            for key, device, count, duration in zip(*self)
        }

    def merged(self, other: "OperatorColumns") -> "OperatorColumns":
        """New columns: these, with a later view of the same step added."""
        if not other.keys:
            return self
        if not self.keys:
            return other
        table = OperatorTable(self)
        table.add(other)
        return table.freeze()


EMPTY_COLUMNS = OperatorColumns()


#: ``_tuple_new(OperatorColumns, fields)`` is ``OperatorColumns(*fields)``
#: without the named tuple's Python-level ``__new__``: hot paths build
#: columns on every visit to a step, and that call costs more than the
#: tuple it fills.
_tuple_new = tuple.__new__

_DEVICE_BY_VALUE = {device.value: device for device in DeviceKind}


class OperatorTable:
    """A growing operator table: the mutable counterpart of :class:`OperatorColumns`.

    Adding an operator already in the table adds its count and duration
    to the entry in place, one float addition per view, in the order
    the views arrive; a new operator is appended in the order of the
    view that brought it. Live phases accumulate in one, and every merge
    of columns goes through one. An entry's position is its place in
    :attr:`index`, whose keys are the table's keys in insertion order.
    """

    __slots__ = ("index", "counts", "durations")

    def __init__(self, columns: OperatorColumns = EMPTY_COLUMNS):
        self.index = dict(zip(columns.keys, range(len(columns.keys))))
        self.counts = list(columns.counts)
        self.durations = list(columns.durations)

    def __len__(self) -> int:
        return len(self.counts)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, OperatorTable):
            return NotImplemented
        # Equal indexes map every key to the same position, so this
        # compares the entries in insertion order.
        return (
            self.index == other.index
            and self.counts == other.counts
            and self.durations == other.durations
        )

    __hash__ = None  # type: ignore[assignment]

    def __repr__(self) -> str:
        entries = dict(zip(self.index, zip(self.counts, self.durations)))
        return f"OperatorTable({entries!r})"

    def add(self, columns: OperatorColumns) -> None:
        """Add one step's columns."""
        index, counts, durations = self.index, self.counts, self.durations
        for key, count, duration in zip(columns.keys, columns.counts, columns.durations):
            position = index.get(key)
            if position is None:
                index[key] = len(counts)
                counts.append(count)
                durations.append(duration)
            else:
                counts[position] += count
                durations[position] += duration

    def freeze(self) -> OperatorColumns:
        """The table as immutable columns."""
        keys = tuple(self.index)
        return OperatorColumns(
            keys,
            tuple(map(_DEVICE_BY_VALUE.__getitem__, map(itemgetter(1), keys))),
            tuple(self.counts),
            tuple(self.durations),
        )

    def ranked(
        self, k: int, device: DeviceKind | None = None
    ) -> list[tuple[tuple[str, str], int]]:
        """``(key, position)`` of the ``k`` longest operators, longest first.

        Ties keep insertion order; ``device`` restricts to one device.
        """
        durations = self.durations
        if device is None:
            entries = list(self.index.items())
        else:
            value = device._value_  # ``.value`` is a property; this is its store
            entries = [entry for entry in self.index.items() if entry[0][1] == value]
        entries.sort(key=lambda entry: -durations[entry[1]])
        return entries[:k]

    def stats(self, key: tuple[str, str], position: int) -> OperatorStats:
        """The entry of ``key`` at ``position`` as a fresh :class:`OperatorStats`."""
        return OperatorStats(
            name=key[0],
            device=_DEVICE_BY_VALUE[key[1]],
            count=self.counts[position],
            total_duration_us=self.durations[position],
        )


class StepStats:
    """All operator statistics for one step, plus its device metadata.

    The statistics live in columns or in the :attr:`operators` dict,
    never both (see the module docstring). The columns are held inline,
    not as an :class:`OperatorColumns` object, so a retained step is one
    object for the garbage collector to visit; :attr:`columns` wraps
    them on each read.
    """

    __slots__ = (
        "step",
        "kind",
        "start_us",
        "end_us",
        "tpu_idle_us",
        "mxu_flops",
        "_keys",
        "_devices",
        "_counts",
        "_durations",
        "_operators",
    )

    def __init__(
        self,
        step: int,
        operators: dict[tuple[str, str], OperatorStats] | None = None,
        kind: StepKind | None = None,
        start_us: float = 0.0,
        end_us: float = 0.0,
        tpu_idle_us: float = 0.0,
        mxu_flops: float = 0.0,
        columns: OperatorColumns | None = None,
    ):
        if operators is not None and columns is not None:
            raise ProfilerError("a step holds an operator dict or columns, not both")
        self.step = step
        self.kind = kind
        self.start_us = start_us
        self.end_us = end_us
        self.tpu_idle_us = tpu_idle_us
        self.mxu_flops = mxu_flops
        self._operators = operators
        self._keys, self._devices, self._counts, self._durations = (
            EMPTY_COLUMNS if columns is None else columns
        )

    def __repr__(self) -> str:
        return (
            f"StepStats(step={self.step!r}, kind={self.kind!r}, "
            f"operators={len(self.columns.keys)})"
        )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, StepStats):
            return NotImplemented
        return self._metadata() == other._metadata() and _as_dict(
            self.columns
        ) == _as_dict(other.columns)

    __hash__ = None  # type: ignore[assignment]

    @property
    def columns(self) -> OperatorColumns:
        """The operator statistics as immutable columns (hot-path readers)."""
        if self._operators is None:
            return _tuple_new(
                OperatorColumns, (self._keys, self._devices, self._counts, self._durations)
            )
        return OperatorColumns.from_operators(self._operators)

    @property
    def operators(self) -> dict[tuple[str, str], OperatorStats]:
        """The operator statistics as a dict of stats keyed by (name, device value).

        For cold readers and hand-built steps. Reading it makes the dict
        the step's source of truth, so edits to it are what every later
        reader, the codec included, sees.
        """
        if self._operators is None:
            self._operators = self.columns.to_operators()
            self._keys, self._devices, self._counts, self._durations = EMPTY_COLUMNS
        return self._operators

    def observe(self, name: str, device: DeviceKind, duration_us: float) -> None:
        """Fold one operator invocation into the step."""
        key = (name, device.value)
        operators = self.operators
        stats = operators.get(key)
        if stats is None:
            stats = OperatorStats(name=name, device=device)
            operators[key] = stats
        stats.observe(duration_us)

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

    def _metadata(self) -> tuple:
        return (
            self.step,
            self.kind,
            self.start_us,
            self.end_us,
            self.tpu_idle_us,
            self.mxu_flops,
        )

    @property
    def elapsed_us(self) -> float:
        return max(0.0, self.end_us - self.start_us)

    @property
    def event_set(self) -> frozenset[tuple[str, str]]:
        """The set of unique events in the step (OLS's Equation 1 input)."""
        if self._operators is None:
            return frozenset(self._keys)
        return frozenset(self._operators)

    def total_duration_us(self, device: DeviceKind | None = None) -> float:
        """Accumulated operator time, optionally restricted to one device."""
        columns = self.columns
        return sum(
            duration
            for owner, duration in zip(columns.devices, columns.durations)
            if device is None or owner is device
        )


def _as_dict(columns: OperatorColumns) -> dict:
    keys, devices, counts, durations = columns
    return dict(zip(keys, zip(devices, counts, durations)))


def fold_view(pending: StepStats | None, view: StepStats) -> StepStats:
    """The step assembled so far with one more record's view of it folded in.

    Neither argument changes. With nothing pending, a view that holds
    columns and metadata is returned as it is: its columns never change,
    so adopting it copies nothing. Otherwise the result is a new step:
    counts and durations of operators in both are added, new operators
    are appended in the view's order, and the metadata is the view's
    when it carries any (``kind`` set), else the pending step's.
    """
    if pending is None:
        if view.kind is not None and view._operators is None:
            return view
        pending = StepStats(step=view.step)
    elif view.step != pending.step:
        raise ProfilerError("cannot merge stats of different steps")
    source = view if view.kind is not None else pending
    return StepStats(
        view.step,
        kind=source.kind,
        start_us=source.start_us,
        end_us=source.end_us,
        tpu_idle_us=source.tpu_idle_us,
        mxu_flops=source.mxu_flops,
        columns=pending.columns.merged(view.columns),
    )


#: Step layouts :func:`_step_plan` keeps compiled. A step's layout is
#: the sequence of op names and devices its entries log, and a
#: profiled job repeats a few of them step after step: on one seed-1
#: benchmark episode, the first pass found 78 layouts for 1,504 offline
#: steps (94.8% repeats) and 41 for fleet-live's 1,823 (97.8%). A
#: repeat skips the compile; a layout that never repeats pays it, about
#: what the per-block layouts it replaced cost (docs/performance.md,
#: "Compiled step folds and record layouts").
STEP_PLANS = 256


@lru_cache(maxsize=STEP_PLANS)
def _step_plan(layout: tuple[tuple[tuple[str, ...] | str, str], ...]):
    """How a step whose entries log these op names and devices folds into columns.

    ``layout`` holds one ``(names, device value)`` pair per entry of the
    step, in log order: a block's tuple of names (a cut block's are its
    slice), or an event's one name as a string. The device is its
    value, not the member: an enum member hashes in Python code. The
    step's durations arrive as its blocks' durations in log order,
    then its events'.

    Returns the step's operator keys in first-appearance order, their
    devices and counts, and how to add up their durations: None when
    every key occurs once and the durations arrive in key order, else
    a buffer layout. The buffer starts with a table of one row per key
    that occurs more than once, ``width`` = 1 + its most occurrences
    wide, then holds one cell per key that occurs once. ``slots`` gives,
    for each duration as it arrives, the cell it fills: its key's row
    at column 1 + its occurrence number in log order, or its single
    key's cell. Column 0 is the 0.0 each total starts from, and unused
    cells stay 0.0. ``ends`` gives, for each key in key order, the cell
    its total ends in.
    """
    tables: dict[str, dict[str, int]] = {}  # device value -> name -> row
    keys: list[tuple[str, str]] = []
    counts: list[int] = []
    # Row and occurrence number of each execution, blocks' and events' apart.
    block_rows, block_seen, event_rows, event_seen = [], [], [], []
    reordered = False  # whether an event precedes a block's execution
    for names, device in layout:
        table = tables.setdefault(device, {})
        if isinstance(names, str):
            names, rows, seen = (names,), event_rows, event_seen
        else:
            rows, seen = block_rows, block_seen
            reordered = reordered or bool(event_rows)
        for name in names:
            row = table.get(name)
            if row is None:
                row = table[name] = len(keys)
                keys.append((name, device))
                counts.append(0)
            counts[row] += 1
            rows.append(row)
            seen.append(counts[row])
    keys = tuple(keys)
    devices = tuple([_DEVICE_BY_VALUE[device] for _, device in keys])
    width = 1 + max(counts, default=0)
    if width <= 2 and not reordered:
        return keys, devices, tuple(counts), None
    # Occurrence j of a key fills cell base + j; a total ends in ``ends``.
    base = [0] * len(counts)
    ends = [0] * len(counts)
    size = 0
    for row, count in enumerate(counts):
        if count > 1:
            base[row], ends[row] = size, size + width - 1
            size += width
    repeated = size // width
    for row, count in enumerate(counts):
        if count == 1:
            base[row], ends[row] = size - 1, size
            size += 1
    slots = np.take(base, block_rows + event_rows) + np.array(block_seen + event_seen)
    fold = (size, repeated, width, slots, np.array(ends, dtype=np.intp))
    return keys, devices, tuple(counts), fold


def _fold_step(entries: list) -> OperatorColumns:
    """The columns of one step's executions, ``entries`` in log order.

    A key's total is 0.0 plus its durations added one at a time in log
    order, blocks and events alike. The step's durations are gathered
    in one array and put into the plan's buffer, a repeated key's in
    one table row after its 0.0, and ``np.cumsum`` adds along each row
    in order; padding adds 0.0, which leaves a total unchanged (a total
    is never -0.0). A pairwise sum (``np.sum``) would round
    differently, and so would Python's ``sum()`` from 3.12 on, which
    compensates. A key that occurs once totals ``d + 0.0``, which turns
    -0.0 into 0.0 as adding to 0.0 does; the same ``+ 0.0`` leaves a
    repeated key's total as it is.
    """
    layout = []
    arrays = []
    events = []
    for entry in entries:
        if isinstance(entry, OpBlock):
            layout.append((entry.names, entry.device._value_))
            arrays.append(entry.durations)
        else:
            layout.append((entry.name, entry.device._value_))
            events.append(entry.duration_us)
    keys, devices, counts, fold = _step_plan(tuple(layout))
    arrays.append(events)
    durations = np.concatenate(arrays)
    if fold is None:
        totals = durations + 0.0
    else:
        size, rows, width, slots, ends = fold
        buffer = np.zeros(size)
        buffer.put(slots, durations)
        table = buffer[: rows * width].reshape(rows, width)
        table.cumsum(axis=1, out=table)
        totals = buffer.take(ends) + 0.0
    return _tuple_new(OperatorColumns, (keys, devices, counts, tuple(totals.tolist())))


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
        by_step: dict[int, list] = {}
        for entry in response.entries:
            entries = by_step.get(entry.step)
            if entries is None:
                by_step[entry.step] = [entry]
            else:
                entries.append(entry)
        steps = record.steps
        for number, entries in by_step.items():
            steps[number] = StepStats(step=number, columns=_fold_step(entries))
        for metadata in response.step_metadata:
            step = steps.get(metadata.step)
            if step is None:
                step = StepStats(step=metadata.step)
                steps[metadata.step] = step
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
        operators = sum(len(step.columns.keys) for step in self.steps.values())
        return 64.0 + 48.0 * self.num_steps + 40.0 * operators
