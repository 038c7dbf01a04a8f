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
folding and the feature builder read them; :class:`OperatorTable` is
the one place their counts and durations are added up.

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


@lru_cache(maxsize=256)
def _fold_layout(names: tuple[str, ...], device: str):
    """How a block with these op names, on the device of this value, folds into totals.

    Keyed by the device's value, not the member: an enum member hashes
    in Python code, and this runs once per block.

    Returns the operator keys of the distinct names in first-appearance
    order and their counts, the table shape ``(distinct names, 1 + most
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
    keys = tuple((name, device) for name in rows)
    return keys, tuple(counts), (len(counts), width), np.array(slots, dtype=np.intp)


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

    def _append(self, key: tuple[str, str], count: int, duration: float) -> None:
        self.index[key] = len(self.counts)
        self.counts.append(count)
        self.durations.append(duration)

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

    def add_event(self, name: str, device: DeviceKind, duration_us: float) -> None:
        """Add one operator invocation."""
        key = (name, device._value_)
        position = self.index.get(key)
        if position is None:
            self._append(key, 1, 0.0 + duration_us)
        else:
            self.counts[position] += 1
            self.durations[position] += duration_us

    def add_block(self, block: OpBlock) -> None:
        """Add a block's executions; the same result as ``add_event`` on each in turn.

        Each operator's total must be the same float as adding its
        durations one by one, in log order, to its current total. The
        durations are gathered into one row per operator, after its
        current total, and ``np.cumsum`` adds along each row in order;
        rows are padded with 0.0, which leaves a non-negative total
        unchanged. A pairwise sum (``np.sum``) would round differently,
        and so would Python's ``sum()`` from 3.12 on, which compensates.

        A block whose keys are all new to the table is appended in one
        pass, and when each of its names occurs once an operator's total
        is ``0.0 + d`` with no row table at all.
        """
        keys, counts, shape, slots = _fold_layout(block.names, block.device._value_)
        index = self.index
        if index.keys().isdisjoint(keys):
            if shape[1] == 2:
                totals = (block.durations + 0.0).tolist()
            else:
                table = np.zeros(shape)
                table.put(slots, block.durations)
                totals = table.cumsum(axis=1)[:, -1].tolist()
            index.update(zip(keys, range(len(self.counts), len(self.counts) + len(keys))))
            self.counts.extend(counts)
            self.durations.extend(totals)
            return
        found = [index.get(key) for key in keys]
        table = np.zeros(shape)
        table.put(slots, block.durations)
        table[:, 0] = [0.0 if at is None else self.durations[at] for at in found]
        totals = table.cumsum(axis=1)[:, -1].tolist()
        for key, count, total, position in zip(keys, counts, totals, found):
            if position is None:
                self._append(key, count, total)
            else:
                self.counts[position] += count
                self.durations[position] = total

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
        tables: dict[int, OperatorTable] = {}
        for entry in response.entries:
            table = tables.get(entry.step)
            if table is None:
                table = tables[entry.step] = OperatorTable()
            if isinstance(entry, OpBlock):
                table.add_block(entry)
            else:
                table.add_event(entry.name, entry.device, entry.duration_us)
        steps = record.steps
        for number, table in tables.items():
            steps[number] = StepStats(step=number, columns=table.freeze())
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
