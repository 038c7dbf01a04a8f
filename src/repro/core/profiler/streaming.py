"""Streaming step assembly.

Profile windows slice the event stream by time, so one training step can
arrive split across consecutive records. Online consumers — the
paper's online linear scan, the optimizer's critical-phase detector —
need *completed* steps in order. :class:`StepStream` does that assembly
with O(1) state: it withholds only the newest (possibly still partial)
step and releases everything older, merging partial views as they
arrive.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator

from repro.core.profiler.record import ProfileRecord, StepStats, fold_view
from repro.errors import ProfilerError


@dataclass
class StepStream:
    """Assembles completed steps from a stream of profile records."""

    _pending: dict[int, StepStats] = field(default_factory=dict)
    _released_through: int = -1

    def submit(self, record: ProfileRecord) -> Iterator[StepStats]:
        """Fold one record in; yields steps that are now complete.

        A step is complete once a *later* step has been observed — the
        profiler never splits step N across a window boundary after step
        N+1 has started.
        """
        for number, stats in record.steps.items():
            if number <= self._released_through:
                raise ProfilerError(
                    f"record {record.index} revisits already-released step {number}"
                )
            self._pending[number] = fold_view(self._pending.get(number), stats)
        if not self._pending:
            return
        newest = max(self._pending)
        for number in sorted(self._pending):
            if number == newest:
                break
            yield self._pending.pop(number)
            self._released_through = number

    def flush(self) -> Iterator[StepStats]:
        """Release everything still pending (call at end of stream)."""
        for number in sorted(self._pending):
            yield self._pending.pop(number)
            self._released_through = number

    @property
    def pending_steps(self) -> int:
        """Steps currently withheld (at most one in normal operation)."""
        return len(self._pending)
