"""Bounded per-job ingestion queues.

Producers (training jobs) and the analysis drain run at different rates,
so each job gets a bounded queue between them. Overflow policy is
*drop-oldest*: a full queue admits the new record and discards the
stalest one, because for live phase detection the most recent window is
always the most valuable — exactly the trade the paper's profiler makes
when it caps profile windows rather than stalling the run.

Dropping a record is safe for :class:`~repro.core.profiler.streaming.StepStream`:
records only ever carry steps at or after the newest step already seen,
so a gap never triggers the revisit guard — the affected steps are
simply observed with partial statistics (lossy, never corrupt).

Backpressure is explicit: :meth:`IngestQueue.offer` reports whether the
queue had to shed load, and producers can consult
:attr:`IngestQueue.remaining_capacity` to throttle before that happens.

Records reach the queue decoded from their wire frames, each step's
operator statistics as immutable columns
(:class:`~repro.core.profiler.record.OperatorColumns`).
:func:`validate_record` clears a sound step with one ``min()`` per
column, and the step stream later adopts those steps without copying
them: nothing between the frame and the live fold builds an object per
operator.

Producers may live on real threads, so each queue serializes its own
mutations with a lock: the depth check, the shed, the append, and the
counters in :meth:`IngestQueue.offer` are one atomic step, never
interleaved with another producer's (or the drain's).
"""

from __future__ import annotations

import threading
from collections import deque
from dataclasses import dataclass, field
from typing import Iterator

from repro.core.profiler.record import ProfileRecord
from repro.core.profiler.serialize import record_checksum
from repro.errors import ServeError

DEFAULT_QUEUE_CAPACITY = 64


def validate_record(record: ProfileRecord, checksum: int | None = None) -> str | None:
    """Why ``record`` must be quarantined, or None when it is sound.

    Structural checks catch mangling that survives serialization (a step
    filed under the wrong key, negative counters, an inverted window);
    the optional producer-side ``checksum`` catches everything else that
    changed in transit.
    """
    if record.index < 0:
        return f"negative record index {record.index}"
    if record.window_end_us < record.window_start_us:
        return (
            f"inverted window [{record.window_start_us:g}, "
            f"{record.window_end_us:g}]"
        )
    for key, step in record.steps.items():
        if key != step.step:
            return f"step {step.step} filed under key {key}"
        keys, _, counts, durations = step.columns
        # One C-level min() per column clears a sound step; NaN can hide
        # a negative from min(), so anything short of ">= 0" is walked.
        if keys and not (min(counts) >= 0 and min(durations) >= 0):
            for (name, _), count, duration in zip(keys, counts, durations):
                if count < 0:
                    return f"negative count for operator {name!r}"
                if duration < 0:
                    return f"negative duration for operator {name!r}"
    if checksum is not None and record_checksum(record) != checksum:
        return "checksum mismatch (record corrupted in transit)"
    return None


@dataclass(frozen=True)
class IngestAck:
    """Outcome of one record submission."""

    job_id: str
    accepted: bool
    dropped: int
    depth: int

    @property
    def overloaded(self) -> bool:
        """Whether the producer should back off."""
        return self.dropped > 0


@dataclass
class IngestQueue:
    """A bounded FIFO of profile records for one job."""

    job_id: str
    capacity: int = DEFAULT_QUEUE_CAPACITY
    _records: deque[ProfileRecord] = field(default_factory=deque)
    _lock: threading.Lock = field(default_factory=threading.Lock, repr=False)
    submitted: int = 0
    dropped: int = 0

    def __post_init__(self) -> None:
        if self.capacity <= 0:
            raise ServeError("ingest queue capacity must be positive")

    @property
    def depth(self) -> int:
        """Records currently waiting to be drained."""
        return len(self._records)

    @property
    def remaining_capacity(self) -> int:
        """Free slots before the next offer sheds the oldest record."""
        return self.capacity - self.depth

    def offer(self, record: ProfileRecord) -> IngestAck:
        """Enqueue one record, shedding the oldest on overflow.

        Atomic under the queue lock: two producers racing a full queue
        shed exactly one record each, and ``submitted``/``dropped``
        never under-count.
        """
        with self._lock:
            self.submitted += 1
            shed = 0
            if len(self._records) >= self.capacity:
                self._records.popleft()
                self.dropped += 1
                shed = 1
            self._records.append(record)
            return IngestAck(
                job_id=self.job_id, accepted=True, dropped=shed, depth=len(self._records)
            )

    def drain(self, max_records: int | None = None) -> Iterator[ProfileRecord]:
        """Pop queued records in FIFO order (all of them by default)."""
        popped = 0
        while max_records is None or popped < max_records:
            with self._lock:
                if not self._records:
                    return
                record = self._records.popleft()
            popped += 1
            yield record
