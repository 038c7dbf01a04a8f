"""gRPC-style profile service.

The real Cloud TPU exposes profiling through client→master gRPC calls;
each response may carry at most 1,000,000 events spanning at most
60,000 ms (Section III-A). This module reproduces that interface: the
:class:`ProfileService` sits between a running session's event log and
the TPUPoint profiler thread, serving bounded windows per request. The
profiler never touches the log directly — only request/response pairs —
so the boundary matches the paper's architecture.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.errors import ProfileServiceError
from repro.runtime.events import EventLog, OpBlock, StepMetadata, TraceEvent, expand

MAX_EVENTS_PER_PROFILE = 1_000_000
MAX_PROFILE_DURATION_MS = 60_000.0


@dataclass(frozen=True)
class ProfileRequest:
    """A profile request issued by a client stub.

    Attributes:
        max_events: event cap for the response (clamped to the service cap).
        max_duration_ms: window cap in milliseconds (clamped likewise).
        deadline_ms: client-side deadline for this request. The plain
            service always answers instantly and ignores it; a faulty
            service (:class:`repro.faults.FaultyProfileService`) honours
            it when injecting delays, surfacing DEADLINE_EXCEEDED.
    """

    max_events: int = MAX_EVENTS_PER_PROFILE
    max_duration_ms: float = MAX_PROFILE_DURATION_MS
    deadline_ms: float | None = None

    def __post_init__(self) -> None:
        if self.max_events <= 0:
            raise ProfileServiceError("max_events must be positive")
        if self.max_duration_ms <= 0:
            raise ProfileServiceError("max_duration_ms must be positive")
        if self.deadline_ms is not None and self.deadline_ms <= 0:
            raise ProfileServiceError("deadline_ms must be positive when set")


@dataclass(frozen=True)
class ProfileResponse:
    """One served profile window.

    Attributes:
        entries: executions inside the window, in log order: single
            :class:`TraceEvent` records and columnar :class:`OpBlock`
            runs. A block that a cap cuts arrives in slices, one per
            window. ``events`` builds one :class:`TraceEvent` per
            execution on demand; the profiler folds the entries as they
            are.
        step_metadata: per-step device counters overlapping the window.
        window_start_us / window_end_us: the window bounds.
        truncated: True when the event or duration cap cut the window short.
        final: True when the session is finished and the log is drained.
    """

    entries: tuple[TraceEvent | OpBlock, ...]
    step_metadata: tuple[StepMetadata, ...]
    window_start_us: float
    window_end_us: float
    truncated: bool
    final: bool

    @property
    def events(self) -> tuple[TraceEvent, ...]:
        """The window's executions as :class:`TraceEvent` records, built on each call."""
        return tuple(expand(self.entries))

    @property
    def num_events(self) -> int:
        return sum(len(entry) if isinstance(entry, OpBlock) else 1 for entry in self.entries)

    @property
    def duration_ms(self) -> float:
        return (self.window_end_us - self.window_start_us) / 1000.0


@dataclass
class ProfileService:
    """Serves sequential profile windows over one session's event log."""

    log: EventLog
    _window_start_us: float = 0.0
    requests_served: int = field(default=0)
    #: Read position in ``log.entries``: the next entry, and how many of
    #: its executions (for a block) earlier windows already served.
    _entry: int = field(default=0, init=False)
    _offset: int = field(default=0, init=False)

    def session_finished(self) -> bool:
        """Hook the session overrides; default assumes still running."""
        return False

    @property
    def window_start_us(self) -> float:
        """Where the next served window will begin."""
        return self._window_start_us

    def serve(self, request: ProfileRequest, finished: bool | None = None) -> ProfileResponse:
        """Serve the next profile window after the previous one.

        ``finished`` tells the service the training session has ended, so
        the response drains the remaining events and is marked final.

        The window stops at the first execution, in log order, that ends
        past the duration cap or would exceed the event cap. Inside a
        block ends never decrease: a block whose last end fits, and whose
        executions fit under the event cap, is taken whole, and otherwise
        a binary search over its ends finds the cut.
        """
        max_events = min(request.max_events, MAX_EVENTS_PER_PROFILE)
        max_duration_us = min(request.max_duration_ms, MAX_PROFILE_DURATION_MS) * 1000.0
        if finished is None:
            finished = self.session_finished()

        window_start = self._window_start_us
        window_limit = window_start + max_duration_us

        entries = self.log.entries
        taken: list[TraceEvent | OpBlock] = []
        count = 0
        window_end = None
        truncated = False
        index, offset = self._entry, self._offset
        while index < len(entries):
            entry = entries[index]
            if isinstance(entry, OpBlock):
                if offset == 0 and count + len(entry.names) <= max_events:
                    end = entry.end_us
                    if end <= window_limit:
                        taken.append(entry)
                        count += len(entry.names)
                        window_end = end if window_end is None else max(window_end, end)
                        index += 1
                        continue
                ends = entry.ends[offset:]
                fit = int(np.searchsorted(ends, window_limit, side="right"))
                fit = min(fit, max_events - count)
                if fit:
                    whole = offset == 0 and fit == len(entry)
                    taken.append(entry if whole else entry.cut(offset, offset + fit))
                    count += fit
                    end = float(ends[fit - 1])
                    window_end = end if window_end is None else max(window_end, end)
                if offset + fit < len(entry):
                    truncated = True
                    offset += fit
                    break
            else:
                if entry.end_us > window_limit or count >= max_events:
                    truncated = True
                    break
                taken.append(entry)
                count += 1
                end = entry.end_us
                window_end = end if window_end is None else max(window_end, end)
            index += 1
            offset = 0

        if window_end is None:
            window_end = window_limit if truncated else max(window_start, self.log.last_time_us)

        self._entry, self._offset = index, offset
        self._window_start_us = window_end
        self.requests_served += 1

        return ProfileResponse(
            entries=tuple(taken),
            step_metadata=tuple(self.log.steps_between(window_start, window_end)),
            window_start_us=window_start,
            window_end_us=window_end,
            truncated=truncated,
            final=finished and index == len(entries),
        )


class ProfileStub:
    """Client-side stub, mirroring a gRPC channel to the master."""

    def __init__(self, service: ProfileService):
        self._service = service

    @property
    def service(self) -> ProfileService:
        """The service (or service shim) behind this stub."""
        return self._service

    def request_profile(
        self,
        max_events: int = MAX_EVENTS_PER_PROFILE,
        max_duration_ms: float = MAX_PROFILE_DURATION_MS,
        finished: bool | None = None,
    ) -> ProfileResponse:
        """Issue one profile request and return the response."""
        return self._service.serve(
            ProfileRequest(max_events=max_events, max_duration_ms=max_duration_ms),
            finished=finished,
        )
