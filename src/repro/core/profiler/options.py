"""TPUPoint-Profiler options."""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import ConfigurationError
from repro.runtime.rpc import MAX_EVENTS_PER_PROFILE, MAX_PROFILE_DURATION_MS


@dataclass(frozen=True)
class ProfilerOptions:
    """Configuration of one TPUPoint-Profiler instance.

    Attributes:
        request_interval_ms: simulated time between profile requests from
            the profiling thread (Section III-A: the thread "periodically
            sends profile requests ... independently of the main
            TensorFlow thread").
        max_events_per_profile: per-response event cap (service clamps to
            1,000,000).
        max_profile_duration_ms: per-response window cap (service clamps
            to 60,000 ms).
        record_to_storage: persist statistical records through the
            recording thread into cloud storage (enabled when the
            analyzer flag is set; otherwise records stay in host memory).
        breakpoint_step: stop profiling once the session reaches this
            global step (Section III-A: the profiling thread sends its
            last request when the application completes *or reaches a
            user-specified breakpoint*). None profiles the entire run.
        online_phases: run the online linear scan *during recording*
            (the "online" in OLS, Section IV-A) so phase labels are
            available the moment profiling stops, with O(1) extra state.
        online_phase_threshold: StepSimilarity threshold for the online
            scan (the paper's default is 70%).
        fault_plan: a :class:`repro.faults.FaultPlan` to inject against
            this run (wraps the profile service, configures the
            resilient client, and can crash the recorder). None runs
            fault-free on the plain stub.
        journal_path: when set, the recording thread also appends every
            record to a crash-safe journal at this path
            (``tpupoint recover`` reads it back), written in the
            columnar block codec with a CRC-32 per block.
    """

    request_interval_ms: float = 1_000.0
    max_events_per_profile: int = MAX_EVENTS_PER_PROFILE
    max_profile_duration_ms: float = MAX_PROFILE_DURATION_MS
    record_to_storage: bool = True
    breakpoint_step: int | None = None
    online_phases: bool = False
    online_phase_threshold: float = 0.70
    fault_plan: "object | None" = None
    journal_path: str | None = None

    def __post_init__(self) -> None:
        if self.request_interval_ms <= 0:
            raise ConfigurationError("request_interval_ms must be positive")
        if self.max_events_per_profile <= 0:
            raise ConfigurationError("max_events_per_profile must be positive")
        if self.max_profile_duration_ms <= 0:
            raise ConfigurationError("max_profile_duration_ms must be positive")
        if self.breakpoint_step is not None and self.breakpoint_step <= 0:
            raise ConfigurationError("breakpoint_step must be positive when set")
        if not 0.0 <= self.online_phase_threshold <= 1.0:
            raise ConfigurationError("online_phase_threshold must be in [0, 1]")
