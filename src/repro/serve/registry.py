"""Job registry for the fleet profiling service.

A *job* is one training run streaming profile records into the service.
The registry tracks each job's metadata (workload, TPU generation, start
step) and its lifecycle:

    registered --> active <--> stalled --> completed
         \\           \\           |            |
          +-----------+----------+--> evicted <+

Jobs activate on their first ingested record, complete when the producer
declares the run finished, and may be evicted at any point (an evicted
job's live state is discarded but its registry entry remains for
accounting). An active job that goes silent past the service's heartbeat
deadline is parked in STALLED — still live, still queryable — and
resumes to ACTIVE on its next record. Transitions outside the diagram
raise :class:`ServeError`.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

from repro.errors import ServeError, UnknownJobError
from repro.tpu.specs import TpuGeneration, chip_spec


class JobState(enum.Enum):
    """Lifecycle state of one registered job."""

    REGISTERED = "registered"
    ACTIVE = "active"
    STALLED = "stalled"
    COMPLETED = "completed"
    EVICTED = "evicted"


_TRANSITIONS: dict[JobState, frozenset[JobState]] = {
    JobState.REGISTERED: frozenset({JobState.ACTIVE, JobState.EVICTED}),
    JobState.ACTIVE: frozenset(
        {JobState.STALLED, JobState.COMPLETED, JobState.EVICTED}
    ),
    JobState.STALLED: frozenset(
        {JobState.ACTIVE, JobState.COMPLETED, JobState.EVICTED}
    ),
    JobState.COMPLETED: frozenset({JobState.EVICTED}),
    JobState.EVICTED: frozenset(),
}


@dataclass
class JobInfo:
    """Metadata for one job in the fleet."""

    job_id: str
    workload: str
    generation: str
    peak_flops: float
    start_step: int = 0
    sequence: int = 0
    state: JobState = JobState.REGISTERED

    @property
    def live(self) -> bool:
        """Whether the job still holds live analysis state."""
        return self.state in (JobState.REGISTERED, JobState.ACTIVE, JobState.STALLED)


@dataclass
class JobRegistry:
    """All jobs known to one fleet service instance.

    ``max_jobs`` bounds the number of jobs holding live state
    (registered + active); registration past the cap raises
    :class:`ServeError` so admission control is explicit rather than a
    silent queue of unbounded tenants.
    """

    max_jobs: int | None = None
    _jobs: dict[str, JobInfo] = field(default_factory=dict)
    _sequence: int = 0

    def __post_init__(self) -> None:
        if self.max_jobs is not None and self.max_jobs <= 0:
            raise ServeError("max_jobs must be positive when set")

    def register(
        self,
        workload: str,
        generation: TpuGeneration | str = TpuGeneration.V2,
        job_id: str | None = None,
        start_step: int = 0,
    ) -> JobInfo:
        """Admit a new job; returns its metadata entry."""
        if self.max_jobs is not None and len(self.jobs(live=True)) >= self.max_jobs:
            raise ServeError(f"registry is full ({self.max_jobs} live jobs)")
        if job_id is None:
            job_id = f"{workload}/{self._sequence}"
        if job_id in self._jobs:
            raise ServeError(f"job {job_id!r} is already registered")
        if start_step < 0:
            raise ServeError("start_step must be non-negative")
        spec = chip_spec(generation)
        info = JobInfo(
            job_id=job_id,
            workload=workload,
            generation=str(getattr(generation, "value", generation)),
            peak_flops=spec.peak_flops,
            start_step=start_step,
            sequence=self._sequence,
        )
        self._sequence += 1
        self._jobs[job_id] = info
        return info

    def get(self, job_id: str) -> JobInfo:
        """Look a job up; unknown ids raise :class:`UnknownJobError`."""
        info = self._jobs.get(job_id)
        if info is None:
            raise UnknownJobError(f"unknown job {job_id!r}")
        return info

    def transition(self, job_id: str, state: JobState) -> JobInfo:
        """Move a job to ``state``, validating the lifecycle diagram."""
        info = self.get(job_id)
        if state not in _TRANSITIONS[info.state]:
            raise ServeError(
                f"job {job_id!r} cannot move {info.state.value} -> {state.value}"
            )
        info.state = state
        return info

    def activate(self, job_id: str) -> JobInfo:
        return self.transition(job_id, JobState.ACTIVE)

    def stall(self, job_id: str) -> JobInfo:
        return self.transition(job_id, JobState.STALLED)

    def resume(self, job_id: str) -> JobInfo:
        return self.transition(job_id, JobState.ACTIVE)

    def complete(self, job_id: str) -> JobInfo:
        return self.transition(job_id, JobState.COMPLETED)

    def evict(self, job_id: str) -> JobInfo:
        return self.transition(job_id, JobState.EVICTED)

    def jobs(self, state: JobState | None = None, live: bool = False) -> list[JobInfo]:
        """Jobs in registration order, optionally filtered.

        ``_jobs`` is already in ``sequence`` order: entries are inserted
        at registration and never removed, so no sort is needed.
        """
        found = list(self._jobs.values())
        if state is not None:
            found = [info for info in found if info.state is state]
        if live:
            found = [info for info in found if info.live]
        return found

    def __contains__(self, job_id: str) -> bool:
        return job_id in self._jobs

    def __len__(self) -> int:
        return len(self._jobs)
