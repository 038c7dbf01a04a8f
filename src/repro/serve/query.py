"""Snapshot queries over the fleet.

Queries never mutate service state: a snapshot is a frozen view of what
the drain loop has folded so far, safe to take while runs are in flight.
Per-job snapshots carry the live phase table; the fleet rollup
aggregates across jobs the way *Machine Learning Fleet Efficiency*
rolls per-job Goodput into fleet-level efficiency — duration-weighted
idle, capacity-weighted MXU utilization, and a phase-count histogram.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.runtime.events import DeviceKind
from repro.serve.ingest import IngestQueue
from repro.serve.live import LiveJobAnalysis
from repro.serve.registry import JobInfo


@dataclass(frozen=True)
class PhaseView:
    """One phase row in a job snapshot."""

    phase_id: int
    num_steps: int
    first_step: int
    last_step: int
    duration_us: float
    idle_fraction: float
    top_tpu_operators: tuple[str, ...]
    top_host_operators: tuple[str, ...]


@dataclass(frozen=True)
class JobSnapshot:
    """Live view of one job."""

    job_id: str
    workload: str
    generation: str
    state: str
    steps_seen: int
    pending_steps: int
    num_phases: int
    coverage_top3: float
    idle_fraction: float
    mxu_utilization: float
    duration_us: float
    mxu_flops: float
    peak_flops: float
    queue_depth: int
    records_submitted: int
    records_ingested: int
    records_dropped: int
    phases: tuple[PhaseView, ...]
    records_quarantined: int = 0
    chip: str = ""  # assigned chip id ("" before SDC wiring assigns one)
    chip_quarantined: bool = False

    def format(self) -> list[str]:
        chip_note = ""
        if self.chip:
            chip_note = f" on {self.chip}" + (
                " [QUARANTINED]" if self.chip_quarantined else ""
            )
        lines = [
            f"{self.job_id} [{self.state}] {self.workload} on TPU{self.generation}"
            f"{chip_note}: "
            f"{self.steps_seen} steps, {self.num_phases} phases "
            f"(top-3 cover {self.coverage_top3:.1%}), "
            f"idle {self.idle_fraction:.1%}, MXU {self.mxu_utilization:.1%}"
        ]
        for phase in self.phases:
            ops = ", ".join(phase.top_tpu_operators) or "-"
            lines.append(
                f"  phase #{phase.phase_id}: {phase.num_steps} steps "
                f"(steps {phase.first_step}-{phase.last_step}), "
                f"idle {phase.idle_fraction:.1%}  [{ops}]"
            )
        return lines


@dataclass(frozen=True)
class FleetSnapshot:
    """Rollup across every job holding live state."""

    jobs: tuple[JobSnapshot, ...]
    active_jobs: int
    stalled_jobs: int
    completed_jobs: int
    total_steps: int
    total_records: int
    total_drops: int
    idle_fraction: float
    mxu_utilization: float
    phase_histogram: dict[int, int]
    total_quarantined: int = 0
    quarantined_chips: tuple[str, ...] = ()

    @property
    def num_jobs(self) -> int:
        return len(self.jobs)

    def format(self) -> list[str]:
        histogram = ", ".join(
            f"{phases}p x{count}" for phases, count in sorted(self.phase_histogram.items())
        )
        lines = [
            f"jobs            : {self.num_jobs} "
            f"({self.active_jobs} active, {self.stalled_jobs} stalled, "
            f"{self.completed_jobs} completed)",
            f"steps assembled : {self.total_steps} "
            f"from {self.total_records} records ({self.total_drops} dropped)",
            f"fleet idle      : {self.idle_fraction:.1%}",
            f"fleet MXU util  : {self.mxu_utilization:.1%}",
            f"phase histogram : {histogram or '-'}",
        ]
        if self.quarantined_chips:
            lines.append(
                "quarantined chips: " + ", ".join(self.quarantined_chips)
            )
        return lines


def job_snapshot(
    info: JobInfo,
    analysis: LiveJobAnalysis,
    queue: IngestQueue,
    max_phases: int = 5,
    top_operators: int = 3,
    quarantined: int = 0,
    chip: str = "",
    chip_quarantined: bool = False,
) -> JobSnapshot:
    """Freeze one job's live state into a query result."""
    phases = tuple(
        PhaseView(
            phase_id=phase.phase_id,
            num_steps=phase.num_steps,
            first_step=phase.first_step,
            last_step=phase.last_step,
            duration_us=phase.duration_us,
            idle_fraction=phase.idle_fraction,
            top_tpu_operators=tuple(
                phase.top_operator_names(top_operators, DeviceKind.TPU)
            ),
            top_host_operators=tuple(
                phase.top_operator_names(top_operators, DeviceKind.HOST)
            ),
        )
        for phase in analysis.phases_by_duration()[:max_phases]
    )
    return JobSnapshot(
        job_id=info.job_id,
        workload=info.workload,
        generation=info.generation,
        state=info.state.value,
        steps_seen=analysis.steps_seen,
        pending_steps=analysis.pending_steps,
        num_phases=analysis.num_phases,
        coverage_top3=analysis.coverage(3),
        idle_fraction=analysis.idle_fraction,
        mxu_utilization=analysis.mxu_utilization,
        duration_us=analysis.total_duration_us,
        mxu_flops=analysis.mxu_flops,
        peak_flops=info.peak_flops,
        queue_depth=queue.depth,
        records_submitted=queue.submitted,
        records_ingested=analysis.records_seen,
        records_dropped=queue.dropped,
        phases=phases,
        records_quarantined=quarantined,
        chip=chip,
        chip_quarantined=chip_quarantined,
    )


def fleet_snapshot(snapshots: list[JobSnapshot]) -> FleetSnapshot:
    """Roll per-job snapshots into the fleet view."""
    total_duration = sum(snap.duration_us for snap in snapshots)
    total_idle = sum(snap.idle_fraction * snap.duration_us for snap in snapshots)
    # Capacity-weighted utilization: achieved matrix FLOPs over the FLOPs
    # the fleet's chips could have delivered in the profiled time.
    possible_flops = sum(
        snap.peak_flops * (snap.duration_us / 1e6) for snap in snapshots
    )
    achieved_flops = sum(snap.mxu_flops for snap in snapshots)
    histogram: dict[int, int] = {}
    for snap in snapshots:
        histogram[snap.num_phases] = histogram.get(snap.num_phases, 0) + 1
    return FleetSnapshot(
        jobs=tuple(snapshots),
        active_jobs=sum(1 for snap in snapshots if snap.state == "active"),
        stalled_jobs=sum(1 for snap in snapshots if snap.state == "stalled"),
        completed_jobs=sum(1 for snap in snapshots if snap.state == "completed"),
        total_steps=sum(snap.steps_seen for snap in snapshots),
        total_records=sum(snap.records_submitted for snap in snapshots),
        total_drops=sum(snap.records_dropped for snap in snapshots),
        idle_fraction=(total_idle / total_duration) if total_duration > 0 else 0.0,
        mxu_utilization=(
            min(achieved_flops / possible_flops, 1.0) if possible_flops > 0 else 0.0
        ),
        phase_histogram=histogram,
        total_quarantined=sum(snap.records_quarantined for snap in snapshots),
        quarantined_chips=tuple(
            dict.fromkeys(  # registration-ordered, deduped across co-located jobs
                snap.chip for snap in snapshots if snap.chip_quarantined and snap.chip
            )
        ),
    )
