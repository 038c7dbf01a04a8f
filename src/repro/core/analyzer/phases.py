"""Program phases.

A phase groups the steps a detection algorithm judged similar. For OLS
the labels are contiguous runs; for k-means/DBSCAN a phase is a cluster
whose steps may be scattered across the timeline (DBSCAN's unlabeled
noise points count as one more phase, as Section VI-A does when
measuring coverage).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.core.profiler.record import OperatorStats, OperatorTable, StepStats
from repro.errors import AnalyzerError
from repro.runtime.events import DeviceKind


@dataclass
class Phase:
    """One detected program phase."""

    phase_id: int
    steps: list[StepStats] = field(default_factory=list)

    def __post_init__(self) -> None:
        if not self.steps:
            raise AnalyzerError(f"phase {self.phase_id} has no steps")

    @property
    def num_steps(self) -> int:
        """Number of steps assigned to the phase."""
        return len(self.steps)

    @property
    def step_numbers(self) -> list[int]:
        """Global step numbers of the phase's members, ascending."""
        return [step.step for step in self.steps]

    @property
    def start_us(self) -> float:
        """Wall-clock start of the earliest member step."""
        return min(step.start_us for step in self.steps)

    @property
    def end_us(self) -> float:
        """Wall-clock end of the latest member step."""
        return max(step.end_us for step in self.steps)

    @property
    def total_duration_us(self) -> float:
        """Execution time covered by the phase (sum of its steps)."""
        return sum(step.elapsed_us for step in self.steps)

    @property
    def idle_fraction(self) -> float:
        """TPU idle fraction within the phase."""
        total = self.total_duration_us
        if total <= 0:
            return 0.0
        return min(sum(step.tpu_idle_us for step in self.steps) / total, 1.0)

    def operator_totals(self, device: DeviceKind | None = None) -> list[OperatorStats]:
        """Aggregate operator statistics across the phase's steps."""
        table = OperatorTable()
        for step in self.steps:
            table.add(step.columns)
        return [table.stats(*entry) for entry in table.ranked(len(table), device)]

    def top_operators(self, k: int = 5, device: DeviceKind | None = None) -> list[OperatorStats]:
        """The k most time-consuming operators in this phase."""
        return self.operator_totals(device)[:k]

    def representative_step(self) -> StepStats:
        """The step closest to the phase's mean behaviour.

        SimPoint simulates one representative point per phase; the same
        idea applies here for fast-forward targets: the step whose
        per-operator duration vector is nearest (L2) to the phase mean.
        """
        columns = [step.columns for step in self.steps]
        keys = sorted(set().union(*(table.keys for table in columns)))
        index = {key: i for i, key in enumerate(keys)}
        vectors = np.zeros((len(self.steps), len(keys)))
        for row, table in enumerate(columns):
            for key, duration in zip(table.keys, table.durations):
                vectors[row, index[key]] = duration
        mean = vectors.mean(axis=0)
        distances = ((vectors - mean) ** 2).sum(axis=1)
        return self.steps[int(distances.argmin())]


def build_phases(steps: list[StepStats], labels: np.ndarray | list[int]) -> list[Phase]:
    """Group steps by label into phases, ordered by descending duration.

    Labels may be any integers (DBSCAN noise is -1); each distinct label
    becomes one phase.
    """
    labels = np.asarray(labels)
    if len(labels) != len(steps):
        raise AnalyzerError(
            f"got {len(labels)} labels for {len(steps)} steps"
        )
    grouped: dict[int, list[StepStats]] = {}
    for step, label in zip(steps, labels.tolist()):
        grouped.setdefault(int(label), []).append(step)
    phases = [Phase(phase_id=label, steps=group) for label, group in grouped.items()]
    phases.sort(key=lambda phase: -phase.total_duration_us)
    return phases


def longest_phase(phases: list[Phase]) -> Phase:
    """The most time-consuming phase (Table II analyzes this one)."""
    if not phases:
        raise AnalyzerError("no phases")
    return max(phases, key=lambda phase: phase.total_duration_us)
