"""Critical-phase detection.

TPUPoint-Optimizer only tunes once execution has entered the
performance-critical phase. It declares that entry when either condition
of Section VII-B holds:

1. the common bottleneck pattern of operators (reshape, infeed, fusion,
   outfeed) dominates the current phase, or
2. the current phase accounts for more than half of the accumulated
   execution time.

The detector consumes per-step operator statistics (the profiler's
records) online, tracking phases with the same OLS scan the analyzer
uses. :func:`run_detection` is the one detection loop: the online
optimizer runs it up to the plan's end, the offline autotuner's
fingerprint up to its detection window.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Sequence

from repro.core.analyzer.ols import DEFAULT_SIMILARITY_THRESHOLD, OnlineLinearScan
from repro.core.profiler.record import ProfileRecord, StepStats
from repro.core.profiler.streaming import StepStream
from repro.errors import OptimizerError

if TYPE_CHECKING:
    from repro.core.profiler.profiler import TPUPointProfiler
    from repro.runtime.estimator import TPUEstimator

# The common operator pattern of Section VI: data exchange and layout.
CRITICAL_PATTERN: frozenset[str] = frozenset(
    {
        "Reshape",
        "fusion",
        "InfeedDequeueTuple",
        "Infeed",
        "OutfeedEnqueueTuple",
        "TransferBufferToInfeedLocked",
        "OutfeedDequeueTuple",
    }
)


@dataclass
class CriticalPhaseDetector:
    """Streaming detector over per-step statistics."""

    similarity_threshold: float = DEFAULT_SIMILARITY_THRESHOLD
    pattern_top_k: int = 5
    pattern_hits_required: int = 2
    time_fraction: float = 0.5
    _scanner: OnlineLinearScan = field(default_factory=OnlineLinearScan, repr=False)
    _phase_durations: dict[int, float] = field(default_factory=dict, repr=False)
    _phase_steps: dict[int, list[StepStats]] = field(default_factory=dict, repr=False)
    _critical_since_step: int | None = None
    _stream: StepStream = field(default_factory=StepStream, repr=False)
    _records_fed: int = field(default=0, repr=False)

    def __post_init__(self) -> None:
        self._scanner = OnlineLinearScan(threshold=self.similarity_threshold)

    @property
    def critical(self) -> bool:
        """Whether execution is currently inside the critical phase."""
        return self._critical_since_step is not None

    @property
    def critical_since_step(self) -> int | None:
        """Step number at which the critical phase was first detected."""
        return self._critical_since_step

    def observe(self, step: StepStats) -> bool:
        """Feed one step; returns True when inside the critical phase."""
        phase = self._scanner.observe(step)
        self._phase_durations[phase] = (
            self._phase_durations.get(phase, 0.0) + step.elapsed_us
        )
        self._phase_steps.setdefault(phase, []).append(step)

        if self._matches_pattern(phase) or self._dominates_time(phase):
            if self._critical_since_step is None:
                self._critical_since_step = step.step
        else:
            self._critical_since_step = None
        return self.critical

    def feed(self, records: Sequence[ProfileRecord]) -> None:
        """Observe the completed steps of a profiler's growing record list.

        Only records past the previous call's length are new. The latest
        step may still be spread across future profile windows; the
        :class:`StepStream` withholds it until a later step appears.
        """
        for record in records[self._records_fed :]:
            for step in self._stream.submit(record):
                self.observe(step)
        self._records_fed = len(records)

    def flush(self) -> None:
        """Observe the withheld last step (call once the stream has ended)."""
        for step in self._stream.flush():
            self.observe(step)

    def phase_signature(self, top_k: int = 8) -> frozenset[str]:
        """Operator-name fingerprint of the phase worth tuning for.

        The signature is the top-``top_k`` operators by accumulated
        duration of the *current* phase when execution is critical, or
        of the longest-running phase observed otherwise. It keys the
        tuning knowledge base: two runs with Equation-1-similar
        signatures warm-start from each other's best configuration.
        """
        if not self._phase_steps:
            raise OptimizerError("no steps observed; cannot fingerprint a phase")
        if top_k <= 0:
            raise OptimizerError("top_k must be positive")
        if self.critical and self._scanner.labels:
            phase = self._scanner.labels[-1]
        else:
            phase = max(self._phase_durations, key=self._phase_durations.get)
        totals: dict[str, float] = {}
        for step in self._phase_steps[phase]:
            for stats in step.operators.values():
                totals[stats.name] = totals.get(stats.name, 0.0) + stats.total_duration_us
        ranked = sorted(totals, key=lambda name: (-totals[name], name))
        return frozenset(ranked[:top_k])

    # --- the two entry conditions -----------------------------------------

    def _matches_pattern(self, phase: int) -> bool:
        """Condition 1: common bottleneck operators among the phase's top."""
        steps = self._phase_steps[phase]
        totals: dict[str, float] = {}
        for step in steps:
            for stats in step.operators.values():
                totals[stats.name] = totals.get(stats.name, 0.0) + stats.total_duration_us
        top = sorted(totals, key=lambda name: -totals[name])[: self.pattern_top_k]
        hits = sum(1 for name in top if name in CRITICAL_PATTERN)
        return hits >= self.pattern_hits_required

    def _dominates_time(self, phase: int) -> bool:
        """Condition 2: phase holds over half the accumulated time."""
        total = sum(self._phase_durations.values())
        if total <= 0:
            return False
        return self._phase_durations[phase] / total > self.time_fraction


def run_detection(
    estimator: TPUEstimator,
    profiler: TPUPointProfiler,
    detector: CriticalPhaseDetector,
    chunk_steps: int,
    limit: int,
) -> int:
    """Train in chunks until ``detector`` fires or ``limit`` steps have run.

    After every chunk the profiler's new records are fed to the
    detector. Stops early when the plan runs out of steps; returns the
    steps executed.
    """
    executed = 0
    while executed < limit:
        ran = estimator.train_steps(min(chunk_steps, limit - executed))
        if ran == 0:
            break
        executed += ran
        detector.feed(profiler.records)
        if detector.critical:
            break
    return executed
