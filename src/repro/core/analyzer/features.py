"""Step aggregation and frequency-vector features.

TPUPoint-Analyzer's first stage (all three algorithms share it): extract
records from the statistical profiles, aggregate them by TPU step number,
and represent each step as a frequency vector whose dimensions are the
TensorFlow operations with their accumulated invocation counts and total
durations (Section IV-A).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.profiler.record import ProfileRecord, StepStats
from repro.errors import AnalyzerError
from repro.runtime.events import StepKind


def merge_records(records: list[ProfileRecord]) -> list[StepStats]:
    """Merge all records into one per-step view, ordered by step number.

    A step split across two profile windows contributes one merged entry.
    """
    merged: dict[int, StepStats] = {}
    for record in records:
        for step_number, stats in record.steps.items():
            existing = merged.get(step_number)
            if existing is None:
                fresh = StepStats(step=step_number)
                fresh.merge(stats)
                merged[step_number] = fresh
            else:
                existing.merge(stats)
    return [merged[step] for step in sorted(merged)]


def global_step_numbers(steps: list[StepStats]) -> dict[int, int]:
    """Map profile-step index → TensorFlow global (train) step.

    Non-train steps map to the number of train steps completed before
    them, which is exactly the step a checkpoint written there carries.
    """
    mapping: dict[int, int] = {}
    completed = 0
    for stats in steps:
        if stats.kind is StepKind.TRAIN:
            completed += 1
        mapping[stats.step] = completed
    return mapping


@dataclass
class FeatureMatrix:
    """Frequency vectors for a sequence of steps.

    Attributes:
        steps: the underlying per-step statistics, in step order.
        vocabulary: (operator name, device) per feature column pair.
        durations: (n_steps, n_ops) accumulated durations in us.
        counts: (n_steps, n_ops) invocation counts.
    """

    steps: list[StepStats]
    vocabulary: list[tuple[str, str]]
    durations: np.ndarray
    counts: np.ndarray

    @property
    def num_steps(self) -> int:
        """Number of step rows in the matrix."""
        return len(self.steps)

    @property
    def num_operators(self) -> int:
        """Number of operator columns in the matrix."""
        return len(self.vocabulary)

    def combined(self, standardize: bool = True) -> np.ndarray:
        """The [durations | counts] matrix, optionally standardized.

        Standardization (zero mean, unit variance per column) keeps the
        long-duration operators from drowning out the counts.
        """
        matrix = np.hstack([self.durations, self.counts]).astype(float)
        if not standardize:
            return matrix
        # A non-finite duration turns its column into NaN without a
        # warning; PCA then rejects the matrix with an AnalyzerError.
        with np.errstate(invalid="ignore"):
            mean = matrix.mean(axis=0, keepdims=True)
            std = matrix.std(axis=0, keepdims=True)
            std[std == 0.0] = 1.0
            return (matrix - mean) / std

    def memory_bytes(self) -> float:
        """Approximate working-set size of the feature representation."""
        return float(self.durations.nbytes + self.counts.nbytes)


def build_features(steps: list[StepStats]) -> FeatureMatrix:
    """Build the frequency-vector representation for a list of steps."""
    if not steps:
        raise AnalyzerError("cannot build features from zero steps")
    vocabulary = sorted({key for stats in steps for key in stats.operators})
    index = {key: column for column, key in enumerate(vocabulary)}
    durations = np.zeros((len(steps), len(vocabulary)))
    counts = np.zeros((len(steps), len(vocabulary)))
    for row, stats in enumerate(steps):
        for key, op_stats in stats.operators.items():
            column = index[key]
            durations[row, column] = op_stats.total_duration_us
            counts[row, column] = op_stats.count
    return FeatureMatrix(
        steps=list(steps), vocabulary=list(vocabulary), durations=durations, counts=counts
    )
