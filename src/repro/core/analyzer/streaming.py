"""Live phase analysis: the batch k-means pipeline over released steps.

A live job folds its profile records through a
:class:`~repro.core.profiler.streaming.StepStream` and keeps every step
the stream releases. :meth:`StreamingAnalyzer.analyze` hands those
steps to :meth:`TPUPointAnalyzer.from_steps` and returns its
``kmeans_phases()``, so live labels are the batch analyzer's labels
because they come from the same call
(``tests/property/test_prop_streaming.py`` checks it on streams whose
steps straddle records).

The analyzer's state is its released steps: O(steps). Deduplicating
repeated steps would not shrink it, because measured traffic repeats
no step signature (``num_signatures == steps_folded`` on the figure,
fleet and perfbench workloads; ``docs/performance.md``).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.analyzer.analyzer import AnalysisResult, TPUPointAnalyzer
from repro.core.profiler.record import ProfileRecord, StepStats
from repro.core.profiler.streaming import StepStream


@dataclass
class StreamingAnalyzer:
    """Released steps of one stream, answering k-means phase queries.

    Feed it whole records (:meth:`fold_record`, then :meth:`finish` at
    end of stream) or steps a caller already assembled (:meth:`fold_step`,
    the ``serve.live`` path). :meth:`analyze` leaves the steps in place,
    so a live job answers mid-run and again over the longer stream.
    """

    steps: list[StepStats] = field(default_factory=list)
    _stream: StepStream = field(default_factory=StepStream, repr=False)

    @property
    def steps_folded(self) -> int:
        """Completed steps folded in so far."""
        return len(self.steps)

    @property
    def num_signatures(self) -> int:
        """Distinct step signatures (per-operator count and duration), counted now."""
        return len(
            {
                frozenset(
                    (key, stats.count, stats.total_duration_us)
                    for key, stats in step.operators.items()
                )
                for step in self.steps
            }
        )

    def fold_record(self, record: ProfileRecord) -> int:
        """Assemble one record; returns how many steps it released."""
        released = list(self._stream.submit(record))
        self.steps.extend(released)
        return len(released)

    def finish(self) -> int:
        """Release the pending step (end of stream); returns how many."""
        released = list(self._stream.flush())
        self.steps.extend(released)
        return len(released)

    def fold_step(self, step: StepStats) -> None:
        """Fold one completed step (already assembled)."""
        self.steps.append(step)

    def analyze(self) -> AnalysisResult:
        """``TPUPointAnalyzer.kmeans_phases()`` over the steps folded so far."""
        return TPUPointAnalyzer.from_steps(self.steps).kmeans_phases()


__all__ = ["StreamingAnalyzer"]
