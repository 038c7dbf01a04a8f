"""TPUPoint-Optimizer orchestration.

The automatic tuning workflow of Section VII: run the workload with the
user's defaults while the profiler's statistics stream through the
critical-phase detector; on entry into the performance-critical phase,
instrument a checkpoint, hill-climb the adjustable parameters online
(verifying output quality before every trial), then finish the run with
the improved configuration. Everything happens in one execution — no
complete baseline run is required.

The hill climb is :class:`~repro.core.optimizer.strategies.HillClimbStrategy`,
the same walk the offline engine runs; here its trials are measured by
:class:`LiveTrialEvaluator` on the live run's own training steps, so no
separate warmup execution is wasted.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from typing import Sequence

from repro import obs
from repro.core.optimizer.detector import CriticalPhaseDetector, run_detection
from repro.core.optimizer.instrument import InstrumentationReport, ProgramInstrumenter
from repro.core.optimizer.parameters import AdjustableParameter
from repro.core.optimizer.quality import QualityController
from repro.core.optimizer.strategies import (
    CandidateTrial,
    HillClimbStrategy,
    SearchOutcome,
)
from repro.core.profiler.options import ProfilerOptions
from repro.core.profiler.profiler import TPUPointProfiler
from repro.errors import OptimizerError, QualityViolationError, SearchExhausted
from repro.host.pipeline import PipelineConfig
from repro.runtime.estimator import TPUEstimator
from repro.runtime.session import SessionSummary

_TRIAL_SECONDS = obs.histogram(
    "repro_optimizer_trial_seconds", "Real wall time of one tuning trial measurement."
).labels()
_TUNE_IMPROVEMENT = obs.gauge(
    "repro_optimizer_improvement_ratio",
    "Tuned over baseline throughput from the last tuning pass.",
).labels()


def check_overhead(overhead_us_per_trial: float) -> None:
    """Reject a per-trial overhead that is negative, NaN or infinite."""
    if not math.isfinite(overhead_us_per_trial) or overhead_us_per_trial < 0:
        raise OptimizerError(
            f"overhead_us_per_trial must be finite and >= 0, got {overhead_us_per_trial}"
        )


@dataclass(frozen=True)
class OptimizerOptions:
    """Configuration of one TPUPoint-Optimizer run.

    Attributes:
        detection_chunk_steps: steps to run between detector checks.
        trial_steps: steps measured per tuning trial.
        max_tuning_fraction: cap on the fraction of the plan's remaining
            steps the hill climb may consume.
        overhead_us_per_trial: simulated post-processing cost per trial.
        profile_interval_ms: profiler request cadence feeding detection.
    """

    detection_chunk_steps: int = 10
    trial_steps: int = 10
    max_tuning_fraction: float = 0.5
    overhead_us_per_trial: float = 40_000.0
    profile_interval_ms: float = 500.0

    def __post_init__(self) -> None:
        if self.detection_chunk_steps <= 0 or self.trial_steps <= 0:
            raise OptimizerError("step counts must be positive")
        if not 0.0 < self.max_tuning_fraction <= 1.0:
            raise OptimizerError("max_tuning_fraction must be in (0, 1]")
        check_overhead(self.overhead_us_per_trial)


@dataclass
class LiveTrialEvaluator:
    """Measures candidate configurations on the live run's own steps.

    Trials run back to back on one estimator. Each request swaps its
    configuration into the live pipeline and verifies the output
    signature before a single step trains on it (a violation raises
    :class:`~repro.errors.QualityViolationError`), trains the requested
    steps under an ``optimizer.trial`` span, then charges the
    ``TPUPointOptimizerPostProcess`` op — the per-trial analysis cost the
    paper observes on fast devices.

    It raises :class:`~repro.errors.SearchExhausted` when a trial would
    overrun ``step_budget`` or the plan has no step left. A short last
    trial (the plan ended inside it) is kept.
    """

    estimator: TPUEstimator
    quality: QualityController
    step_budget: int
    overhead_us_per_trial: float = 40_000.0
    steps_consumed: int = 0

    def evaluate(
        self, requests: Sequence[tuple[str, PipelineConfig, int]]
    ) -> list[CandidateTrial]:
        """Measure the requested candidates one after another, in order."""
        return [self._run(request) for request in requests]

    def _run(self, request: tuple[str, PipelineConfig, int]) -> CandidateTrial:
        key, config, steps = request
        if self.steps_consumed + steps > self.step_budget:
            raise SearchExhausted(
                f"trial {key!r} needs {steps} steps; "
                f"{self.step_budget - self.steps_consumed} of the budget remain"
            )
        self.estimator.update_pipeline_config(config)
        self.quality.verify()
        session = self.estimator.session
        began = time.perf_counter()
        with obs.trace("optimizer.trial", key=key):
            start = session.clock.now_us
            executed = self.estimator.train_steps(steps)
            if executed == 0:
                raise SearchExhausted(f"trial {key!r}: the plan has no steps left")
            elapsed = session.clock.now_us - start
            last_step = session.log.steps[-1].step if session.log.steps else 0
            session.host_worker.emit_op(
                "TPUPointOptimizerPostProcess",
                last_step,
                session.clock.now_us,
                self.overhead_us_per_trial,
            )
            session.clock.advance(self.overhead_us_per_trial)
        _TRIAL_SECONDS.observe(time.perf_counter() - began)
        self.steps_consumed += executed
        return CandidateTrial(key=key, config=config, steps=executed, elapsed_us=elapsed)


@dataclass
class OptimizationResult:
    """Outcome of one optimized run.

    ``tuning`` is the hill climb's outcome, or None when the run never
    tuned (the detector did not fire with enough steps left, or a
    candidate would have changed the output signature).
    """

    summary: SessionSummary
    instrumentation: InstrumentationReport
    tuning: SearchOutcome | None
    detector_triggered_at_step: int | None
    steps_before_tuning: int = 0

    @property
    def tuned(self) -> bool:
        """Whether the hill climb ran and changed anything."""
        return self.tuning is not None and self.tuning.best_config != self.tuning.initial_config

    @property
    def improvement(self) -> float:
        """Measured throughput improvement during tuning (1.0 = none)."""
        return self.tuning.improvement if self.tuning else 1.0


class TPUPointOptimizer:
    """Automatic online workload tuning for one estimator."""

    def __init__(self, estimator: TPUEstimator, options: OptimizerOptions | None = None):
        self.estimator = estimator
        self.options = options or OptimizerOptions()
        self.instrumenter = ProgramInstrumenter(estimator)
        self.detector = CriticalPhaseDetector()

    def _tune(
        self, parameters: list[AdjustableParameter], step_budget: int
    ) -> SearchOutcome | None:
        """Hill-climb the live pipeline within ``step_budget`` steps.

        Leaves the estimator on the best configuration measured, or, when
        a candidate would change the output signature, back on its
        starting configuration with no outcome (None).
        """
        initial = self.estimator.current_pipeline_config()
        evaluator = LiveTrialEvaluator(
            self.estimator, self.instrumenter.quality, step_budget,
            self.options.overhead_us_per_trial,
        )
        strategy = HillClimbStrategy(trial_steps=self.options.trial_steps)
        with obs.trace("optimizer.tune", parameters=len(parameters)) as span:
            try:
                # The hill climb draws no randomness; the seed is unused.
                outcome = strategy.search(parameters, initial, evaluator, seed=0)
            except QualityViolationError:
                self.estimator.update_pipeline_config(initial)
                span.set(quality_violation=True)
                return None
            self.estimator.update_pipeline_config(outcome.best_config)
            span.set(
                trials=len(outcome.trials),
                steps_consumed=outcome.steps_consumed,
                improvement=outcome.improvement,
            )
        _TUNE_IMPROVEMENT.set(outcome.improvement)
        return outcome

    def run(self) -> OptimizationResult:
        """Execute the full workload with online tuning."""
        with obs.trace("optimizer.run") as run_span:
            instrumentation = self.instrumenter.analyze()
            profiler = TPUPointProfiler(
                self.estimator,
                ProfilerOptions(
                    request_interval_ms=self.options.profile_interval_ms,
                    record_to_storage=False,
                ),
            )
            profiler.start(analyzer=False)

            plan_steps = self.estimator.plan.train_steps
            # Phase 1: run with defaults until the critical phase is entered.
            with obs.trace("optimizer.detect") as span:
                steps_before_tuning = run_detection(
                    self.estimator,
                    profiler,
                    self.detector,
                    self.options.detection_chunk_steps,
                    plan_steps - self.estimator.session.global_step,
                )
                span.set(
                    steps=steps_before_tuning, critical=self.detector.critical
                )

            tuning: SearchOutcome | None = None
            remaining = plan_steps - self.estimator.session.global_step
            if self.detector.critical and remaining > self.options.trial_steps * 2:
                # Phase 2: checkpoint, then tune online.
                self.instrumenter.checkpoint_before_segment()
                budget = int(remaining * self.options.max_tuning_fraction)
                tuning = self._tune(instrumentation.parameters, budget)

            # Phase 3: finish the run under the best configuration found.
            remaining = plan_steps - self.estimator.session.global_step
            with obs.trace("optimizer.finish", steps=max(remaining, 0)):
                if remaining > 0:
                    self.estimator.train_steps(remaining)
                summary = self.estimator.finalize()
                profiler.stop()
            run_span.set(tuned=tuning is not None)
        return OptimizationResult(
            summary=summary,
            instrumentation=instrumentation,
            tuning=tuning,
            detector_triggered_at_step=self.detector.critical_since_step,
            steps_before_tuning=steps_before_tuning,
        )
