"""Offline autotuning engine: strategy search with phase-keyed warm starts.

Where :class:`~repro.core.optimizer.optimizer.TPUPointOptimizer` tunes
*one live run online* (the paper's workflow), this engine searches the
configuration space *offline* across many short runs: every candidate
configuration is measured on a fresh estimator built by a caller-
supplied factory, so candidates are independent of each other.

The run proceeds in four moves:

1. **Fingerprint** — run a short detection window with the defaults and
   take the critical (or dominant) phase's top-operator signature
   (:meth:`CriticalPhaseDetector.phase_signature`).
2. **Warm start** — look the signature up in a
   :class:`~repro.core.optimizer.knowledge.TuningKnowledgeBase`; on a
   hit above the Equation-1 similarity threshold, the stored best
   configuration becomes the search's starting point.
3. **Search** — any registered strategy (hill climb, annealing,
   racing, surrogate) measures candidates through
   :class:`EstimatorTrialEvaluator`, one after another in request
   order, each on its own per-trial RNG substream. The ``surrogate``
   strategy additionally gets a learned
   performance model (:mod:`repro.core.optimizer.surrogate`) fitted
   from the knowledge base's recorded trial observations plus the
   committed bench corpus, and spends real trials only on the
   predicted frontier.
4. **Guard and record** — a warm start must *earn* its keep: if the
   warm search's best does not beat a fresh defaults measurement (or
   the stored config no longer validates, or quality drifts), the
   result rolls back to the defaults and the rollback is counted. A
   successful search is recorded back into the knowledge base.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

from repro import obs
from repro.core.analyzer.ols import DEFAULT_SIMILARITY_THRESHOLD
from repro.core.optimizer.detector import CriticalPhaseDetector, run_detection
from repro.core.optimizer.knowledge import (
    KnowledgeEntry,
    KnowledgeMatch,
    TuningKnowledgeBase,
)
from repro.core.optimizer.optimizer import check_overhead
from repro.core.optimizer.parameters import discover_parameters
from repro.core.optimizer.quality import OutputSignature
from repro.core.optimizer.strategies import (
    CandidateTrial,
    SearchOutcome,
    build_strategy,
)
from repro.core.optimizer.surrogate import SurrogateModel, build_surrogate
from repro.core.profiler.options import ProfilerOptions
from repro.core.profiler.profiler import TPUPointProfiler
from repro.errors import (
    ConfigurationError,
    OptimizerError,
    QualityViolationError,
)
from repro.host.pipeline import PipelineConfig
from repro.rng import DEFAULT_SEED, stream as rng_stream
from repro.runtime.estimator import TPUEstimator

EstimatorFactory = Callable[[PipelineConfig], TPUEstimator]

_ROLLBACKS = obs.counter(
    "repro_optimizer_warmstart_rollbacks_total",
    "Warm-started searches rolled back by the quality/throughput guard.",
).labels()


@dataclass(frozen=True)
class AutotuneOptions:
    """Configuration of one offline autotune run.

    Attributes:
        strategy: registered search-strategy name (``tpupoint tune
            --strategy``); see :data:`repro.core.optimizer.STRATEGIES`.
        seed: root seed for every trial and strategy RNG substream.
        detection_steps: cap on steps spent fingerprinting the phase.
        detection_chunk_steps: steps between detector checks.
        profile_interval_ms: profiler cadence during detection.
        signature_top_k: operators kept in the phase signature.
        knowledge_threshold: Equation-1 similarity a stored signature
            must clear to warm-start the search.
        overhead_us_per_trial: simulated post-processing cost charged
            per trial in the engine's cost accounting.
        workload: label stored with recorded knowledge entries.
        surrogate_kind: regressor behind ``--strategy surrogate``
            (``ridge`` or ``stumps``; see
            :mod:`repro.core.optimizer.surrogate`).
        surrogate_corpus: optional path to a committed training corpus
            of ``(signature, config) -> throughput`` pairs merged into
            the surrogate's training set alongside the knowledge base.
    """

    strategy: str = "racing"
    seed: int = DEFAULT_SEED
    detection_steps: int = 40
    detection_chunk_steps: int = 10
    profile_interval_ms: float = 500.0
    signature_top_k: int = 8
    knowledge_threshold: float = DEFAULT_SIMILARITY_THRESHOLD
    overhead_us_per_trial: float = 40_000.0
    workload: str = ""
    surrogate_kind: str = "ridge"
    surrogate_corpus: str | None = None

    def __post_init__(self) -> None:
        if self.detection_steps <= 0 or self.detection_chunk_steps <= 0:
            raise OptimizerError("detection step counts must be positive")
        if self.signature_top_k <= 0:
            raise OptimizerError("signature_top_k must be positive")
        if not 0.0 <= self.knowledge_threshold <= 1.0:
            raise OptimizerError("knowledge_threshold must be in [0, 1]")
        check_overhead(self.overhead_us_per_trial)


class EstimatorTrialEvaluator:
    """Measures candidate configurations on fresh, independent estimators.

    Each trial builds its own estimator via the factory, seeds it with a
    substream named by the trial key, runs the requested steps on the
    simulated clock, and verifies the output signature never drifts from
    the defaults-built reference. Total simulated cost (run time plus
    the per-trial post-processing overhead the paper measures) is
    accumulated in request order.
    """

    def __init__(
        self,
        factory: EstimatorFactory,
        seed: int,
        overhead_us_per_trial: float = 40_000.0,
        reference: OutputSignature | None = None,
    ):
        self.factory = factory
        self.seed = seed
        self.overhead_us_per_trial = overhead_us_per_trial
        self.reference = reference
        self.simulated_us = 0.0

    def _run(self, request: tuple[str, PipelineConfig, int]) -> CandidateTrial:
        key, config, steps = request
        estimator = self.factory(config)
        estimator.rng = rng_stream(f"optimizer:trial:{key}", self.seed)
        signature = OutputSignature.of(estimator)
        if self.reference is not None and signature != self.reference:
            raise QualityViolationError(
                f"trial {key!r} changed the output signature from "
                f"{self.reference} to {signature}"
            )
        session = estimator.session
        start = session.clock.now_us
        executed = estimator.train_steps(steps)
        elapsed = session.clock.now_us - start
        return CandidateTrial(key=key, config=config, steps=executed, elapsed_us=elapsed)

    def evaluate(
        self, requests: Sequence[tuple[str, PipelineConfig, int]]
    ) -> list[CandidateTrial]:
        """Measure a batch of candidates, one at a time, in request order."""
        trials = [self._run(request) for request in requests]
        for trial in trials:
            self.simulated_us += trial.elapsed_us + self.overhead_us_per_trial
        return trials


def detect_phase_signature(
    factory: EstimatorFactory,
    config: PipelineConfig,
    options: AutotuneOptions | None = None,
) -> frozenset[str]:
    """Fingerprint the workload's tuning-relevant phase.

    Runs a short window under ``config`` with the profiler streaming
    into the critical-phase detector (the online optimizer's detection
    loop, :func:`run_detection`, bounded by ``detection_steps``), then
    returns the phase signature the knowledge base keys on.
    """
    options = options or AutotuneOptions()
    estimator = factory(config)
    estimator.rng = rng_stream("optimizer:detect", options.seed)
    detector = CriticalPhaseDetector()
    profiler = TPUPointProfiler(
        estimator,
        ProfilerOptions(
            request_interval_ms=options.profile_interval_ms,
            record_to_storage=False,
        ),
    )
    profiler.start(analyzer=False)
    with obs.trace("optimizer.detect_signature") as span:
        run_detection(
            estimator,
            profiler,
            detector,
            options.detection_chunk_steps,
            options.detection_steps,
        )
        # stop() flushes a final partial record; feed it too, so windows
        # shorter than one profile interval still yield a fingerprint.
        detector.feed(profiler.stop())
        detector.flush()
        signature = detector.phase_signature(options.signature_top_k)
        span.set(critical=detector.critical, operators=len(signature))
    return signature


@dataclass
class AutotuneResult:
    """Everything one autotune run measured and decided.

    ``surrogate`` is the learned performance model the search consulted
    (``--strategy surrogate`` only; None otherwise) — after the run it
    has folded in every real trial, so ``surrogate.to_document()`` is
    the artifact ``tpupoint tune --surrogate-out`` dumps.
    ``knowledge_persist_error`` surfaces a knowledge base that could
    not be written (e.g. a read-only ``--knowledge-dir``).
    """

    outcome: SearchOutcome
    signature: frozenset[str]
    warm_started: bool = False
    warm_similarity: float | None = None
    rolled_back: bool = False
    knowledge_recorded: bool = False
    simulated_us: float = 0.0
    surrogate: SurrogateModel | None = None
    knowledge_persist_error: str | None = None

    @property
    def best_config(self) -> PipelineConfig:
        """The configuration the run settled on (post-guard)."""
        return self.outcome.best_config

    @property
    def improvement(self) -> float:
        """Best over baseline throughput (>1 means faster)."""
        return self.outcome.improvement

    @property
    def trials(self) -> list[CandidateTrial]:
        """Every real trial the search measured, in submission order."""
        return self.outcome.trials


def autotune(
    factory: EstimatorFactory,
    initial_config: PipelineConfig | None = None,
    options: AutotuneOptions | None = None,
    knowledge: TuningKnowledgeBase | None = None,
    strategy_options: dict | None = None,
) -> AutotuneResult:
    """Run the full offline autotune: fingerprint, warm-start, search, guard."""
    options = options or AutotuneOptions()
    initial = initial_config if initial_config is not None else PipelineConfig()

    with obs.trace("optimizer.autotune", strategy=options.strategy) as span:
        signature = detect_phase_signature(factory, initial, options)

        # Warm start: overlay the nearest stored configuration, if any.
        match: KnowledgeMatch | None = None
        start_config = initial
        if knowledge is not None and len(knowledge) > 0:
            match = knowledge.lookup(signature, options.knowledge_threshold)
        warm_started = False
        rolled_back = False
        if match is not None:
            try:
                start_config = match.entry.apply_to(initial)
                warm_started = True
            except ConfigurationError:
                # Stored knobs no longer validate: treat as a miss.
                match = None
                start_config = initial
                rolled_back = True
                _ROLLBACKS.inc()

        parameters = discover_parameters(initial)
        reference = OutputSignature.of(factory(initial))
        resolved_options = dict(strategy_options or {})
        surrogate: SurrogateModel | None = None
        if options.strategy == "surrogate":
            # Build the learned performance model from every available
            # source (knowledge-base observations + the bench corpus)
            # and hand the strategy the phase fingerprint it predicts
            # under, plus the stored best configs as population seeds.
            surrogate = resolved_options.get("model") or build_surrogate(
                knowledge=knowledge,
                corpus=options.surrogate_corpus,
                kind=options.surrogate_kind,
            )
            resolved_options.setdefault("model", surrogate)
            resolved_options.setdefault("signature", signature)
            if knowledge is not None:
                resolved_options.setdefault(
                    "priors",
                    tuple(dict(entry.config) for entry in knowledge.entries),
                )
        strategy = build_strategy(options.strategy, **resolved_options)
        evaluator = EstimatorTrialEvaluator(
            factory,
            options.seed,
            overhead_us_per_trial=options.overhead_us_per_trial,
            reference=reference,
        )
        try:
            outcome = strategy.search(parameters, start_config, evaluator, options.seed)
        except QualityViolationError:
            if not warm_started:
                raise
            # A warm-started candidate corrupted output: drop the
            # prior entirely and search cold from the defaults.
            warm_started = False
            rolled_back = True
            _ROLLBACKS.inc()
            outcome = strategy.search(parameters, initial, evaluator, options.seed)

        if warm_started:
            # The guard trial: the warm search's champion must beat a
            # fresh measurement of the user's defaults, else the warm
            # start misled the search and the defaults win.
            guard_steps = int(getattr(strategy, "trial_steps", 6))
            guard = evaluator.evaluate([("warmstart:guard", initial, guard_steps)])[0]
            outcome.trials.append(guard)
            if outcome.best_throughput < guard.throughput:
                rolled_back = True
                _ROLLBACKS.inc()
                outcome.best_config = initial
                outcome.best_throughput = guard.throughput

        recorded = False
        persist_error: str | None = None
        if knowledge is not None and not rolled_back and outcome.improvement > 1.0:
            stored = {
                p.name: getattr(outcome.best_config, p.name) for p in parameters
            }
            observations = tuple(
                {
                    "config": {
                        p.name: getattr(trial.config, p.name) for p in parameters
                    },
                    "throughput": trial.throughput,
                }
                for trial in outcome.trials
            )
            knowledge.record(
                KnowledgeEntry(
                    signature=signature,
                    config=stored,
                    improvement=outcome.improvement,
                    trials=len(outcome.trials),
                    workload=options.workload,
                    observations=observations,
                )
            )
            knowledge.save()
            persist_error = knowledge.persist_error
            recorded = True

        span.set(
            warm_started=warm_started,
            rolled_back=rolled_back,
            trials=len(outcome.trials),
            improvement=outcome.improvement,
        )

    return AutotuneResult(
        outcome=outcome,
        signature=signature,
        warm_started=warm_started,
        warm_similarity=match.similarity if match is not None else None,
        rolled_back=rolled_back,
        knowledge_recorded=recorded,
        simulated_us=evaluator.simulated_us,
        surrogate=surrogate,
        knowledge_persist_error=(
            persist_error
            if persist_error is not None
            else (knowledge.persist_error if knowledge is not None else None)
        ),
    )
