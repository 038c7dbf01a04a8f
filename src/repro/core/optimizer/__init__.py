"""TPUPoint-Optimizer: automatic workload tuning, online and offline.

Two engines share the parameter space and quality control:

* :class:`TPUPointOptimizer` — the paper's online workflow (detect the
  critical phase mid-run, hill-climb the live pipeline through
  :class:`LiveTrialEvaluator`, finish tuned).
* :func:`autotune` — the offline engine: pluggable search strategies
  (:data:`STRATEGIES`) over independent trial runs, warm-started from a
  phase-keyed :class:`TuningKnowledgeBase`.
"""

from repro.core.optimizer.autotune import (
    AutotuneOptions,
    AutotuneResult,
    EstimatorTrialEvaluator,
    autotune,
    detect_phase_signature,
)
from repro.core.optimizer.detector import CRITICAL_PATTERN, CriticalPhaseDetector
from repro.core.optimizer.instrument import InstrumentationReport, ProgramInstrumenter
from repro.core.optimizer.knowledge import (
    KnowledgeEntry,
    KnowledgeMatch,
    TuningKnowledgeBase,
)
from repro.core.optimizer.optimizer import (
    LiveTrialEvaluator,
    OptimizationResult,
    OptimizerOptions,
    TPUPointOptimizer,
)
from repro.core.optimizer.parameters import AdjustableParameter, discover_parameters
from repro.core.optimizer.quality import OutputSignature, QualityController
from repro.core.optimizer.strategies import (
    STRATEGIES,
    CandidateTrial,
    HillClimbStrategy,
    SearchOutcome,
    SearchStrategy,
    SimulatedAnnealingStrategy,
    SuccessiveHalvingStrategy,
    SurrogateStrategy,
    build_strategy,
)
from repro.core.optimizer.surrogate import (
    FEATURE_SCHEMA_VERSION,
    RidgeModel,
    StumpModel,
    SurrogateModel,
    TrainingPair,
    build_surrogate,
    feature_vector,
    load_corpus,
    mine_knowledge,
)

__all__ = [
    "CRITICAL_PATTERN",
    "FEATURE_SCHEMA_VERSION",
    "STRATEGIES",
    "AdjustableParameter",
    "AutotuneOptions",
    "AutotuneResult",
    "CandidateTrial",
    "CriticalPhaseDetector",
    "EstimatorTrialEvaluator",
    "HillClimbStrategy",
    "InstrumentationReport",
    "KnowledgeEntry",
    "KnowledgeMatch",
    "LiveTrialEvaluator",
    "OptimizationResult",
    "OptimizerOptions",
    "OutputSignature",
    "ProgramInstrumenter",
    "QualityController",
    "RidgeModel",
    "SearchOutcome",
    "SearchStrategy",
    "SimulatedAnnealingStrategy",
    "StumpModel",
    "SuccessiveHalvingStrategy",
    "SurrogateModel",
    "SurrogateStrategy",
    "TPUPointOptimizer",
    "TrainingPair",
    "TuningKnowledgeBase",
    "autotune",
    "build_strategy",
    "build_surrogate",
    "detect_phase_signature",
    "discover_parameters",
    "feature_vector",
    "load_corpus",
    "mine_knowledge",
]
