"""TPUPoint-Analyzer: post-execution phase detection and reporting."""

from repro.core.analyzer.analyzer import (
    AnalysisResult,
    AnalyzerMemoryError,
    TPUPointAnalyzer,
)
from repro.core.analyzer.bic import bic_score, choose_k_bic
from repro.core.analyzer.checkpoints import (
    PhaseCheckpoint,
    associate_checkpoints,
    fast_forward_cost_us,
)
from repro.core.analyzer.coverage import CoverageReport, coverage
from repro.core.analyzer.csvexport import write_operator_csv, write_phase_csv
from repro.core.analyzer.dbscan import (
    MIN_SAMPLES_SWEEP,
    DbscanResult,
    dbscan,
    dbscan_from_graph,
    default_eps,
    sweep_min_samples,
)
from repro.core.analyzer.distance import (
    NeighborGraph,
    build_neighbor_graph,
    distance_passes,
    kth_neighbor_distances,
    pairwise_distances,
    pairwise_sq_distances,
    reset_pass_counter,
)
from repro.core.analyzer.elbow import elbow_value, find_elbow
from repro.core.analyzer.features import (
    FeatureMatrix,
    build_features,
    global_step_numbers,
    merge_records,
)
from repro.core.analyzer.kmeans import K_SWEEP, KMeansResult, kmeans, sweep_k
from repro.core.analyzer.ols import (
    DEFAULT_SIMILARITY_THRESHOLD,
    OnlineLinearScan,
    ols_labels,
    step_similarity,
    sweep_thresholds,
)
from repro.core.analyzer.operators import (
    TopOperatorRow,
    appearance_totals,
    top_operators_of_longest_phase,
)
from repro.core.analyzer.pca import PCA
from repro.core.analyzer.phases import Phase, build_phases, longest_phase
from repro.core.analyzer.streaming import StreamingAnalyzer
from repro.core.analyzer.visualize import chrome_trace, write_chrome_trace

__all__ = [
    "DEFAULT_SIMILARITY_THRESHOLD",
    "K_SWEEP",
    "MIN_SAMPLES_SWEEP",
    "AnalysisResult",
    "AnalyzerMemoryError",
    "CoverageReport",
    "DbscanResult",
    "FeatureMatrix",
    "KMeansResult",
    "NeighborGraph",
    "OnlineLinearScan",
    "PCA",
    "Phase",
    "PhaseCheckpoint",
    "StreamingAnalyzer",
    "TPUPointAnalyzer",
    "TopOperatorRow",
    "appearance_totals",
    "bic_score",
    "choose_k_bic",
    "associate_checkpoints",
    "build_features",
    "build_neighbor_graph",
    "build_phases",
    "chrome_trace",
    "coverage",
    "dbscan",
    "dbscan_from_graph",
    "default_eps",
    "distance_passes",
    "elbow_value",
    "fast_forward_cost_us",
    "find_elbow",
    "global_step_numbers",
    "kmeans",
    "kth_neighbor_distances",
    "longest_phase",
    "merge_records",
    "ols_labels",
    "pairwise_distances",
    "pairwise_sq_distances",
    "reset_pass_counter",
    "step_similarity",
    "sweep_k",
    "sweep_min_samples",
    "sweep_thresholds",
    "top_operators_of_longest_phase",
    "write_chrome_trace",
    "write_operator_csv",
    "write_phase_csv",
]
