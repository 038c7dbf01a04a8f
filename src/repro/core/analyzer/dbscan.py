"""DBSCAN clustering, implemented from scratch.

TPUPoint-Analyzer's alternative to k-means (Section IV-A): density-based
clustering over the same frequency vectors, sweeping the minimum number
of samples required to form a cluster from 5 to 180 in steps of 25 and
applying the elbow method to the noise ratio (unlabeled points / total).

Distances come from the blocked shared kernel
(:mod:`repro.core.analyzer.distance`): one pass builds the
eps-neighborhood graph (and, when eps is unset, eps itself), and every
``min_samples`` value of the sweep is a cheap relabeling of that graph —
the core-point test is a single vectorized comparison of the CSR
neighbor counts, with no per-point index lists materialized for it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.analyzer.distance import (
    NeighborGraph,
    build_neighbor_graph,
    kth_neighbor_distances,
)
from repro.errors import ClusteringError

NOISE = -1

#: The paper's min_samples sweep: 5..180 in steps of 25 (Section IV-A).
#: Shared by ``sweep_min_samples``, ``TPUPointAnalyzer.dbscan_sweep``,
#: and ``choose_min_samples`` so the ranges cannot drift apart again.
MIN_SAMPLES_SWEEP = range(5, 181, 25)

#: k-distance heuristic defaults (see :func:`default_eps`).
DEFAULT_EPS_NEIGHBOR = 10
DEFAULT_EPS_PERCENTILE = 75.0


@dataclass(frozen=True)
class DbscanResult:
    """Outcome of one DBSCAN run."""

    eps: float
    min_samples: int
    labels: np.ndarray

    @property
    def num_clusters(self) -> int:
        """Number of clusters found (noise excluded)."""
        return len({label for label in self.labels.tolist() if label != NOISE})

    @property
    def noise_ratio(self) -> float:
        """Unlabeled points over total points (the paper's Figure 5 metric)."""
        if len(self.labels) == 0:
            return 0.0
        return float((self.labels == NOISE).sum()) / len(self.labels)


def default_eps(
    matrix: np.ndarray,
    neighbor: int = DEFAULT_EPS_NEIGHBOR,
    percentile: float = DEFAULT_EPS_PERCENTILE,
    memory_budget_bytes: float | None = None,
) -> float:
    """A data-driven eps from the k-distance curve.

    The paper sweeps min_samples with eps held fixed; this heuristic
    picks that fixed eps as a high percentile of the distance to the
    ``neighbor``-th nearest point — wide enough that the dominant dense
    region (the training steps) forms a cluster at moderate minimum
    sample counts, the standard k-distance recipe. Computed in row
    blocks (one distance pass, O(block x n) transient memory); when a
    neighbor graph is being built anyway, :func:`build_neighbor_graph`
    folds this heuristic into that same pass instead.
    """
    if matrix.shape[0] <= 1:
        return 1.0
    kth = kth_neighbor_distances(
        matrix, neighbor, memory_budget_bytes=memory_budget_bytes
    )
    eps = float(np.percentile(kth, percentile))
    return eps if eps > 0.0 else 1.0


def dbscan_from_graph(graph: NeighborGraph, min_samples: int) -> DbscanResult:
    """Label the points of a prebuilt neighbor graph — no distance work.

    This is the sweep's relabeling step: core points fall out of one
    vectorized comparison against the CSR neighbor counts, and the BFS
    expands whole frontiers at a time over CSR slices. Visit order
    differs from the old per-point traversal but the labels cannot:
    cluster ids are assigned by seed order, and every point reachable
    from a seed's core set joins that cluster regardless of walk order.
    """
    if min_samples <= 0:
        raise ClusteringError("min_samples must be positive")
    n = graph.num_points
    core = graph.counts >= min_samples
    indptr, indices = graph.indptr, graph.indices

    labels = np.full(n, NOISE, dtype=int)
    reached = np.zeros(n, dtype=bool)  # per-level scratch, allocated once
    cluster = 0
    for seed in range(n):
        if labels[seed] != NOISE or not core[seed]:
            continue
        # Grow a new cluster from this unvisited core point, one BFS
        # level at a time: every neighbor of the current core frontier
        # joins the cluster, and the core ones among them expand next.
        # Clusters still start sequentially from the lowest-index
        # unvisited core point, so contended border points land in the
        # same cluster the per-point traversal gave them.
        labels[seed] = cluster
        frontier = np.array([seed], dtype=np.int64)
        while frontier.size:
            reached.fill(False)
            for point in frontier:
                reached[indices[indptr[point] : indptr[point + 1]]] = True
            newly = np.flatnonzero(reached & (labels == NOISE))
            labels[newly] = cluster
            frontier = newly[core[newly]]
        cluster += 1
    return DbscanResult(eps=graph.eps, min_samples=min_samples, labels=labels)


def dbscan(
    matrix: np.ndarray,
    eps: float,
    min_samples: int,
    *,
    graph: NeighborGraph | None = None,
    memory_budget_bytes: float | None = None,
) -> DbscanResult:
    """Density-based clustering of the rows of ``matrix``."""
    if matrix.ndim != 2 or matrix.shape[0] == 0:
        raise ClusteringError("DBSCAN needs a non-empty 2-D matrix")
    if eps <= 0.0:
        raise ClusteringError("eps must be positive")
    if min_samples <= 0:
        raise ClusteringError("min_samples must be positive")
    if graph is None:
        graph = build_neighbor_graph(
            matrix, eps, memory_budget_bytes=memory_budget_bytes
        )
    return dbscan_from_graph(graph, min_samples)


def sweep_min_samples(
    matrix: np.ndarray,
    min_samples_values: list[int] | range = MIN_SAMPLES_SWEEP,
    eps: float | None = None,
    *,
    graph: NeighborGraph | None = None,
    memory_budget_bytes: float | None = None,
) -> dict[int, DbscanResult]:
    """Run DBSCAN for each min_samples value (the analyzer's stage 2).

    The neighbor graph — and eps, when unset — is computed in exactly
    one distance pass and reused across every sweep point; each point
    is a relabeling of that graph, with no further distance work.
    """
    values = list(min_samples_values)
    if not values:
        raise ClusteringError("empty min_samples sweep")
    if any(v <= 0 for v in values):
        raise ClusteringError("min_samples must be positive")
    if matrix.ndim != 2 or matrix.shape[0] == 0:
        raise ClusteringError("DBSCAN needs a non-empty 2-D matrix")
    if graph is None:
        graph = build_neighbor_graph(
            matrix, eps, memory_budget_bytes=memory_budget_bytes
        )
    return {ms: dbscan_from_graph(graph, ms) for ms in values}
