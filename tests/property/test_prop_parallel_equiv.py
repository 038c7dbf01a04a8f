"""The analyzer's shared-work paths are pure optimizations.

On arbitrary step matrices, each fast path must give the answer of its
plain reference: the blocked distance kernel matches the naive
broadcast at any block budget, a DBSCAN sweep over one shared neighbor
graph labels exactly as per-value DBSCAN calls do, and the streaming
OLS scan labels exactly as the offline one. Any drift here means an
"optimization" changed answers.
"""

import numpy as np
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from repro.core.analyzer.dbscan import dbscan, sweep_min_samples
from repro.core.analyzer.distance import (
    build_neighbor_graph,
    pairwise_sq_distances,
)
from repro.core.analyzer.ols import OnlineLinearScan, ols_labels
from repro.core.profiler.record import StepStats
from repro.runtime.events import DeviceKind

matrices = arrays(
    dtype=np.float64,
    shape=st.tuples(st.integers(5, 20), st.integers(2, 5)),
    elements=st.floats(min_value=-50.0, max_value=50.0, allow_nan=False),
)


@settings(max_examples=15, deadline=None)
@given(matrices)
def test_blocked_kernel_budget_invariant(matrix):
    # Tiny blocks, default blocks, and the naive broadcast all agree.
    naive = ((matrix[:, None, :] - matrix[None, :, :]) ** 2).sum(axis=2)
    tiny = pairwise_sq_distances(
        matrix, memory_budget_bytes=2 * matrix.shape[0] * 24
    )
    assert np.allclose(pairwise_sq_distances(matrix), naive, atol=1e-8)
    assert np.allclose(tiny, naive, atol=1e-8)


@settings(max_examples=15, deadline=None)
@given(matrices, st.integers(1, 8))
def test_dbscan_shared_graph_identical_to_per_call(matrix, min_samples):
    graph = build_neighbor_graph(matrix)
    values = [min_samples, min_samples + 2, min_samples + 7]
    shared = sweep_min_samples(matrix, values, graph=graph)
    for ms in values:
        fresh = dbscan(matrix, graph.eps, ms)  # rebuilds its own graph
        assert np.array_equal(shared[ms].labels, fresh.labels)
        assert shared[ms].eps == fresh.eps


def _steps_from(matrix: np.ndarray) -> list[StepStats]:
    """Random step matrices → StepStats whose event sets follow the signs."""
    steps = []
    for i, row in enumerate(matrix):
        step = StepStats(step=i)
        for j, value in enumerate(row):
            if value > 0:
                step.observe(f"op{j}", DeviceKind.TPU, float(abs(value)))
        steps.append(step)
    return steps


@settings(max_examples=15, deadline=None)
@given(matrices, st.floats(0.0, 1.0))
def test_ols_streaming_identical_to_offline(matrix, threshold):
    steps = _steps_from(matrix)
    offline = ols_labels(steps, threshold)
    scanner = OnlineLinearScan(threshold=threshold)
    streamed = [scanner.observe(step) for step in steps]
    assert streamed == offline.tolist()
    assert np.array_equal(ols_labels(steps, threshold), offline)
