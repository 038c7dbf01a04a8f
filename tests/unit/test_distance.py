"""The blocked shared distance kernel and its pass accounting."""

import numpy as np
import pytest

from repro.core.analyzer import TPUPointAnalyzer
from repro.core.analyzer import distance as distance_mod
from repro.core.analyzer.dbscan import MIN_SAMPLES_SWEEP, sweep_min_samples
from repro.core.analyzer.distance import (
    NeighborGraph,
    block_rows,
    build_neighbor_graph,
    distance_passes,
    kth_neighbor_distances,
    pairwise_distances,
    pairwise_sq_distances,
    reset_pass_counter,
)
from repro.errors import AnalyzerMemoryError, ClusteringError


def naive_sq(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The O(n^2 d) broadcast the kernel replaced — the reference."""
    return ((a[:, None, :] - b[None, :, :]) ** 2).sum(axis=2)


@pytest.fixture
def matrix(rng) -> np.ndarray:
    return rng.normal(size=(37, 5)) * 10.0


@pytest.fixture
def sq_block_calls(monkeypatch) -> list[int]:
    """Rows per ``_sq_block`` call (one entry per BLAS block)."""
    calls: list[int] = []
    kernel = distance_mod._sq_block

    def counting(block, *args):
        calls.append(block.shape[0])
        return kernel(block, *args)

    monkeypatch.setattr(distance_mod, "_sq_block", counting)
    return calls


class TestPairwise:
    def test_matches_naive_broadcast(self, matrix):
        got = pairwise_sq_distances(matrix)
        assert np.allclose(got, naive_sq(matrix, matrix), atol=1e-8)

    def test_cross_distances_match(self, matrix, rng):
        other = rng.normal(size=(11, 5))
        got = pairwise_sq_distances(matrix, other)
        assert got.shape == (37, 11)
        assert np.allclose(got, naive_sq(matrix, other), atol=1e-8)

    def test_assignment_is_one_block_per_call(self, rng, sq_block_calls):
        # The k-means assignment shape: every step against k centers.
        steps = rng.normal(size=(400, 8))
        for k in range(1, 16):
            sq_block_calls.clear()
            got = pairwise_sq_distances(steps, steps[:k])
            assert sq_block_calls == [400]
            assert np.allclose(got, naive_sq(steps, steps[:k]), atol=1e-8)

    def test_small_block_same_answer(self, matrix):
        # A budget that forces many tiny blocks must not change values.
        budget = 5 * matrix.shape[0] * 24  # ~5 rows per block
        got = pairwise_sq_distances(matrix, memory_budget_bytes=budget)
        assert np.allclose(got, naive_sq(matrix, matrix), atol=1e-8)

    def test_distances_are_sqrt(self, matrix):
        assert np.allclose(
            pairwise_distances(matrix) ** 2, pairwise_sq_distances(matrix), atol=1e-8
        )

    def test_self_pass_counted_cross_not(self, matrix):
        reset_pass_counter()
        pairwise_sq_distances(matrix)
        assert distance_passes() == 1
        pairwise_sq_distances(matrix, matrix[:4])
        assert distance_passes() == 1  # cross-distances are not a full pass

    def test_rejects_bad_shapes(self, matrix):
        with pytest.raises(ClusteringError):
            pairwise_sq_distances(matrix[0])
        with pytest.raises(ClusteringError):
            pairwise_sq_distances(matrix, matrix[:, :2])


class TestBlockRows:
    def test_default_budget_gives_many_rows(self):
        assert block_rows(100, 100, None) > 1

    def test_capped_by_rows_not_columns(self):
        assert block_rows(400, 15, None) == 400
        assert block_rows(0, 15, None) == 1

    def test_explicit_budget_too_small_raises(self):
        with pytest.raises(AnalyzerMemoryError):
            block_rows(1000, 1000, 10.0)

    def test_no_budget_never_raises(self):
        assert block_rows(10**9, 10**9, None) == 1

    def test_tight_budget_splits_assignment(self, rng, sq_block_calls):
        steps, centers = rng.normal(size=(400, 8)), rng.normal(size=(15, 8))
        budget = 64 * 15 * 24  # 64 rows of 15 columns
        got = pairwise_sq_distances(steps, centers, memory_budget_bytes=budget)
        assert sq_block_calls == [64] * 6 + [16]
        assert np.allclose(got, naive_sq(steps, centers), atol=1e-8)


class TestKthNeighbor:
    def test_matches_sorted_reference(self, matrix):
        k = 4
        full = np.sqrt(naive_sq(matrix, matrix))
        reference = np.sort(full, axis=1)[:, k]
        assert np.allclose(kth_neighbor_distances(matrix, k), reference, atol=1e-8)

    def test_k_clamps_to_n_minus_one(self, matrix):
        n = matrix.shape[0]
        capped = kth_neighbor_distances(matrix, n + 50)
        reference = np.sort(np.sqrt(naive_sq(matrix, matrix)), axis=1)[:, n - 1]
        assert np.allclose(capped, reference, atol=1e-8)


class TestNeighborGraph:
    def test_explicit_eps_matches_bruteforce(self, matrix):
        eps = 8.0
        graph = build_neighbor_graph(matrix, eps)
        full = np.sqrt(naive_sq(matrix, matrix))
        for i in range(matrix.shape[0]):
            expected = np.flatnonzero(full[i] <= eps)
            assert np.array_equal(graph.neighbors(i), expected)
        assert np.array_equal(graph.counts, (full <= eps).sum(axis=1))

    def test_auto_eps_matches_default_eps(self, matrix):
        from repro.core.analyzer.dbscan import default_eps

        graph = build_neighbor_graph(matrix)
        assert graph.eps == default_eps(matrix)

    def test_auto_eps_graph_is_exact(self, matrix):
        # The radius-cap machinery is an optimization, not an approximation.
        graph = build_neighbor_graph(matrix)
        exact = build_neighbor_graph(matrix, graph.eps)
        assert np.array_equal(graph.indptr, exact.indptr)
        assert np.array_equal(graph.indices, exact.indices)

    def test_revisited_rows_keep_the_pass_distances(self):
        # eps * eps rounds one ulp above the cap, so every row is revisited;
        # a one-row product of these rows misses the block's last bits and
        # used to drop point 0's edges at exactly eps.
        x = 1.7063207530598135
        matrix = np.array([[2.0, x]] + [[x, x]] * 4)
        graph = build_neighbor_graph(matrix)
        exact = build_neighbor_graph(matrix, graph.eps)
        assert np.array_equal(graph.indptr, exact.indptr)
        assert np.array_equal(graph.indices, exact.indices)
        assert graph.counts.tolist() == [5] * 5

    def test_one_pass_per_build(self, matrix):
        reset_pass_counter()
        build_neighbor_graph(matrix)
        assert distance_passes() == 1
        build_neighbor_graph(matrix, 3.0)
        assert distance_passes() == 2

    def test_adjacency_budget_enforced(self, matrix):
        # Enough for the transient block but not the accumulated edges.
        tight = matrix.shape[0] * 24 + 64
        with pytest.raises(AnalyzerMemoryError):
            build_neighbor_graph(matrix, 1e9, memory_budget_bytes=tight)

    def test_csr_accessors(self):
        graph = NeighborGraph(
            eps=1.0,
            indptr=np.array([0, 2, 3], dtype=np.int64),
            indices=np.array([0, 1, 1], dtype=np.int64),
        )
        assert graph.num_points == 2
        assert graph.counts.tolist() == [2, 1]
        assert graph.neighbors(0).tolist() == [0, 1]
        assert graph.memory_bytes() == graph.indptr.nbytes + graph.indices.nbytes


class TestSweepPasses:
    """A whole DBSCAN min_samples sweep spends exactly one distance pass."""

    def test_full_sweep_is_one_pass(self, rng):
        matrix = rng.normal(size=(200, 6))
        reset_pass_counter()
        results = sweep_min_samples(matrix, MIN_SAMPLES_SWEEP)
        assert sorted(results) == list(MIN_SAMPLES_SWEEP)
        assert distance_passes() == 1

    def test_analyzer_sweep_then_phases_is_one_pass(self, bert_mrpc_run):
        _, _, records = bert_mrpc_run
        analyzer = TPUPointAnalyzer(records)
        reset_pass_counter()
        analyzer.dbscan_sweep()
        analyzer.dbscan_phases()
        assert distance_passes() == 1
