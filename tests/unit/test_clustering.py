"""k-means, DBSCAN, and the elbow method."""

import numpy as np
import pytest

from repro.core.analyzer.dbscan import NOISE, dbscan, default_eps, sweep_min_samples
from repro.core.analyzer.elbow import elbow_value, find_elbow
from repro.core.analyzer.kmeans import kmeans, sweep_k
from repro.errors import AnalyzerError, ClusteringError


def _blobs(rng, centers=((0, 0), (10, 10), (20, 0)), per=30, scale=0.5):
    points = [rng.normal(loc=c, scale=scale, size=(per, 2)) for c in centers]
    return np.vstack(points)


class TestKMeans:
    def test_recovers_separated_blobs(self, rng):
        data = _blobs(rng)
        result = kmeans(data, 3, rng)
        # Each blob maps to exactly one cluster label.
        for start in (0, 30, 60):
            assert len(set(result.labels[start : start + 30].tolist())) == 1
        assert len(set(result.labels.tolist())) == 3

    def test_inertia_zero_for_identical_points(self, rng):
        data = np.ones((10, 3))
        assert kmeans(data, 1, rng).inertia == pytest.approx(0.0)

    def test_inertia_decreases_with_k(self, rng):
        data = _blobs(rng)
        sweep = sweep_k(data, range(1, 6), rng)
        inertias = [sweep[k].inertia for k in sorted(sweep)]
        assert all(a >= b - 1e-9 for a, b in zip(inertias, inertias[1:]))

    def test_k_equals_n_gives_zero_inertia(self, rng):
        data = rng.normal(size=(5, 2))
        assert kmeans(data, 5, rng).inertia == pytest.approx(0.0, abs=1e-9)

    def test_labels_in_range(self, rng):
        result = kmeans(_blobs(rng), 4, rng)
        assert set(result.labels.tolist()) <= set(range(4))

    def test_validation(self, rng):
        with pytest.raises(ClusteringError):
            kmeans(np.zeros((3, 2)), 0, rng)
        with pytest.raises(ClusteringError):
            kmeans(np.zeros((3, 2)), 4, rng)
        with pytest.raises(ClusteringError):
            kmeans(np.zeros((0, 2)), 1, rng)
        with pytest.raises(ClusteringError):
            kmeans(np.zeros((3, 2)), 1, rng, n_init=0)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_matrix_rejected(self, rng, bad):
        data = _blobs(rng)
        data[7, 1] = bad
        with pytest.raises(ClusteringError, match="finite"):
            kmeans(data, 3, rng)
        with pytest.raises(ClusteringError, match="finite"):
            kmeans(data, 3, seed=0)
        with pytest.raises(ClusteringError, match="finite"):
            sweep_k(data, range(1, 5), seed=0)

    def test_deterministic_under_seed(self):
        data = _blobs(np.random.default_rng(0))
        a = kmeans(data, 3, np.random.default_rng(7))
        b = kmeans(data, 3, np.random.default_rng(7))
        assert np.array_equal(a.labels, b.labels)

    def test_sweep_stops_at_sample_count(self, rng):
        data = rng.normal(size=(4, 2))
        sweep = sweep_k(data, range(1, 16), rng)
        assert max(sweep) == 4

    def test_sweep_accepts_a_list_matrix(self):
        data = _blobs(np.random.default_rng(0), per=4).tolist()
        from_list = sweep_k(data, range(1, 4), seed=3)
        from_array = sweep_k(np.array(data), range(1, 4), seed=3)
        for k, fit in from_list.items():
            assert np.array_equal(fit.labels, from_array[k].labels)
            assert fit.inertia == from_array[k].inertia


class TestDbscan:
    def test_finds_dense_clusters_and_noise(self, rng):
        data = np.vstack([_blobs(rng, centers=((0, 0), (10, 10)), per=40), [[100.0, 100.0]]])
        result = dbscan(data, eps=2.0, min_samples=5)
        assert result.num_clusters == 2
        assert result.labels[-1] == NOISE
        assert result.noise_ratio == pytest.approx(1 / 81)

    def test_min_samples_too_high_all_noise(self, rng):
        data = _blobs(rng, centers=((0, 0),), per=20)
        result = dbscan(data, eps=2.0, min_samples=50)
        assert result.num_clusters == 0
        assert result.noise_ratio == 1.0

    def test_noise_ratio_monotone_in_min_samples(self, rng):
        data = _blobs(rng)
        results = sweep_min_samples(data, [5, 15, 30, 60, 120], eps=2.0)
        ratios = [results[m].noise_ratio for m in sorted(results)]
        assert all(a <= b + 1e-9 for a, b in zip(ratios, ratios[1:]))

    def test_border_points_join_clusters(self):
        # A line of points spaced 1 apart with eps 1.5: one cluster.
        data = np.array([[float(i), 0.0] for i in range(10)])
        result = dbscan(data, eps=1.5, min_samples=3)
        assert result.num_clusters == 1
        assert result.noise_ratio == 0.0

    def test_default_eps_positive(self, rng):
        assert default_eps(_blobs(rng)) > 0.0
        assert default_eps(np.zeros((1, 2))) == 1.0

    def test_validation(self):
        with pytest.raises(ClusteringError):
            dbscan(np.zeros((2, 2)), eps=0.0, min_samples=1)
        with pytest.raises(ClusteringError):
            dbscan(np.zeros((2, 2)), eps=1.0, min_samples=0)
        with pytest.raises(ClusteringError):
            dbscan(np.zeros((0, 2)), eps=1.0, min_samples=1)


class TestElbow:
    def test_finds_knee_of_l_curve(self):
        xs = [1, 2, 3, 4, 5, 6]
        ys = [100.0, 40.0, 12.0, 10.0, 9.0, 8.5]
        assert elbow_value(xs, ys) == 3

    def test_straight_line_has_no_interior_knee(self):
        xs = [1.0, 2.0, 3.0, 4.0]
        ys = [4.0, 3.0, 2.0, 1.0]
        idx = find_elbow(xs, ys)
        assert idx in (0, len(xs) - 1) or ys[idx] == pytest.approx(ys[idx])

    def test_short_curves(self):
        assert find_elbow([1.0], [5.0]) == 0
        assert find_elbow([1.0, 2.0], [5.0, 1.0]) == 0

    def test_validation(self):
        with pytest.raises(AnalyzerError):
            find_elbow([], [])
        with pytest.raises(AnalyzerError):
            find_elbow([1.0, 2.0], [1.0])
        with pytest.raises(AnalyzerError):
            find_elbow([1.0, 1.0, 1.0], [1.0, 2.0, 3.0])

    def test_flat_curve_returns_index(self):
        assert find_elbow([1.0, 2.0, 3.0], [5.0, 5.0, 5.0]) in (0, 1, 2)
