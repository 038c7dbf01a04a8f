"""Properties of the from-scratch clustering algorithms."""

import numpy as np
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from repro.core.analyzer.dbscan import NOISE, dbscan
from repro.core.analyzer.elbow import find_elbow
from repro.core.analyzer.kmeans import kmeans, sweep_k
from repro.core.analyzer.pca import PCA

matrices = arrays(
    dtype=np.float64,
    shape=st.tuples(st.integers(4, 24), st.integers(2, 6)),
    elements=st.floats(min_value=-100.0, max_value=100.0, allow_nan=False),
)


@settings(max_examples=30, deadline=None)
@given(matrices, st.integers(1, 4))
def test_kmeans_labels_valid_and_inertia_nonnegative(matrix, k):
    result = kmeans(matrix, k, np.random.default_rng(0), n_init=1)
    assert result.labels.shape == (matrix.shape[0],)
    assert set(result.labels.tolist()) <= set(range(k))
    assert result.inertia >= 0.0
    assert result.centers.shape == (k, matrix.shape[1])


@settings(max_examples=20, deadline=None)
@given(matrices)
def test_kmeans_inertia_weakly_decreases_with_k(matrix):
    rng = np.random.default_rng(0)
    inertias = [kmeans(matrix, k, rng, n_init=3).inertia for k in (1, 2, 3)]
    # Best-of-restarts keeps the curve monotone up to numerical slack.
    assert inertias[0] >= inertias[1] - 1e-6
    assert inertias[1] >= inertias[2] - 1e-6


@settings(max_examples=20, deadline=None)
@given(matrices, st.integers(0, 1000))
def test_sweep_fit_equals_separate_seeded_fit(matrix, seed):
    # elbow_fit takes the chosen fit from the sweep instead of refitting;
    # that is sound only because every (k, restart) has its own substream.
    sweep = sweep_k(matrix, range(1, 5), seed=seed)
    for k, fit in sweep.items():
        alone = kmeans(matrix, k, seed=seed)
        assert np.array_equal(fit.labels, alone.labels)
        assert np.array_equal(fit.centers, alone.centers)
        assert fit.inertia == alone.inertia
        assert fit.iterations == alone.iterations


@settings(max_examples=30, deadline=None)
@given(matrices, st.floats(0.5, 50.0), st.integers(1, 8))
def test_dbscan_labels_partition_points(matrix, eps, min_samples):
    result = dbscan(matrix, eps, min_samples)
    assert result.labels.shape == (matrix.shape[0],)
    labels = set(result.labels.tolist())
    clusters = labels - {NOISE}
    # Cluster ids are consecutive from 0.
    assert clusters == set(range(len(clusters)))
    assert 0.0 <= result.noise_ratio <= 1.0


@settings(max_examples=30, deadline=None)
@given(matrices, st.floats(0.5, 50.0))
def test_dbscan_min_samples_one_has_no_noise(matrix, eps):
    # Every point is a core point of its own neighborhood.
    result = dbscan(matrix, eps, min_samples=1)
    assert result.noise_ratio == 0.0


@settings(max_examples=30, deadline=None)
@given(matrices)
def test_pca_output_shape_and_determinism(matrix):
    pca = PCA(max_components=3)
    reduced = pca.fit_transform(matrix)
    assert reduced.shape[0] == matrix.shape[0]
    assert reduced.shape[1] <= 3
    again = PCA(max_components=3).fit_transform(matrix)
    assert np.allclose(reduced, again)


@settings(max_examples=50, deadline=None)
@given(
    st.lists(
        st.floats(min_value=-1e6, max_value=1e6, allow_nan=False),
        min_size=1,
        max_size=20,
    )
)
def test_elbow_returns_valid_index(ys):
    xs = [float(i) for i in range(len(ys))]
    index = find_elbow(xs, ys)
    assert 0 <= index < len(ys)
