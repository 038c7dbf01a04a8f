"""Analyzer stage 1: step aggregation, features, PCA."""

import numpy as np
import pytest

from repro.core.analyzer.features import (
    build_features,
    global_step_numbers,
    merge_records,
)
from repro.core.analyzer.pca import PCA
from repro.core.profiler.record import ProfileRecord, StepStats
from repro.errors import AnalyzerError
from repro.runtime.events import DeviceKind, StepKind, StepMetadata


def _record(index, steps):
    record = ProfileRecord(index=index, window_start_us=0.0, window_end_us=1.0)
    for step in steps:
        record.steps[step.step] = step
    return record


def _step(number, ops, kind=StepKind.TRAIN):
    step = StepStats(step=number)
    for name, duration in ops:
        step.observe(name, DeviceKind.TPU, duration)
    step.attach_metadata(
        StepMetadata(number, kind, number * 10.0, number * 10.0 + 5.0, 1.0, 1.0)
    )
    return step


class TestMergeRecords:
    def test_merges_split_steps(self):
        first = _record(0, [_step(1, [("MatMul", 10.0)])])
        second = _record(1, [_step(1, [("MatMul", 5.0)]), _step(2, [("Sum", 1.0)])])
        merged = merge_records([first, second])
        assert [s.step for s in merged] == [1, 2]
        assert merged[0].operators[("MatMul", "tpu")].total_duration_us == 15.0

    def test_ordering(self):
        records = [_record(0, [_step(5, [("a", 1.0)]), _step(2, [("a", 1.0)])])]
        assert [s.step for s in merge_records(records)] == [2, 5]


class TestGlobalSteps:
    def test_train_steps_counted(self):
        steps = [
            _step(0, [("x", 1.0)], kind=StepKind.INIT),
            _step(1, [("x", 1.0)], kind=StepKind.TRAIN),
            _step(2, [("x", 1.0)], kind=StepKind.TRAIN),
            _step(3, [("x", 1.0)], kind=StepKind.EVAL),
            _step(4, [("x", 1.0)], kind=StepKind.TRAIN),
        ]
        mapping = global_step_numbers(steps)
        assert mapping == {0: 0, 1: 1, 2: 2, 3: 2, 4: 3}


class TestFeatures:
    def test_matrix_shapes(self):
        steps = [_step(1, [("a", 1.0), ("b", 2.0)]), _step(2, [("a", 3.0)])]
        features = build_features(steps)
        assert features.durations.shape == (2, 2)
        assert features.counts.shape == (2, 2)
        assert features.num_steps == 2
        assert features.num_operators == 2

    def test_values_placed_correctly(self):
        steps = [_step(1, [("a", 1.0)]), _step(2, [("b", 2.0)])]
        features = build_features(steps)
        col_a = features.vocabulary.index(("a", "tpu"))
        col_b = features.vocabulary.index(("b", "tpu"))
        assert features.durations[0, col_a] == 1.0
        assert features.durations[0, col_b] == 0.0
        assert features.durations[1, col_b] == 2.0

    def test_combined_standardized(self):
        steps = [_step(i, [("a", float(i))]) for i in range(1, 6)]
        combined = build_features(steps).combined(standardize=True)
        assert combined.mean(axis=0) == pytest.approx(np.zeros(combined.shape[1]), abs=1e-9)

    def test_empty_rejected(self):
        with pytest.raises(AnalyzerError):
            build_features([])

    def test_memory_bytes_positive(self):
        features = build_features([_step(1, [("a", 1.0)])])
        assert features.memory_bytes() > 0


class TestPCA:
    def test_reduces_dimensionality(self, rng):
        data = rng.normal(size=(50, 20))
        reduced = PCA(max_components=5).fit_transform(data)
        assert reduced.shape == (50, 5)

    def test_keeps_at_most_rank(self, rng):
        data = rng.normal(size=(4, 20))
        reduced = PCA(max_components=100).fit_transform(data)
        assert reduced.shape[1] <= 4

    def test_variance_ordered_descending(self, rng):
        data = rng.normal(size=(100, 10)) * np.arange(1, 11)
        pca = PCA(max_components=10).fit(data)
        variance = pca.explained_variance_
        assert all(a >= b for a, b in zip(variance, variance[1:]))

    def test_variance_ratio_sums_to_one(self, rng):
        pca = PCA(max_components=10).fit(rng.normal(size=(30, 10)))
        assert pca.explained_variance_ratio().sum() == pytest.approx(1.0)

    def test_transform_before_fit_rejected(self):
        with pytest.raises(AnalyzerError):
            PCA().transform(np.zeros((2, 2)))

    def test_projection_preserves_distances_at_full_rank(self, rng):
        data = rng.normal(size=(20, 5))
        reduced = PCA(max_components=5).fit_transform(data)
        original = np.linalg.norm(data[0] - data[1])
        projected = np.linalg.norm(reduced[0] - reduced[1])
        assert projected == pytest.approx(original, rel=1e-6)

    def test_invalid_inputs(self):
        with pytest.raises(AnalyzerError):
            PCA(max_components=0)
        with pytest.raises(AnalyzerError):
            PCA().fit(np.zeros((0, 3)))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_matrix_rejected(self, rng, bad):
        data = rng.normal(size=(20, 5))
        data[3, 2] = bad
        with pytest.raises(AnalyzerError, match="finite"):
            PCA(max_components=3).fit(data)
