"""Phase transition matrices, label runs, and bucket-quota failure injection."""

import numpy as np
import pytest

from repro.core.analyzer.analyzer import AnalysisResult
from repro.core.analyzer.phases import build_phases
from repro.core.profiler.record import StepStats
from repro.errors import StorageError
from repro.runtime.events import DeviceKind, StepKind, StepMetadata
from repro.storage.bucket import Bucket
from repro.storage.checkpoints import Checkpoint, CheckpointStore
from repro.storage.objects import StorageObject


def _result(labels):
    steps = []
    for i in range(len(labels)):
        step = StepStats(step=i)
        step.observe("op", DeviceKind.TPU, 1.0)
        step.attach_metadata(
            StepMetadata(i, StepKind.TRAIN, i * 10.0, i * 10.0 + 10.0, 0.0, 0.0)
        )
        steps.append(step)
    labels = np.asarray(labels)
    return AnalysisResult(
        method="test", params={}, labels=labels, phases=build_phases(steps, labels)
    )


class TestTransitionMatrix:
    def test_contiguous_labels_band_diagonal(self):
        result = _result([0, 0, 0, 1, 1, 2])
        phase_ids, matrix = result.transition_matrix()
        assert phase_ids == [0, 1, 2]
        assert matrix[0, 0] == 2 and matrix[0, 1] == 1
        assert matrix[1, 1] == 1 and matrix[1, 2] == 1
        # No backward transitions for contiguous phases.
        assert np.tril(matrix, k=-1).sum() == 0

    def test_total_transitions(self):
        result = _result([0, 1, 0, 1, 0])
        _, matrix = result.transition_matrix()
        assert matrix.sum() == 4  # n - 1 transitions

    def test_recurrence_zero_for_contiguous(self):
        assert _result([0, 0, 1, 1, 2]).recurrence_fraction() == 0.0

    def test_recurrence_for_alternating_phases(self):
        # train/eval alternation: 0,1,0,1 — both re-entries after first visit.
        result = _result([0, 0, 1, 0, 1, 0])
        assert result.recurrence_fraction() > 0.5

    def test_single_phase_no_transitions(self):
        assert _result([0, 0, 0]).recurrence_fraction() == 0.0

    def test_real_run_ols_never_recurs(self, bert_mrpc_analyzer):
        result = bert_mrpc_analyzer.ols_phases()
        assert result.recurrence_fraction() == 0.0

    def test_real_run_kmeans_matrix_consistent(self, bert_mrpc_analyzer):
        result = bert_mrpc_analyzer.kmeans_phases(k=4)
        phase_ids, matrix = result.transition_matrix()
        assert matrix.sum() == len(result.labels) - 1
        assert len(phase_ids) == len(set(result.labels.tolist()))


class TestLabelRuns:
    def test_runs_tile_the_labels_as_fleet_boundaries(self):
        """Runs cover 0..n-1 and print as ``tpupoint fleet``'s boundary text."""
        text = (
            "[0..0]#2, [1..100]#0, [101..104]#1, [105..204]#0, "
            "[205..208]#1, [209..308]#0, [309..309]#2"
        )
        labels = []
        for run in text.split(", "):
            span, phase = run.split("#")
            start, end = span.strip("[]").split("..")
            labels += [int(phase)] * (int(end) - int(start) + 1)
        runs = _result(labels).label_runs()
        covered = [label for start, end, label in runs for _ in range(start, end + 1)]
        assert covered == labels
        assert ", ".join(f"[{a}..{b}]#{phase}" for a, b, phase in runs) == text


class TestBucketQuota:
    def test_quota_blocks_overflow(self):
        bucket = Bucket("small", quota_bytes=1000.0)
        bucket.put(StorageObject("a", 800.0))
        with pytest.raises(StorageError):
            bucket.put(StorageObject("b", 300.0))
        assert not bucket.exists("b")

    def test_overwrite_counts_once(self):
        bucket = Bucket("small", quota_bytes=1000.0)
        bucket.put(StorageObject("a", 800.0))
        bucket.put(StorageObject("a", 900.0))  # replace, not add
        assert bucket.used_bytes() == 900.0

    def test_unlimited_by_default(self):
        bucket = Bucket("big")
        bucket.put(StorageObject("a", 1e15))

    def test_checkpoint_save_fails_loudly_on_full_bucket(self):
        bucket = Bucket("full", quota_bytes=100.0)
        store = CheckpointStore(bucket)
        with pytest.raises(StorageError):
            store.save(Checkpoint(step=1, saved_at_us=0.0, num_bytes=1e6))
        # The failed save leaves no phantom checkpoint behind.
        assert len(store) == 0

    def test_session_surfaces_checkpoint_quota_failure(self, tiny_model, tiny_dataset):
        estimator = tiny_model.build_estimator(tiny_dataset)
        session = estimator.session
        # Shrink the quota below one checkpoint after shards are uploaded.
        session.initialize()
        estimator.bucket.quota_bytes = estimator.bucket.used_bytes() + 1.0
        with pytest.raises(StorageError):
            session.run_steps(estimator.plan.train_steps)
