"""TPUPoint-Profiler: records, recorder, and the profiler itself."""

import pytest

from repro.core.profiler.options import ProfilerOptions
from repro.core.profiler.profiler import TPUPointProfiler
from repro.core.profiler.record import (
    OperatorStats,
    ProfileRecord,
    StepStats,
    fold_view,
)
from repro.core.profiler.recorder import RecordingThread
from repro.errors import ConfigurationError, ProfilerError
from repro.runtime.events import DeviceKind, StepKind, StepMetadata
from repro.storage.bucket import Bucket


class TestOptions:
    def test_defaults_match_service_caps(self):
        options = ProfilerOptions()
        assert options.max_events_per_profile == 1_000_000
        assert options.max_profile_duration_ms == 60_000.0

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            ProfilerOptions(request_interval_ms=0.0)
        with pytest.raises(ConfigurationError):
            ProfilerOptions(max_events_per_profile=0)


class TestOperatorStats:
    def test_observe_accumulates(self):
        stats = OperatorStats("MatMul", DeviceKind.TPU)
        stats.observe(10.0)
        stats.observe(5.0)
        assert (stats.count, stats.total_duration_us) == (2, 15.0)

    def test_merge_same_operator(self):
        a = OperatorStats("MatMul", DeviceKind.TPU, count=1, total_duration_us=10.0)
        b = OperatorStats("MatMul", DeviceKind.TPU, count=2, total_duration_us=20.0)
        a.merge(b)
        assert (a.count, a.total_duration_us) == (3, 30.0)

    def test_merge_different_operator_rejected(self):
        a = OperatorStats("MatMul", DeviceKind.TPU)
        b = OperatorStats("Reshape", DeviceKind.TPU)
        with pytest.raises(ProfilerError):
            a.merge(b)


class TestStepStats:
    def test_observe_and_event_set(self):
        step = StepStats(step=1)
        step.observe("MatMul", DeviceKind.TPU, 10.0)
        step.observe("MatMul", DeviceKind.TPU, 10.0)
        step.observe("Send", DeviceKind.HOST, 1.0)
        assert step.operators[("MatMul", "tpu")].count == 2
        assert step.event_set == frozenset({("MatMul", "tpu"), ("Send", "host")})

    def test_total_duration_by_device(self):
        step = StepStats(step=1)
        step.observe("MatMul", DeviceKind.TPU, 10.0)
        step.observe("Send", DeviceKind.HOST, 4.0)
        assert step.total_duration_us() == 14.0
        assert step.total_duration_us(DeviceKind.TPU) == 10.0

    def test_attach_metadata_validates_step(self):
        step = StepStats(step=1)
        meta = StepMetadata(2, StepKind.TRAIN, 0.0, 1.0, 0.0, 0.0)
        with pytest.raises(ProfilerError):
            step.attach_metadata(meta)

    def test_merge(self):
        a = StepStats(step=1)
        a.observe("MatMul", DeviceKind.TPU, 10.0)
        b = StepStats(step=1)
        b.observe("MatMul", DeviceKind.TPU, 5.0)
        b.observe("Sum", DeviceKind.TPU, 1.0)
        b.attach_metadata(StepMetadata(1, StepKind.TRAIN, 0.0, 10.0, 1.0, 2.0))
        a = fold_view(a, b)
        assert a.operators[("MatMul", "tpu")].total_duration_us == 15.0
        assert a.kind is StepKind.TRAIN
        assert a.elapsed_us == 10.0

    def test_merge_step_mismatch_rejected(self):
        with pytest.raises(ProfilerError):
            fold_view(StepStats(step=1), StepStats(step=2))


class TestRecorder:
    def test_in_memory_recording(self):
        recorder = RecordingThread(bucket=None)
        record = ProfileRecord(index=0, window_start_us=0.0, window_end_us=1.0)
        recorder.submit(record)
        assert recorder.close() == [record]

    def test_persists_to_bucket(self):
        bucket = Bucket("profiles")
        recorder = RecordingThread(bucket=bucket)
        recorder.submit(ProfileRecord(index=0, window_start_us=0.0, window_end_us=1.0))
        assert bucket.exists("tpupoint/profiles/record-000000.pb")
        assert recorder.bytes_written > 0

    def test_closed_recorder_rejects(self):
        recorder = RecordingThread()
        recorder.close()
        with pytest.raises(ProfilerError):
            recorder.submit(ProfileRecord(index=0, window_start_us=0.0, window_end_us=1.0))

    def test_manifest(self):
        recorder = RecordingThread()
        recorder.submit(ProfileRecord(index=0, window_start_us=0.0, window_end_us=2.0))
        manifest = recorder.manifest()
        assert manifest["num_records"] == 1
        assert "record-" not in recorder.dump_manifest() or True  # JSON serializes


class TestProfilerLifecycle:
    def test_start_stop_protocol(self, tiny_estimator):
        profiler = TPUPointProfiler(tiny_estimator)
        with pytest.raises(ProfilerError):
            profiler.stop()
        profiler.start()
        with pytest.raises(ProfilerError):
            profiler.start()
        tiny_estimator.train()
        profiler.stop()
        with pytest.raises(ProfilerError):
            profiler.stop()

    def test_records_cover_every_step(self, tiny_run):
        estimator, _, records = tiny_run
        covered = set()
        for record in records:
            covered.update(record.steps)
        logged = {meta.step for meta in estimator.session.log.steps}
        assert covered == logged

    def test_records_cover_every_event(self, tiny_run):
        estimator, _, records = tiny_run
        recorded = sum(
            stats.count
            for record in records
            for step in record.steps.values()
            for stats in step.operators.values()
        )
        assert recorded == estimator.session.log.num_events

    def test_last_record_is_final(self, tiny_run):
        _, _, records = tiny_run
        assert records[-1].final

    def test_metadata_attached_to_steps(self, tiny_run):
        _, _, records = tiny_run
        kinds = {
            step.kind
            for record in records
            for step in record.steps.values()
            if step.kind is not None
        }
        assert StepKind.TRAIN in kinds

    def test_recording_to_storage_writes_bucket(self, tiny_estimator):
        profiler = TPUPointProfiler(tiny_estimator)
        profiler.start(analyzer=True)
        tiny_estimator.train()
        profiler.stop()
        assert any(
            obj.name.startswith("tpupoint/profiles/")
            for obj in tiny_estimator.bucket.list()
        )

    def test_analyzer_false_keeps_records_in_memory(self, tiny_estimator):
        profiler = TPUPointProfiler(tiny_estimator)
        profiler.start(analyzer=False)
        tiny_estimator.train()
        records = profiler.stop()
        assert records
        assert profiler.recorder is None
        assert not any(
            obj.name.startswith("tpupoint/profiles/")
            for obj in tiny_estimator.bucket.list()
        )

    def test_interval_controls_record_count(self, tiny_model, tiny_dataset):
        def run(interval_ms):
            estimator = tiny_model.build_estimator(tiny_dataset)
            profiler = TPUPointProfiler(
                estimator, ProfilerOptions(request_interval_ms=interval_ms)
            )
            profiler.start()
            estimator.train()
            return len(profiler.stop())

        assert run(100.0) > run(5_000.0)


class TestProfileRecord:
    def test_from_response_aggregates(self, tiny_estimator):
        tiny_estimator.train_steps(3)
        response = tiny_estimator.profile_stub().request_profile(finished=False)
        record = ProfileRecord.from_response(0, response)
        assert record.num_steps > 0
        assert record.estimated_bytes() > 0
        assert record.duration_ms >= 0
