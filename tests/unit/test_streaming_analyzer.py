"""Live phase analysis: released steps, the batch k-means call, serve wiring."""

import numpy as np
import pytest

from repro.core.analyzer import TPUPointAnalyzer
from repro.core.analyzer.streaming import StreamingAnalyzer
from repro.core.profiler.record import ProfileRecord, StepStats
from repro.core.profiler.serialize import record_checksum
from repro.errors import AnalyzerError
from repro.faults import FaultPlan, RecordTransit
from repro.runtime.events import DeviceKind, StepKind
from repro.serve import FleetService, ShardedFleet, ShardedFleetOptions


def _step(number, ops, duration_us=100.0, idle_us=20.0, mxu_flops=1e6):
    step = StepStats(step=number)
    for name in ops:
        step.observe(name, DeviceKind.TPU, 10.0)
    step.kind = StepKind.TRAIN
    step.start_us = number * duration_us
    step.end_us = (number + 1) * duration_us
    step.tpu_idle_us = idle_us
    step.mxu_flops = mxu_flops
    return step


def _record(index, steps):
    record = ProfileRecord(index=index, window_start_us=0.0, window_end_us=1.0)
    for step in steps:
        record.steps[step.step] = step
    return record


_PHASE_OPS = (
    ["matmul", "fusion", "relu"],
    ["conv", "pool", "softmax"],
    ["save", "embed", "gather"],
)
_CYCLE_OPS = _PHASE_OPS + (["matmul", "conv", "send"],)


def _phased_records(block=8, phases=3, steps_per_record=4):
    """Phase-contiguous stream: ``phases`` blocks of ``block`` steps."""
    steps = []
    number = 0
    for phase in range(phases):
        for _ in range(block):
            steps.append(_step(number, _PHASE_OPS[phase % len(_PHASE_OPS)]))
            number += 1
    return [
        _record(i, steps[i * steps_per_record : (i + 1) * steps_per_record])
        for i in range((len(steps) + steps_per_record - 1) // steps_per_record)
    ]


def _fold_all(analyzer, records):
    for record in records:
        analyzer.fold_record(record)
    analyzer.finish()
    return analyzer


def _cycled_records(cycles, jitter=False):
    """Four behaviours in turn; ``jitter`` gives every step its own durations."""
    steps = []
    for number in range(4 * cycles):
        step = _step(number, _CYCLE_OPS[number % 4])
        if jitter:
            for stats in step.operators.values():
                stats.total_duration_us += number * 0.25
        steps.append(step)
    return [_record(i, steps[i * 3 : (i + 1) * 3]) for i in range((len(steps) + 2) // 3)]


class TestStreamingConfig:
    def test_empty_analyzer_refuses_analysis(self):
        with pytest.raises(AnalyzerError):
            StreamingAnalyzer().analyze()


class TestExactEquivalence:
    def test_analysis_is_non_destructive(self):
        records = _phased_records()
        analyzer = _fold_all(StreamingAnalyzer(), records)
        first = analyzer.analyze()
        second = analyzer.analyze()
        assert np.array_equal(first.labels, second.labels)
        # folding can continue after an analysis
        analyzer.fold_record(_record(len(records), [_step(999, _PHASE_OPS[0])]))
        analyzer.finish()
        assert analyzer.analyze().labels.shape[0] == first.labels.shape[0] + 1

    def test_phases_and_boundaries_tile_the_stream(self):
        records = _phased_records()
        analysis = _fold_all(StreamingAnalyzer(), records).analyze()
        total = analysis.labels.shape[0]
        assert sum(phase.num_steps for phase in analysis.phases) == total
        position = 0
        for start, end, phase_id in analysis.label_runs():
            assert start == position
            assert set(analysis.labels[start : end + 1].tolist()) == {phase_id}
            position = end + 1
        assert position == total
        # phase tables carry the operator attribution
        top = analysis.phases[0].top_operators(3, DeviceKind.TPU)
        assert top and all(stats.device is DeviceKind.TPU for stats in top)


class TestSignatures:
    def test_signatures_count_repeated_behaviours_once(self):
        analyzer = _fold_all(StreamingAnalyzer(), _cycled_records(cycles=5))
        assert analyzer.steps_folded == 20
        assert analyzer.num_signatures == 4

    def test_jittered_steps_are_all_distinct(self):
        analyzer = _fold_all(
            StreamingAnalyzer(), _cycled_records(cycles=5, jitter=True)
        )
        assert analyzer.num_signatures == analyzer.steps_folded == 20


class TestServeWiring:
    def test_service_phase_analysis_query(self):
        service = FleetService()
        service.register("bert-mrpc", job_id="t0")
        records = _phased_records()
        for record in records:
            service.submit("t0", record, checksum=record_checksum(record))
        service.pump()
        service.complete("t0")
        analysis = service.phase_analysis("t0")
        assert np.array_equal(
            analysis.labels, TPUPointAnalyzer(records).kmeans_phases().labels
        )

    def test_binary_sink_round_trips_records(self):
        service = FleetService()
        service.register("bert-mrpc", job_id="t0")
        sink = service.sink("t0")
        records = _phased_records()
        for record in records:
            sink(record)
        service.pump()
        service.complete("t0")
        assert service.metrics.records_quarantined == 0
        assert service.analysis("t0").steps_seen == sum(
            len(record.steps) for record in records
        )

    def test_binary_wire_corruption_is_quarantined(self):
        plan = FaultPlan.from_dict({"faults": [{"kind": "corrupt", "nth": [2]}]})
        service = FleetService()
        service.register("bert-mrpc", job_id="t0")
        sink = service.sink("t0", transit=RecordTransit(plan))
        records = _phased_records()
        for record in records:
            sink(record)
        service.pump()
        quarantined = service.quarantined("t0")
        assert len(quarantined) == 1
        assert quarantined[0].reason.startswith("binary frame refused")
        assert quarantined[0].record.index == records[1].index

    def test_binary_wire_truncation_is_quarantined(self):
        plan = FaultPlan.from_dict(
            {"faults": [{"kind": "truncate", "target": "ingest", "nth": [1]}]}
        )
        service = FleetService()
        service.register("bert-mrpc", job_id="t0")
        sink = service.sink("t0", transit=RecordTransit(plan))
        for record in _phased_records():
            sink(record)
        service.pump()
        assert service.metrics.records_quarantined == 1

    def test_phase_analysis_after_resize_matches_batch(self):
        records = _phased_records()
        fleet = ShardedFleet(ShardedFleetOptions(shards=2))
        fleet.register("bert-mrpc", job_id="t0")
        half = len(records) // 2
        for record in records[:half]:
            fleet.submit("t0", record, checksum=record_checksum(record))
        fleet.pump()
        fleet.resize(3)
        for record in records[half:]:
            fleet.submit("t0", record, checksum=record_checksum(record))
        fleet.pump()
        fleet.complete("t0")
        assert np.array_equal(
            fleet.phase_analysis("t0").labels,
            TPUPointAnalyzer(records).kmeans_phases().labels,
        )

    def test_sharded_phase_analysis_matches_single_service(self):
        records = _phased_records()
        single = FleetService()
        single.register("bert-mrpc", job_id="t0")
        fleet = ShardedFleet(ShardedFleetOptions(shards=3))
        fleet.register("bert-mrpc", job_id="t0")
        for record in records:
            single.submit("t0", record, checksum=record_checksum(record))
            fleet.submit("t0", record, checksum=record_checksum(record))
        single.pump()
        fleet.pump()
        assert np.array_equal(
            fleet.phase_analysis("t0").labels, single.phase_analysis("t0").labels
        )

    def test_resize_replays_binary_frame_refusals(self):
        plan = FaultPlan.from_dict({"faults": [{"kind": "corrupt", "nth": [2]}]})
        fleet = ShardedFleet(ShardedFleetOptions(shards=2))
        fleet.register("bert-mrpc", job_id="t0")
        sink = fleet.sink("t0", transit=RecordTransit(plan))
        records = _phased_records()
        for record in records:
            sink(record)
        fleet.pump()
        assert fleet.metrics.records_quarantined == 1
        before = fleet.job_snapshot("t0")
        labels = fleet.phase_analysis("t0").labels
        fleet.resize(4)
        assert fleet.metrics.records_quarantined == 1
        assert fleet.job_snapshot("t0") == before
        assert np.array_equal(fleet.phase_analysis("t0").labels, labels)
