"""The fleet profiling service: registry, ingestion, live analysis, queries."""

import threading

import pytest

from repro import obs
from repro.core.analyzer.ols import ols_labels
from repro.core.profiler.record import ProfileRecord, StepStats
from repro.errors import ServeError
from repro.runtime.events import DeviceKind, StepKind
from repro.serve import (
    FleetService,
    FleetServiceOptions,
    IngestQueue,
    JobRegistry,
    JobState,
    LiveJobAnalysis,
    LivePhase,
)


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


#: Two clearly distinct behaviours, so OLS opens a phase boundary.
_OPS_A = ["matmul", "fusion", "relu"]
_OPS_B = ["conv", "pool", "softmax"]


def _stream_of_records(num_steps=8, flip_at=4):
    """One record per step; behaviour flips halfway -> 2 phases."""
    return [
        _record(i, [_step(i, _OPS_A if i < flip_at else _OPS_B)])
        for i in range(num_steps)
    ]


class TestJobRegistry:
    def test_register_and_lookup(self):
        registry = JobRegistry()
        info = registry.register("bert-mrpc", generation="v3")
        assert info.job_id == "bert-mrpc/0"
        assert info.generation == "v3"
        assert info.peak_flops > 0
        assert info.state is JobState.REGISTERED
        assert registry.get(info.job_id) is info
        assert info.job_id in registry and len(registry) == 1

    def test_sequence_orders_jobs(self):
        registry = JobRegistry()
        first = registry.register("a")
        second = registry.register("b")
        assert [info.job_id for info in registry.jobs()] == [first.job_id, second.job_id]

    def test_duplicate_id_rejected(self):
        registry = JobRegistry()
        registry.register("a", job_id="j")
        with pytest.raises(ServeError):
            registry.register("b", job_id="j")

    def test_unknown_job_rejected(self):
        with pytest.raises(ServeError):
            JobRegistry().get("nope")

    def test_lifecycle_transitions(self):
        registry = JobRegistry()
        info = registry.register("a")
        registry.activate(info.job_id)
        assert info.state is JobState.ACTIVE
        registry.complete(info.job_id)
        assert info.state is JobState.COMPLETED
        registry.evict(info.job_id)
        assert info.state is JobState.EVICTED

    def test_invalid_transitions_rejected(self):
        registry = JobRegistry()
        info = registry.register("a")
        with pytest.raises(ServeError):  # registered -> completed skips active
            registry.complete(info.job_id)
        registry.activate(info.job_id)
        with pytest.raises(ServeError):  # active -> active
            registry.activate(info.job_id)
        registry.evict(info.job_id)
        with pytest.raises(ServeError):  # evicted is terminal
            registry.evict(info.job_id)

    def test_max_jobs_admission_control(self):
        registry = JobRegistry(max_jobs=1)
        info = registry.register("a")
        with pytest.raises(ServeError):
            registry.register("b")
        registry.activate(info.job_id)
        registry.evict(info.job_id)
        registry.register("b")  # eviction frees the slot


class TestIngestQueue:
    def test_capacity_validated(self):
        with pytest.raises(ServeError):
            IngestQueue(job_id="j", capacity=0)

    def test_fifo_within_capacity(self):
        queue = IngestQueue(job_id="j", capacity=4)
        records = _stream_of_records(3)
        for record in records:
            ack = queue.offer(record)
            assert ack.accepted and not ack.overloaded
        assert queue.depth == 3 and queue.remaining_capacity == 1
        assert [r.index for r in queue.drain()] == [0, 1, 2]
        assert queue.depth == 0

    def test_overflow_drops_oldest(self):
        queue = IngestQueue(job_id="j", capacity=2)
        records = _stream_of_records(3)
        queue.offer(records[0])
        queue.offer(records[1])
        ack = queue.offer(records[2])
        assert ack.overloaded and ack.dropped == 1
        assert queue.dropped == 1 and queue.submitted == 3
        assert [r.index for r in queue.drain()] == [1, 2]

    def test_bounded_drain(self):
        queue = IngestQueue(job_id="j", capacity=8)
        for record in _stream_of_records(5):
            queue.offer(record)
        assert len(list(queue.drain(max_records=2))) == 2
        assert queue.depth == 3


class TestLiveJobAnalysis:
    def test_incremental_fold_matches_offline_ols(self):
        analysis = LiveJobAnalysis(threshold=0.70, peak_flops=1e12)
        records = _stream_of_records(8, flip_at=4)
        for record in records:
            analysis.ingest(record)
        analysis.finish()
        steps = [_step(i, _OPS_A if i < 4 else _OPS_B) for i in range(8)]
        assert analysis.labels == ols_labels(steps, 0.70).tolist()
        assert analysis.num_phases == 2
        assert analysis.phase_labels == {i: (0 if i < 4 else 1) for i in range(8)}

    def test_aggregates_without_retaining_steps(self):
        analysis = LiveJobAnalysis(peak_flops=1e12)
        for record in _stream_of_records(8):
            analysis.ingest(record)
        analysis.finish()
        assert analysis.steps_seen == 8
        assert analysis.total_duration_us == pytest.approx(800.0)
        assert analysis.idle_fraction == pytest.approx(0.2)
        # 8 * 1e6 FLOP over 800 us against a 1e12 FLOP/s chip.
        assert analysis.mxu_utilization == pytest.approx((8e6 / 800e-6) / 1e12)
        assert analysis.coverage(3) == pytest.approx(1.0)

    def test_phase_table_accumulates_operators(self):
        analysis = LiveJobAnalysis()
        for record in _stream_of_records(6, flip_at=3):
            analysis.ingest(record)
        analysis.finish()
        longest = analysis.phases_by_duration()[0]
        tops = [stats.name for stats in longest.top_operators(2, DeviceKind.TPU)]
        assert len(tops) == 2 and set(tops) <= set(_OPS_A + _OPS_B)
        assert longest.first_step <= longest.last_step

    def test_identically_folded_phases_compare_equal(self):
        first, second = LivePhase(phase_id=0), LivePhase(phase_id=0)
        for phase in (first, second):
            for number in range(3):
                phase.fold(_step(number, _OPS_A))
        assert first == second
        assert "('matmul', 'tpu'): (3, 30.0)" in repr(first)
        second.fold(_step(3, _OPS_A))
        assert first != second

    def test_withholds_newest_until_finish(self):
        analysis = LiveJobAnalysis()
        analysis.ingest(_record(0, [_step(0, _OPS_A)]))
        assert analysis.steps_seen == 0 and analysis.pending_steps == 1
        assert analysis.finish() == 1
        assert analysis.steps_seen == 1 and analysis.finished

    def test_ingest_after_finish_rejected(self):
        analysis = LiveJobAnalysis()
        analysis.finish()
        with pytest.raises(ServeError):
            analysis.ingest(_record(0, [_step(0, _OPS_A)]))


class TestFleetService:
    def _service(self, **options):
        return FleetService(options=FleetServiceOptions(**options))

    def test_submit_requires_registration(self):
        service = self._service()
        with pytest.raises(ServeError):
            service.submit("ghost", _record(0, [_step(0, _OPS_A)]))

    def test_first_record_activates(self):
        service = self._service()
        info = service.register("tiny")
        service.submit(info.job_id, _record(0, [_step(0, _OPS_A)]))
        assert info.state is JobState.ACTIVE

    def test_pump_assembles_and_counts(self):
        service = self._service()
        info = service.register("tiny")
        for record in _stream_of_records(5):
            service.submit(info.job_id, record)
        assert service.queue_depth(info.job_id) == 5
        assembled = service.pump()
        assert assembled == 4  # newest step withheld until complete()
        assert service.metrics.records_ingested == 5
        assert service.metrics.steps_assembled == 4
        service.complete(info.job_id)
        assert service.metrics.steps_assembled == 5

    def test_queue_overflow_observable_via_metrics(self):
        service = self._service(queue_capacity=2)
        info = service.register("tiny")
        for record in _stream_of_records(5):
            ack = service.submit(info.job_id, record)
        assert ack.overloaded
        assert service.metrics.records_dropped == 3
        assert service.metrics.dropped_by_job[info.job_id] == 3
        service.complete(info.job_id)
        snapshot = service.job_snapshot(info.job_id)
        assert snapshot.records_dropped == 3
        assert snapshot.records_submitted == 5
        # Only the two surviving records' steps were ever analyzed.
        assert snapshot.steps_seen == 2
        assert service.metrics.drop_fraction == pytest.approx(3 / 5)

    def test_drop_oldest_keeps_stream_consistent(self):
        # Shedding old records must never trip StepStream's revisit guard.
        service = self._service(queue_capacity=1)
        info = service.register("tiny")
        for record in _stream_of_records(6):
            service.submit(info.job_id, record)
            service.pump(info.job_id)
        service.complete(info.job_id)
        assert service.job_snapshot(info.job_id).steps_seen > 0

    def test_job_snapshot_fields(self):
        service = self._service()
        info = service.register("tiny", generation="v2")
        for record in _stream_of_records(8, flip_at=4):
            service.submit(info.job_id, record)
        service.pump()
        snapshot = service.job_snapshot(info.job_id)
        assert snapshot.state == "active"
        assert snapshot.steps_seen == 7 and snapshot.pending_steps == 1
        assert snapshot.num_phases == 2
        assert 0.0 < snapshot.idle_fraction < 1.0
        assert snapshot.phases[0].num_steps >= snapshot.phases[-1].num_steps
        assert snapshot.format()

    def test_fleet_rollup(self):
        service = self._service()
        first = service.register("a")
        second = service.register("b", generation="v3")
        for record in _stream_of_records(8):
            service.submit(first.job_id, record)
            service.submit(second.job_id, record)
        service.pump()
        service.complete(first.job_id)
        rollup = service.fleet_snapshot()
        assert rollup.num_jobs == 2
        assert rollup.completed_jobs == 1 and rollup.active_jobs == 1
        assert rollup.total_steps == 8 + 7
        assert 0.0 < rollup.idle_fraction < 1.0
        assert 0.0 < rollup.mxu_utilization <= 1.0
        assert sum(rollup.phase_histogram.values()) == 2
        assert rollup.format()

    def test_evict_discards_live_state(self):
        service = self._service()
        info = service.register("tiny")
        service.submit(info.job_id, _record(0, [_step(0, _OPS_A)]))
        service.evict(info.job_id)
        assert service.metrics.jobs_evicted == 1
        with pytest.raises(ServeError):
            service.submit(info.job_id, _record(1, [_step(1, _OPS_A)]))
        with pytest.raises(ServeError):
            service.job_snapshot(info.job_id)
        assert service.fleet_snapshot().num_jobs == 0

    def test_complete_without_records(self):
        service = self._service()
        info = service.register("idle-tenant")
        service.complete(info.job_id)
        assert info.state is JobState.COMPLETED
        assert service.job_snapshot(info.job_id).steps_seen == 0

    def test_sink_binds_job(self):
        service = self._service()
        info = service.register("tiny")
        sink = service.sink(info.job_id)
        sink(_record(0, [_step(0, _OPS_A)]))
        assert service.queue_depth(info.job_id) == 1
        with pytest.raises(ServeError):
            service.sink("ghost")

    def test_query_metrics_recorded(self):
        service = self._service()
        info = service.register("tiny")
        service.job_snapshot(info.job_id)
        service.fleet_snapshot()
        assert service.metrics.queries_served == 2
        assert service.metrics.query_seconds_total >= 0.0
        assert service.metrics.format()


class TestIngestQueueConcurrency:
    def test_offer_is_atomic_under_contention(self):
        import threading

        queue = IngestQueue(job_id="j", capacity=8)
        producers, per_producer = 8, 200
        barrier = threading.Barrier(producers)

        def produce(base):
            barrier.wait()
            for i in range(per_producer):
                queue.offer(_record(base + i, []))

        threads = [
            threading.Thread(target=produce, args=(t * per_producer,))
            for t in range(producers)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        # Conservation: every offer either grew the queue or shed exactly
        # one record. A racy offer loses updates and breaks this.
        assert queue.submitted == producers * per_producer
        assert queue.depth <= queue.capacity
        assert queue.submitted - queue.dropped == queue.depth
        assert len(list(queue.drain())) == queue.capacity

    def test_offers_racing_a_drain(self):
        import threading

        queue = IngestQueue(job_id="j", capacity=16)
        producers, per_producer = 4, 300
        barrier = threading.Barrier(producers + 1)
        drained = []

        def produce(base):
            barrier.wait()
            for i in range(per_producer):
                queue.offer(_record(base + i, []))

        def drain():
            barrier.wait()
            while queue.submitted < producers * per_producer or queue.depth:
                drained.extend(queue.drain(max_records=8))

        threads = [
            threading.Thread(target=produce, args=(t * per_producer,))
            for t in range(producers)
        ]
        threads.append(threading.Thread(target=drain))
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert queue.submitted == producers * per_producer
        assert queue.depth == 0
        assert len(drained) + queue.dropped == queue.submitted


class TestQuarantine:
    def test_checksum_mismatch_is_quarantined(self):
        from repro.core.profiler.serialize import record_checksum

        service = FleetService()
        info = service.register("bert-mrpc")
        record = _record(0, [_step(0, _OPS_A)])
        ack = service.submit(info.job_id, record, checksum=record_checksum(record) + 1)
        assert not ack.accepted and ack.dropped == 0
        assert service.metrics.records_quarantined == 1
        assert service.queue_depth(info.job_id) == 0
        # A refused record never activates the job.
        assert info.state is JobState.REGISTERED
        entries = service.quarantined(info.job_id)
        assert len(entries) == 1
        assert "checksum mismatch" in entries[0].reason

    def test_structurally_invalid_record_is_quarantined(self):
        service = FleetService()
        info = service.register("bert-mrpc")
        inverted = ProfileRecord(index=0, window_start_us=10.0, window_end_us=1.0)
        ack = service.submit(info.job_id, inverted)
        assert not ack.accepted
        assert "inverted window" in service.quarantined()[0].reason
        # A sound record afterwards is accepted and activates the job.
        assert service.submit(info.job_id, _record(0, [_step(0, _OPS_A)])).accepted
        assert info.state is JobState.ACTIVE

    def test_quarantine_evidence_is_bounded(self):
        service = FleetService(FleetServiceOptions(quarantine_capacity=2))
        info = service.register("bert-mrpc")
        for index in range(5):
            service.submit(
                info.job_id,
                ProfileRecord(index=index, window_start_us=1.0, window_end_us=0.0),
            )
        # The count is exact; the retained evidence is a ring buffer.
        assert service.metrics.records_quarantined == 5
        kept = service.quarantined(info.job_id)
        assert [entry.record.index for entry in kept] == [3, 4]

    def test_pump_quarantines_what_the_assembler_rejects(self):
        service = FleetService()
        info = service.register("bert-mrpc")
        service.submit(info.job_id, _record(0, [_step(0, _OPS_A), _step(1, _OPS_A)]))
        service.pump()
        # Step 0 was released; a record revisiting it is rejected by the
        # assembler, quarantined, and the drain loop keeps running.
        service.submit(info.job_id, _record(1, [_step(0, _OPS_B)]))
        service.pump()
        assert service.metrics.records_quarantined == 1
        assert "revisits" in service.quarantined(info.job_id)[0].reason
        service.submit(info.job_id, _record(2, [_step(2, _OPS_A)]))
        assert service.pump() >= 1  # healthy ingestion continues

    def test_validate_record_passes_sound_records(self):
        from repro.core.profiler.serialize import record_checksum
        from repro.serve import validate_record

        record = _record(0, [_step(0, _OPS_A)])
        assert validate_record(record) is None
        assert validate_record(record, checksum=record_checksum(record)) is None

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
    @pytest.mark.parametrize(
        ("where", "expected"),
        [
            ("duration", "non-finite duration for operator 'fusion'"),
            ("count", "non-finite count for operator 'fusion'"),
            ("start_us", "step 0 has a non-finite start_us"),
            ("end_us", "step 0 has a non-finite end_us"),
            ("tpu_idle_us", "step 0 has a non-finite tpu_idle_us"),
            ("mxu_flops", "step 0 has a non-finite mxu_flops"),
            ("window_start_us", "non-finite window_start_us"),
            ("window_end_us", "non-finite window_end_us"),
        ],
    )
    def test_validate_record_names_a_non_finite_field(self, where, expected, value):
        from repro.serve import validate_record

        record = _record(0, [_step(0, _OPS_A)])
        step = record.steps[0]
        if where in ("duration", "count"):
            # Second of three operators: a NaN past the first entry hides
            # from min().
            stats = step.operators[("fusion", DeviceKind.TPU.value)]
            if where == "duration":
                stats.total_duration_us = value
            else:
                stats.count = value
        elif where.startswith("window"):
            setattr(record, where, value)
            if where == "window_start_us" and value == float("-inf"):
                record.window_end_us = 1.0
        else:
            setattr(step, where, value)
        reason = validate_record(record)
        if value == float("-inf") and where in ("duration", "count"):
            expected = expected.replace("non-finite", "negative")
        assert reason is not None and reason.startswith(expected), reason

    @pytest.mark.parametrize("shards", [1, 2])
    def test_a_nan_operator_total_is_quarantined_at_the_wire(self, shards):
        from repro.serve.shard import ShardedFleet, ShardedFleetOptions

        tier = ShardedFleet(ShardedFleetOptions(shards=shards))
        job = tier.register("bert-mrpc").job_id
        send = tier.sink(job)
        for index in range(8):
            ops = _OPS_A if index % 4 else _OPS_B
            record = _record(index, [_step(2 * index + k, ops) for k in range(2)])
            if index == 5:
                stats = record.steps[10].operators[("matmul", DeviceKind.TPU.value)]
                stats.total_duration_us = float("nan")
            send(record)
        tier.pump()
        assert tier.metrics.records_quarantined == 1
        [entry] = tier.quarantined(job)
        assert entry.record.index == 5 and "non-finite duration" in entry.reason
        result = tier.phase_analysis(job)
        assert len(result.labels) == tier.analysis(job).steps_seen >= 12


class TestStalling:
    def _service(self, deadline=2):
        return FleetService(FleetServiceOptions(heartbeat_deadline=deadline))

    def test_silent_job_stalls_after_the_deadline(self):
        service = self._service(deadline=2)
        info = service.register("bert-mrpc")
        service.submit(info.job_id, _record(0, [_step(0, _OPS_A)]))
        service.pump()
        assert info.state is JobState.ACTIVE
        service.pump()  # second silent global pump crosses the deadline
        assert info.state is JobState.STALLED
        assert service.metrics.jobs_stalled == 1
        snapshot = service.fleet_snapshot()
        assert snapshot.stalled_jobs == 1
        assert "1 stalled" in "\n".join(snapshot.format())

    def test_accepted_record_resumes_a_stalled_job(self):
        service = self._service(deadline=1)
        info = service.register("bert-mrpc")
        service.submit(info.job_id, _record(0, [_step(0, _OPS_A)]))
        service.pump()
        assert info.state is JobState.STALLED
        ack = service.submit(info.job_id, _record(1, [_step(1, _OPS_A)]))
        assert ack.accepted
        assert info.state is JobState.ACTIVE
        assert service.metrics.jobs_resumed == 1

    def test_job_scoped_pumps_do_not_advance_the_heartbeat(self):
        service = self._service(deadline=1)
        info = service.register("bert-mrpc")
        service.submit(info.job_id, _record(0, [_step(0, _OPS_A)]))
        for _ in range(5):
            service.pump(info.job_id)
        assert info.state is JobState.ACTIVE

    def test_stalled_job_can_still_complete(self):
        service = self._service(deadline=1)
        info = service.register("bert-mrpc")
        service.submit(info.job_id, _record(0, [_step(0, _OPS_A)]))
        service.pump()
        assert info.state is JobState.STALLED
        service.complete(info.job_id)
        assert info.state is JobState.COMPLETED

    def test_no_deadline_means_no_stalls(self):
        service = FleetService()
        info = service.register("bert-mrpc")
        service.submit(info.job_id, _record(0, [_step(0, _OPS_A)]))
        for _ in range(10):
            service.pump()
        assert info.state is JobState.ACTIVE

    def test_deadline_counts_from_each_jobs_latest_accept(self):
        # A job that keeps sending moves behind the quiet ones, so the
        # stall walk still reaches a quiet job that first sent after it.
        service = self._service(deadline=2)
        first, second = service.register("a"), service.register("b")
        for info in (first, second):
            service.submit(info.job_id, _record(0, [_step(0, _OPS_A)]))
        service.pump()  # tick 1
        service.submit(first.job_id, _record(1, [_step(1, _OPS_A)]))
        service.pump()  # tick 2: second's accept at tick 0 expires
        assert second.state is JobState.STALLED
        assert first.state is JobState.ACTIVE
        service.pump()  # tick 3: first's accept at tick 1 expires
        assert first.state is JobState.STALLED
        assert service.metrics.jobs_stalled == 2


def _pump_span(service, **kwargs):
    """Attributes of the ``serve.pump`` span one pump records."""
    previous = obs.set_tracing_enabled(True)
    try:
        service.pump(**kwargs)
    finally:
        obs.set_tracing_enabled(previous)
    pumps = [s for s in obs.default_tracer().spans() if s.name == "serve.pump"]
    return pumps[-1].attributes


class TestReadySet:
    """A global pump drains only the tenants with queued records."""

    def test_global_pump_drains_only_queued_tenants(self):
        service = FleetService()
        jobs = [service.register("tiny").job_id for _ in range(6)]
        for job in (jobs[4], jobs[1]):
            service.submit(job, _record(0, [_step(0, _OPS_A)]))
        span = _pump_span(service)
        assert (span["tenants"], span["records"], span["steps"]) == (2, 2, 0)
        assert span["stalled"] == 0
        assert _pump_span(service)["tenants"] == 0

    def test_drain_follows_registration_order(self):
        # The quarantine ring records drain order: tenants that queued in
        # reverse registration order still drain first-registered first.
        service = FleetService()
        jobs = [service.register("tiny").job_id for _ in range(3)]
        for job in jobs:
            service.submit(job, _record(0, [_step(0, _OPS_A), _step(1, _OPS_A)]))
        service.pump()
        for job in reversed(jobs):
            service.submit(job, _record(1, [_step(0, _OPS_B)]))  # revisits step 0
        service.pump()
        assert [entry.job_id for entry in service.quarantined()] == jobs

    def test_bounded_pump_keeps_a_tenant_ready(self):
        service = FleetService()
        job = service.register("tiny").job_id
        for record in _stream_of_records(5):
            service.submit(job, record)
        service.pump(max_records=2)
        assert service.queue_depth(job) == 3
        span = _pump_span(service)
        assert (span["tenants"], span["records"]) == (1, 3)
        assert service.queue_depth(job) == 0

    def test_job_pump_complete_and_evict_unmark(self):
        service = FleetService()
        pumped, done, gone = (service.register("tiny").job_id for _ in range(3))
        for job in (pumped, done, gone):
            service.submit(job, _record(0, [_step(0, _OPS_A)]))
        span = _pump_span(service, job_id=pumped)
        assert (span["tenants"], span["records"]) == (1, 1)
        assert "stalled" not in span  # only global pumps beat the heartbeat
        service.complete(done)
        service.evict(gone)
        assert _pump_span(service)["tenants"] == 0

    def test_global_pump_span_counts_stalls(self):
        service = FleetService(FleetServiceOptions(heartbeat_deadline=1))
        jobs = [service.register("tiny").job_id for _ in range(3)]
        for job in jobs[:2]:
            service.submit(job, _record(0, [_step(0, _OPS_A)]))
        assert _pump_span(service)["stalled"] == 2
        assert service.metrics.jobs_stalled == 2


class TestFleetServiceConcurrency:
    def test_producers_racing_global_pumps(self):
        # Four producer threads submit while a fifth runs global pumps
        # with a one-tick heartbeat, so tenants stall and resume under
        # contention. A record marked ready after its offer is never
        # stranded: after a final pump every accepted record is ingested,
        # and no racing producer lost or reversed a submit count.
        service = FleetService(
            FleetServiceOptions(queue_capacity=1024, heartbeat_deadline=1)
        )
        producers, tenants_each, records_each = 4, 3, 60
        jobs = [
            [service.register("tiny").job_id for _ in range(tenants_each)]
            for _ in range(producers)
        ]
        barrier = threading.Barrier(producers + 1)
        finished = threading.Event()
        accepted = [0] * producers

        def produce(slot):
            barrier.wait()
            for index in range(records_each):
                for job in jobs[slot]:
                    ack = service.submit(job, _record(index, [_step(index, _OPS_A)]))
                    accepted[slot] += ack.accepted

        def pump():
            barrier.wait()
            while not finished.is_set():
                service.pump()

        threads = [
            threading.Thread(target=produce, args=(slot,)) for slot in range(producers)
        ]
        pumper = threading.Thread(target=pump)
        for thread in threads + [pumper]:
            thread.start()
        for thread in threads:
            thread.join()
        finished.set()
        pumper.join()
        service.pump()
        total = producers * tenants_each * records_each
        assert sum(accepted) == total
        assert service.metrics.records_submitted == total
        assert service.metrics.records_dropped == 0
        assert service.metrics.records_ingested == total
        every_job = [job for slot in jobs for job in slot]
        assert all(service.queue_depth(job) == 0 for job in every_job)
        assert all(
            service.analysis(job).records_seen == records_each for job in every_job
        )
        stalled = sum(
            service.registry.get(job).state is JobState.STALLED for job in every_job
        )
        assert service.metrics.jobs_stalled - service.metrics.jobs_resumed == stalled


class TestPhaseSimilarity:
    """Live phase-mix distances via the analyzer's shared kernel."""

    def _alternating_analysis(self):
        """A -> B -> A: the online scan splits one behaviour into two phases."""
        analysis = LiveJobAnalysis()
        records = [
            _record(i, [_step(i, _OPS_A if i // 3 % 2 == 0 else _OPS_B)])
            for i in range(9)
        ]
        for record in records:
            analysis.ingest(record)
        analysis.finish()
        return analysis

    def test_phase_vectors_are_normalized_mixes(self):
        analysis = self._alternating_analysis()
        ids, vectors = analysis.phase_vectors()
        assert len(ids) == 3
        assert vectors.shape[0] == 3
        # Each row is a duration-share distribution over the vocabulary.
        assert all(abs(row.sum() - 1.0) < 1e-9 for row in vectors)

    def test_identical_mixes_have_zero_distance(self):
        analysis = self._alternating_analysis()
        ids, distances = analysis.phase_distance_matrix()
        # Phases 0 and 2 are both _OPS_A; phase 1 is _OPS_B (disjoint).
        assert distances[0, 2] < 1e-9
        # Disjoint uniform mixes over 3 ops sit at sqrt(2/3) ~ 0.816.
        assert distances[0, 1] > 0.5

    def test_similar_pairs_flags_the_split_phase(self):
        analysis = self._alternating_analysis()
        pairs = analysis.similar_phase_pairs(threshold=0.25)
        assert [(a, b) for a, b, _ in pairs] == [(0, 2)]
        assert pairs[0][2] < 1e-9

    def test_negative_threshold_rejected(self):
        with pytest.raises(ServeError):
            self._alternating_analysis().similar_phase_pairs(threshold=-0.1)

    def test_service_query_surface(self):
        service = FleetService()
        info = service.register("bert-mrpc")
        for i in range(9):
            service.submit(
                info.job_id,
                _record(i, [_step(i, _OPS_A if i // 3 % 2 == 0 else _OPS_B)]),
            )
        service.pump()
        service.complete(info.job_id)
        pairs = service.similar_phases(info.job_id)
        assert [(a, b) for a, b, _ in pairs] == [(0, 2)]
        # A tighter-than-zero threshold still finds the exact duplicate.
        assert service.similar_phases(info.job_id, threshold=0.0) == pairs
