"""The sharded fleet tier: ring, ledger, scatter-gather, rebalance."""

import pytest

from repro.core.profiler.record import ProfileRecord, StepStats
from repro.core.profiler.serialize import record_checksum
from repro.errors import ServeError, ShardError, UnknownJobError
from repro.runtime.events import DeviceKind, StepKind
from repro.serve import (
    FleetService,
    FleetServiceOptions,
    GoodputLedger,
    HashRing,
    ShardedFleet,
    ShardedFleetOptions,
)
from repro.serve.shard import ALL_BUCKETS, BADPUT_BUCKETS, GOODPUT_BUCKET


def _step(number, ops, duration_us=100.0, idle_us=20.0, mxu_flops=1e6,
          kind=StepKind.TRAIN):
    step = StepStats(step=number)
    for name in ops:
        step.observe(name, DeviceKind.TPU, 10.0)
    step.kind = kind
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


_OPS_A = ["matmul", "fusion", "relu"]
_OPS_B = ["conv", "pool", "softmax"]


def _stream_of_records(num_steps=8, flip_at=4):
    return [
        _record(i, [_step(i, _OPS_A if i < flip_at else _OPS_B)])
        for i in range(num_steps)
    ]


def _drive(service, tenants, num_steps=8):
    """Register tenants, stream each one's records, complete them all."""
    for job_id in tenants:
        service.register("bert-mrpc", job_id=job_id)
    for job_id in tenants:
        for record in _stream_of_records(num_steps):
            service.submit(job_id, record, checksum=record_checksum(record))
    service.pump()
    for job_id in tenants:
        service.complete(job_id)


class _LossyWire:
    """A frame transit that drops every third frame and corrupts every fourth."""

    def __init__(self):
        self.frames = 0

    def apply_frame(self, frame):
        self.frames += 1
        if self.frames % 3 == 0:
            return None
        if self.frames % 4 == 0:
            return frame[:-1] + bytes([frame[-1] ^ 0xFF])  # payload byte: CRC fails
        return frame


class TestHashRing:
    def test_routing_is_deterministic(self):
        one, two = HashRing(4), HashRing(4)
        for i in range(200):
            assert one.route(f"job-{i}") == two.route(f"job-{i}")

    def test_routes_stay_in_range_and_spread(self):
        ring = HashRing(4)
        owners = {ring.route(f"job-{i}") for i in range(500)}
        assert owners == {0, 1, 2, 3}

    def test_seed_changes_placement(self):
        base, other = HashRing(4), HashRing(4, seed=99)
        moved = sum(
            1 for i in range(200)
            if base.route(f"job-{i}") != other.route(f"job-{i}")
        )
        assert moved > 0

    def test_resize_moves_few_tenants(self):
        """Consistent hashing: 4 -> 5 shards moves roughly 1/5, not 4/5."""
        ring = HashRing(4)
        grown = ring.resized(5)
        tenants = [f"job-{i}" for i in range(2000)]
        moved = sum(1 for t in tenants if ring.route(t) != grown.route(t))
        assert 0 < moved < len(tenants) // 2  # naive mod-N would move ~80%

    def test_resize_only_moves_to_new_shards(self):
        """Growing the ring never shuffles a tenant between old shards."""
        ring = HashRing(3)
        grown = ring.resized(4)
        for i in range(500):
            before, after = ring.route(f"t{i}"), grown.route(f"t{i}")
            if before != after:
                assert after == 3

    def test_bad_arguments_raise(self):
        with pytest.raises(ShardError):
            HashRing(0)
        with pytest.raises(ShardError):
            HashRing(2, replicas=0)


class TestGoodputLedger:
    def test_buckets_sum_to_total(self):
        ledger = GoodputLedger()
        ledger.charge("j", GOODPUT_BUCKET, 700.0)
        for i, bucket in enumerate(BADPUT_BUCKETS):
            ledger.charge("j", bucket, 10.0 * (i + 1))
        tenant = ledger.tenant("j")
        assert tenant.total_us == pytest.approx(
            tenant.goodput_us + tenant.badput_us
        )
        assert tenant.goodput_us == 700.0
        assert tenant.badput_us == pytest.approx(sum(
            10.0 * (i + 1) for i in range(len(BADPUT_BUCKETS))
        ))

    def test_observe_step_splits_idle_from_busy(self):
        ledger = GoodputLedger()
        ledger.observe_step("j", _step(0, _OPS_A, duration_us=100.0, idle_us=30.0))
        tenant = ledger.tenant("j")
        assert tenant.buckets["infeed_stall"] == pytest.approx(30.0)
        assert tenant.goodput_us == pytest.approx(70.0)

    def test_non_training_steps_are_checkpoint_overhead(self):
        ledger = GoodputLedger()
        ledger.observe_step(
            "j", _step(0, _OPS_A, idle_us=0.0, kind=StepKind.CHECKPOINT)
        )
        tenant = ledger.tenant("j")
        assert tenant.goodput_us == 0.0
        assert tenant.buckets["checkpoint"] == pytest.approx(100.0)

    def test_observe_quarantine_charges_covered_time(self):
        ledger = GoodputLedger()
        ledger.observe_quarantine("j", _record(0, [_step(0, _OPS_A)]))
        assert ledger.tenant("j").buckets["quarantine"] == pytest.approx(100.0)

    def test_observe_fault_report_feeds_badput(self):
        ledger = GoodputLedger()
        report = {
            "client": {"backoff_ms_total": 5.0},
            "windows_skipped": 2,
            "windows_abandoned": 1,
        }
        ledger.observe_fault_report("j", report, request_interval_ms=100.0)
        tenant = ledger.tenant("j")
        assert tenant.buckets["retry_backoff"] == pytest.approx(5000.0)
        assert tenant.buckets["recovery_replay"] == pytest.approx(300000.0)

    def test_unknown_bucket_and_negative_charge_raise(self):
        ledger = GoodputLedger()
        with pytest.raises(ServeError):
            ledger.charge("j", "procrastination", 1.0)
        with pytest.raises(ServeError):
            ledger.charge("j", GOODPUT_BUCKET, -1.0)

    def test_report_is_sorted_and_exports_counters(self):
        ledger = GoodputLedger()
        ledger.charge("b", GOODPUT_BUCKET, 10.0)
        ledger.charge("a", GOODPUT_BUCKET, 20.0)
        report = ledger.report()
        assert [tenant.job_id for tenant in report.tenants] == ["a", "b"]
        rendered = ledger.registry.render()
        assert 'repro_serve_goodput_us_total{bucket="goodput"} 30' in rendered
        # every bucket is exposed even when never charged
        for bucket in ALL_BUCKETS:
            assert f'bucket="{bucket}"' in rendered


class TestShardedFleet:
    def test_scatter_gather_matches_single_service(self):
        tenants = [f"t{i}" for i in range(6)]
        single = FleetService()
        _drive(single, tenants)
        for shards in (1, 2, 4):
            fleet = ShardedFleet(ShardedFleetOptions(shards=shards))
            _drive(fleet, tenants)
            assert fleet.fleet_snapshot() == single.fleet_snapshot()
            for job_id in tenants:
                assert fleet.job_snapshot(job_id) == single.job_snapshot(job_id)
                assert fleet.similar_phases(job_id) == single.similar_phases(job_id)

    def test_no_drops_through_sharded_path(self):
        """A full queue pumps its one tenant first: nothing is ever shed."""
        service_options = FleetServiceOptions(queue_capacity=4)
        tenants = [f"t{i}" for i in range(4)]
        single = FleetService(options=service_options)
        _drive(single, tenants, num_steps=20)
        assert single.metrics.records_dropped == 64  # drop-oldest at 4 deep
        fleet = ShardedFleet(ShardedFleetOptions(shards=2, service=service_options))
        _drive(fleet, tenants, num_steps=20)
        assert fleet.metrics.records_dropped == 0
        assert fleet.metrics.records_ingested == 80

    def test_default_job_ids_match_single_service(self):
        single, fleet = FleetService(), ShardedFleet(ShardedFleetOptions(shards=3))
        for workload in ("bert-mrpc", "dcgan-mnist", "bert-mrpc"):
            assert fleet.register(workload).job_id == single.register(workload).job_id

    def test_unknown_tenant_raises_typed_error(self):
        fleet = ShardedFleet(ShardedFleetOptions(shards=2))
        for query in (
            fleet.job_snapshot,
            fleet.similar_phases,
            fleet.analysis,
            fleet.shard_of,
            fleet.complete,
        ):
            with pytest.raises(UnknownJobError):
                query("ghost")

    def test_quarantine_routes_and_counts_per_tenant(self):
        fleet = ShardedFleet(ShardedFleetOptions(shards=2))
        fleet.register("bert-mrpc", job_id="good")
        fleet.register("bert-mrpc", job_id="bad")
        good = _record(0, [_step(0, _OPS_A)])
        fleet.submit("good", good, checksum=record_checksum(good))
        corrupt = _record(0, [_step(0, _OPS_B)])
        fleet.submit("bad", corrupt, checksum=12345)  # wrong checksum
        fleet.pump()
        assert [q.job_id for q in fleet.quarantined()] == ["bad"]
        assert fleet.job_snapshot("bad").records_quarantined == 1
        assert fleet.job_snapshot("good").records_quarantined == 0
        assert fleet.fleet_snapshot().total_quarantined == 1
        # refused wall time lands in the tenant's quarantine bucket
        assert fleet.goodput("bad").buckets["quarantine"] > 0

    def test_goodput_invariant_over_a_fleet(self):
        fleet = ShardedFleet(ShardedFleetOptions(shards=2))
        _drive(fleet, [f"t{i}" for i in range(5)])
        report = fleet.goodput_report()
        assert len(report.tenants) == 5
        for tenant in report.tenants:
            assert tenant.total_us == pytest.approx(
                tenant.goodput_us + tenant.badput_us
            )
            assert tenant.total_us == pytest.approx(800.0)  # 8 steps x 100us

    def test_rebalance_preserves_results_bit_for_bit(self):
        tenants = [f"t{i}" for i in range(8)]
        fleet = ShardedFleet(ShardedFleetOptions(shards=2))
        _drive(fleet, tenants)
        before_fleet = fleet.fleet_snapshot()
        before_jobs = {job_id: fleet.job_snapshot(job_id) for job_id in tenants}
        before_goodput = fleet.goodput_report()
        moved = fleet.resize(5)
        assert fleet.num_shards == 5
        assert moved == sum(
            1 for job_id in tenants
            if fleet.ring.route(job_id) != HashRing(2).route(job_id)
        )
        assert fleet.fleet_snapshot() == before_fleet
        for job_id in tenants:
            assert fleet.job_snapshot(job_id) == before_jobs[job_id]
        # the ledger attaches after replay: no double-charged wall time
        assert fleet.goodput_report() == before_goodput

    def test_rebalance_replays_quarantine_decisions(self):
        """Refusals and wire losses match one service's, before and after a resize."""

        def deliver(service):
            service.register("bert-mrpc", job_id="bad")
            service.register("bert-mrpc", job_id="wire")
            corrupt = _record(0, [_step(0, _OPS_A)])
            service.submit("bad", corrupt, checksum=999)
            sink = service.sink("wire", transit=_LossyWire())
            for record in _stream_of_records(8):
                sink(record)
            service.pump()

        def observed(service):
            metrics = service.metrics
            return (
                [(q.job_id, q.record.index, q.reason) for q in service.quarantined()],
                metrics.records_submitted,
                metrics.records_dropped,
                metrics.records_ingested,
                metrics.records_quarantined,
            )

        single = FleetService()
        deliver(single)
        fleet = ShardedFleet(ShardedFleetOptions(shards=2))
        deliver(fleet)
        reference = observed(single)
        assert reference[1:] == (9, 2, 4, 3)
        assert "CRC-32 mismatch" in reference[0][-1][2]
        assert observed(fleet) == reference
        before = {job: fleet.goodput(job).buckets["quarantine"] for job in ("bad", "wire")}
        assert min(before.values()) > 0
        fleet.resize(3)
        assert observed(fleet) == reference
        for job, charged in before.items():
            assert fleet.goodput(job).buckets["quarantine"] == charged

    def test_rebalance_can_continue_ingesting(self):
        fleet = ShardedFleet(ShardedFleetOptions(shards=1))
        fleet.register("bert-mrpc", job_id="t0")
        records = _stream_of_records(8)
        for record in records[:4]:
            fleet.submit("t0", record, checksum=record_checksum(record))
        fleet.resize(4)
        for record in records[4:]:
            fleet.submit("t0", record, checksum=record_checksum(record))
        fleet.pump()
        fleet.complete("t0")
        single = FleetService()
        single.register("bert-mrpc", job_id="t0")
        for record in records:
            single.submit("t0", record, checksum=record_checksum(record))
        single.pump()
        single.complete("t0")
        assert fleet.job_snapshot("t0") == single.job_snapshot("t0")

    def test_completed_tenant_rejects_ingest(self):
        fleet = ShardedFleet(ShardedFleetOptions(shards=2))
        fleet.register("bert-mrpc", job_id="t0")
        fleet.complete("t0")
        with pytest.raises(ServeError):
            fleet.submit("t0", _record(0, [_step(0, _OPS_A)]))

    def test_evicted_tenant_leaves_the_fleet(self):
        fleet = ShardedFleet(ShardedFleetOptions(shards=2))
        fleet.register("bert-mrpc", job_id="t0")
        fleet.submit("t0", _record(0, [_step(0, _OPS_A)]))
        fleet.evict("t0")
        with pytest.raises(UnknownJobError):
            fleet.job_snapshot("t0")
        assert fleet.fleet_snapshot().num_jobs == 0
        assert fleet.metrics.jobs_evicted == 1

    def test_options_validation(self):
        with pytest.raises(ShardError):
            ShardedFleetOptions(shards=0)
        with pytest.raises(ShardError):
            ShardedFleetOptions(workers=0)

    def test_topology_is_deterministic(self):
        one = ShardedFleet(ShardedFleetOptions(shards=3))
        two = ShardedFleet(ShardedFleetOptions(shards=3))
        for fleet in (one, two):
            for i in range(9):
                fleet.register("bert-mrpc", job_id=f"t{i}")
        assert one.shard_tenants() == two.shard_tenants()
