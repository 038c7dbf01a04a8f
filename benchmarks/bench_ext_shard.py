"""Extension: sharded fleet ingest throughput at 10k tenants.

A ``FleetService`` global pump drains only the tenants with queued
records and its stall check walks only expired tenants, so a pump
costs what was queued, not the fleet size. The sharded tier
(``repro.serve.shard``, docs/fleet.md) splits the tenants over S
services and sends each record straight to its shard; a tenant whose
queue is full is pumped alone before its next record lands, so nothing
is shed and every answer stays bit-identical to the single-service
path.

This bench registers 10,000 synthetic tenants, streams one record
each through ``ShardedFleet`` at 1/2/4/8 shards, and reports:

* ingest+drain throughput (records/s of real wall time); a full run
  asserts that one shard reaches ``SINGLE_SHARD_FLOOR`` (CI boxes are
  too noisy for timing asserts, so ``--quick`` checks identities on a
  smaller fleet instead);
* p50/p99 ``job_snapshot`` latency over a 512-tenant sample;
* the invariant checks: zero shed records, identical fleet totals at
  every shard count, and per-tenant goodput buckets summing to the
  charged total.
"""

import argparse
import sys
import time

from repro.core.profiler.record import ProfileRecord, StepStats
from repro.core.profiler.serialize import record_checksum
from repro.runtime.events import DeviceKind, StepKind
from repro.serve import ShardedFleet, ShardedFleetOptions

_SHARD_COUNTS = (1, 2, 4, 8)
_FULL_TENANTS = 10_000
_QUICK_TENANTS = 1_500
_SNAPSHOT_SAMPLE = 512
#: Records/s one shard must reach at 10k tenants in a full run: the
#: 8-shard rate this bench recorded while every pump scanned all of its
#: shard's live tenants.
SINGLE_SHARD_FLOOR = 6_851

_OPS = ("matmul", "fusion", "InfeedDequeueTuple")


def _record_for(tenant: int) -> ProfileRecord:
    """One tiny single-step record, deterministic per tenant."""
    record = ProfileRecord(index=0, window_start_us=0.0, window_end_us=1.0)
    step = StepStats(step=0)
    for name in _OPS:
        step.observe(name, DeviceKind.TPU, 10.0)
    step.kind = StepKind.TRAIN
    step.start_us = 0.0
    step.end_us = 100.0
    step.tpu_idle_us = float(tenant % 50)
    step.mxu_flops = 1e6
    record.steps[0] = step
    return record


def _drive(num_tenants: int, shards: int):
    """Register, ingest, and settle a fleet; returns (fleet, seconds)."""
    fleet = ShardedFleet(ShardedFleetOptions(shards=shards))
    tenants = [f"tenant-{i:05d}" for i in range(num_tenants)]
    for tenant in tenants:
        fleet.register("bert-mrpc", job_id=tenant)
    records = [
        (tenant, _record_for(i)) for i, tenant in enumerate(tenants)
    ]
    checksums = [record_checksum(record) for _, record in records]
    began = time.perf_counter()
    for (tenant, record), checksum in zip(records, checksums):
        fleet.submit(tenant, record, checksum=checksum)
    fleet.pump()
    elapsed = time.perf_counter() - began
    return fleet, tenants, elapsed


def _snapshot_latencies(fleet, tenants) -> tuple[float, float]:
    """(p50, p99) job_snapshot latency in microseconds over a sample."""
    stride = max(len(tenants) // _SNAPSHOT_SAMPLE, 1)
    sample = tenants[::stride][:_SNAPSHOT_SAMPLE]
    timings = []
    for tenant in sample:
        began = time.perf_counter()
        fleet.job_snapshot(tenant)
        timings.append(time.perf_counter() - began)
    timings.sort()
    p50 = timings[len(timings) // 2]
    p99 = timings[min(int(len(timings) * 0.99), len(timings) - 1)]
    return p50 * 1e6, p99 * 1e6


def run_sweep(num_tenants: int, assert_floor: bool) -> list[str]:
    lines = [
        f"{'shards':>7s} {'tenants':>8s} {'records':>8s} {'dropped':>8s} "
        f"{'rec/s':>10s} {'snap p50':>10s} {'snap p99':>10s}"
    ]
    throughput: dict[int, float] = {}
    reference = None
    for shards in _SHARD_COUNTS:
        fleet, tenants, elapsed = _drive(num_tenants, shards)
        rate = num_tenants / elapsed
        throughput[shards] = rate
        p50_us, p99_us = _snapshot_latencies(fleet, tenants)
        metrics = fleet.metrics
        assert metrics.records_dropped == 0, "sharded path must never shed"
        assert metrics.records_ingested == num_tenants
        snapshot = fleet.fleet_snapshot()
        totals = (
            snapshot.total_steps,
            snapshot.total_records,
            snapshot.total_drops,
            round(snapshot.idle_fraction, 12),
        )
        if reference is None:
            reference = totals
        assert totals == reference, (
            f"fleet totals diverged at {shards} shards: {totals} != {reference}"
        )
        report = fleet.goodput_report()
        for row in report.tenants[:64]:
            assert abs(row.total_us - (row.goodput_us + row.badput_us)) < 1e-6
        lines.append(
            f"{shards:>7d} {num_tenants:>8d} {metrics.records_ingested:>8d} "
            f"{metrics.records_dropped:>8d} {rate:>10.0f} "
            f"{p50_us:>8.1f}us {p99_us:>8.1f}us"
        )
    best, base = throughput[max(_SHARD_COUNTS)], throughput[1]
    lines.append(
        f"throughput x{best / base:.2f} at {max(_SHARD_COUNTS)} shards vs 1 "
        f"(a pump drains only queued tenants, docs/fleet.md)"
    )
    if assert_floor:
        assert base >= SINGLE_SHARD_FLOOR, (
            f"one shard must ingest at least {SINGLE_SHARD_FLOOR} rec/s at "
            f"{num_tenants} tenants: {base:.0f} rec/s"
        )
    return lines


def test_ext_shard_scaling(benchmark):
    from _harness import emit, once

    lines: list[str] = []

    def run_all():
        lines.extend(run_sweep(_FULL_TENANTS, assert_floor=True))

    once(benchmark, run_all)
    emit(
        "ext_shard",
        "Extension: sharded fleet ingest at 10k tenants (1/2/4/8 shards)",
        lines,
    )


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--quick",
        action="store_true",
        help="small-fleet identity checks only (no timing assertions)",
    )
    args = parser.parse_args(argv)
    title = "Extension: sharded fleet ingest at 10k tenants (1/2/4/8 shards)"
    if args.quick:
        lines = run_sweep(_QUICK_TENANTS, assert_floor=False)
        print("\n".join([f"== {title} (quick) =="] + lines))
    else:
        from _harness import emit

        lines = run_sweep(_FULL_TENANTS, assert_floor=True)
        emit("ext_shard", title, lines)
    return 0


if __name__ == "__main__":
    sys.exit(main())
