"""fleet-wide: thousands of synthetic tenants on one fleet service.

No simulation: set-up registers the tenants and generates seeded,
phase-structured multi-step records for a seeded schedule. Each round,
1-2% of the tenants send one record through the service's binary-wire
sink; a global pump, a health observation and a batch of job snapshots
on random tenants follow; the batch is the query whose latency the run
reports, as one snapshot takes tens of microseconds, too short to time
steadily alone on a shared host. With a heartbeat deadline set, tenants silent
for too long stall and resume on their next record. The closing stage
is a last pump and a fleet snapshot over every tenant.
"""

from __future__ import annotations

import sys
import time
from dataclasses import dataclass

import numpy as np

from repro.core.profiler.record import OperatorStats, ProfileRecord, StepStats
from repro.obs.health import HealthMonitor, HealthOptions
from repro.runtime.events import DeviceKind, StepKind
from repro.serve import FleetService, FleetServiceOptions

from common import Bench, Episode, Stopwatch, check, digest

TENANTS = 2000
ROUNDS = 100
SNAPSHOTS_PER_ROUND = 16
HEARTBEAT_DEADLINE = 25
STEPS_PER_RECORD = 4
EVAL_EVERY = 6
#: Rounds between host-speed probes (a round takes tens of milliseconds).
PROBE_EVERY = 5

#: Operator mixes per step kind: (name, device, mean duration in us).
_MIXES = {
    StepKind.TRAIN: (
        ("MatMul", DeviceKind.TPU, 900.0),
        ("Conv2D", DeviceKind.TPU, 1200.0),
        ("Relu", DeviceKind.TPU, 80.0),
        ("CrossReplicaSum", DeviceKind.TPU, 300.0),
        ("InfeedDequeueTuple", DeviceKind.TPU, 50.0),
        ("IteratorGetNext", DeviceKind.HOST, 400.0),
    ),
    StepKind.EVAL: (
        ("MatMul", DeviceKind.TPU, 700.0),
        ("Softmax", DeviceKind.TPU, 60.0),
        ("OutfeedEnqueueTuple", DeviceKind.TPU, 40.0),
        ("IteratorGetNext", DeviceKind.HOST, 350.0),
    ),
}


@dataclass
class _State:
    service: FleetService
    job_ids: list[str]
    sinks: list
    health: HealthMonitor
    schedule: list[np.ndarray]
    snapshots: list[np.ndarray]
    records: dict[tuple[int, int], ProfileRecord]
    generated_steps: int
    expected_stalls: int
    expected_resumes: int


def _record(rng: np.random.Generator, tenant_scale: float, index: int) -> ProfileRecord:
    """One record of ``STEPS_PER_RECORD`` whole steps, eval every few steps."""
    first = index * STEPS_PER_RECORD
    clock = first * 10_000.0
    steps = {}
    for number in range(first, first + STEPS_PER_RECORD):
        kind = StepKind.EVAL if number % EVAL_EVERY == EVAL_EVERY - 1 else StepKind.TRAIN
        step = StepStats(step=number, kind=kind)
        busy = 0.0
        for name, device, mean in _MIXES[kind]:
            duration = float(mean * tenant_scale * rng.uniform(0.9, 1.1))
            count = int(rng.integers(1, 4))
            step.operators[(name, device.value)] = OperatorStats(
                name=name, device=device, count=count, total_duration_us=duration
            )
            busy += duration
        step.start_us = clock
        step.end_us = clock + busy * 1.25
        step.tpu_idle_us = busy * 0.25
        step.mxu_flops = busy * 4.0e6
        clock = step.end_us
        steps[number] = step
    return ProfileRecord(
        index=index,
        window_start_us=first * 10_000.0,
        window_end_us=clock,
        steps=steps,
    )


def _heartbeats(sends: list[list[int]]) -> tuple[int, int]:
    """Stalls and resumes the service's heartbeat rule implies.

    A send in round ``r`` happens before that round's pump, which
    advances the tick to ``r + 1`` and stalls an active tenant whose
    last send is ``HEARTBEAT_DEADLINE`` ticks old. The closing stage's
    pump is tick ``ROUNDS + 1``.
    """
    stalls = resumes = 0
    for rounds in sends:
        for current, following in zip(rounds, rounds[1:] + [None]):
            if current + HEARTBEAT_DEADLINE > ROUNDS + 1:
                continue  # the run ends before the deadline passes
            stalls += 1
            if following is None:
                continue
            if following < current + HEARTBEAT_DEADLINE:
                stalls -= 1
            else:
                resumes += 1
    return stalls, resumes


def setup(bench: Bench) -> _State:
    """Register the tenants; generate the schedule and every record."""
    layers = bench.layers
    service = FleetService(
        options=FleetServiceOptions(heartbeat_deadline=HEARTBEAT_DEADLINE)
    )
    with layers.span("serve.register"):
        job_ids = [
            service.register(f"synthetic-{tenant % 8}").job_id
            for tenant in range(TENANTS)
        ]
        sinks = [layers.wrap("serve.sink", service.sink(job)) for job in job_ids]
    with layers.span("bench.generate"):
        rng = np.random.default_rng(bench.seed)
        scales = rng.uniform(0.5, 2.0, size=TENANTS)
        schedule = [
            rng.choice(
                TENANTS,
                size=int(rng.integers(TENANTS // 100, TENANTS // 50 + 1)),
                replace=False,
            )
            for _ in range(ROUNDS)
        ]
        snapshots = [
            rng.integers(0, TENANTS, size=SNAPSHOTS_PER_ROUND) for _ in range(ROUNDS)
        ]
        sends: list[list[int]] = [[] for _ in range(TENANTS)]
        records = {}
        for round_index, tenants in enumerate(schedule):
            for tenant in tenants.tolist():
                records[(round_index, tenant)] = _record(
                    rng, float(scales[tenant]), len(sends[tenant])
                )
                sends[tenant].append(round_index)
    stalls, resumes = _heartbeats(sends)
    return _State(
        service=service,
        job_ids=job_ids,
        sinks=sinks,
        health=HealthMonitor(HealthOptions(seed=bench.seed)),
        schedule=schedule,
        snapshots=snapshots,
        records=records,
        generated_steps=len(records) * STEPS_PER_RECORD,
        expected_stalls=stalls,
        expected_resumes=resumes,
    )


def episode(bench: Bench, state: _State) -> Episode:
    layers = bench.layers
    service, health, records = state.service, state.health, state.records
    snapshot_us: list[float] = []
    queued_share: list[float] = []
    queries = raised = 0

    watch = Stopwatch()
    for round_index, tenants in enumerate(state.schedule):
        for tenant in tenants.tolist():
            state.sinks[tenant](records[(round_index, tenant)])
        queued_share.append(len(tenants) / TENANTS)
        with layers.span("serve.pump"):
            service.pump()
        with layers.span("health.observe"):
            health.observe(service, tick=round_index + 1)
        batch_began = time.perf_counter()
        for tenant in state.snapshots[round_index].tolist():
            queries += 1
            start = time.perf_counter()
            try:
                with layers.span("serve.snapshot"):
                    service.job_snapshot(state.job_ids[tenant])
            except Exception as error:  # a failed query counts; the run goes on
                print(f"warning: job_snapshot raised {error!r}", file=sys.stderr)
                raised += 1
                continue
            snapshot_us.append((time.perf_counter() - start) * 1e6)
        watch.query((time.perf_counter() - batch_began) * 1e3)
        if round_index % PROBE_EVERY == PROBE_EVERY - 1:
            watch.sample()
    watch.lap("ingest")
    steps = service.metrics.steps_assembled
    ingested = service.metrics.records_ingested

    with layers.span("serve.pump"):
        service.pump()
    queries += 1
    try:
        with layers.span("serve.fleet_snapshot"):
            rollup = service.fleet_snapshot()
    except Exception as error:
        print(f"warning: fleet_snapshot raised {error!r}", file=sys.stderr)
        raised += 1
        rollup = None
    watch.lap("answer")

    metrics = service.metrics
    if bench.episodes == 0:
        _check(state, rollup)
    signatures = [analysis.streaming for _, analysis in service.live_analyses()]
    return Episode(
        watch=watch,
        steps=steps,
        records=ingested,
        attempted=metrics.records_submitted + queries,
        failed=metrics.records_dropped + metrics.records_quarantined + raised,
        digest=digest(
            {
                "steps": None if rollup is None else rollup.total_steps,
                "histogram": None if rollup is None else rollup.phase_histogram,
                "stalled": metrics.jobs_stalled,
                "resumed": metrics.jobs_resumed,
                "jobs": None
                if rollup is None
                else digest([(job.steps_seen, job.num_phases) for job in rollup.jobs]),
            }
        ),
        details={"snapshot_us": snapshot_us},
        counts={
            "serve.records_submitted": metrics.records_submitted,
            "serve.steps_assembled": metrics.steps_assembled,
            "serve.jobs_stalled": metrics.jobs_stalled,
            "serve.jobs_resumed": metrics.jobs_resumed,
            "serve.records_dropped": metrics.records_dropped,
            "serve.records_quarantined": metrics.records_quarantined,
            "serve.queued_tenant_share": float(np.mean(queued_share)),
            "health.samples": health.samples,
            "analyzer.unique_signature_share": sum(s.num_signatures for s in signatures)
            / max(sum(s.steps_folded for s in signatures), 1),
        },
    )


def _check(state: _State, rollup) -> None:
    """Every generated record and step is ingested; heartbeats match."""
    metrics = state.service.metrics
    check(rollup is not None, "final fleet snapshot raised")
    check(
        metrics.records_ingested == len(state.records),
        f"ingested {metrics.records_ingested} of {len(state.records)} records",
    )
    pending = sum(job.pending_steps for job in rollup.jobs)
    check(
        rollup.total_steps + pending == state.generated_steps,
        f"assembled {rollup.total_steps} + {pending} pending steps, "
        f"generated {state.generated_steps}",
    )
    check(
        (metrics.jobs_stalled, metrics.jobs_resumed)
        == (state.expected_stalls, state.expected_resumes),
        f"stalls/resumes {metrics.jobs_stalled}/{metrics.jobs_resumed}, schedule "
        f"implies {state.expected_stalls}/{state.expected_resumes}",
    )
