"""fleet-live: eight simulated training jobs through a two-shard fleet.

The north-star path from simulated steps to answered queries. The CLI's
four fast default workloads run twice, round-robin in 16-step quanta;
each job's profiler hands records to the fleet's sink synchronously.
After every round the fleet drains, a health monitor observes it, and
the fleet and every job are snapshotted; every fourth round each live
job answers an exact-mode phase analysis. The fleet resizes from two to
three shards once, mid-run. After the last job completes, every job's
phase analysis, the fleet snapshot and the goodput report are the final
answered queries.
"""

from __future__ import annotations

import sys
import time
from dataclasses import dataclass

import numpy as np

from repro.core.analyzer import TPUPointAnalyzer
from repro.obs.health import HealthMonitor, HealthOptions
from repro.serve import DEFAULT_FLEET_WORKLOADS, ShardedFleet, ShardedFleetOptions
from repro.workloads.runner import attach_record_sink, build_estimator
from repro.workloads.spec import WorkloadSpec

from common import Bench, Episode, Stopwatch, check, digest, train_steps

WORKLOADS = DEFAULT_FLEET_WORKLOADS * 2
CHUNK_STEPS = 16
SHARDS = 2
RESIZE_TO = 3
RESIZE_ROUND = 8
PHASE_EVERY = 4


@dataclass
class _Job:
    job_id: str
    key: str
    estimator: object
    profiler: object
    done: bool = False
    steps_executed: int = 0


@dataclass
class _State:
    fleet: ShardedFleet
    jobs: list[_Job]
    health: HealthMonitor
    pending: set[str]


def setup(bench: Bench) -> _State:
    """Register the jobs, build and compile their estimators, attach sinks."""
    layers = bench.layers
    fleet = ShardedFleet(
        ShardedFleetOptions(shards=SHARDS, workers=1)
    )
    pending: set[str] = set()
    jobs = []
    for index, key in enumerate(WORKLOADS):
        spec = WorkloadSpec(key, seed=bench.seed * 1000 + index)
        with layers.span("serve.register"):
            info = fleet.register(key, generation=spec.generation)
        sink = layers.wrap("serve.sink", fleet.sink(info.job_id))

        def hook(record, _sink=sink, _job=info.job_id):
            pending.add(_job)
            _sink(record)

        with layers.span("workloads.build"):
            estimator = build_estimator(spec)
            profiler = attach_record_sink(estimator, hook)
        jobs.append(_Job(info.job_id, key, estimator, profiler))
    health = HealthMonitor(HealthOptions(seed=bench.seed))
    return _State(fleet=fleet, jobs=jobs, health=health, pending=pending)


def episode(bench: Bench, state: _State) -> Episode:
    layers = bench.layers
    fleet, jobs, health, pending = state.fleet, state.jobs, state.health, state.pending
    snapshot_us: list[float] = []
    queued_share: list[float] = []
    queries = raised = 0
    moved = 0

    def query(name: str, call, record=None, scale: float = 1e3):
        nonlocal queries, raised
        queries += 1
        began = time.perf_counter()
        try:
            with layers.span(name):
                result = call()
        except Exception as error:  # a failed query counts; the run goes on
            print(f"warning: {name} raised {error!r}", file=sys.stderr)
            raised += 1
            return None
        if record is not None:
            record((time.perf_counter() - began) * scale)
        return result

    watch = Stopwatch()
    rounds = 0
    while not all(job.done for job in jobs):
        rounds += 1
        for job in jobs:
            if job.done:
                continue
            train_steps(bench, job.estimator, CHUNK_STEPS)
            if job.estimator.session.global_step >= job.estimator.plan.train_steps:
                with layers.span("runtime.train"):
                    summary = job.estimator.finalize()
                job.steps_executed = summary.steps_executed
                with layers.span("profiler.stop"):
                    job.profiler.stop()
                with layers.span("serve.pump"):
                    fleet.pump(job.job_id)
                with layers.span("serve.complete"):
                    fleet.complete(job.job_id)
                job.done = True
        watch.sample()
        live = [job.job_id for job in jobs if not job.done]
        if live:
            queued_share.append(sum(job in pending for job in live) / len(live))
        pending.clear()
        with layers.span("serve.pump"):
            fleet.pump()
        with layers.span("health.observe"):
            health.observe(fleet, tick=rounds)
        if rounds == RESIZE_ROUND:
            with layers.span("shard.resize"):
                moved = fleet.resize(RESIZE_TO)
        query("serve.fleet_snapshot", fleet.fleet_snapshot)
        for job in jobs:
            query("serve.snapshot", lambda: fleet.job_snapshot(job.job_id), snapshot_us.append, 1e6)
            if rounds % PHASE_EVERY == 0 and not job.done:
                watch.sample()
                query("serve.phase_analysis", lambda: fleet.phase_analysis(job.job_id), watch.query)
                watch.sample()
        watch.sample()
    watch.lap("ingest")

    finals = []
    for job in jobs:
        finals.append(query("serve.phase_analysis", lambda: fleet.phase_analysis(job.job_id)))
        watch.sample()
    rollup = query("serve.fleet_snapshot", fleet.fleet_snapshot)
    goodput = query("shard.goodput_report", fleet.goodput_report)
    with layers.span("health.observe"):
        health.finish()
    watch.lap("answer")
    fleet.close()

    metrics = fleet.metrics
    steps = sum(job.steps_executed for job in jobs)
    if bench.episodes == 0:
        _check(state, rollup, steps)
    signatures = [fleet.analysis(job.job_id).streaming for job in jobs]
    return Episode(
        watch=watch,
        steps=steps,
        records=metrics.records_ingested,
        attempted=metrics.records_submitted + queries,
        failed=metrics.records_dropped + metrics.records_quarantined + raised,
        digest=digest(
            {
                "labels": [
                    None if final is None else final.labels.tolist() for final in finals
                ],
                "total_steps": None if rollup is None else rollup.total_steps,
                "histogram": None if rollup is None else rollup.phase_histogram,
                "goodput_us": None if goodput is None else goodput.goodput_us,
                "alerts": health.alerts_dict(),
                "rounds": rounds,
                "moved": moved,
            }
        ),
        details={"snapshot_us": snapshot_us, "phase_query_ms": watch.queries_ms},
        counts={
            "runtime.steps": steps,
            "serve.records_submitted": metrics.records_submitted,
            "serve.steps_assembled": metrics.steps_assembled,
            "serve.jobs_stalled": metrics.jobs_stalled,
            "serve.jobs_resumed": metrics.jobs_resumed,
            "serve.records_dropped": metrics.records_dropped,
            "serve.records_quarantined": metrics.records_quarantined,
            "serve.queued_tenant_share": float(np.mean(queued_share)),
            "shard.tenants_moved": moved,
            "health.samples": health.samples,
            "analyzer.unique_signature_share": sum(s.num_signatures for s in signatures)
            / max(sum(s.steps_folded for s in signatures), 1),
        },
    )


def _check(state: _State, rollup, steps: int) -> None:
    """Every job completes, step totals agree, exact phases equal batch."""
    check(rollup is not None, "final fleet snapshot raised")
    check(
        rollup.completed_jobs == len(WORKLOADS),
        f"{rollup.completed_jobs} of {len(WORKLOADS)} fleet jobs completed",
    )
    check(
        rollup.total_steps == steps,
        f"fleet assembled {rollup.total_steps} steps, jobs executed {steps}",
    )
    job = state.jobs[0]
    live = state.fleet.phase_analysis(job.job_id).labels
    batch = TPUPointAnalyzer(job.profiler.records).kmeans_phases().labels
    check(
        np.array_equal(live, batch),
        f"exact-mode phase labels of {job.job_id} differ from the batch analyzer",
    )
