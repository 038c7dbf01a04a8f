#!/usr/bin/env python3
"""Per-sample cost of the health monitor against fleet size.

Registers N tenants on one ``FleetService``; then, each sample, a fixed
number of seeded random tenants send one fleet-wide-style record (four
whole steps of a six-operator training mix) through ``service.sink``,
the service pumps, and a ``HealthMonitor`` observes it. Prints the
median ``HealthMonitor.observe`` time over the samples after a warm-up,
at each fleet size:

    PYTHONPATH=src python tools/health_sample_cost.py
    PYTHONPATH=src python tools/health_sample_cost.py --tenants 2000 20000 --senders 30

A sample that costs work only for tenants with new work reads about the
same at every size with the same number of senders.
"""

from __future__ import annotations

import argparse
import statistics
import time

import numpy as np

from repro.core.profiler.record import OperatorStats, ProfileRecord, StepStats
from repro.obs.health import HealthMonitor
from repro.runtime.events import DeviceKind, StepKind
from repro.serve import FleetService

STEPS_PER_RECORD = 4
_MIX = (
    ("MatMul", DeviceKind.TPU, 900.0),
    ("Conv2D", DeviceKind.TPU, 1200.0),
    ("Relu", DeviceKind.TPU, 80.0),
    ("CrossReplicaSum", DeviceKind.TPU, 300.0),
    ("InfeedDequeueTuple", DeviceKind.TPU, 50.0),
    ("IteratorGetNext", DeviceKind.HOST, 400.0),
)


def _record(rng: np.random.Generator, index: int) -> ProfileRecord:
    first = index * STEPS_PER_RECORD
    clock = first * 10_000.0
    steps = {}
    for number in range(first, first + STEPS_PER_RECORD):
        step = StepStats(step=number, kind=StepKind.TRAIN)
        busy = 0.0
        for name, device, mean in _MIX:
            duration = float(mean * rng.uniform(0.9, 1.1))
            step.operators[(name, device.value)] = OperatorStats(
                name=name,
                device=device,
                count=int(rng.integers(1, 4)),
                total_duration_us=duration,
            )
            busy += duration
        step.start_us = clock
        step.end_us = clock + busy * 1.25
        step.tpu_idle_us = busy * 0.25
        step.mxu_flops = busy * 4.0e6
        clock = step.end_us
        steps[number] = step
    return ProfileRecord(
        index=index, window_start_us=first * 10_000.0, window_end_us=clock, steps=steps
    )


def sample_cost(tenants: int, senders: int, samples: int, warmup: int, seed: int) -> float:
    """Median seconds per ``observe`` over the samples after ``warmup``."""
    rng = np.random.default_rng(seed)
    service = FleetService()
    sinks = [service.sink(service.register("synthetic").job_id) for _ in range(tenants)]
    sent = [0] * tenants
    monitor = HealthMonitor()
    times = []
    for tick in range(1, samples + 1):
        for tenant in rng.choice(tenants, size=senders, replace=False).tolist():
            sinks[tenant](_record(rng, sent[tenant]))
            sent[tenant] += 1
        service.pump()
        began = time.perf_counter()
        monitor.observe(service, tick)
        times.append(time.perf_counter() - began)
    return statistics.median(times[warmup:])


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--tenants", type=int, nargs="+", default=[2000, 20000])
    parser.add_argument("--senders", type=int, default=30)
    parser.add_argument("--samples", type=int, default=100)
    parser.add_argument("--warmup", type=int, default=20)
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args()
    base = None
    for tenants in args.tenants:
        cost = sample_cost(tenants, args.senders, args.samples, args.warmup, args.seed)
        base = cost if base is None else base
        print(
            f"{tenants:>7d} tenants, {args.senders} senders: "
            f"{cost * 1e3:.3f} ms per sample ({cost / base:.2f}x the first size)"
        )


if __name__ == "__main__":
    main()
