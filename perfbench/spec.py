"""What the benchmark measures: workloads and metric definitions.

``BENCHMARK.json`` at the repository root is generated from this module
(``python3 perfbench/run.py --write-spec``); it imports nothing from the
program, so the spec can be written without a source tree.
"""

from __future__ import annotations

import json
from pathlib import Path

COMMAND = ["python3", "perfbench/run.py"]
PATHS = ["perfbench"]
RUN_SECONDS = 40

#: Workload name -> (module, why).
WORKLOADS = {
    "fleet-live": (
        "fleet_live",
        "8 simulated jobs to answered queries through a 2-shard fleet; "
        "simulation, profiling and exact phase queries dominate",
    ),
    "fleet-wide": (
        "fleet_wide",
        "2000 synthetic tenants, 1-2% active per round, no simulation; pump "
        "scan, heartbeat walk, ingest validation and health sampling dominate",
    ),
    "offline-characterize": (
        "offline",
        "profile to binary journal, recover, k-means/DBSCAN/OLS phases, autotune "
        "and online tuning; the k-sweep and the journal codec dominate",
    ),
}

#: (name, unit, better, bound). Every workload reports every metric.
END_TO_END = [
    ("wall_s", "s", "lower", 0.25),
    ("setup_s", "s", "lower", 0.25),
    ("train_steps_per_s", "steps/s", "higher", 0.25),
    ("ingest_records_per_s", "rec/s", "higher", 0.25),
    ("query_p50_ms", "ms", "lower", 0.25),
    ("query_tail_ms", "ms", "lower", 0.25),
    ("analyze_s", "s", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.1),
]

#: Layer self times: the span names the workloads record, reported as
#: ``<span>_s``. Their sum plus ``bench.unattributed_s`` is traced wall.
SPANS = [
    "runtime.train",
    "workloads.build",
    "profiler.request",
    "profiler.stop",
    "journal.append",
    "journal.recover",
    "serve.register",
    "serve.sink",
    "serve.pump",
    "serve.complete",
    "serve.snapshot",
    "serve.fleet_snapshot",
    "serve.phase_analysis",
    "shard.resize",
    "shard.goodput_report",
    "analyzer.reduce",
    "analyzer.kmeans",
    "analyzer.dbscan",
    "analyzer.ols",
    "optimizer.autotune",
    "optimizer.online",
    "health.observe",
    "bench.generate",
]

#: (name, unit, better) for per-episode counts, ratios and derived figures.
COUNTS = [
    ("runtime.steps", "count", "higher"),
    ("profiler.requests", "count", "lower"),
    ("profiler.records", "count", "lower"),
    ("journal.bytes", "B", "lower"),
    ("journal.recover_mb_per_s", "MB/s", "higher"),
    ("serve.records_submitted", "count", "higher"),
    ("serve.pump_calls", "count", "lower"),
    ("serve.steps_assembled", "count", "higher"),
    ("serve.jobs_stalled", "count", "lower"),
    ("serve.jobs_resumed", "count", "lower"),
    ("serve.records_dropped", "count", "lower"),
    ("serve.records_quarantined", "count", "lower"),
    ("serve.queued_tenant_share", "ratio", "higher"),
    ("shard.tenants_moved", "count", "lower"),
    ("analyzer.steps", "count", "higher"),
    ("analyzer.unique_signature_share", "ratio", "lower"),
    ("optimizer.trials", "count", "lower"),
    ("optimizer.simulated_s", "sim-s", "lower"),
    ("health.samples", "count", "higher"),
    ("bench.unattributed_s", "s", "lower"),
    ("bench.trace_overhead_frac", "ratio", "lower"),
]

PER_LAYER = [(f"{name}_s", "s", "lower") for name in SPANS] + COUNTS
UNITS = {name: unit for name, unit, *_ in END_TO_END + PER_LAYER}


def document() -> dict:
    """The ``BENCHMARK.json`` content."""
    return {
        "command": COMMAND,
        "paths": PATHS,
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": name, "why": why} for name, (_, why) in WORKLOADS.items()],
        "end_to_end": [
            {"name": name, "unit": unit, "better": better, "bound": bound}
            for name, unit, better, bound in END_TO_END
        ],
        "per_layer": [
            {"name": name, "unit": unit, "better": better}
            for name, unit, better in PER_LAYER
        ],
    }


def write(path: Path) -> Path:
    path.write_text(json.dumps(document(), indent=2) + "\n", encoding="utf-8")
    return path
