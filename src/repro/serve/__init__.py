"""repro.serve — multi-tenant fleet profiling service.

A new layer between the per-run toolchain (``repro.core``) and the
evaluation harness: many concurrent training jobs stream their
:class:`~repro.core.profiler.record.ProfileRecord` summaries into one
:class:`FleetService`, which assembles steps online, folds them into the
online linear scan, and answers per-job and fleet-level queries while
the runs are still in flight.
"""

from repro.serve.fleet import (
    DEFAULT_FLEET_WORKLOADS,
    FleetJobResult,
    FleetRunResult,
    run_fleet,
)
from repro.serve.ingest import (
    DEFAULT_QUEUE_CAPACITY,
    IngestAck,
    IngestQueue,
    validate_record,
)
from repro.serve.live import LiveJobAnalysis, LivePhase
from repro.serve.metrics import ServiceMetrics
from repro.serve.query import FleetSnapshot, JobSnapshot, PhaseView
from repro.serve.registry import JobInfo, JobRegistry, JobState
from repro.serve.service import (
    ChangeFeed,
    FleetService,
    FleetServiceOptions,
    QuarantinedRecord,
    TuningPrior,
)
from repro.serve.shard import (
    GoodputLedger,
    GoodputReport,
    HashRing,
    ShardedFleet,
    ShardedFleetOptions,
    TenantLedger,
)

__all__ = [
    "ChangeFeed",
    "DEFAULT_FLEET_WORKLOADS",
    "DEFAULT_QUEUE_CAPACITY",
    "FleetJobResult",
    "FleetRunResult",
    "FleetService",
    "FleetServiceOptions",
    "FleetSnapshot",
    "GoodputLedger",
    "GoodputReport",
    "HashRing",
    "IngestAck",
    "IngestQueue",
    "JobInfo",
    "JobRegistry",
    "JobSnapshot",
    "JobState",
    "LiveJobAnalysis",
    "LivePhase",
    "PhaseView",
    "QuarantinedRecord",
    "ServiceMetrics",
    "ShardedFleet",
    "ShardedFleetOptions",
    "TenantLedger",
    "TuningPrior",
    "run_fleet",
    "validate_record",
]
