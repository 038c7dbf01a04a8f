"""repro.serve.shard — the horizontally sharded fleet tier.

Tenants route to N independent :class:`~repro.serve.FleetService`
shards over a seeded consistent-hash ring; each record goes straight to
its shard, which never sheds it; queries scatter-gather back into the
exact order a single service would report; and a fleet-wide
:class:`GoodputLedger` classifies every tenant's wall time into
productive goodput vs badput buckets. See ``docs/fleet.md``.
"""

from repro.serve.shard.ledger import (
    ALL_BUCKETS,
    BADPUT_BUCKETS,
    GOODPUT_BUCKET,
    GoodputLedger,
    GoodputReport,
    TenantLedger,
)
from repro.serve.shard.ring import DEFAULT_REPLICAS, HashRing
from repro.serve.shard.sharded import (
    AggregateMetrics,
    ShardedFleet,
    ShardedFleetOptions,
)

__all__ = [
    "ALL_BUCKETS",
    "AggregateMetrics",
    "BADPUT_BUCKETS",
    "DEFAULT_REPLICAS",
    "GOODPUT_BUCKET",
    "GoodputLedger",
    "GoodputReport",
    "HashRing",
    "ShardedFleet",
    "ShardedFleetOptions",
    "TenantLedger",
]
