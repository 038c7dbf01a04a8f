"""Horizontally sharded fleet tier with scatter-gather queries.

One :class:`~repro.serve.service.FleetService` folds every tenant's
records on a single drain loop, and a global pump drains only the
tenants with queued records. :class:`ShardedFleet` splits the fleet
across N independent ``FleetService`` shards:

* tenants route to shards via a seeded consistent-hash
  :class:`~repro.serve.shard.ring.HashRing` — deterministic at any
  shard count, stable under resize;
* each delivery goes straight to the owning shard. A record for a
  tenant whose queue is full first pumps that one tenant, so the
  sharded path never sheds a record (the **no-drop invariant**), and a
  per-tenant pump never advances a heartbeat. Results are therefore
  bit-identical to one service's whenever that service would shed
  nothing;
* global pumps and scatter-gather queries visit the shards inline, in
  order; per-job queries go to the owning shard, and fleet-wide ones
  (fleet snapshot, phase similarity, tuning priors) gather in global
  registration order — the same order a single service would report;
* :meth:`resize` rebalances by replay: the fleet settles, every
  tenant's journaled deliveries replay into fresh shards on the new
  ring through the calls that first applied them, and the goodput
  ledger attaches only *after* replay so no tenant's wall time is ever
  double-charged. Change feeds (:meth:`change_feed`) move to the fresh
  shards and ask their consumer for one rescan.

The fleet owns one :class:`~repro.serve.shard.ledger.GoodputLedger`
shared by all shards, so goodput/badput accounting stays fleet-wide
across rebalances.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass, field
from typing import Callable

from repro import obs
from repro.core.analyzer.analyzer import AnalysisResult
from repro.core.optimizer.knowledge import TuningKnowledgeBase
from repro.core.profiler.record import ProfileRecord
from repro.errors import ServeError, ShardError, UnknownJobError
from repro.serve.ingest import IngestAck
from repro.serve.live import LiveJobAnalysis
from repro.serve.query import FleetSnapshot, JobSnapshot, fleet_snapshot
from repro.serve.registry import JobInfo
from repro.serve.service import (
    ChangeFeed,
    FleetService,
    FleetServiceOptions,
    QuarantinedRecord,
    TuningPrior,
    wire_sink,
)
from repro.serve.shard.ledger import GoodputLedger, GoodputReport, TenantLedger
from repro.serve.shard.ring import DEFAULT_REPLICAS, HashRing
from repro.rng import DEFAULT_SEED
from repro.tpu.specs import TpuGeneration

_SHARDS_GAUGE = obs.gauge(
    "repro_serve_shards", "Shards in the current sharded-fleet topology."
)
_REBALANCED = obs.counter(
    "repro_serve_shard_rebalanced_tenants_total",
    "Tenants that changed shard across resize rebalances.",
)

#: Aggregate counter keys summed across shard ServiceMetrics (the
#: deterministic subset; query latencies stay per-shard).
_AGGREGATE_KEYS = (
    "jobs_registered",
    "jobs_completed",
    "jobs_evicted",
    "jobs_stalled",
    "jobs_resumed",
    "records_submitted",
    "records_ingested",
    "records_dropped",
    "records_quarantined",
    "steps_assembled",
    "evicted_drops",
    "evicted_quarantines",
)


@dataclass(frozen=True)
class ShardedFleetOptions:
    """Configuration of one sharded fleet."""

    shards: int = 2
    seed: int = DEFAULT_SEED
    replicas: int = DEFAULT_REPLICAS
    #: Shards pump inline; kept, as None or 1 only, for callers passing 1.
    workers: int | None = None
    service: FleetServiceOptions = field(default_factory=FleetServiceOptions)

    def __post_init__(self) -> None:
        if self.shards <= 0:
            raise ShardError("a sharded fleet needs at least one shard")
        if self.workers not in (None, 1):
            raise ShardError("shards pump inline: workers must be None or 1")


def _submit(
    service: FleetService, job_id: str, record: ProfileRecord, checksum: int | None
) -> IngestAck:
    """Submit to a shard without shedding: a full queue first pumps its tenant."""
    if service.queue_depth(job_id) >= service.options.queue_capacity:
        service.pump(job_id)
    return service.submit(job_id, record, checksum=checksum)


@dataclass
class _TenantEntry:
    """The fleet-level view of one tenant: placement plus its journal.

    The journal holds every delivery in arrival order as the call that
    applied it to the owning shard plus that call's arguments:
    submissions, refusals and wire losses alike, since each decision is
    deterministic and must reproduce on replay.
    """

    job_id: str
    workload: str
    generation: str
    start_step: int
    sequence: int
    shard: int
    journal: list[tuple[Callable[..., object], tuple]] = field(default_factory=list)
    completed: bool = False


class ShardedFleet:
    """N independent fleet shards behind one service-shaped surface.

    Duck-typed to :class:`FleetService` where the fleet driver cares
    (``register`` / ``sink`` / ``submit`` / ``pump`` / ``complete`` /
    ``job_snapshot`` / ``fleet_snapshot`` / ``quarantined`` / ...), so
    ``run_fleet`` drives either tier unchanged.
    """

    def __init__(self, options: ShardedFleetOptions | None = None):
        self.options = options or ShardedFleetOptions()
        self.ring = HashRing(
            self.options.shards,
            seed=self.options.seed,
            replicas=self.options.replicas,
        )
        self.ledger = GoodputLedger()
        self.shards: list[FleetService] = []
        self._knowledge: TuningKnowledgeBase | None = None
        self._feeds: weakref.WeakSet[ChangeFeed] = weakref.WeakSet()
        self._build_shards(self.options.shards)
        self._tenants: dict[str, _TenantEntry] = {}
        self._sequence = 0
        self._chips: dict[str, str] = {}  # fleet-level job -> chip
        self._quarantined_chips: dict[str, int] = {}  # deduped across shards

    def _build_shards(self, count: int) -> None:
        self.shards = [
            FleetService(options=self.options.service) for _ in range(count)
        ]
        if self._knowledge is not None:
            for service in self.shards:
                service.attach_knowledge(self._knowledge)
        for service in self.shards:
            service.attach_ledger(self.ledger)
        _SHARDS_GAUGE.labels().set(count)

    def close(self) -> None:
        """No-op: shards pump inline; kept for callers that still call it."""

    @property
    def num_shards(self) -> int:
        return len(self.shards)

    # --- tenancy -----------------------------------------------------------

    def register(
        self,
        workload: str,
        generation: TpuGeneration | str = TpuGeneration.V2,
        job_id: str | None = None,
        start_step: int = 0,
    ) -> JobInfo:
        """Admit one tenant on the shard its id hashes to.

        Default job ids use the fleet-global sequence, so a sharded
        fleet mints the same ``workload/N`` ids a single service would.
        """
        if job_id is None:
            job_id = f"{workload}/{self._sequence}"
        if job_id in self._tenants:
            raise ServeError(f"job {job_id!r} is already registered")
        shard = self.ring.route(job_id)
        info = self.shards[shard].register(
            workload, generation=generation, job_id=job_id, start_step=start_step
        )
        self._tenants[job_id] = _TenantEntry(
            job_id=job_id,
            workload=info.workload,
            generation=info.generation,
            start_step=info.start_step,
            sequence=self._sequence,
            shard=shard,
        )
        self._sequence += 1
        return info

    def _entry(self, job_id: str) -> _TenantEntry:
        entry = self._tenants.get(job_id)
        if entry is None:
            raise UnknownJobError(f"unknown job {job_id!r}")
        return entry

    def shard_of(self, job_id: str) -> int:
        """The shard currently owning ``job_id``."""
        return self._entry(job_id).shard

    def shard_tenants(self) -> list[list[str]]:
        """Tenant ids per shard, in registration order (the topology)."""
        tenants: list[list[str]] = [[] for _ in self.shards]
        for entry in sorted(self._tenants.values(), key=lambda e: e.sequence):
            tenants[entry.shard].append(entry.job_id)
        return tenants

    def sink(self, job_id: str, transit=None) -> Callable[[ProfileRecord], None]:
        """A record callback bound to one tenant (see :func:`wire_sink`).

        Submissions, refused frames and wire losses all land in the
        tenant's journal, so a :meth:`resize` replays each of them.
        """
        self._entry(job_id)
        return wire_sink(self, job_id, transit)

    # --- ingestion ---------------------------------------------------------

    def submit(
        self, job_id: str, record: ProfileRecord, checksum: int | None = None
    ) -> IngestAck:
        """Submit one record to the owning shard and journal it.

        A tenant whose queue is full is pumped alone first, so the
        record is never shed (see the module docstring).
        """
        return self._deliver(job_id, _submit, record, checksum)

    def refuse(self, job_id: str, record: ProfileRecord, reason: str) -> None:
        """Quarantine a refused delivery on the owning shard and journal it."""
        self._deliver(job_id, FleetService.refuse, record, reason)

    def lose(self, job_id: str) -> None:
        """Count a wire loss on the owning shard and journal it."""
        self._deliver(job_id, FleetService.lose)

    def _deliver(self, job_id: str, apply: Callable[..., object], *args):
        """Apply one delivery to the owning shard; journal it once it applied."""
        entry = self._entry(job_id)
        result = apply(self.shards[entry.shard], job_id, *args)
        entry.journal.append((apply, args))
        return result

    def pump(self, job_id: str | None = None, max_records: int | None = None) -> int:
        """Drain one tenant on its shard, or every shard in turn.

        Returns the number of steps assembled, summed across shards.
        """
        if job_id is not None:
            return self.shards[self._entry(job_id).shard].pump(job_id, max_records)
        return sum(service.pump(None, max_records) for service in self.shards)

    def complete(self, job_id: str) -> JobInfo:
        """Drain and close one tenant on its shard."""
        entry = self._entry(job_id)
        info = self.shards[entry.shard].complete(job_id)
        entry.completed = True
        return info

    def evict(self, job_id: str) -> JobInfo:
        """Discard a tenant's live state and its journal."""
        entry = self._entry(job_id)
        info = self.shards[entry.shard].evict(job_id)
        del self._tenants[job_id]
        self._chips.pop(job_id, None)
        return info

    # --- shared tuning knowledge -------------------------------------------

    def attach_knowledge(self, knowledge: TuningKnowledgeBase) -> None:
        """Share one tuning knowledge base across every shard."""
        self._knowledge = knowledge
        for service in self.shards:
            service.attach_knowledge(knowledge)

    # --- chip placement + quarantine ---------------------------------------

    def assign_chip(self, job_id: str, chip: str) -> None:
        """Record chip placement fleet-wide and on the owning shard."""
        entry = self._entry(job_id)
        self.shards[entry.shard].assign_chip(job_id, chip)
        self._chips[job_id] = chip

    def chip_assignments(self) -> dict[str, str]:
        """``job_id -> chip`` in fleet-global registration order."""
        return {
            entry.job_id: self._chips[entry.job_id]
            for entry in self._ordered_tenants()
            if entry.job_id in self._chips
        }

    def quarantine_chip(self, chip: str) -> list[str]:
        """Quarantine one chip on every shard hosting it.

        The fleet-level set dedupes, so the chip count — and the ledger
        charges, which land once per resident job on its single owning
        shard — are identical at any shard count. Returns the affected
        jobs in registration order.
        """
        if not chip:
            raise ServeError("chip id must be non-empty")
        if chip in self._quarantined_chips:
            return []
        self._quarantined_chips[chip] = 1
        for feed in self._feeds:
            feed.chips = True
        shard_indices = sorted(
            {
                self._entry(job_id).shard
                for job_id, assigned in self._chips.items()
                if assigned == chip
            }
        )
        affected: list[str] = []
        for shard in shard_indices:
            affected.extend(self.shards[shard].quarantine_chip(chip))
        order = {entry.job_id: entry.sequence for entry in self._ordered_tenants()}
        affected.sort(key=lambda job_id: order.get(job_id, len(order)))
        return affected

    def quarantined_chips(self) -> list[str]:
        """Chips pulled from service, in quarantine order."""
        return list(self._quarantined_chips)

    def chip_quarantine_counts(self) -> dict[str, int]:
        """``chip -> quarantine count`` for every assigned chip."""
        counts = {chip: 0 for chip in dict.fromkeys(self.chip_assignments().values())}
        counts.update(self._quarantined_chips)
        return counts

    # --- per-tenant queries (route to the owning shard) --------------------

    def analysis(self, job_id: str) -> LiveJobAnalysis:
        return self.shards[self._entry(job_id).shard].analysis(job_id)

    def queue_depth(self, job_id: str) -> int:
        return self.shards[self._entry(job_id).shard].queue_depth(job_id)

    def similar_phases(
        self, job_id: str, threshold: float | None = None
    ) -> list[tuple[int, int, float]]:
        return self.shards[self._entry(job_id).shard].similar_phases(
            job_id, threshold
        )

    def phase_analysis(self, job_id: str) -> AnalysisResult:
        """One tenant's k-means phases (owning shard)."""
        return self.shards[self._entry(job_id).shard].phase_analysis(job_id)

    def tuning_priors(
        self, job_id: str, threshold: float | None = None, top_k: int = 8
    ) -> list[TuningPrior]:
        return self.shards[self._entry(job_id).shard].tuning_priors(
            job_id, threshold=threshold, top_k=top_k
        )

    def surrogate_pairs(
        self, job_id: str, threshold: float | None = None, top_k: int = 8
    ):
        """Fleet-shared surrogate training pairs for one tenant (owning shard)."""
        return self.shards[self._entry(job_id).shard].surrogate_pairs(
            job_id, threshold=threshold, top_k=top_k
        )

    def job_snapshot(self, job_id: str) -> JobSnapshot:
        return self.shards[self._entry(job_id).shard].job_snapshot(job_id)

    # --- scatter-gather queries --------------------------------------------

    def _ordered_tenants(self) -> list[_TenantEntry]:
        return sorted(self._tenants.values(), key=lambda entry: entry.sequence)

    def fleet_snapshot(self) -> FleetSnapshot:
        """Scatter to every shard, gather in global registration order.

        The merged rollup is recomputed from the gathered job snapshots
        with the same pure function a single service uses, so the result
        is bit-identical to the unsharded fleet's.
        """
        with obs.trace("serve.shard.fleet_snapshot", shards=self.num_shards):
            shard_snaps = [service.fleet_snapshot() for service in self.shards]
            by_job = {
                snap.job_id: snap for shard in shard_snaps for snap in shard.jobs
            }
            ordered = [
                by_job[entry.job_id]
                for entry in self._ordered_tenants()
                if entry.job_id in by_job
            ]
            return fleet_snapshot(ordered)

    def fleet_similar_phases(
        self, threshold: float | None = None
    ) -> list[tuple[str, int, int, float]]:
        """Every tenant's near-duplicate phase pairs, fleet-wide.

        Scatters per tenant to the owning shard; rows come back as
        ``(job_id, phase_a, phase_b, distance)`` in registration order.
        """
        return [
            (entry.job_id, a, b, distance)
            for entry in self._ordered_tenants()
            for a, b, distance in self.shards[entry.shard].similar_phases(
                entry.job_id, threshold
            )
        ]

    def fleet_tuning_priors(
        self, threshold: float | None = None, top_k: int = 8
    ) -> list[TuningPrior]:
        """Warm-start priors for every tenant, best matches first.

        Gathered rows sort by similarity (descending), then by tenant
        registration order, then phase id — fully deterministic.
        """
        tenants = self._ordered_tenants()
        order = {entry.job_id: entry.sequence for entry in tenants}
        priors = [
            prior
            for entry in tenants
            for prior in self.shards[entry.shard].tuning_priors(
                entry.job_id, threshold=threshold, top_k=top_k
            )
        ]
        priors.sort(
            key=lambda prior: (
                -prior.similarity,
                order[prior.job_id],
                prior.phase_id,
            )
        )
        return priors

    def quarantined(self, job_id: str | None = None) -> list[QuarantinedRecord]:
        """Refused records across shards, in tenant registration order."""
        if job_id is not None:
            return self.shards[self._entry(job_id).shard].quarantined(job_id)
        found = [entry for shard in self.shards for entry in shard.quarantined()]
        order = {job_id: entry.sequence for job_id, entry in self._tenants.items()}
        # Stable sort by tenant order keeps each shard's intra-tenant
        # submission order; quarantines of since-evicted tenants sort last.
        found.sort(key=lambda q: (order.get(q.job_id, len(order)), q.job_id))
        return found

    # --- health ------------------------------------------------------------

    def change_feed(self, feed: ChangeFeed | None = None) -> ChangeFeed:
        """Serve ``feed`` (a new one by default) from every shard; returns it.

        The shards mark their tenants in it directly, and :meth:`resize`
        moves it to the fresh shards and sets its ``rescan``.
        """
        feed = ChangeFeed() if feed is None else feed
        self._feeds.add(feed)
        for service in self.shards:
            service.change_feed(feed)
        return feed

    def live_analyses(self) -> list[tuple[str, LiveJobAnalysis]]:
        """``(job_id, analysis)`` per live tenant, in registration order.

        Gathers from the owning shards but orders by the fleet-global
        sequence — the same order a single service reports.
        """
        found: list[tuple[str, LiveJobAnalysis]] = []
        for entry in self._ordered_tenants():
            if entry.completed:
                continue
            try:
                found.append((entry.job_id, self.analysis(entry.job_id)))
            except ServeError:
                continue  # evicted mid-walk
        return found

    def health_targets(self) -> list[tuple[str, object]]:
        """``(label, ServiceMetrics)`` scrape targets, one per shard."""
        return [
            (f"shard-{index}", service.metrics)
            for index, service in enumerate(self.shards)
        ]

    # --- goodput -----------------------------------------------------------

    def goodput_report(self) -> GoodputReport:
        """The fleet-wide goodput/badput rollup."""
        return self.ledger.report()

    def goodput(self, job_id: str) -> TenantLedger:
        """One tenant's goodput/badput row."""
        self._entry(job_id)
        return self.ledger.tenant(job_id)

    # --- metrics -----------------------------------------------------------

    @property
    def metrics(self) -> "AggregateMetrics":
        """Counters summed across every shard's ServiceMetrics."""
        return AggregateMetrics(self)

    @property
    def registries(self) -> list:
        """Every exposition registry this fleet feeds (ledger + shards)."""
        return [self.ledger.registry] + [
            service.metrics.registry for service in self.shards
        ]

    # --- rebalance ---------------------------------------------------------

    def resize(self, shards: int) -> int:
        """Re-shard the fleet by journal replay; returns tenants moved.

        The fleet settles (a full drain, so the ledger has charged every
        queued step), every tenant re-registers on the shard the resized
        ring assigns it, and its journal replays through the calls that
        first applied it, then drains — reproducing the record counters,
        quarantine decisions, and analyses bit-for-bit. The
        shared ledger attaches to the fresh shards only *after* replay,
        so no step or quarantine is charged twice. Completed tenants are
        re-completed; stalled tenants resume ACTIVE (heartbeat clocks
        restart from zero on the new shards).
        """
        if shards == self.num_shards:
            return 0
        with obs.trace(
            "serve.shard.resize", shards_from=self.num_shards, shards_to=shards
        ):
            self.pump()  # settle: nothing queued, every step charged
            ring = self.ring.resized(shards)
            services = [
                FleetService(options=self.options.service) for _ in range(shards)
            ]
            if self._knowledge is not None:
                for service in services:
                    service.attach_knowledge(self._knowledge)
            moved = 0
            for entry in self._ordered_tenants():
                target = ring.route(entry.job_id)
                if target != entry.shard:
                    moved += 1
                service = services[target]
                service.register(
                    entry.workload,
                    generation=entry.generation,
                    job_id=entry.job_id,
                    start_step=entry.start_step,
                )
                for apply, args in entry.journal:
                    apply(service, entry.job_id, *args)
                service.pump(entry.job_id)
                if entry.completed:
                    service.complete(entry.job_id)
                entry.shard = target
            # Re-apply chip placements and quarantines before the ledger
            # attaches: the original quarantine already charged each
            # resident job's sdc_scrub cost, and a ledger-less shard
            # records the quarantine without re-charging it.
            for job_id, chip in self._chips.items():
                entry = self._tenants[job_id]
                services[entry.shard].assign_chip(job_id, chip)
            for chip in self._quarantined_chips:
                shard_indices = sorted(
                    {
                        self._tenants[job_id].shard
                        for job_id, assigned in self._chips.items()
                        if assigned == chip
                    }
                )
                for shard in shard_indices:
                    services[shard].quarantine_chip(chip)
            # Attach the ledger only now: replayed steps must not
            # re-charge goodput the original ingest already recorded.
            for service in services:
                service.attach_ledger(self.ledger)
            # The replayed analyses are new objects: each feed's
            # consumer walks them once.
            for feed in self._feeds:
                feed.rescan = True
                for service in services:
                    service.change_feed(feed)
            self.shards = services
            self.ring = ring
            _SHARDS_GAUGE.labels().set(shards)
            _REBALANCED.labels().inc(moved)
            return moved


class AggregateMetrics:
    """A read-only, deterministic sum over the shard ServiceMetrics.

    Duck-typed to the counters the CLI and fleet driver read
    (``records_quarantined``, ``records_dropped``, ...); recomputed on
    every attribute access so it is always current.
    """

    def __init__(self, fleet: ShardedFleet):
        self._fleet = fleet

    def __getattr__(self, name: str):
        if name in _AGGREGATE_KEYS:
            return sum(
                getattr(service.metrics, name) for service in self._fleet.shards
            )
        raise AttributeError(name)

    @property
    def drop_fraction(self) -> float:
        submitted = self.records_submitted
        return (self.records_dropped / submitted) if submitted else 0.0

    @property
    def chips_quarantined(self) -> int:
        """Distinct quarantined chips, fleet-wide.

        Deliberately not summed from the shard counters: a chip hosting
        jobs on several shards increments each shard's counter, so the
        sum would vary with shard count. The fleet-level dedup map is
        the shard-invariant truth.
        """
        return len(self._fleet._quarantined_chips)

    @property
    def dropped_by_job(self) -> dict[str, int]:
        merged: dict[str, int] = {}
        for service in self._fleet.shards:
            merged.update(service.metrics.dropped_by_job)
        return merged

    @property
    def quarantined_by_job(self) -> dict[str, int]:
        merged: dict[str, int] = {}
        for service in self._fleet.shards:
            merged.update(service.metrics.quarantined_by_job)
        return merged

    def to_dict(self) -> dict:
        snap = {key: getattr(self, key) for key in _AGGREGATE_KEYS}
        snap["drop_fraction"] = self.drop_fraction
        snap["chips_quarantined"] = self.chips_quarantined
        snap["dropped_by_job"] = self.dropped_by_job
        snap["quarantined_by_job"] = self.quarantined_by_job
        snap["shards"] = self._fleet.num_shards
        return snap

    def format(self) -> list[str]:
        """Deterministic counter lines (the sharded CLI metrics block)."""
        snap = self.to_dict()
        return [
            f"shards                            : {snap['shards']}",
            f"jobs registered/completed/evicted : "
            f"{snap['jobs_registered']}/{snap['jobs_completed']}/{snap['jobs_evicted']}",
            f"records submitted/ingested/dropped: "
            f"{snap['records_submitted']}/{snap['records_ingested']}/{snap['records_dropped']}"
            f" ({snap['drop_fraction']:.1%} shed)",
            f"records quarantined               : {snap['records_quarantined']} "
            f"(jobs stalled {snap['jobs_stalled']}, resumed {snap['jobs_resumed']})",
            f"steps assembled                   : {snap['steps_assembled']}",
            f"evicted-job dropped records       : {snap['evicted_drops']}",
        ]
