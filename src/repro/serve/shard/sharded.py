"""Horizontally sharded fleet tier with scatter-gather queries.

One :class:`~repro.serve.service.FleetService` folds every tenant's
records on a single drain loop, and a global pump drains only the
tenants with queued records. :class:`ShardedFleet` splits the fleet
across N independent ``FleetService`` shards:

* tenants route to shards via a seeded consistent-hash
  :class:`~repro.serve.shard.ring.HashRing` — deterministic at any
  shard count, stable under resize;
* ingest is batched per shard; a full batch flushes through
  ``FleetService.submit_many`` and immediately pumps *that shard only*,
  so queue depth never exceeds the batch size (the **no-drop invariant**:
  with ``batch_size <= queue_capacity`` the sharded path never sheds a
  record, which is what makes its results bit-identical to a single
  service's);
* per-shard pumps fan out on a :class:`~repro.parallel.WorkerPool`, so
  a global drain touches shards concurrently but merges results
  deterministically;
* queries scatter to the owning shard (per-job) or to every shard
  (fleet snapshot, fleet-wide phase similarity, tuning priors) and
  gather in global registration order — the same order a single
  service would report;
* :meth:`resize` rebalances by replay: the fleet settles, every
  tenant's journaled submissions replay into fresh shards on the new
  ring, and the goodput ledger attaches only *after* replay so no
  tenant's wall time is ever double-charged.

The fleet owns one :class:`~repro.serve.shard.ledger.GoodputLedger`
shared by all shards, so goodput/badput accounting stays fleet-wide
across rebalances.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

from repro import obs
from repro.core.analyzer.analyzer import AnalysisResult
from repro.core.optimizer.knowledge import TuningKnowledgeBase
from repro.core.profiler import codec
from repro.core.profiler.record import ProfileRecord
from repro.core.profiler.serialize import record_checksum
from repro.errors import CodecError, ServeError, ShardError, UnknownJobError
from repro.parallel import WorkerPool
from repro.serve.ingest import IngestAck
from repro.serve.live import LiveJobAnalysis
from repro.serve.query import FleetSnapshot, JobSnapshot, fleet_snapshot
from repro.serve.registry import JobInfo
from repro.serve.service import (
    FleetService,
    FleetServiceOptions,
    QuarantinedRecord,
    TuningPrior,
)
from repro.serve.shard.ledger import GoodputLedger, GoodputReport, TenantLedger
from repro.serve.shard.ring import DEFAULT_REPLICAS, HashRing
from repro.rng import DEFAULT_SEED
from repro.tpu.specs import TpuGeneration

#: Records buffered per shard before a flush + shard pump.
DEFAULT_BATCH_SIZE = 32

_SHARDS_GAUGE = obs.gauge(
    "repro_serve_shards", "Shards in the current sharded-fleet topology."
)
_SHARD_PUMPS = obs.counter(
    "repro_serve_shard_pumps_total",
    "Per-shard pump passes, by trigger (batch-full vs global drain).",
    labels=("trigger",),
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
    """Configuration of one sharded fleet.

    ``batch_size`` is clamped to the per-job queue capacity so a flush
    can never overflow a queue — the no-drop invariant the rebalance
    bit-identity guarantee rests on. ``workers`` sizes the pump pool
    (default: one worker per shard, capped at 8).
    """

    shards: int = 2
    batch_size: int = DEFAULT_BATCH_SIZE
    seed: int = DEFAULT_SEED
    replicas: int = DEFAULT_REPLICAS
    workers: int | None = None
    service: FleetServiceOptions = field(default_factory=FleetServiceOptions)

    def __post_init__(self) -> None:
        if self.shards <= 0:
            raise ShardError("a sharded fleet needs at least one shard")
        if self.batch_size <= 0:
            raise ShardError("batch_size must be positive")
        if self.workers is not None and self.workers <= 0:
            raise ShardError("workers must be positive when set")


@dataclass
class _TenantEntry:
    """The fleet-level view of one tenant: placement plus its journal.

    The journal holds every submission (record, producer checksum) in
    order — including ones the shard quarantined, since quarantine
    decisions are deterministic and must reproduce on replay.
    """

    job_id: str
    workload: str
    generation: str
    start_step: int
    sequence: int
    shard: int
    journal: list[tuple[ProfileRecord, int | None]] = field(default_factory=list)
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
        self._batches: list[list[tuple[str, ProfileRecord, int | None]]] = []
        self._knowledge: TuningKnowledgeBase | None = None
        self._build_shards(self.options.shards)
        workers = self.options.workers
        if workers is None:
            workers = min(self.options.shards, 8)
        self._pool = WorkerPool(workers, label="serve-shard")
        self._tenants: dict[str, _TenantEntry] = {}
        self._sequence = 0
        self._chips: dict[str, str] = {}  # fleet-level job -> chip
        self._quarantined_chips: dict[str, int] = {}  # deduped across shards
        # Flushes can never shed: a full batch fits the queue whole.
        self.batch_size = min(
            self.options.batch_size, self.options.service.queue_capacity
        )

    def _build_shards(self, count: int) -> None:
        self.shards = [
            FleetService(options=self.options.service) for _ in range(count)
        ]
        self._batches = [[] for _ in range(count)]
        if self._knowledge is not None:
            for service in self.shards:
                service.attach_knowledge(self._knowledge)
        for service in self.shards:
            service.attach_ledger(self.ledger)
        _SHARDS_GAUGE.labels().set(count)

    # --- lifecycle ---------------------------------------------------------

    def __enter__(self) -> "ShardedFleet":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def close(self) -> None:
        """Stop the pump pool (idempotent)."""
        self._pool.shutdown()

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
        """A record callback bound to one tenant (see ``FleetService.sink``).

        On the binary wire a frame that fails to decode is routed
        through the normal journaled submit path as its header-recovered
        stub with a deliberately poisoned checksum: the shard refuses
        and quarantines it like any corrupt record, the journal retains
        the refusal, and a :meth:`resize` replay reproduces the
        quarantine decision deterministically.
        """
        self._entry(job_id)
        if self.options.service.wire_format == "binary":
            sequence = iter(range(1 << 62))

            def _submit_binary(record: ProfileRecord) -> None:
                frame = codec.encode_frame(next(sequence), record)
                delivered = frame if transit is None else transit.apply_frame(frame)
                if delivered is None:
                    # Charge the wire loss to the owning shard so the
                    # aggregate submitted/dropped counters stay
                    # shard-invariant (see FleetService.sink).
                    metrics = self.shards[self._entry(job_id).shard].metrics
                    metrics.record_submit()
                    metrics.record_drop(job_id, 1)
                    return
                try:
                    decoded = codec.decode_frame(delivered)
                except CodecError:
                    stub = codec.frame_stub(delivered)
                    self.submit(
                        job_id, stub, checksum=record_checksum(stub) ^ 1
                    )
                    return
                self.submit(job_id, decoded)

            return _submit_binary

        def _submit(record: ProfileRecord) -> None:
            checksum = record_checksum(record)
            delivered = record if transit is None else transit.apply(record)
            if delivered is None:
                # Charge the wire loss to the owning shard so the
                # aggregate submitted/dropped counters stay
                # shard-invariant (see FleetService.sink).
                metrics = self.shards[self._entry(job_id).shard].metrics
                metrics.record_submit()
                metrics.record_drop(job_id, 1)
                return
            self.submit(job_id, delivered, checksum=checksum)

        return _submit

    # --- ingestion ---------------------------------------------------------

    def submit(
        self, job_id: str, record: ProfileRecord, checksum: int | None = None
    ) -> IngestAck | None:
        """Journal and buffer one record; a full batch pumps its shard.

        Returns the record's :class:`IngestAck` when its batch flushed
        on this call, or None while it sits buffered (``pump`` /
        ``flush`` will deliver it).
        """
        entry = self._entry(job_id)
        if entry.completed:
            raise ServeError(f"job {job_id!r} is completed; cannot ingest")
        entry.journal.append((record, checksum))
        batch = self._batches[entry.shard]
        batch.append((job_id, record, checksum))
        if len(batch) >= self.batch_size:
            acks = self._flush_shard(entry.shard)
            self.shards[entry.shard].pump()
            _SHARD_PUMPS.labels(trigger="batch").inc()
            return acks[-1]
        return None

    def _flush_shard(self, shard: int) -> list[IngestAck]:
        """Offer a shard's buffered batch, preserving per-tenant order."""
        batch = self._batches[shard]
        if not batch:
            return []
        self._batches[shard] = []
        service = self.shards[shard]
        grouped: dict[str, list[tuple[ProfileRecord, int | None]]] = {}
        for job_id, record, checksum in batch:
            grouped.setdefault(job_id, []).append((record, checksum))
        acks_by_job = {
            job_id: iter(
                service.submit_many(
                    job_id,
                    [record for record, _ in items],
                    checksums=[checksum for _, checksum in items],
                )
            )
            for job_id, items in grouped.items()
        }
        return [next(acks_by_job[job_id]) for job_id, _, _ in batch]

    def flush(self) -> int:
        """Offer every buffered batch to its shard; returns records moved."""
        moved = 0
        for shard in range(self.num_shards):
            moved += len(self._batches[shard])
            self._flush_shard(shard)
        return moved

    def pump(self, job_id: str | None = None, max_records: int | None = None) -> int:
        """Flush buffers and drain: one tenant's shard, or all shards.

        A global pump fans the per-shard drains out on the worker pool;
        the returned step count is the deterministic sum across shards.
        """
        if job_id is not None:
            entry = self._entry(job_id)
            self._flush_shard(entry.shard)
            return self.shards[entry.shard].pump(job_id, max_records)
        for shard in range(self.num_shards):
            self._flush_shard(shard)
        steps = self._pool.map(
            lambda service: service.pump(None, max_records), self.shards
        )
        _SHARD_PUMPS.labels(trigger="drain").inc(self.num_shards)
        return sum(steps)

    def complete(self, job_id: str) -> JobInfo:
        """Flush, drain, and close one tenant."""
        entry = self._entry(job_id)
        self._flush_shard(entry.shard)
        info = self.shards[entry.shard].complete(job_id)
        entry.completed = True
        return info

    def evict(self, job_id: str) -> JobInfo:
        """Discard a tenant's live state, buffered records, and journal."""
        entry = self._entry(job_id)
        self._batches[entry.shard] = [
            item for item in self._batches[entry.shard] if item[0] != job_id
        ]
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
            shard_snaps = self._pool.map(
                lambda service: service.fleet_snapshot(), self.shards
            )
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
        tenants = self._ordered_tenants()
        gathered = self._pool.map(
            lambda entry: self.shards[entry.shard].similar_phases(
                entry.job_id, threshold
            ),
            tenants,
        )
        return [
            (entry.job_id, a, b, distance)
            for entry, pairs in zip(tenants, gathered)
            for a, b, distance in pairs
        ]

    def fleet_tuning_priors(
        self, threshold: float | None = None, top_k: int = 8
    ) -> list[TuningPrior]:
        """Warm-start priors for every tenant, best matches first.

        Gathered rows sort by similarity (descending), then by tenant
        registration order, then phase id — fully deterministic.
        """
        tenants = self._ordered_tenants()
        gathered = self._pool.map(
            lambda entry: self.shards[entry.shard].tuning_priors(
                entry.job_id, threshold=threshold, top_k=top_k
            ),
            tenants,
        )
        order = {entry.job_id: entry.sequence for entry in tenants}
        priors = [prior for found in gathered for prior in found]
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

    def live_analyses(self) -> list[tuple[str, LiveJobAnalysis]]:
        """``(job_id, analysis)`` per live tenant, in registration order.

        Gathers from the owning shards but orders by the fleet-global
        sequence — the same order a single service reports — so the
        health monitor's drift series are shard-count invariant.
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

        The fleet settles (flush + full drain), every tenant re-registers
        on the shard the resized ring assigns it, and its journal replays
        in batch-sized chunks with a pump after each — reproducing queue
        counters, quarantine decisions, and analyses bit-for-bit. The
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
            self.pump()  # settle: nothing buffered, nothing queued
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
                for start in range(0, len(entry.journal), self.batch_size):
                    chunk = entry.journal[start : start + self.batch_size]
                    service.submit_many(
                        entry.job_id,
                        [record for record, _ in chunk],
                        checksums=[checksum for _, checksum in chunk],
                    )
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
            self.shards = services
            self.ring = ring
            self._batches = [[] for _ in range(shards)]
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
