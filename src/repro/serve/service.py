"""The multi-tenant fleet profiling service.

:class:`FleetService` ties the pieces together: the job registry
(lifecycle + metadata), one bounded ingest queue and one live analysis
state per job, service-level metrics, and the snapshot query surface.
Producers push :class:`ProfileRecord` streams in; a cooperative drain
loop (:meth:`pump`) feeds each job's step assembler and folds completed
steps into the online linear scan — so per-job phases and fleet rollups
are answerable *while runs are in flight*, unlike the offline analyzer
which requires the run to have ended.
"""

from __future__ import annotations

import threading
import weakref
from collections import deque
from dataclasses import dataclass, field
from functools import partial
from operator import attrgetter
from typing import Callable

from repro import obs
from repro.core.analyzer.analyzer import AnalysisResult
from repro.core.analyzer.ols import DEFAULT_SIMILARITY_THRESHOLD
from repro.core.optimizer.knowledge import TuningKnowledgeBase
from repro.core.optimizer.surrogate import TrainingPair, dedup_pairs
from repro.core.profiler import codec
from repro.core.profiler.record import ProfileRecord
from repro.errors import CodecError, OptimizerError, ProfilerError, ServeError
from repro.serve.ingest import (
    DEFAULT_QUEUE_CAPACITY,
    IngestAck,
    IngestQueue,
    validate_record,
)
from repro.serve.live import LiveJobAnalysis
from repro.serve.metrics import ServiceMetrics
from repro.serve.query import FleetSnapshot, JobSnapshot, fleet_snapshot, job_snapshot
from repro.serve.registry import JobInfo, JobRegistry, JobState
from repro.tpu.sdc import scrub_cost_us
from repro.tpu.specs import TpuGeneration


@dataclass(frozen=True)
class QuarantinedRecord:
    """One record the service refused, and why."""

    job_id: str
    record: ProfileRecord
    reason: str


@dataclass(frozen=True)
class TuningPrior:
    """One knowledge-base configuration matched to a live job's phase.

    The fleet counterpart of the autotuner's warm start: a tenant asks
    which stored best-configurations look like the phases its job is
    executing *right now*, and seeds its own search from the closest
    one. The prior carries the evidence (similarity, improvement, trial
    count, source workload) so the consumer can apply its own bar.
    """

    job_id: str
    phase_id: int
    similarity: float
    config: dict[str, object]
    improvement: float
    trials: int
    workload: str


class ChangeFeed:
    """The tenants whose live health state changed since a consumer last read.

    A fleet tier marks a tenant in every feed it serves when the tenant
    registers, folds steps, gets or changes a chip, completes or is
    evicted, with what a health sample reads of it: its live analysis
    (None once it has completed or been evicted) and its chip (None
    when unassigned). Heartbeat stalls and resumes change neither and
    mark nothing. ``chips`` says that chip placements or quarantines
    changed, and ``rescan`` asks the consumer to walk every live tenant
    instead: it is set on a new feed and after
    :meth:`~repro.serve.shard.ShardedFleet.resize` rebuilds the tier.
    A tier holds its feeds weakly, so a dropped consumer costs nothing.
    Marks come from the thread that drives the tier (registration,
    pumps, completion, eviction, chip placement), which is the thread
    the health monitor samples on; producers' submits mark nothing.
    """

    __slots__ = ("tenants", "chips", "rescan", "__weakref__")

    def __init__(self) -> None:
        self.tenants: dict[str, tuple[LiveJobAnalysis | None, str | None]] = {}
        self.chips = False
        self.rescan = True

    def take(self) -> tuple[bool, bool, dict[str, tuple[LiveJobAnalysis | None, str | None]]]:
        """``(rescan, chips, tenants)`` since the previous take, then clears them."""
        taken = (self.rescan, self.chips, self.tenants)
        self.rescan, self.chips, self.tenants = False, False, {}
        return taken


@dataclass(frozen=True)
class FleetServiceOptions:
    """Configuration of one fleet service instance.

    ``heartbeat_deadline`` is counted in global pump ticks: an ACTIVE
    job that contributes no accepted record for that many consecutive
    ``pump()`` rounds is parked in STALLED (None disables stall
    detection). Active jobs are kept in last-accept order, so each
    global pump's stall check costs O(jobs past the deadline), not
    O(active jobs). ``quarantine_capacity`` bounds how many refused records
    are retained for inspection — the count is unbounded, the evidence
    is a ring buffer.

    The producer→service wire that :func:`wire_sink` models has one
    encoding: each record travels as one CRC-framed columnar block
    (:mod:`repro.core.profiler.codec`), and the frame CRC is its
    integrity check.
    """

    queue_capacity: int = DEFAULT_QUEUE_CAPACITY
    threshold: float = DEFAULT_SIMILARITY_THRESHOLD
    max_jobs: int | None = None
    snapshot_phases: int = 5
    snapshot_operators: int = 3
    heartbeat_deadline: int | None = None
    quarantine_capacity: int = 32

    def __post_init__(self) -> None:
        if self.heartbeat_deadline is not None and self.heartbeat_deadline <= 0:
            raise ServeError("heartbeat_deadline must be positive when set")
        if self.quarantine_capacity <= 0:
            raise ServeError("quarantine_capacity must be positive")


def wire_sink(tier, job_id: str, transit=None) -> Callable[[ProfileRecord], None]:
    """A record callback that models one tenant's producer→service wire.

    ``tier`` is a :class:`FleetService` or a
    :class:`~repro.serve.shard.ShardedFleet`: every record ends in one
    call on it, ``submit``, ``refuse`` or ``lose``, so both tiers see
    the same deliveries and the same refusal reasons.

    Each record is encoded as one CRC-framed block *before* ``transit``
    (a :class:`repro.faults.RecordTransit` or anything with the same
    ``apply_frame``) touches it: a corrupted or truncated frame fails to
    decode and is refused under a header-recovered stub, never reaching
    the queue. A transit returning None models a lost record: nothing
    reaches the queue, but the loss still counts as a
    submitted-then-dropped record so the ingest SLO sees it.
    """
    sequence = iter(range(1 << 62))

    def _submit(record: ProfileRecord) -> None:
        frame = codec.encode_frame(next(sequence), record)
        delivered = frame if transit is None else transit.apply_frame(frame)
        if delivered is None:
            tier.lose(job_id)
            return
        try:
            decoded = codec.decode_frame(delivered)
        except CodecError as error:
            tier.refuse(
                job_id,
                codec.frame_stub(delivered),
                f"binary frame refused: {error}",
            )
            return
        tier.submit(job_id, decoded)

    return _submit


@dataclass
class FleetService:
    """Ingestion + live analysis for many concurrent training jobs."""

    options: FleetServiceOptions = field(default_factory=FleetServiceOptions)
    metrics: ServiceMetrics = field(default_factory=ServiceMetrics)

    def __post_init__(self) -> None:
        self.registry = JobRegistry(max_jobs=self.options.max_jobs)
        self._queues: dict[str, IngestQueue] = {}
        self._analyses: dict[str, LiveJobAnalysis] = {}
        self._quarantine: deque[QuarantinedRecord] = deque(
            maxlen=self.options.quarantine_capacity
        )
        self._tick = 0
        # Scheduling state, guarded by ``_lock`` because producers may
        # submit from other threads: the jobs with queued records, and
        # every ACTIVE job's last accept tick, oldest accept first.
        self._lock = threading.Lock()
        self._ready: dict[str, JobInfo] = {}
        self._last_accept: dict[str, int] = {}
        self._knowledge: TuningKnowledgeBase | None = None
        self._ledger = None
        self._chips: dict[str, str] = {}  # job_id -> chip, registration order
        self._quarantined_chips: dict[str, int] = {}  # chip -> quarantine count
        # Change feeds served, held weakly: a dropped feed's reference
        # removes itself from the list.
        self._feeds: list[weakref.ref[ChangeFeed]] = []

    # --- shared tuning knowledge -------------------------------------------

    def attach_knowledge(self, knowledge: TuningKnowledgeBase) -> None:
        """Share one tuning knowledge base across every tenant.

        Priors flow both ways conceptually — tenants query stored best
        configurations via :meth:`tuning_priors`, and their own finished
        searches land in the same base through the autotune engine.
        """
        self._knowledge = knowledge

    def attach_ledger(self, ledger) -> None:
        """Charge goodput/badput for every tenant to ``ledger``.

        ``ledger`` is a :class:`repro.serve.shard.GoodputLedger` (duck-
        typed: anything with ``observe_step`` / ``observe_quarantine``).
        Steps already folded before attachment are not back-charged —
        the sharded tier exploits this to replay journals during a
        rebalance without double-counting any tenant's wall time.
        """
        self._ledger = ledger
        for job_id, analysis in self._analyses.items():
            analysis.on_step = partial(ledger.observe_step, job_id)

    # --- chip placement + quarantine ---------------------------------------

    def assign_chip(self, job_id: str, chip: str) -> None:
        """Record which simulated chip ``job_id`` executes on.

        The fleet driver assigns chips in registration order; the health
        monitor reads the mapping back through :meth:`chip_assignments`
        to build per-chip ``chip_sdc:*`` anomaly series.
        """
        self.registry.get(job_id)
        if not chip:
            raise ServeError("chip id must be non-empty")
        self._chips[job_id] = chip
        self._changed(job_id, chips=True)

    def chip_assignments(self) -> dict[str, str]:
        """``job_id -> chip`` for every assigned job, registration order."""
        return dict(self._chips)

    def quarantine_chip(self, chip: str) -> list[str]:
        """Pull an SDC-suspect chip from service; returns its resident jobs.

        Idempotent: a chip already in quarantine returns ``[]`` and
        charges nothing. Otherwise every job assigned to the chip is
        charged one deterministic scrub pass (the self-test that
        confirms the suspect) to the ledger's ``sdc_scrub`` badput
        bucket — the fleet pays to know the chip is bad.
        """
        if not chip:
            raise ServeError("chip id must be non-empty")
        if chip in self._quarantined_chips:
            return []
        jobs = [job_id for job_id, assigned in self._chips.items() if assigned == chip]
        self._quarantined_chips[chip] = 1
        self.metrics.record_chip_quarantine()
        for ref in self._feeds:
            feed = ref()
            if feed is not None:
                feed.chips = True
        if self._ledger is not None:
            for job_id in jobs:
                info = self.registry.get(job_id)
                self._ledger.charge(job_id, "sdc_scrub", scrub_cost_us(info.generation))
        return jobs

    def quarantined_chips(self) -> list[str]:
        """Chips pulled from service, in quarantine order."""
        return list(self._quarantined_chips)

    def chip_quarantine_counts(self) -> dict[str, int]:
        """``chip -> quarantine count`` for every assigned chip (0 if healthy)."""
        counts = {
            chip: 0 for chip in dict.fromkeys(self._chips.values())
        }
        counts.update(self._quarantined_chips)
        return counts

    # --- change feed -------------------------------------------------------

    def change_feed(self, feed: ChangeFeed | None = None) -> ChangeFeed:
        """Serve ``feed`` (a new one by default) from now on; returns it.

        The health monitor subscribes on its first sample, so each later
        sample looks only at the tenants marked since the one before.
        """
        feed = ChangeFeed() if feed is None else feed
        if all(ref() is not feed for ref in self._feeds):
            self._feeds.append(weakref.ref(feed, self._feeds.remove))
        return feed

    def _changed(self, job_id: str, chips: bool = False) -> None:
        """Mark ``job_id`` in every feed with its live analysis and chip."""
        if not self._feeds:
            return
        analysis = self._analyses.get(job_id)
        if analysis is not None and self.registry.get(job_id).state is JobState.COMPLETED:
            analysis = None
        chip = None if analysis is None else self._chips.get(job_id)
        for ref in self._feeds:
            feed = ref()
            if feed is not None:
                feed.tenants[job_id] = (analysis, chip)
                if chips:
                    feed.chips = True

    # --- tenancy -----------------------------------------------------------

    def register(
        self,
        workload: str,
        generation: TpuGeneration | str = TpuGeneration.V2,
        job_id: str | None = None,
        start_step: int = 0,
    ) -> JobInfo:
        """Admit one job and allocate its queue + live analysis state."""
        info = self.registry.register(
            workload, generation=generation, job_id=job_id, start_step=start_step
        )
        self._queues[info.job_id] = IngestQueue(
            job_id=info.job_id, capacity=self.options.queue_capacity
        )
        analysis = LiveJobAnalysis(
            threshold=self.options.threshold, peak_flops=info.peak_flops
        )
        if self._ledger is not None:
            analysis.on_step = partial(self._ledger.observe_step, info.job_id)
        self._analyses[info.job_id] = analysis
        self.metrics.record_job("registered")
        self._changed(info.job_id)
        return info

    def sink(self, job_id: str, transit=None) -> Callable[[ProfileRecord], None]:
        """A record callback bound to one job (the producer hand-off).

        See :func:`wire_sink` for what the wire and an optional
        ``transit`` do to each record on the way in.
        """
        self.registry.get(job_id)
        return wire_sink(self, job_id, transit)

    # --- ingestion ---------------------------------------------------------

    def submit(
        self, job_id: str, record: ProfileRecord, checksum: int | None = None
    ) -> IngestAck:
        """Enqueue one record for a job; first record activates it.

        Records that fail structural validation — or whose recomputed
        checksum disagrees with the producer's — are quarantined rather
        than enqueued: counted, retained for inspection, and answered
        with ``accepted=False``. A malformed record never reaches the
        analyses and never raises out of the ingest path.
        """
        info = self.registry.get(job_id)
        if not info.live:
            raise ServeError(f"job {job_id!r} is {info.state.value}; cannot ingest")
        self.metrics.record_submit()
        reason = validate_record(record, checksum=checksum)
        if reason is not None:
            self._quarantine_record(job_id, record, reason)
            return IngestAck(
                job_id=job_id,
                accepted=False,
                dropped=0,
                depth=self._queues[job_id].depth,
            )
        self._accept(info)
        ack = self._queues[job_id].offer(record)
        self._mark_ready(info)
        self.metrics.record_drop(job_id, ack.dropped)
        return ack

    def refuse(self, job_id: str, record: ProfileRecord, reason: str) -> None:
        """Count one delivery as submitted and quarantine it for ``reason``.

        The wire sink's path for a binary frame that fails to decode:
        ``record`` is the frame's header-recovered stub, and it never
        reaches validation or the queue.
        """
        self.registry.get(job_id)
        self.metrics.record_submit()
        self._quarantine_record(job_id, record, reason)

    def lose(self, job_id: str) -> None:
        """Count one record lost on the wire as submitted, then dropped.

        Nothing reaches the queue, but the loss still shows in the
        ingest counters the SLO engine reads.
        """
        self.registry.get(job_id)
        self.metrics.record_submit()
        self.metrics.record_drop(job_id, 1)

    def _accept(self, info: JobInfo) -> None:
        """Activate or resume the job of an accepted record; restart its heartbeat."""
        with self._lock:
            if info.state is JobState.REGISTERED:
                self.registry.activate(info.job_id)
            elif info.state is JobState.STALLED:
                self.registry.resume(info.job_id)
                self.metrics.record_job("resumed")
            # Re-insert at the end: the dict stays in accept-tick order.
            self._last_accept.pop(info.job_id, None)
            self._last_accept[info.job_id] = self._tick

    def _mark_ready(self, info: JobInfo) -> None:
        """Queue ``info``'s job for the next global pump."""
        with self._lock:
            self._ready[info.job_id] = info

    def _quarantine_record(self, job_id: str, record: ProfileRecord, reason: str) -> None:
        self._quarantine.append(
            QuarantinedRecord(job_id=job_id, record=record, reason=reason)
        )
        self.metrics.record_quarantine(job_id)
        if self._ledger is not None:
            self._ledger.observe_quarantine(job_id, record)

    def quarantined(self, job_id: str | None = None) -> list[QuarantinedRecord]:
        """The retained tail of refused records, optionally per job."""
        found = list(self._quarantine)
        if job_id is not None:
            found = [entry for entry in found if entry.job_id == job_id]
        return found

    def pump(self, job_id: str | None = None, max_records: int | None = None) -> int:
        """Drain queued records into the live analyses.

        Returns the number of steps newly assembled. With ``job_id`` the
        drain is restricted to one tenant; ``max_records`` bounds the
        work done in one call so the loop can be scheduled fairly.

        A global pump drains only the jobs that have queued records
        since the last pump (the ready set), in registration order, so
        its cost follows the queued work rather than the fleet size. A
        job that ``max_records`` leaves non-empty stays ready.

        A record the assembler rejects is quarantined, not raised: one
        tenant's bad stream cannot take the drain loop down for everyone
        else. Global pumps also advance the heartbeat clock — an ACTIVE
        job silent for ``heartbeat_deadline`` consecutive global pumps
        is parked in STALLED.
        """
        with obs.trace("serve.pump", job=job_id or "all") as span:
            if job_id is not None:
                queues = [self._queue(job_id)]
                with self._lock:
                    self._ready.pop(job_id, None)
            else:
                with self._lock:
                    ready, self._ready = self._ready, {}
                queues = [
                    self._queues[info.job_id]
                    for info in sorted(ready.values(), key=attrgetter("sequence"))
                    if info.live
                ]
            assembled = 0
            drained = 0
            for queue in queues:
                analysis = self._analyses[queue.job_id]
                folded = 0
                for record in queue.drain(max_records):
                    drained += 1
                    self.metrics.record_ingest()
                    try:
                        folded += analysis.ingest(record)
                    except ProfilerError as error:
                        self._quarantine_record(queue.job_id, record, str(error))
                if folded:
                    assembled += folded
                    self._changed(queue.job_id)
                if queue.depth:
                    self._mark_ready(self.registry.get(queue.job_id))
            self.metrics.record_steps(assembled)
            if job_id is None:
                span.set(stalled=self._heartbeat_tick())
            span.set(tenants=len(queues), records=drained, steps=assembled)
        return assembled

    def _heartbeat_tick(self) -> int:
        """One global heartbeat: stall jobs silent past the deadline.

        ``_last_accept`` is in accept-tick order and ticks only grow, so
        the expired jobs are a prefix: the walk stops at the first live
        tick. Returns the number of jobs stalled.
        """
        deadline = self.options.heartbeat_deadline
        with self._lock:
            self._tick += 1
            if deadline is None:
                return 0
            expired = []
            for job_id, tick in self._last_accept.items():
                if self._tick - tick < deadline:
                    break
                expired.append(self.registry.get(job_id))
            for info in sorted(expired, key=attrgetter("sequence")):
                del self._last_accept[info.job_id]
                self.registry.stall(info.job_id)
            self.metrics.record_job("stalled", len(expired))
        return len(expired)

    def complete(self, job_id: str) -> JobInfo:
        """Drain what is queued, flush the assembler, close the job."""
        with obs.trace("serve.complete", job=job_id):
            info = self.registry.get(job_id)
            if info.state is JobState.REGISTERED:
                # A job that never produced a record still completes cleanly.
                self.registry.activate(job_id)
            self.pump(job_id)
            flushed = self._analyses[job_id].finish()
            self.metrics.record_steps(flushed)
            with self._lock:
                info = self.registry.complete(job_id)
                self._last_accept.pop(job_id, None)
            self.metrics.record_job("completed")
            self._changed(job_id)
            return info

    def evict(self, job_id: str) -> JobInfo:
        """Discard a job's live state; its registry entry remains.

        The job's per-key drop count folds into the bounded
        ``evicted_drops`` total so metrics stay O(live jobs), not
        O(all jobs ever).
        """
        with self._lock:
            info = self.registry.evict(job_id)
            self._ready.pop(job_id, None)
            self._last_accept.pop(job_id, None)
        self._queues.pop(job_id, None)
        self._analyses.pop(job_id, None)
        had_chip = self._chips.pop(job_id, None) is not None
        self.metrics.record_eviction(job_id)
        self._changed(job_id, chips=had_chip)
        return info

    # --- queries -----------------------------------------------------------

    def queue_depth(self, job_id: str) -> int:
        return self._queue(job_id).depth

    def analysis(self, job_id: str) -> LiveJobAnalysis:
        """Direct access to one job's live state (parity tests use this).

        Unknown ids raise :class:`repro.errors.UnknownJobError` (via the
        registry); known-but-evicted jobs raise plain ``ServeError``.
        """
        self.registry.get(job_id)
        analysis = self._analyses.get(job_id)
        if analysis is None:
            raise ServeError(f"job {job_id!r} holds no live state")
        return analysis

    def live_analyses(self) -> list[tuple[str, LiveJobAnalysis]]:
        """``(job_id, analysis)`` for every job still holding live state.

        Registration order, completed jobs excluded. The health monitor
        walks it when its :class:`ChangeFeed` asks for a rescan; the
        sharded tier exposes the same method with the same ordering.
        """
        return [
            (info.job_id, self._analyses[info.job_id])
            for info in self.registry.jobs()
            if info.state is not JobState.COMPLETED and info.job_id in self._analyses
        ]

    def health_targets(self) -> list[tuple[str, object]]:
        """``(label, ServiceMetrics)`` scrape targets for health rings."""
        return [("service", self.metrics)]

    def similar_phases(
        self, job_id: str, threshold: float | None = None
    ) -> list[tuple[int, int, float]]:
        """Near-duplicate phase pairs of one job, by operator mix.

        Runs the analyzer's blocked distance kernel over the job's live
        phase vectors — the query that flags an online-scan split (two
        phases with nearly identical operator profiles) while the run is
        still in flight.
        """
        with obs.trace("serve.similar_phases", job=job_id) as span, \
                self.metrics.time_query():
            analysis = self.analysis(job_id)
            if threshold is None:
                pairs = analysis.similar_phase_pairs()
            else:
                pairs = analysis.similar_phase_pairs(threshold)
            span.set(phases=analysis.num_phases, pairs=len(pairs))
            return pairs

    def phase_analysis(self, job_id: str) -> AnalysisResult:
        """k-means phases of one live (or completed) job, answered mid-run.

        Runs ``TPUPointAnalyzer.kmeans_phases()`` over every step the
        job has released so far, so the labels are the batch analyzer's.
        The query builds the full feature matrix; its cost grows with
        the job's step count.
        """
        with obs.trace("serve.phase_analysis", job=job_id) as span, \
                self.metrics.time_query():
            result = self.analysis(job_id).phase_analysis()
            span.set(phases=result.num_phases, steps=len(result.labels))
            return result

    def tuning_priors(
        self, job_id: str, threshold: float | None = None, top_k: int = 8
    ) -> list[TuningPrior]:
        """Stored best-configurations matching one job's live phases.

        Each of the job's phases is fingerprinted the way the autotune
        engine keys its knowledge base (top-``top_k`` operators by
        accumulated duration) and looked up against the attached
        :class:`TuningKnowledgeBase`. Matches come back ordered by
        similarity (then by the phase's share of run time), one per
        distinct stored entry, so a tenant warm-starts from the closest
        prior the fleet has collected.
        """
        if self._knowledge is None:
            raise ServeError("no tuning knowledge base attached to this service")
        cutoff = threshold if threshold is not None else self.options.threshold
        with obs.trace("serve.tuning_priors", job=job_id) as span, \
                self.metrics.time_query():
            analysis = self.analysis(job_id)
            priors: list[TuningPrior] = []
            claimed: set[frozenset[str]] = set()
            ranked_phases = sorted(
                analysis.phases.values(), key=lambda phase: -phase.duration_us
            )
            for phase in ranked_phases:
                names = frozenset(phase.top_operator_names(top_k))
                if not names:
                    continue
                match = self._knowledge.lookup(names, cutoff)
                if match is None or match.entry.signature in claimed:
                    continue
                claimed.add(match.entry.signature)
                priors.append(
                    TuningPrior(
                        job_id=job_id,
                        phase_id=phase.phase_id,
                        similarity=match.similarity,
                        config=dict(match.entry.config),
                        improvement=match.entry.improvement,
                        trials=match.entry.trials,
                        workload=match.entry.workload,
                    )
                )
            priors.sort(key=lambda prior: -prior.similarity)
            span.set(phases=len(analysis.phases), priors=len(priors))
            return priors

    def surrogate_pairs(
        self, job_id: str, threshold: float | None = None, top_k: int = 8
    ) -> list[TrainingPair]:
        """Fleet-shared surrogate training pairs matched to one job.

        The training-set counterpart of :meth:`tuning_priors`: instead
        of best configurations, this returns the raw per-trial
        observations (:class:`~repro.core.optimizer.surrogate.TrainingPair`
        rows) of every knowledge-base entry whose signature matches one
        of the job's live phase fingerprints. A tenant folds them into
        its surrogate via ``build_surrogate(extra_pairs=...)``, so one
        tenant's finished searches speed up every lookalike workload on
        the fleet. Each stored entry contributes at most once; rows come
        back deduplicated in a deterministic (signature, knobs) order.
        """
        if self._knowledge is None:
            raise ServeError("no tuning knowledge base attached to this service")
        cutoff = threshold if threshold is not None else self.options.threshold
        with obs.trace("serve.surrogate_pairs", job=job_id) as span, \
                self.metrics.time_query():
            analysis = self.analysis(job_id)
            pairs: list[TrainingPair] = []
            claimed: set[frozenset[str]] = set()
            ranked_phases = sorted(
                analysis.phases.values(), key=lambda phase: -phase.duration_us
            )
            for phase in ranked_phases:
                names = frozenset(phase.top_operator_names(top_k))
                if not names:
                    continue
                match = self._knowledge.lookup(names, cutoff)
                if match is None or match.entry.signature in claimed:
                    continue
                claimed.add(match.entry.signature)
                for raw in match.entry.observations:
                    try:
                        pairs.append(
                            TrainingPair(
                                signature=match.entry.signature,
                                config=dict(raw["config"]),
                                throughput=float(raw["throughput"]),
                                source=f"fleet:{match.entry.workload or 'unknown'}",
                            )
                        )
                    except (KeyError, TypeError, ValueError, OptimizerError):
                        continue
            pairs = sorted(dedup_pairs(pairs), key=lambda pair: pair.key())
            span.set(phases=len(analysis.phases), pairs=len(pairs))
            return pairs

    def job_snapshot(self, job_id: str) -> JobSnapshot:
        """Freeze one job's live view; never mutates service state."""
        with self.metrics.time_query():
            info = self.registry.get(job_id)
            chip = self._chips.get(job_id, "")
            return job_snapshot(
                info,
                self.analysis(job_id),
                self._queue(job_id),
                max_phases=self.options.snapshot_phases,
                top_operators=self.options.snapshot_operators,
                quarantined=self.metrics.quarantined_by_job.get(job_id, 0),
                chip=chip,
                chip_quarantined=chip in self._quarantined_chips,
            )

    def fleet_snapshot(self) -> FleetSnapshot:
        """Roll every non-evicted job into the fleet view."""
        with obs.trace("serve.fleet_snapshot", jobs=len(self.registry)), \
                self.metrics.time_query():
            quarantined = self.metrics.quarantined_by_job
            snapshots = [
                job_snapshot(
                    info,
                    self._analyses[info.job_id],
                    self._queues[info.job_id],
                    max_phases=self.options.snapshot_phases,
                    top_operators=self.options.snapshot_operators,
                    quarantined=quarantined.get(info.job_id, 0),
                    chip=self._chips.get(info.job_id, ""),
                    chip_quarantined=self._chips.get(info.job_id, "")
                    in self._quarantined_chips,
                )
                for info in self.registry.jobs()
                if info.job_id in self._analyses
            ]
            return fleet_snapshot(snapshots)

    def _queue(self, job_id: str) -> IngestQueue:
        self.registry.get(job_id)
        queue = self._queues.get(job_id)
        if queue is None:
            raise ServeError(f"job {job_id!r} holds no live state")
        return queue
