"""Service observability counters and gauges.

The fleet service profiles other programs; these metrics make the
service itself observable — ingestion volume, shed load, assembly
progress, and query latency — in the spirit of the paper's own
profiler-overhead accounting (Section V).

Every counter is backed by a ``repro_serve_*`` family on a
:class:`~repro.obs.MetricsRegistry`, so the same numbers export as
Prometheus text or JSON (``tpupoint fleet --metrics-out``). The service
counts through the ``record_*`` methods, each an atomic ``inc`` on a
bound counter child; readers keep the attribute API
(``metrics.jobs_registered``), which is read-only. Each instance owns
its registry, so concurrent services in one process never mix counts.
Query latency is real wall time from :func:`time.perf_counter`, the one
deliberately non-deterministic measurement here.

Per-job drop counts stay bounded: when a job is evicted,
:meth:`record_eviction` folds its entry into the ``evicted_drops``
total instead of retaining per-job keys forever.
"""

from __future__ import annotations

import time
from contextlib import contextmanager

from repro.obs import MetricsRegistry

#: Snapshot queries are in-process dictionary assembly: microseconds to
#: low milliseconds.
_QUERY_BUCKETS = (1e-6, 1e-5, 1e-4, 1e-3, 1e-2, 1e-1, 1.0)

_JOB_EVENTS = ("registered", "completed", "evicted", "stalled", "resumed")
_RECORD_EVENTS = ("submitted", "ingested", "dropped", "quarantined")


def _counter_property(family_attr: str, event: str):
    """An int-valued read-only property over one labeled counter child."""

    def getter(self) -> int:
        return int(getattr(self, family_attr).labels(event=event).value)

    return property(getter)


class ServiceMetrics:
    """Counters/gauges for one fleet service instance."""

    def __init__(self, registry: MetricsRegistry | None = None):
        self.registry = registry if registry is not None else MetricsRegistry()
        self._jobs = self.registry.counter(
            "repro_serve_jobs_total", "Job lifecycle events.", labels=("event",)
        )
        self._records = self.registry.counter(
            "repro_serve_records_total", "Record ingestion events.", labels=("event",)
        )
        self._job_drops = self.registry.counter(
            "repro_serve_job_dropped_records_total",
            "Records shed from one live job's queue.",
            labels=("job",),
        )
        self._evicted_drops = self.registry.counter(
            "repro_serve_evicted_dropped_records_total",
            "Shed-record counts folded in from evicted jobs.",
        ).labels()
        self._job_quarantines = self.registry.counter(
            "repro_serve_job_quarantined_records_total",
            "Records quarantined from one live job's stream.",
            labels=("job",),
        )
        self._evicted_quarantines = self.registry.counter(
            "repro_serve_evicted_quarantined_records_total",
            "Quarantined-record counts folded in from evicted jobs.",
        ).labels()
        self._steps = self.registry.counter(
            "repro_serve_steps_assembled_total",
            "Steps assembled from ingested records.",
        ).labels()
        self._chip_quarantines = self.registry.counter(
            "repro_serve_chips_quarantined_total",
            "Chips pulled from service as SDC suspects.",
        ).labels()
        self._query = self.registry.histogram(
            "repro_serve_query_seconds",
            "Snapshot query latency.",
            buckets=_QUERY_BUCKETS,
        ).labels()
        # Bound children for every known label: ``inc`` on one is atomic,
        # and binding them up front keeps exposition stable (a fresh
        # service exposes jobs_total{event="registered"} 0, not a missing
        # series).
        self._job_events = {
            event: self._jobs.labels(event=event) for event in _JOB_EVENTS
        }
        self._record_events = {
            event: self._records.labels(event=event) for event in _RECORD_EVENTS
        }

    # --- the read-only attribute API ---------------------------------------

    jobs_registered = _counter_property("_jobs", "registered")
    jobs_completed = _counter_property("_jobs", "completed")
    jobs_evicted = _counter_property("_jobs", "evicted")
    jobs_stalled = _counter_property("_jobs", "stalled")
    jobs_resumed = _counter_property("_jobs", "resumed")
    records_submitted = _counter_property("_records", "submitted")
    records_ingested = _counter_property("_records", "ingested")
    records_dropped = _counter_property("_records", "dropped")
    records_quarantined = _counter_property("_records", "quarantined")

    @property
    def steps_assembled(self) -> int:
        return int(self._steps.value)

    @property
    def chips_quarantined(self) -> int:
        return int(self._chip_quarantines.value)

    @property
    def dropped_by_job(self) -> dict[str, int]:
        """Shed counts per *live* job (evicted jobs fold into a total)."""
        return {
            child.label_values["job"]: int(child.value)
            for child in self._job_drops.children()
        }

    @property
    def evicted_drops(self) -> int:
        """Shed records attributed to jobs since evicted."""
        return int(self._evicted_drops.value)

    @property
    def quarantined_by_job(self) -> dict[str, int]:
        """Quarantine counts per *live* job (evicted jobs fold into a total)."""
        return {
            child.label_values["job"]: int(child.value)
            for child in self._job_quarantines.children()
        }

    def quarantined_for(self, job_id: str) -> int:
        """One live job's quarantine count, without walking every job's."""
        child = self._job_quarantines.find(job=job_id)
        return 0 if child is None else int(child.value)

    @property
    def evicted_quarantines(self) -> int:
        """Quarantined records attributed to jobs since evicted."""
        return int(self._evicted_quarantines.value)

    @property
    def queries_served(self) -> int:
        return self._query.count

    @property
    def query_seconds_total(self) -> float:
        return self._query.sum

    @property
    def query_seconds_max(self) -> float:
        return self._query.max

    # --- recording ---------------------------------------------------------

    def record_job(self, event: str, count: int = 1) -> None:
        """Count job lifecycle transitions of one kind.

        ``event`` is ``registered``, ``completed``, ``stalled`` or
        ``resumed``; evictions count through :meth:`record_eviction`.
        """
        self._job_events[event].inc(count)

    def record_submit(self, count: int = 1) -> None:
        """Count records submitted by producers."""
        self._record_events["submitted"].inc(count)

    def record_ingest(self) -> None:
        """Count one queued record drained into its job's analysis."""
        self._record_events["ingested"].inc()

    def record_steps(self, count: int) -> None:
        """Count steps assembled from ingested records."""
        self._steps.inc(count)

    def record_chip_quarantine(self) -> None:
        """Count one chip pulled from service."""
        self._chip_quarantines.inc()

    def record_drop(self, job_id: str, count: int) -> None:
        """Count records shed by one job's queue."""
        if count <= 0:
            return
        self._record_events["dropped"].inc(count)
        self._job_drops.labels(job=job_id).inc(count)

    def record_quarantine(self, job_id: str, count: int = 1) -> None:
        """Count records quarantined from one job's stream."""
        if count <= 0:
            return
        self._record_events["quarantined"].inc(count)
        self._job_quarantines.labels(job=job_id).inc(count)

    def record_eviction(self, job_id: str) -> None:
        """Count one evicted job and fold its per-tenant counts into totals.

        Keeps the per-job series from growing without bound as tenants
        churn: the job's labeled drop and quarantine counters are removed
        and their values land in ``evicted_drops`` / ``evicted_quarantines``
        (the fleet-wide ``records_dropped`` / ``records_quarantined``
        totals already include them).
        """
        self._job_events["evicted"].inc()
        child = self._job_drops.remove(job=job_id)
        if child is not None and child.value > 0:
            self._evicted_drops.inc(child.value)
        child = self._job_quarantines.remove(job=job_id)
        if child is not None and child.value > 0:
            self._evicted_quarantines.inc(child.value)

    @contextmanager
    def time_query(self):
        """Measure one snapshot query's latency."""
        start = time.perf_counter()
        try:
            yield
        finally:
            self._query.observe(time.perf_counter() - start)

    # --- reading -----------------------------------------------------------

    @property
    def drop_fraction(self) -> float:
        """Fraction of submitted records shed before analysis."""
        if self.records_submitted == 0:
            return 0.0
        return self.records_dropped / self.records_submitted

    @property
    def mean_query_seconds(self) -> float:
        return self._query.mean

    def to_dict(self) -> dict:
        """The snapshot every render path shares (one source of truth).

        :meth:`format`, the ``tpupoint fleet`` output, and the registry
        exposition all derive from these counters, so the CLI can never
        drift from what ``--metrics-out`` exports.
        """
        return {
            "jobs_registered": self.jobs_registered,
            "jobs_completed": self.jobs_completed,
            "jobs_evicted": self.jobs_evicted,
            "jobs_stalled": self.jobs_stalled,
            "jobs_resumed": self.jobs_resumed,
            "records_submitted": self.records_submitted,
            "records_ingested": self.records_ingested,
            "records_dropped": self.records_dropped,
            "records_quarantined": self.records_quarantined,
            "drop_fraction": self.drop_fraction,
            "steps_assembled": self.steps_assembled,
            "chips_quarantined": self.chips_quarantined,
            "queries_served": self.queries_served,
            "query_seconds_total": self.query_seconds_total,
            "query_seconds_mean": self.mean_query_seconds,
            "query_seconds_max": self.query_seconds_max,
            "dropped_by_job": self.dropped_by_job,
            "evicted_drops": self.evicted_drops,
            "quarantined_by_job": self.quarantined_by_job,
            "evicted_quarantines": self.evicted_quarantines,
        }

    def format(self) -> list[str]:
        """Human-readable counter lines (the CLI's metrics block)."""
        snap = self.to_dict()
        return [
            f"jobs registered/completed/evicted : "
            f"{snap['jobs_registered']}/{snap['jobs_completed']}/{snap['jobs_evicted']}",
            f"records submitted/ingested/dropped: "
            f"{snap['records_submitted']}/{snap['records_ingested']}/{snap['records_dropped']}"
            f" ({snap['drop_fraction']:.1%} shed)",
            f"records quarantined               : {snap['records_quarantined']} "
            f"(jobs stalled {snap['jobs_stalled']}, resumed {snap['jobs_resumed']})",
            f"steps assembled                   : {snap['steps_assembled']}",
            f"queries served                    : {snap['queries_served']} "
            f"(mean {snap['query_seconds_mean'] * 1e6:.0f} us, "
            f"max {snap['query_seconds_max'] * 1e6:.0f} us)",
            f"evicted-job dropped records       : {snap['evicted_drops']}",
        ]
