"""Continuous fleet health telemetry.

:class:`HealthMonitor` is the conductor over the other ``repro.obs``
health pieces: once per fleet scheduling round it scrapes the serving
tier into telemetry rings (:mod:`repro.obs.timeseries`), folds drift
(:mod:`repro.obs.drift`) and SLO burn rates (:mod:`repro.obs.slo`) into
derived series, and evaluates the alert rules
(:mod:`repro.obs.alerts`). The fleet driver wires it in via
``run_fleet(..., health=monitor)``; ``tpupoint health`` renders its
dashboard and ``tpupoint alerts`` its event log.

Determinism is the design constraint: **every series an alert rule
reads is fleet-level** — the aggregate service counters (bit-identical
across shard counts by the sharded tier's guarantee), the shared
goodput ledger, the default registry's profiler/fault counters, and
per-job live analyses. Ticks are scheduling-round indices. Per-shard
rings exist too, but only the dashboard reads them; nothing that decides
whether an alert fires ever looks at a shard-count-dependent signal.
Sampling cadence is seeded: with ``sample_every > 1`` the scrape phase
comes from a named deterministic RNG stream, so even subsampled health
output is bit-reproducible for a given seed.

A sample costs work only for the tenants whose live state changed since
the previous one. The tier's :class:`~repro.serve.service.ChangeFeed`
names them (those that folded steps, got or changed a chip, completed or
were evicted); only they are shown to the detectors, and each one's
``drift:`` ring (and its chip's ``chip_sdc:`` ring) is *held* at its new
reading, so an idle tenant's rings gain their repeated points without
being visited (:meth:`~repro.obs.timeseries.RingStore.hold`). The alert
engine in turn evaluates only the scopes those writes made due.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field

from repro import rng as rng_mod
from repro.errors import ObsError
from repro.obs.alerts import AlertEngine, AlertEvent, AlertRule, builtin_rules
from repro.obs.drift import (
    DEFAULT_SDC_DROP,
    DriftBand,
    PhaseDriftDetector,
    UtilizationAnomalyDetector,
)
from repro.obs.metrics import counter, default_registry, gauge
from repro.obs.slo import DEFAULT_SLOS, SLOEngine, SLOSpec
from repro.obs.timeseries import (
    DEFAULT_RING_CAPACITY,
    RingStore,
    sparkline,
)
from repro.obs.tracing import trace
from repro.rng import DEFAULT_SEED

_SAMPLES = counter(
    "repro_obs_health_samples_total",
    "Health sampling passes taken by the monitor.",
)
_ALERT_EVENTS = counter(
    "repro_obs_health_alert_events_total",
    "Alert transitions emitted, by rule and transition.",
    labels=("rule", "transition"),
)
_ACTIVE_ALERTS = gauge(
    "repro_obs_health_active_alerts",
    "Alerts currently firing across the fleet.",
)
_RING_POINTS = gauge(
    "repro_obs_health_ring_points",
    "Points currently held across the monitor's fleet rings.",
)
_DRIFT_MAX = gauge(
    "repro_obs_health_drift_distance_max",
    "Largest live phase-drift distance across jobs at the last sample.",
)

# Bound child handles: registry reset zeros children in place, so these
# stay valid, and the per-round path skips the labels() lookup.
_SAMPLES_CHILD = _SAMPLES.labels()
_ACTIVE_ALERTS_CHILD = _ACTIVE_ALERTS.labels()
_RING_POINTS_CHILD = _RING_POINTS.labels()
_DRIFT_MAX_CHILD = _DRIFT_MAX.labels()

#: Default-registry counter families scraped into fleet rings, as
#: ``(family, series)`` pairs; children sum before the rate is taken.
_GLOBAL_COUNTER_SERIES = (
    ("repro_profiler_circuit_trips_total", "profiler:circuit_trips"),
    ("repro_profiler_circuit_skips_total", "profiler:circuit_skips"),
    ("repro_profiler_retries_total", "profiler:retries"),
    ("repro_profiler_request_failures_total", "profiler:failures"),
    ("repro_faults_injected_total", "faults:injected"),
)

#: ServiceMetrics counters scraped into fleet rings (aggregate view)
#: and into each shard's rings, as ``(attribute, series)`` pairs.
_SERVICE_COUNTER_SERIES = (
    ("records_submitted", "serve:records_submitted"),
    ("records_ingested", "serve:records_ingested"),
    ("records_dropped", "serve:records_dropped"),
    ("records_quarantined", "serve:records_quarantined"),
    ("steps_assembled", "serve:steps_assembled"),
    ("jobs_stalled", "serve:jobs_stalled"),
)


@dataclass(frozen=True)
class HealthOptions:
    """Configuration of one health monitor."""

    capacity: int = DEFAULT_RING_CAPACITY
    sample_every: int = 1
    seed: int = DEFAULT_SEED
    drift: DriftBand = field(default_factory=DriftBand)
    sdc_drop: float = DEFAULT_SDC_DROP
    slos: tuple[SLOSpec, ...] = DEFAULT_SLOS
    rules: tuple[AlertRule, ...] | None = None  # None -> builtin_rules()

    def __post_init__(self) -> None:
        if self.capacity <= 0:
            raise ObsError("health ring capacity must be positive")
        if self.sample_every <= 0:
            raise ObsError("health sample_every must be positive")
        if not 0.0 < self.sdc_drop <= 1.0:
            raise ObsError("health sdc_drop must be in (0, 1]")


def scrape_targets(service) -> list[tuple[str, object]]:
    """``(label, ServiceMetrics)`` pairs for the per-shard dashboard.

    Prefers the tier's own :meth:`health_targets`; falls back to a
    single ``service`` target for anything metrics-shaped.
    """
    targets = getattr(service, "health_targets", None)
    if callable(targets):
        return targets()
    return [("service", service.metrics)]


def live_analyses(service) -> list[tuple[str, object]]:
    """``(job_id, LiveJobAnalysis)`` pairs in global registration order.

    Prefers the tier's own :meth:`live_analyses`; returns an empty list
    for services that do not expose live analysis state.
    """
    analyses = getattr(service, "live_analyses", None)
    if callable(analyses):
        return analyses()
    return []


def chip_assignments(service) -> dict[str, str]:
    """``job_id -> chip`` placements, empty for tiers without SDC wiring."""
    assignments = getattr(service, "chip_assignments", None)
    if callable(assignments):
        return assignments()
    return {}


class _RunningMax:
    """The largest of a set of keyed readings, kept current per change.

    A lazy max-heap: entries a later reading superseded are dropped when
    they reach the top, and the heap is rebuilt once they outnumber the
    live ones, so a change costs O(log n) amortized.
    """

    __slots__ = ("_values", "_heap")

    def __init__(self) -> None:
        self._values: dict[str, float] = {}
        self._heap: list[tuple[float, str]] = []

    def set(self, key: str, value: float | None) -> None:
        """Set ``key``'s reading; None removes it."""
        if value is None:
            self._values.pop(key, None)
        elif self._values.get(key) != value:
            self._values[key] = value
            heapq.heappush(self._heap, (-value, key))
        if len(self._heap) > 2 * len(self._values) + 64:
            self._heap = [(-reading, name) for name, reading in self._values.items()]
            heapq.heapify(self._heap)

    def max(self, floor: float) -> float:
        """The largest reading, or ``floor`` when none is larger."""
        heap, values = self._heap, self._values
        while heap and values.get(heap[0][1]) != -heap[0][0]:
            heapq.heappop(heap)
        return max(floor, -heap[0][0]) if heap else floor


class HealthMonitor:
    """Samples a fleet tier into rings and evaluates alert rules."""

    def __init__(self, options: HealthOptions | None = None, knowledge=None):
        self.options = options or HealthOptions()
        self.rings = RingStore(self.options.capacity)
        self.shard_rings: dict[str, RingStore] = {}
        rules = self.options.rules
        if rules is None:
            rules = builtin_rules(
                drift_distance=self.options.drift.fire_distance,
                sdc_drop=self.options.sdc_drop,
            )
        self.engine = AlertEngine(rules)
        self.drift = PhaseDriftDetector(knowledge=knowledge, band=self.options.drift)
        self.sdc = UtilizationAnomalyDetector(
            band=self.options.drift, fire_drop=self.options.sdc_drop
        )
        self.chip_quarantines: dict[str, int] = {}
        self.slo = SLOEngine(self.options.slos)
        self.tick = 0
        self.samples = 0
        self.finished = False
        # Per-store baseline maps: rate deltas need the prior cumulative
        # total per series, keyed by store identity without string
        # concatenation on the per-round hot path.
        self._previous: dict[int, dict[str, float]] = {}
        self._families: dict[str, object] = {}
        # The tier sampled, the change feed it serves the monitor, the
        # live tenants the monitor has looked at (job -> chip), each
        # chip's residents (job -> SDC reading), and the largest drift
        # reading across live tenants.
        self._source = None
        self._feed = None
        self._tenants: dict[str, str | None] = {}
        self._residents: dict[str, dict[str, float | None]] = {}
        self._drift_max = _RunningMax()
        # Seeded scrape phase: with sample_every N, sampling lands on a
        # deterministic offset in [0, N) drawn from a named stream.
        if self.options.sample_every > 1:
            draw = rng_mod.stream("obs/health", self.options.seed)
            self._offset = int(draw.integers(0, self.options.sample_every))
        else:
            self._offset = 0

    # --- sampling ----------------------------------------------------------

    def _rate(self, store: RingStore, name: str, tick: int, total: float) -> None:
        baselines = self._previous.get(id(store))
        if baselines is None:
            baselines = self._previous[id(store)] = {}
        previous = baselines.get(name)
        baselines[name] = total
        delta = max(total - previous, 0.0) if previous is not None else 0.0
        store.record(name, tick, delta)

    def _global_counter_total(self, family_name: str) -> float:
        family = self._families.get(family_name)
        if family is None:
            family = default_registry().get(family_name)
            if family is None:
                return 0.0
            self._families[family_name] = family
        return sum(child.value for child in family.children())

    def observe(self, service, tick: int | None = None) -> list[AlertEvent]:
        """Fold one scheduling round; returns alert transitions emitted.

        Call once per round (the fleet driver does). Non-sampling ticks
        (``sample_every`` subsampling) return immediately with no events.
        A tier without a :meth:`change_feed` shows the monitor no tenants.
        """
        if self.finished:
            raise ObsError("health monitor already finished")
        self.tick = self.tick + 1 if tick is None else int(tick)
        tick = self.tick
        if tick % self.options.sample_every != self._offset % self.options.sample_every:
            return []
        with trace("health.observe", tick=tick) as span:
            appended = self._appended()
            events, tenants = self._sample(service, tick)
            span.set(
                tenants=tenants,
                scopes=self.engine.scopes_evaluated,
                points=self._appended() - appended,
            )
        return events

    def _sample(self, service, tick: int) -> tuple[list[AlertEvent], int]:
        """One sample: its alert transitions and the tenants looked at."""
        self.samples += 1
        _SAMPLES_CHILD.inc()
        self.rings.advance(tick)

        # Fleet-level serve counters (aggregate across shards).
        metrics = service.metrics
        for attribute, series in _SERVICE_COUNTER_SERIES:
            self._rate(self.rings, f"{series}:rate", tick, getattr(metrics, attribute))

        # Default-registry resilience/fault counters.
        for family_name, series in _GLOBAL_COUNTER_SERIES:
            self._rate(
                self.rings,
                f"{series}:rate",
                tick,
                self._global_counter_total(family_name),
            )

        # Per-shard rings (dashboard only; never read by alert rules).
        for label, shard_metrics in scrape_targets(service):
            store = self.shard_rings.get(label)
            if store is None:
                store = RingStore(self.options.capacity)
                self.shard_rings[label] = store
            for attribute, series in _SERVICE_COUNTER_SERIES:
                self._rate(
                    store, f"{series}:rate", tick, getattr(shard_metrics, attribute)
                )

        tenants = self._sample_tenants(service)
        _DRIFT_MAX_CHILD.set(self._drift_max.max(0.0))

        # SLOs over the goodput ledger and the ingest counters.
        report = None
        goodput_report = getattr(service, "goodput_report", None)
        if callable(goodput_report):
            report = goodput_report()
        if report is not None and "goodput" in self.slo.specs:
            self.slo.observe(
                "goodput", report.goodput_us, report.total_us, self.rings, tick
            )
        if "ingest" in self.slo.specs:
            submitted = float(metrics.records_submitted)
            dropped = float(metrics.records_dropped)
            self.slo.observe(
                "ingest", max(submitted - dropped, 0.0), submitted, self.rings, tick
            )

        events = self.engine.evaluate(self.rings, tick)
        self._account(events)
        return events, tenants

    def _appended(self) -> int:
        return self.rings.appended + sum(
            store.appended for store in self.shard_rings.values()
        )

    def _sample_tenants(self, service) -> int:
        """Fold what changed for each tenant since the previous sample.

        Phase drift per live tenant, and SDC throughput drop per chip
        (the max over a chip's resident tenants: any one degraded tenant
        implicates the chip). A tenant's readings move only when its
        live state does, so each changed tenant's ``drift:`` ring is
        held at its new reading, and a chip's ``chip_sdc:`` ring is
        recomputed and held only when its residents or one of their
        readings changed. A tenant that completed or was evicted has its
        detector state dropped and its rings released: they go stale
        (their history stays). Returns the tenants looked at.
        """
        if self._source is not service:
            subscribe = getattr(service, "change_feed", None)
            self._feed = subscribe() if callable(subscribe) else None
            self._source = service
        if self._feed is None:
            rescan, chips, changes = False, True, {}
        else:
            rescan, chips, changes = self._feed.take()
        if rescan:
            placements = chip_assignments(service)
            changes = {
                job_id: (analysis, placements.get(job_id))
                for job_id, analysis in live_analyses(service)
            }
            for job_id in self._tenants:
                changes.setdefault(job_id, (None, None))
        dirty: dict[str, None] = {}
        for job_id, (analysis, chip) in changes.items():
            if analysis is None:  # completed or evicted: chip is None too
                self.drift.forget(job_id)
                self.sdc.forget(job_id)
                distance = drop = None
                previous = self._tenants.pop(job_id, None)
            else:
                distance = self.drift.observe(job_id, analysis)
                drop = None if chip is None else self.sdc.observe(job_id, analysis)
                previous = self._tenants.get(job_id)
                self._tenants[job_id] = chip
            if distance is None:
                self.rings.release(f"drift:{job_id}")
            else:
                self.rings.hold(f"drift:{job_id}", distance)
            self._drift_max.set(job_id, distance)
            if previous is not None and previous != chip:
                del self._residents[previous][job_id]
                dirty[previous] = None
            if chip is not None:
                residents = self._residents.setdefault(chip, {})
                if job_id not in residents or residents[job_id] != drop:
                    residents[job_id] = drop
                    dirty[chip] = None
        for chip in dirty:
            residents = self._residents.get(chip, {})
            drops = [drop for drop in residents.values() if drop is not None]
            if drops:
                self.rings.hold(f"chip_sdc:{chip}", max(0.0, *drops))
            else:
                self.rings.release(f"chip_sdc:{chip}")
                if not residents:
                    self._residents.pop(chip, None)
        # Chip quarantine counts (dashboard only; the rule reads rings).
        counts = getattr(service, "chip_quarantine_counts", None)
        if (rescan or chips) and callable(counts):
            self.chip_quarantines = dict(counts())
        return len(changes)

    def finish(self) -> list[AlertEvent]:
        """End of run: resolve anything still firing (idempotent)."""
        if self.finished:
            return []
        self.finished = True
        events = self.engine.finish()
        self._account(events)
        return events

    def _account(self, events: list[AlertEvent]) -> None:
        for event in events:
            _ALERT_EVENTS.labels(rule=event.rule, transition=event.transition).inc()
        _ACTIVE_ALERTS_CHILD.set(self.engine.firing)
        _RING_POINTS_CHILD.set(self.rings.points())

    # --- rendering ---------------------------------------------------------

    #: Fleet ring series shown on the dashboard, with display labels.
    _DASHBOARD_SERIES = (
        ("serve:steps_assembled:rate", "steps/round"),
        ("serve:records_ingested:rate", "ingest/round"),
        ("serve:records_quarantined:rate", "quarantine/round"),
        ("profiler:circuit_trips:rate", "breaker trips"),
        ("slo:goodput:ratio", "goodput ratio"),
    )

    def dashboard(self) -> list[str]:
        """The ``tpupoint health`` terminal view, as printable lines."""
        lines = [f"== fleet health @ tick {self.tick} ({self.samples} samples) =="]
        if self.shard_rings:
            lines.append("-- shards --")
            header = f"{'shard':<12} {'steps':>8} {'ingested':>9} {'dropped':>8} {'quar':>6}"
            lines.append(header)
            for label in sorted(self.shard_rings):
                store = self.shard_rings[label]

                def _total(series: str) -> int:
                    ring = store.get(series)
                    return int(sum(ring.values())) if ring is not None else 0

                lines.append(
                    f"{label:<12} {_total('serve:steps_assembled:rate'):>8} "
                    f"{_total('serve:records_ingested:rate'):>9} "
                    f"{_total('serve:records_dropped:rate'):>8} "
                    f"{_total('serve:records_quarantined:rate'):>6}"
                )
        lines.append("-- rings --")
        for series, label in self._DASHBOARD_SERIES:
            ring = self.rings.get(series)
            if ring is None or ring.last() is None:
                continue
            lines.append(
                f"{label:<18} {sparkline(ring.values()):<24} last {ring.last():g}"
            )
        drifts = self.rings.match("drift:")
        if drifts:
            lines.append("-- drift --")
            for name in drifts:
                ring = self.rings.get(name)
                lines.append(
                    f"{name[len('drift:'):]:<24} "
                    f"{sparkline(ring.values()):<24} last {ring.last():.2f}"
                )
        if self.chip_quarantines:
            lines.append("-- chips --")
            lines.append(f"{'chip':<12} {'sdc drop':>9} {'quarantined':>12}")
            for chip in sorted(self.chip_quarantines):
                ring = self.rings.get(f"chip_sdc:{chip}")
                last = ring.last() if ring is not None else None
                drop = f"{last:.2f}" if last is not None else "-"
                lines.append(
                    f"{chip:<12} {drop:>9} {self.chip_quarantines[chip]:>12}"
                )
        statuses = self.slo.status(self.rings)
        if statuses:
            lines.append("-- slo --")
            for status in statuses:
                lines.append(status.format())
        active = self.engine.active()
        lines.append(f"-- active alerts ({len(active)}) --")
        for alert in active:
            marker = " [acked]" if alert.acked else ""
            lines.append(
                f"{alert.rule.severity.value.upper():8} {alert.rule.name} "
                f"({alert.scope}) since tick {alert.since_tick} "
                f"value {alert.last_value:g}{marker}"
            )
        return lines

    # --- export ------------------------------------------------------------

    def to_dict(self) -> dict:
        """The full health dump (``tpupoint health --out``)."""
        return {
            "version": 1,
            "tick": self.tick,
            "samples": self.samples,
            "rings": self.rings.to_dict(),
            "shards": {
                label: store.to_dict()
                for label, store in sorted(self.shard_rings.items())
            },
            "chips": {
                chip: self.chip_quarantines[chip]
                for chip in sorted(self.chip_quarantines)
            },
            "alerts": self.engine.to_dict(),
            "slos": [status.to_dict() for status in self.slo.status(self.rings)],
        }

    def alerts_dict(self) -> dict:
        """The alert-only dump (``tpupoint alerts --out``); shard-invariant."""
        return self.engine.to_dict()
