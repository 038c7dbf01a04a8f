"""Health sampling in O(tenants with new work) reads as the full walk.

The health monitor looks only at the tenants its tier's change feed
names, holds each idle tenant's rings instead of appending to them,
and evaluates only the alert scopes that are due. The reference below
is the full walk the monitor replaced: every sample it walks every live
tenant, gives both detectors a look, appends every drift and chip point
to plain rings, and evaluates every scope of every rule in rule, then
scope, order.

Fleets of up to 12 tenants run on one :class:`FleetService` or on a
:class:`ShardedFleet` of 1-3 shards that resizes mid-run, under a
heartbeat deadline (so silent tenants stall and resume), while each
tick draws sends (some with an excursion), completions, evictions and
chip assignments and reassignments (some tenants start on a chip).
Ring capacity (2-6) is small enough
that rings evict, the detectors' warm-up (0, 1 or 4 steps) varies, and
random extra rules mix threshold and absence kinds, wildcard and fleet
series, and windows of 1-3. After every tick the emitted events, the event log and the
monitor's gauges (ring points, largest drift, active alerts) must
match. The full dump and the dashboard are compared
after every tick in half the examples; the other half compares them at
the end only, so that held rings also expand across long runs of
unread samples.
"""

from hypothesis import example, given, settings, strategies as st

from repro import obs
from repro.core.profiler.record import ProfileRecord, StepStats
from repro.obs.alerts import Alert, AlertEngine, AlertRule, builtin_rules
from repro.obs.drift import DriftBand
from repro.obs.health import (
    HealthMonitor,
    HealthOptions,
    chip_assignments,
    live_analyses,
    scrape_targets,
)
from repro.runtime.events import DeviceKind, StepKind
from repro.serve import (
    FleetService,
    FleetServiceOptions,
    ShardedFleet,
    ShardedFleetOptions,
)


class _FullScanEngine(AlertEngine):
    """Evaluates every scope of every rule at every evaluation."""

    def evaluate(self, store, tick):
        self.last_tick = tick
        emitted = []
        for rule in self.rules:
            if rule.wildcard:
                prefix = rule.series[:-1]
                scopes = [(name, name[len(prefix):]) for name in store.match(prefix)]
            else:
                scopes = [(rule.series, "fleet")]
            for series_name, scope in scopes:
                ring = store.get(series_name)
                key = (rule.name, scope)
                alert = self._alerts.get(key)
                if rule.kind == "absence":
                    if ring is None or ring.last_tick() is None:
                        continue
                    staleness = tick - ring.last_tick()
                    bad = staleness > rule.threshold
                    value = float(staleness)
                else:
                    if ring is None:
                        continue
                    fresh = ring.last_tick() == tick
                    value = ring.last() if fresh else 0.0
                    bad = fresh and rule.breached(value)
                    if alert is None and not bad:
                        continue
                if alert is None:
                    alert = Alert(rule=rule, scope=scope)
                    self._alerts[key] = alert
                event = self._observe(alert, tick, value, bad)
                if event is not None:
                    emitted.append(event)
        self.events.extend(emitted)
        return emitted


class _FullWalkMonitor(HealthMonitor):
    """The monitor as it was before the change feed: a full walk per sample."""

    def __init__(self, options):
        super().__init__(options)
        self.engine = _FullScanEngine(self.engine.rules)
        self.ring_points = 0
        self.drift_max = 0.0
        self._live: set[str] = set()

    def observe(self, service, tick):
        self.tick = tick
        if tick % self.options.sample_every != self._offset % self.options.sample_every:
            return []
        self.samples += 1
        metrics = service.metrics
        for attribute, series in _SERVICE_SERIES:
            self._rate(self.rings, f"{series}:rate", tick, getattr(metrics, attribute))
        for family_name, series in _GLOBAL_SERIES:
            self._rate(
                self.rings, f"{series}:rate", tick, self._global_counter_total(family_name)
            )
        for label, shard_metrics in scrape_targets(service):
            store = self.shard_rings.setdefault(label, type(self.rings)(self.options.capacity))
            for attribute, series in _SERVICE_SERIES:
                self._rate(store, f"{series}:rate", tick, getattr(shard_metrics, attribute))
        drift_max = 0.0
        chips = chip_assignments(service)
        chip_drops = {}
        live = set()
        for job_id, analysis in live_analyses(service):
            live.add(job_id)
            chip = chips.get(job_id)
            distance = self.drift.observe(job_id, analysis)
            drop = None if chip is None else self.sdc.observe(job_id, analysis)
            if distance is not None:
                self.rings.record(f"drift:{job_id}", tick, distance)
                drift_max = max(drift_max, distance)
            if chip is not None and drop is not None:
                chip_drops[chip] = max(chip_drops.get(chip, 0.0), drop)
        for job_id in self._live - live:
            self.drift.forget(job_id)
            self.sdc.forget(job_id)
        self._live = live
        for chip, drop in chip_drops.items():
            self.rings.record(f"chip_sdc:{chip}", tick, drop)
        self.drift_max = drift_max
        self.chip_quarantines = dict(service.chip_quarantine_counts())
        report = service.goodput_report() if hasattr(service, "goodput_report") else None
        if report is not None:
            self.slo.observe("goodput", report.goodput_us, report.total_us, self.rings, tick)
        submitted = float(metrics.records_submitted)
        dropped = float(metrics.records_dropped)
        self.slo.observe("ingest", max(submitted - dropped, 0.0), submitted, self.rings, tick)
        events = self.engine.evaluate(self.rings, tick)
        self.ring_points = sum(len(self.rings.get(name)) for name in self.rings.names())
        return events


_SERVICE_SERIES = (
    ("records_submitted", "serve:records_submitted"),
    ("records_ingested", "serve:records_ingested"),
    ("records_dropped", "serve:records_dropped"),
    ("records_quarantined", "serve:records_quarantined"),
    ("steps_assembled", "serve:steps_assembled"),
    ("jobs_stalled", "serve:jobs_stalled"),
)
_GLOBAL_SERIES = (
    ("repro_profiler_circuit_trips_total", "profiler:circuit_trips"),
    ("repro_profiler_circuit_skips_total", "profiler:circuit_skips"),
    ("repro_profiler_retries_total", "profiler:retries"),
    ("repro_profiler_request_failures_total", "profiler:failures"),
    ("repro_faults_injected_total", "faults:injected"),
)


def _gauge(name):
    family = obs.default_registry().get(name)
    return next(iter(family.children())).value


def _record(index, scale, excursion, steps=2):
    """Record ``index`` of one tenant; an excursion is checkpoint-heavy
    at a lower MXU rate, so both detectors read non-zero values."""
    record = ProfileRecord(index=index, window_start_us=0.0, window_end_us=1.0)
    mix = (("Checkpoint", 5000.0), ("MatMul", 300.0)) if excursion else (
        ("MatMul", 900.0), ("Conv2D", 1200.0), ("Relu", 80.0)
    )
    for number in range(index * steps, (index + 1) * steps):
        step = StepStats(step=number, kind=StepKind.TRAIN)
        for name, mean in mix:
            step.observe(name, DeviceKind.TPU, mean * scale)
        step.start_us = number * 10_000.0
        step.end_us = step.start_us + 3_000.0 * scale
        step.tpu_idle_us = 100.0
        step.mxu_flops = 1e9 * scale * (0.6 if excursion else 1.0)
        record.steps[number] = step
    return record


_SERIES = (
    "drift:*",
    "chip_sdc:*",
    "drift:synthetic/0",
    "chip_sdc:chip-1",
    "serve:steps_assembled:rate",
    "serve:records_ingested:rate",
    "slo:ingest:ratio",
)

extra_rules = st.lists(
    st.builds(
        lambda kind, series, threshold, comparison, for_ticks, clear_ticks: (
            kind, series, threshold, comparison, for_ticks, clear_ticks,
        ),
        st.sampled_from(("threshold", "absence")),
        st.sampled_from(_SERIES),
        st.sampled_from((0.0, 0.05, 0.2, 1.0, 2.0, 3.5)),
        st.sampled_from(("above", "below")),
        st.integers(1, 3),
        st.integers(1, 3),
    ),
    max_size=4,
)

action = st.one_of(
    st.tuples(st.just("send"), st.integers(0, 11), st.booleans()),
    st.tuples(st.just("send"), st.integers(0, 11), st.just(False)),
    st.tuples(st.just("complete"), st.integers(0, 11)),
    st.tuples(st.just("evict"), st.integers(0, 11)),
    st.tuples(st.just("chip"), st.integers(0, 11), st.integers(0, 2)),
)


@settings(max_examples=100, deadline=None)
@example(  # a hold ending a capacity's worth of samples after it began
    tenants=1,
    shards=None,
    resize=(2, 1),
    ticks=[[("send", 0, True)], [("send", 0, False)], [], [("send", 0, False)]],
    sample_every=1,
    capacity=2,
    min_steps=0,
    rules=[],
    dump_every_tick=False,
    chipped=0,
)
@example(  # a chip's SDC reading held through CHIP_SDC_SUSPECT's for_ticks=2
    tenants=1,
    shards=None,
    resize=(2, 1),
    ticks=[[("send", 0, False)]] * 3 + [[("send", 0, True)], [], []],
    sample_every=1,
    capacity=6,
    min_steps=0,
    rules=[],
    dump_every_tick=False,
    chipped=1,
)
@given(
    tenants=st.integers(1, 12),
    shards=st.sampled_from((None, 1, 2, 3)),
    resize=st.tuples(st.integers(2, 10), st.integers(1, 3)),
    ticks=st.lists(st.lists(action, max_size=8), min_size=2, max_size=14),
    sample_every=st.integers(1, 3),
    capacity=st.integers(2, 6),
    min_steps=st.sampled_from((0, 1, 4)),
    rules=extra_rules,
    dump_every_tick=st.booleans(),
    chipped=st.integers(0, 12),
)
def test_sampling_changed_tenants_reads_as_the_full_walk(
    tenants, shards, resize, ticks, sample_every, capacity, min_steps, rules,
    dump_every_tick, chipped,
):
    service_options = FleetServiceOptions(heartbeat_deadline=2)
    if shards is None:
        tier = FleetService(options=service_options)
    else:
        tier = ShardedFleet(ShardedFleetOptions(shards=shards, service=service_options))
    jobs = [tier.register("synthetic").job_id for _ in range(tenants)]
    for tenant in range(min(chipped, tenants)):
        tier.assign_chip(jobs[tenant], f"chip-{tenant % 3}")
    extra = tuple(
        AlertRule(
            name=f"EXTRA_{index}",
            series=series,
            kind=kind,
            threshold=threshold,
            comparison=comparison,
            for_ticks=for_ticks,
            clear_ticks=clear_ticks,
        )
        for index, (kind, series, threshold, comparison, for_ticks, clear_ticks)
        in enumerate(rules)
    )
    options = HealthOptions(
        capacity=capacity,
        sample_every=sample_every,
        seed=7,
        drift=DriftBand(min_steps=min_steps),
        rules=builtin_rules() + extra,
    )
    monitor, reference = HealthMonitor(options), _FullWalkMonitor(options)
    sent = [0] * tenants
    completed, evicted = set(), set()
    for tick, actions in enumerate(ticks, start=1):
        if shards is not None and tick == resize[0]:
            tier.resize(resize[1])
        for kind, tenant, *args in actions:
            tenant %= tenants
            if tenant in evicted:
                continue
            job = jobs[tenant]
            if kind == "chip":
                tier.assign_chip(job, f"chip-{args[0]}")
            elif kind == "evict":
                tier.evict(job)
                evicted.add(tenant)
            elif tenant in completed:
                continue
            elif kind == "complete":
                tier.complete(job)
                completed.add(tenant)
            else:
                tier.sink(job)(_record(sent[tenant], 1.0 + tenant / 8, args[0]))
                sent[tenant] += 1
        tier.pump()
        events = monitor.observe(tier, tick)
        gauges = (
            _gauge("repro_obs_health_ring_points"),
            _gauge("repro_obs_health_drift_distance_max"),
            _gauge("repro_obs_health_active_alerts"),
        )
        assert events == reference.observe(tier, tick), tick
        assert monitor.engine.events == reference.engine.events, tick
        if monitor.samples:
            expected = (
                reference.ring_points,
                reference.drift_max,
                len(reference.engine.active()),
            )
            assert gauges == expected, tick
        if dump_every_tick:
            assert monitor.to_dict() == reference.to_dict(), tick
            assert monitor.dashboard() == reference.dashboard(), tick
    assert monitor.finish() == reference.engine.finish()
    assert monitor.to_dict() == reference.to_dict()
    assert monitor.alerts_dict() == reference.alerts_dict()
    assert monitor.dashboard() == reference.dashboard()
