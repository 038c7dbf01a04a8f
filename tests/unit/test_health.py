"""Fleet health telemetry: rings, alert rules, drift, SLO burn rates.

The unit half exercises each layer in isolation (ring buffers, the
registry sampler, the alert state machines, the drift detector, the SLO
engine); the integration half drives seeded fleet runs and asserts the
ISSUE's acceptance bar: a faulted run deterministically fires AND
resolves CIRCUIT_FLAP, GOODPUT_BURN, and PHASE_DRIFT with identical
alert sequences across repeats and shard counts, while a healthy run
emits zero alert events.
"""

import json

import numpy as np
import pytest

from repro import obs
from repro.core.profiler.record import ProfileRecord, StepStats
from repro.errors import ObsError
from repro.obs.alerts import (
    AlertEngine,
    AlertRule,
    AlertSeverity,
    builtin_rules,
)
from repro.obs.drift import (
    DriftBand,
    PhaseDriftDetector,
    UtilizationAnomalyDetector,
    mix_distance,
    mix_shares,
    operator_totals,
    window_fingerprint,
)
from repro.obs.health import HealthMonitor, HealthOptions
from repro.obs.slo import SLOEngine, SLOSpec
from repro.obs.timeseries import (
    RegistrySampler,
    RingBuffer,
    RingStore,
    histogram_quantile,
    merge_stores,
    sparkline,
)
from repro.runtime.events import DeviceKind, StepKind
from repro.serve import FleetService
from repro.serve.live import LivePhase

BURST_PLAN = "examples/faults/health_burst.json"
BURST_OVERRIDES = {"checkpoint_every": 48, "checkpoint_bytes": 4e9}


def _event_log(monitor):
    return [
        f"{e.tick}:{e.rule}:{e.transition}:{e.scope}" for e in monitor.engine.events
    ]


def _run_monitored(shards, fault_plan=None, overrides=None, interval=250.0):
    from repro.core.profiler import ProfilerOptions
    from repro.serve import DEFAULT_FLEET_WORKLOADS, run_fleet

    monitor = HealthMonitor()
    result = run_fleet(
        DEFAULT_FLEET_WORKLOADS,
        shards=shards,
        fault_plan=fault_plan,
        health=monitor,
        profiler_options=ProfilerOptions(request_interval_ms=interval),
        plan_overrides=overrides,
    )
    return monitor, result


class TestHistogramQuantile:
    def test_interpolates_inside_bucket(self):
        # 10 observations <= 1.0, 10 more <= 2.0: the median sits at the
        # 1.0 bound and p75 halfway through the second bucket.
        cumulative = [(1.0, 10), (2.0, 20), (float("inf"), 20)]
        assert histogram_quantile(cumulative, 0.5) == pytest.approx(1.0)
        assert histogram_quantile(cumulative, 0.75) == pytest.approx(1.5)

    def test_infinite_bucket_uses_observed_max(self):
        cumulative = [(1.0, 1), (float("inf"), 4)]
        assert histogram_quantile(cumulative, 0.99, observed_max=7.5) == 7.5
        # Without a known max, the last finite bound caps the answer.
        assert histogram_quantile(cumulative, 0.99) == 1.0

    def test_empty_and_bad_quantile(self):
        assert histogram_quantile([], 0.5) == 0.0
        with pytest.raises(ObsError):
            histogram_quantile([(1.0, 1)], 1.0)


class TestRingBuffer:
    def test_evicts_oldest_beyond_capacity(self):
        ring = RingBuffer(capacity=3)
        for tick in range(5):
            ring.append(tick, float(tick))
        assert ring.ticks() == [2, 3, 4]
        assert ring.values() == [2.0, 3.0, 4.0]
        assert ring.evicted == 2
        assert ring.last() == 4.0
        assert ring.last_tick() == 4
        assert ring.window(2) == [3.0, 4.0]
        assert ring.mean() == pytest.approx(3.0)

    def test_ticks_must_increase(self):
        ring = RingBuffer()
        ring.append(5, 1.0)
        with pytest.raises(ObsError, match="must increase"):
            ring.append(5, 2.0)

    def test_round_trip(self):
        ring = RingBuffer(capacity=4)
        for tick in range(6):
            ring.append(tick, tick * 0.5)
        rebuilt = RingBuffer.from_dict(ring.to_dict())
        assert rebuilt.ticks() == ring.ticks()
        assert rebuilt.values() == ring.values()
        assert rebuilt.evicted == ring.evicted

    @pytest.mark.parametrize(
        "payload, message",
        [
            ({"capacity": 0, "ticks": [], "values": []}, "bad capacity"),
            ({"capacity": 4, "ticks": [1, 2], "values": [1.0]}, "torn"),
            ({"capacity": 4, "ticks": [2, 1], "values": [1.0, 2.0]}, "not increasing"),
            ({"capacity": 1, "ticks": [1, 2], "values": [1.0, 2.0]}, "over capacity"),
            ({"capacity": 4, "ticks": [1.5], "values": [1.0]}, "non-integer tick"),
            ({"capacity": 4, "ticks": [1], "values": ["x"]}, "non-numeric value"),
        ],
    )
    def test_malformed_dump_rejected(self, payload, message):
        with pytest.raises(ObsError, match=message):
            RingBuffer.from_dict(payload)


class TestRingStore:
    def test_record_get_match_points(self):
        store = RingStore(capacity=8)
        store.record("serve:a:rate", 1, 2.0)
        store.record("serve:b:rate", 1, 3.0)
        store.record("drift:job-0", 1, 0.1)
        assert store.names() == ["drift:job-0", "serve:a:rate", "serve:b:rate"]
        assert store.match("serve:") == ["serve:a:rate", "serve:b:rate"]
        assert store.get("missing") is None
        assert store.points() == 3
        assert len(store) == 3

    def test_round_trip_and_validation(self):
        store = RingStore(capacity=4)
        store.record("x", 1, 1.0)
        rebuilt = RingStore.from_dict(store.to_dict())
        assert rebuilt.get("x").values() == [1.0]
        with pytest.raises(ObsError, match="'series'"):
            RingStore.from_dict({"capacity": 4})
        with pytest.raises(ObsError, match="bad series name"):
            RingStore.from_dict({"capacity": 4, "series": {"": {}}})

    def test_merge_sums_counters_and_maxes_quantiles(self):
        left, right = RingStore(), RingStore()
        for tick in (1, 2):
            left.record("serve:ingest:rate", tick, 2.0)
            right.record("serve:ingest:rate", tick, 3.0)
        left.record("repro_latency_us:p95", 1, 40.0)
        right.record("repro_latency_us:p95", 1, 70.0)
        left.record("only:left", 1, 5.0)
        merged = merge_stores([left, right])
        assert merged.get("serve:ingest:rate").values() == [5.0, 5.0]
        # Latencies do not add across shards: quantile series take max.
        assert merged.get("repro_latency_us:p95").values() == [70.0]
        assert merged.get("only:left").values() == [5.0]

    def test_sparkline(self):
        assert sparkline([]) == ""
        assert sparkline([1.0, 1.0, 1.0]) == "▁▁▁"
        line = sparkline([0.0, 0.5, 1.0])
        assert line[0] == "▁" and line[-1] == "█" and len(line) == 3
        assert len(sparkline(list(map(float, range(100))), width=24)) == 24


class TestRegistrySampler:
    def test_counter_first_scrape_is_baseline(self):
        registry = obs.MetricsRegistry()
        family = registry.counter("repro_t_total")
        family.labels().inc(10)
        store = RingStore()
        sampler = RegistrySampler(store)
        sampler.sample(registry, 1)
        family.labels().inc(3)
        sampler.sample(registry, 2)
        # Pre-monitoring totals never masquerade as a burst.
        assert store.get("repro_t_total:rate").values() == [0.0, 3.0]

    def test_labeled_series_names_are_stable(self):
        registry = obs.MetricsRegistry()
        registry.gauge("repro_g", labels=("b", "a")).labels(b="2", a="1").set(7.0)
        store = RingStore()
        RegistrySampler(store).sample(registry, 1)
        assert store.names() == ["repro_g{a=1,b=2}"]

    def test_histogram_digest(self):
        registry = obs.MetricsRegistry()
        family = registry.histogram("repro_h_us", buckets=(1.0, 10.0))
        for value in (0.5, 0.5, 12.0):
            family.labels().observe(value)
        store = RingStore()
        RegistrySampler(store).sample(registry, 1)
        assert store.get("repro_h_us:rate").values() == [0.0]
        assert store.get("repro_h_us:p50").last() == pytest.approx(0.75)
        # The +Inf bucket reports the observed max, not infinity.
        assert store.get("repro_h_us:p99").last() == pytest.approx(12.0)


class TestSLOEngine:
    def test_spec_validation(self):
        with pytest.raises(ObsError):
            SLOSpec(name="", target=0.5)
        with pytest.raises(ObsError):
            SLOSpec(name="x", target=1.5)
        with pytest.raises(ObsError):
            SLOSpec(name="x", target=0.5, short_window=5, long_window=3)
        with pytest.raises(ObsError):
            SLOSpec(name="x", target=0.5, burn_factor=0.0)
        with pytest.raises(ObsError):
            SLOEngine((SLOSpec(name="x", target=0.5), SLOSpec(name="x", target=0.6)))

    def test_first_observation_is_baseline(self):
        engine = SLOEngine((SLOSpec(name="goodput", target=0.5),))
        store = RingStore()
        status = engine.observe("goodput", 10.0, 100.0, store, 1)
        assert status.ratio == 1.0  # pre-history is on-target by definition
        status = engine.observe("goodput", 10.0, 100.0, store, 2)
        assert status.ratio == 1.0  # idle window: no charges since last look
        status = engine.observe("goodput", 30.0, 140.0, store, 3)
        assert status.ratio == pytest.approx(0.5)

    def test_unknown_slo_and_bad_totals(self):
        engine = SLOEngine()
        store = RingStore()
        with pytest.raises(ObsError, match="unknown SLO"):
            engine.observe("latency", 1.0, 2.0, store, 1)
        with pytest.raises(ObsError, match="good <= total"):
            engine.observe("goodput", 3.0, 2.0, store, 1)

    def test_burn_uses_nominal_window(self):
        # One on-target tick then one total miss: with a short window of
        # 3 the miss is averaged over the nominal 3 ticks, not the 2
        # held, so a half-filled window cannot page at full burn.
        spec = SLOSpec(name="goodput", target=0.5, short_window=3, long_window=9)
        engine = SLOEngine((spec,))
        store = RingStore()
        engine.observe("goodput", 0.0, 0.0, store, 1)
        engine.observe("goodput", 10.0, 10.0, store, 2)
        status = engine.observe("goodput", 10.0, 20.0, store, 3)
        assert status.ratio == 0.0
        assert status.burn_short == pytest.approx((1.0 / 3) / spec.budget)
        assert not status.burning

    def test_burning_needs_both_windows(self):
        spec = SLOSpec(
            name="goodput", target=0.5, short_window=1, long_window=3, burn_factor=1.0
        )
        engine = SLOEngine((spec,))
        store = RingStore()
        engine.observe("goodput", 0.0, 0.0, store, 1)
        engine.observe("goodput", 0.0, 10.0, store, 2)  # short burns, long not yet
        assert store.get("slo:goodput:burning").last() == 0.0
        engine.observe("goodput", 0.0, 20.0, store, 3)
        status = engine.observe("goodput", 0.0, 30.0, store, 4)
        assert status.burning
        assert store.get("slo:goodput:burning").last() == 1.0
        [row] = engine.status(store)
        assert row.burning and "BURNING" in row.format()


class TestAlertRules:
    def test_rule_validation(self):
        with pytest.raises(ObsError):
            AlertRule(name="", series="s", threshold=0.0)
        with pytest.raises(ObsError):
            AlertRule(name="R", series="s", threshold=0.0, kind="quantile")
        with pytest.raises(ObsError):
            AlertRule(name="R", series="s", threshold=0.0, comparison="near")
        with pytest.raises(ObsError):
            AlertRule(name="R", series="s", threshold=0.0, for_ticks=0)
        with pytest.raises(ObsError):
            AlertEngine(
                [
                    AlertRule(name="R", series="a", threshold=0.0),
                    AlertRule(name="R", series="b", threshold=0.0),
                ]
            )

    def test_builtin_rules_cover_the_fleet_signals(self):
        rules = {rule.name: rule for rule in builtin_rules()}
        assert set(rules) == {
            "CIRCUIT_FLAP",
            "INGEST_SATURATION",
            "QUARANTINE_GROWTH",
            "GOODPUT_COLLAPSE",
            "GOODPUT_BURN",
            "INGEST_BURN",
            "PHASE_DRIFT",
            "CHIP_SDC_SUSPECT",
        }
        assert rules["PHASE_DRIFT"].wildcard
        assert rules["CIRCUIT_FLAP"].severity is AlertSeverity.CRITICAL


class TestAlertEngine:
    RULE = AlertRule(
        name="HOT", series="temp", threshold=1.0, for_ticks=2, clear_ticks=2
    )

    def test_pending_firing_resolved_hysteresis(self):
        engine = AlertEngine([self.RULE])
        store = RingStore()
        store.record("temp", 1, 5.0)
        assert engine.evaluate(store, 1) == []  # pending: for_ticks=2
        store.record("temp", 2, 5.0)
        [fired] = engine.evaluate(store, 2)
        assert (fired.transition, fired.tick) == ("fired", 2)
        store.record("temp", 3, 0.0)
        assert engine.evaluate(store, 3) == []  # clear_ticks=2
        store.record("temp", 4, 5.0)  # breach resets the good streak
        assert engine.evaluate(store, 4) == []
        store.record("temp", 5, 0.0)
        store.record("temp", 6, 0.0)
        engine.evaluate(store, 5)
        [resolved] = engine.evaluate(store, 6)
        assert (resolved.transition, resolved.tick) == ("resolved", 6)
        assert "HOT" in resolved.format() and "resolved" in resolved.format()

    def test_stale_series_counts_as_clear(self):
        engine = AlertEngine(
            [AlertRule(name="HOT", series="temp", threshold=1.0, clear_ticks=1)]
        )
        store = RingStore()
        store.record("temp", 1, 5.0)
        [fired] = engine.evaluate(store, 1)
        assert fired.transition == "fired"
        # No fresh sample at tick 2: a completed job's alert resolves
        # instead of firing forever.
        [resolved] = engine.evaluate(store, 2)
        assert resolved.transition == "resolved"

    def test_wildcard_scopes_one_alert_per_series(self):
        engine = AlertEngine(
            [AlertRule(name="DRIFT", series="drift:*", threshold=0.5, clear_ticks=1)]
        )
        store = RingStore()
        store.record("drift:job-a", 1, 0.9)
        store.record("drift:job-b", 1, 0.1)
        [event] = engine.evaluate(store, 1)
        assert event.scope == "job-a"
        # Healthy scopes are never materialized.
        assert engine.alert("DRIFT", "job-b") is None
        assert engine.alert("DRIFT", "job-a").firing

    def test_absence_rule(self):
        engine = AlertEngine(
            [
                AlertRule(
                    name="SILENT", series="beat", threshold=2.0, kind="absence",
                    clear_ticks=1,
                )
            ]
        )
        store = RingStore()
        assert engine.evaluate(store, 1) == []  # never reported: nothing silent
        store.record("beat", 2, 1.0)
        for tick in (3, 4, 5):
            events = engine.evaluate(store, tick)
        [event] = events
        assert event.transition == "fired" and event.value == 3.0
        store.record("beat", 6, 1.0)
        [resolved] = engine.evaluate(store, 6)
        assert resolved.transition == "resolved"

    def test_ticks_must_increase(self):
        engine = AlertEngine([self.RULE])
        store = RingStore()
        engine.evaluate(store, 3)
        with pytest.raises(ObsError, match="must increase"):
            engine.evaluate(store, 3)

    def test_finish_resolves_residuals_once(self):
        engine = AlertEngine(
            [AlertRule(name="HOT", series="temp", threshold=1.0)]
        )
        store = RingStore()
        store.record("temp", 1, 5.0)
        engine.evaluate(store, 1)
        [resolved] = engine.finish()
        assert resolved.transition == "resolved" and resolved.tick == 2
        assert engine.active() == []

    def test_ack_and_to_dict(self):
        engine = AlertEngine(
            [AlertRule(name="HOT", series="temp", threshold=1.0)]
        )
        store = RingStore()
        store.record("temp", 1, 5.0)
        engine.evaluate(store, 1)
        assert engine.ack("HOT") == 1
        assert engine.ack("HOT") == 0  # already acked
        assert engine.ack("COLD") == 0
        payload = engine.to_dict()
        assert payload["version"] == 1
        assert [event["transition"] for event in payload["events"]] == ["fired"]
        [active] = payload["active"]
        assert active["acked"] is True

    def test_active_orders_critical_first(self):
        engine = AlertEngine(
            [
                AlertRule(name="WARN", series="w", threshold=0.0),
                AlertRule(
                    name="CRIT", series="c", threshold=0.0,
                    severity=AlertSeverity.CRITICAL,
                ),
            ]
        )
        store = RingStore()
        store.record("w", 1, 1.0)
        store.record("c", 1, 1.0)
        engine.evaluate(store, 1)
        assert [alert.rule.name for alert in engine.active()] == ["CRIT", "WARN"]


class _FakeAnalysis:
    """One live phase whose operator totals are ``durations``."""

    def __init__(self, durations, steps_seen=10):
        step = StepStats(step=0)
        for name, duration in durations.items():
            step.observe(name, DeviceKind.TPU, duration)
        phase = LivePhase(phase_id=0)
        phase.fold(step)
        self.phases = {"P0": phase}
        self.steps_seen = steps_seen


class TestDrift:
    def test_mix_distance_properties(self):
        a = {"MatMul": 0.6, "Conv2D": 0.4}
        assert mix_distance(a, a) == 0.0
        assert mix_distance(a, {"Checkpoint": 1.0}) == 1.0
        assert mix_distance({}, a) == 1.0
        assert mix_distance(a, {"MatMul": 0.4, "Conv2D": 0.6}) == pytest.approx(0.2)

    def test_mix_shares_and_fingerprint(self):
        window = {"MatMul": 30.0, "Conv2D": 10.0}
        shares = mix_shares(window)
        assert shares["MatMul"] == pytest.approx(0.75)
        assert mix_shares({}) == {}
        # Ties break by name: deterministic regardless of dict order.
        tied = {"b": 1.0, "a": 1.0, "c": 1.0}
        assert window_fingerprint(tied, top_k=2) == frozenset({"a", "b"})

    def test_band_validation(self):
        with pytest.raises(ObsError):
            DriftBand(fire_distance=0.0)
        with pytest.raises(ObsError):
            DriftBand(top_k=0)

    def test_self_baseline_detects_excursion_and_recovery(self):
        detector = PhaseDriftDetector(band=DriftBand(min_steps=1))
        # Too young: below min_steps nothing is measured.
        assert detector.observe("job", _FakeAnalysis({"MatMul": 1.0}, steps_seen=0)) is None
        # First qualifying look only primes the delta accumulator.
        assert detector.observe("job", _FakeAnalysis({"MatMul": 100.0})) is None
        # First full window pins the self-baseline: distance 0.
        assert detector.observe("job", _FakeAnalysis({"MatMul": 200.0})) == 0.0
        assert detector.baseline("job") == {"MatMul": 1.0}
        # A checkpoint excursion dominates the next window.
        drifted = detector.observe(
            "job", _FakeAnalysis({"MatMul": 210.0, "Checkpoint": 90.0})
        )
        assert drifted == pytest.approx(0.9)
        # Idle window holds the previous distance instead of inventing one.
        assert detector.observe(
            "job", _FakeAnalysis({"MatMul": 210.0, "Checkpoint": 90.0})
        ) == pytest.approx(0.9)
        # Back to the training mix: the distance collapses again.
        recovered = detector.observe(
            "job", _FakeAnalysis({"MatMul": 310.0, "Checkpoint": 90.0})
        )
        assert recovered == 0.0
        totals = operator_totals(_FakeAnalysis({"MatMul": 1.0}))
        assert totals == {"MatMul": 1.0}

    def test_forget_drops_job_state(self):
        detector = PhaseDriftDetector(band=DriftBand(min_steps=1))
        detector.observe("job", _FakeAnalysis({"MatMul": 100.0}))
        detector.observe("job", _FakeAnalysis({"MatMul": 200.0}))
        detector.forget("job")
        assert detector.baseline("job") is None
        assert detector.last_distance == {}
        # After forgetting, the next look primes again.
        assert detector.observe("job", _FakeAnalysis({"MatMul": 300.0})) is None

    def test_knowledge_base_baseline_wins(self):
        class _Nearest:
            similarity = 0.75

        class _FakeKB:
            def __len__(self):
                return 3

            def nearest(self, fingerprint):
                return _Nearest()

        detector = PhaseDriftDetector(knowledge=_FakeKB(), band=DriftBand(min_steps=1))
        detector.observe("job", _FakeAnalysis({"MatMul": 100.0}))
        distance = detector.observe("job", _FakeAnalysis({"MatMul": 200.0}))
        # 1 - similarity, not the self-baseline 0.0.
        assert distance == pytest.approx(0.25)


class TestHealthOptions:
    def test_validation(self):
        with pytest.raises(ObsError):
            HealthOptions(capacity=0)
        with pytest.raises(ObsError):
            HealthOptions(sample_every=0)

    def test_monitor_rejects_double_finish_observe(self):
        monitor = HealthMonitor()
        assert monitor.finish() == []
        assert monitor.finish() == []  # idempotent
        with pytest.raises(ObsError, match="already finished"):
            monitor.observe(object())

    def test_subsampling_skips_offbeat_ticks(self):
        monitor = HealthMonitor(HealthOptions(sample_every=4))
        offset = monitor._offset % 4

        class _Silent:
            class metrics:
                records_submitted = 0
                records_ingested = 0
                records_dropped = 0
                records_quarantined = 0
                steps_assembled = 0
                jobs_stalled = 0

        for tick in range(1, 9):
            monitor.observe(_Silent(), tick)
        assert monitor.samples == sum(1 for t in range(1, 9) if t % 4 == offset)


def _tenant_record(index, scale, excursion=False, steps=2):
    """Record ``index`` of one synthetic tenant: ``steps`` whole steps.

    An excursion record swaps in a checkpoint-heavy mix at lower MXU
    throughput, so both detectors read non-zero values.
    """
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


class _HiddenJobs:
    """A fleet view that shows the monitor no tenants: no change feed."""

    change_feed = None

    def __init__(self, service):
        self._service = service

    def __getattr__(self, name):
        return getattr(self._service, name)

    def live_analyses(self):
        return []


class TestIdleTenantSampling:
    def test_idle_tenants_repeat_their_last_reading(self):
        # 200 tenants, a few sending per tick. The reference calls both
        # detectors on every live tenant every tick; the monitor calls
        # them only for tenants that folded a step (or changed chip)
        # since its previous sample, and its rings stay identical.
        rng = np.random.default_rng(7)
        service = FleetService()
        jobs = [service.register("synthetic").job_id for _ in range(200)]
        for index, job in enumerate(jobs[:150]):
            service.assign_chip(job, f"chip-{index % 10}")
        scales = rng.uniform(0.5, 2.0, size=len(jobs))
        sent = [0] * len(jobs)
        monitor, reference = HealthMonitor(), HealthMonitor()
        drift, sdc = PhaseDriftDetector(), UtilizationAnomalyDetector()
        called: list[str] = []
        observe = monitor.drift.observe

        def counted_observe(job, analysis):
            called.append(job)
            return observe(job, analysis)

        monitor.drift.observe = counted_observe
        # Tenants 150-159 warm up early, go idle, gain a chip of their
        # own at tick 15 and send again after it.
        late = range(150, 160)
        for tick in range(1, 31):
            if tick == 15:
                for tenant in late:
                    service.assign_chip(jobs[tenant], f"chip-late-{tenant % 2}")
            if tick == 20:
                for job in jobs[30:40]:
                    service.complete(job)
                for job in jobs[190:]:
                    service.evict(job)
            live = {job for job, _ in service.live_analyses()}
            scheduled = late if 2 <= tick <= 5 or (tick > 15 and tick % 3 == 0) else ()
            picked = [*rng.choice(40, 6, replace=False), *rng.integers(40, 200, 2)]
            senders = [
                tenant
                for tenant in dict.fromkeys([*picked, *scheduled])
                if jobs[tenant] in live
            ]
            for tenant in senders:
                excursion = tenant % 7 == 0 and sent[tenant] % 4 == 3
                service.submit(
                    jobs[tenant],
                    _tenant_record(sent[tenant], float(scales[tenant]), excursion),
                )
                sent[tenant] += 1
            service.pump()
            called.clear()
            monitor.observe(service, tick)
            reference.observe(_HiddenJobs(service), tick)
            chips = service.chip_assignments()
            chip_drops: dict[str, float] = {}
            for job, analysis in service.live_analyses():
                distance = drift.observe(job, analysis)
                if distance is not None:
                    reference.rings.record(f"drift:{job}", tick, distance)
                chip = chips.get(job)
                if chip is None:
                    continue
                drop = sdc.observe(job, analysis)
                if drop is not None:
                    chip_drops[chip] = max(chip_drops.get(chip, 0.0), drop)
            for chip, drop in chip_drops.items():
                reference.rings.record(f"chip_sdc:{chip}", tick, drop)
            assert monitor.rings.to_dict() == reference.rings.to_dict()
            if tick > 1 and tick != 15:
                assert set(called) <= {jobs[tenant] for tenant in senders}
        drifts = monitor.rings.match("drift:")
        assert len(drifts) > 20
        assert any(monitor.rings.get(name).last() > 0.0 for name in drifts)
        assert monitor.rings.get("chip_sdc:chip-late-0") is not None

    def test_finished_tenants_are_forgotten(self):
        service = FleetService()
        jobs = [service.register("synthetic").job_id for _ in range(50)]
        for index, job in enumerate(jobs):
            service.assign_chip(job, f"chip-{index % 5}")
        monitor = HealthMonitor()
        for tick in range(1, 5):
            for job in jobs:
                service.submit(job, _tenant_record(tick - 1, 1.0, excursion=tick == 4))
            service.pump()
            monitor.observe(service, tick)
        assert len(monitor.drift.last_distance) == len(monitor.sdc.last_drop) == 50
        for job in jobs:
            service.complete(job)
        assert service.live_analyses() == []
        monitor.observe(service, 5)
        assert monitor.drift._totals == {} and monitor.drift.last_distance == {}
        assert monitor.sdc._previous == {} and monitor.sdc.last_drop == {}
        assert all(monitor.drift.baseline(job) is None for job in jobs)
        assert all(monitor.sdc.baseline(job) is None for job in jobs)
        # The rings keep the finished tenants' history.
        assert len(monitor.rings.match("drift:")) == 50


@pytest.fixture(scope="module")
def burst_run():
    """One faulted, monitored fleet run (the ISSUE acceptance scenario)."""
    from repro.faults import load_plan

    monitor, result = _run_monitored(
        shards=2, fault_plan=load_plan(BURST_PLAN), overrides=BURST_OVERRIDES
    )
    return monitor, result


class TestHealthMonitorFleet:
    def test_healthy_run_emits_no_alerts(self):
        monitor, result = _run_monitored(shards=2)
        assert monitor.engine.events == []
        assert monitor.engine.active() == []
        assert monitor.samples == result.rounds
        # Telemetry still flowed: rings hold steps/ingest series.
        assert monitor.rings.get("serve:steps_assembled:rate").last() is not None
        assert sum(monitor.rings.get("serve:records_ingested:rate").values()) > 0

    def test_faulted_run_fires_and_resolves_the_core_rules(self, burst_run):
        monitor, _ = burst_run
        events = monitor.engine.events
        assert events, "the burst scenario must produce alert transitions"
        for rule in ("CIRCUIT_FLAP", "GOODPUT_BURN", "PHASE_DRIFT"):
            transitions = [e.transition for e in events if e.rule == rule]
            assert "fired" in transitions, f"{rule} never fired"
            assert "resolved" in transitions, f"{rule} never resolved"
        # Nothing is left dangling after finish().
        assert monitor.engine.active() == []
        fired = sum(1 for e in events if e.transition == "fired")
        resolved = sum(1 for e in events if e.transition == "resolved")
        assert fired == resolved

    def test_drift_alerts_are_per_job_scoped(self, burst_run):
        monitor, _ = burst_run
        scopes = {e.scope for e in monitor.engine.events if e.rule == "PHASE_DRIFT"}
        assert scopes, "PHASE_DRIFT produced no scopes"
        assert all(scope != "fleet" for scope in scopes)
        for scope in scopes:
            assert monitor.rings.get(f"drift:{scope}") is not None

    def test_alert_log_is_shard_invariant_and_repeatable(self, burst_run):
        from repro.faults import load_plan

        monitor, _ = burst_run
        reference = _event_log(monitor)
        for shards in (1, 2):
            again, _ = _run_monitored(
                shards=shards,
                fault_plan=load_plan(BURST_PLAN),
                overrides=BURST_OVERRIDES,
            )
            assert _event_log(again) == reference, f"log diverged at {shards} shard(s)"
            # The alert-only dump is deliberately ring-free, so the whole
            # payload must be identical at any shard count too.
            assert again.alerts_dict() == monitor.alerts_dict()

    def test_dashboard_renders_all_sections(self, burst_run):
        monitor, _ = burst_run
        text = "\n".join(monitor.dashboard())
        assert "== fleet health @ tick" in text
        assert "-- shards --" in text
        assert "-- rings --" in text
        assert "-- drift --" in text
        assert "-- slo --" in text
        assert "goodput" in text and "ingest" in text
        assert "-- active alerts (0) --" in text

    def test_health_dump_round_trips_through_inspect(self, burst_run, tmp_path):
        monitor, _ = burst_run
        path = tmp_path / "health.json"
        path.write_text(json.dumps(monitor.to_dict()), encoding="utf-8")
        payload = obs.load_health(path)
        assert payload["tick"] == monitor.tick
        lines = obs.summarize_health(path)
        assert "health dump @ tick" in lines[0]
        assert any("alerts:" in line for line in lines)
        # The generic dispatcher recognizes the shape.
        assert obs.summarize(path) == lines

    def test_alert_dump_round_trips_through_inspect(self, burst_run, tmp_path):
        monitor, _ = burst_run
        path = tmp_path / "alerts.json"
        path.write_text(json.dumps(monitor.alerts_dict()), encoding="utf-8")
        payload = obs.load_alerts(path)
        assert len(payload["events"]) == len(monitor.engine.events)
        lines = obs.summarize_alerts(path)
        assert "alert dump" in lines[0]
        assert obs.summarize(path) == lines

    def test_health_metrics_account_for_the_run(self, burst_run):
        monitor, _ = burst_run
        registry = obs.default_registry()
        samples = registry.get("repro_obs_health_samples_total")
        assert samples is not None
        assert sum(child.value for child in samples.children()) >= monitor.samples
        events_family = registry.get("repro_obs_health_alert_events_total")
        labelled = {
            (child.label_values["rule"], child.label_values["transition"])
            for child in events_family.children()
        }
        assert ("CIRCUIT_FLAP", "fired") in labelled


class TestInspectHealthErrors:
    def test_torn_ring_dump_rejected(self, tmp_path):
        path = tmp_path / "health.json"
        payload = {
            "rings": {
                "capacity": 4,
                "series": {"x": {"capacity": 4, "ticks": [1, 2], "values": [1.0]}},
            }
        }
        path.write_text(json.dumps(payload), encoding="utf-8")
        with pytest.raises(ObsError, match="malformed ring dump"):
            obs.load_health(path)

    def test_malformed_shard_rings_rejected(self, tmp_path):
        path = tmp_path / "health.json"
        payload = {
            "rings": {"capacity": 4, "series": {}},
            "shards": {"shard-0": {"capacity": 0, "series": {}}},
        }
        path.write_text(json.dumps(payload), encoding="utf-8")
        with pytest.raises(ObsError, match="malformed ring dump"):
            obs.load_health(path)

    def test_not_a_health_dump(self, tmp_path):
        path = tmp_path / "other.json"
        path.write_text("{}", encoding="utf-8")
        with pytest.raises(ObsError, match="no 'rings'"):
            obs.load_health(path)

    def test_alert_dump_missing_keys_rejected(self, tmp_path):
        path = tmp_path / "alerts.json"
        path.write_text(json.dumps({"events": []}), encoding="utf-8")
        with pytest.raises(ObsError, match="not an alert dump"):
            obs.load_alerts(path)

    def test_alert_event_bad_transition_rejected(self, tmp_path):
        path = tmp_path / "alerts.json"
        payload = {
            "rules": [],
            "events": [
                {"tick": 1, "rule": "R", "scope": "fleet", "transition": "paged"}
            ],
        }
        path.write_text(json.dumps(payload), encoding="utf-8")
        with pytest.raises(ObsError, match="bad transition"):
            obs.load_alerts(path)

    @pytest.mark.parametrize("tick", [None, [1], {"t": 1}, "soon"])
    def test_alert_event_bad_tick_rejected(self, tmp_path, tick):
        path = tmp_path / "alerts.json"
        payload = {
            "rules": [],
            "events": [{"tick": tick, "rule": "R", "scope": "fleet", "transition": "fired"}],
        }
        path.write_text(json.dumps(payload), encoding="utf-8")
        with pytest.raises(ObsError, match="bad tick"):
            obs.summarize(path)

    @pytest.mark.parametrize("evicted", ["3", [1], -1, float("inf")])
    def test_ring_bad_evicted_count_rejected(self, tmp_path, evicted):
        path = tmp_path / "health.json"
        ring = {"capacity": 4, "evicted": evicted, "ticks": [1], "values": [2.0]}
        payload = {"rings": {"capacity": 4, "series": {"s": ring}}}
        path.write_text(json.dumps(payload), encoding="utf-8")
        with pytest.raises(ObsError, match="evicted"):
            obs.summarize(path)

    def test_ring_value_past_float_range_rejected(self, tmp_path):
        path = tmp_path / "health.json"
        ring = {"capacity": 4, "ticks": [1], "values": [10**400]}
        path.write_text(json.dumps({"rings": {"capacity": 4, "series": {"s": ring}}}))
        with pytest.raises(ObsError, match="float range"):
            obs.load_health(path)

    def test_alert_event_missing_fields_rejected(self, tmp_path):
        path = tmp_path / "alerts.json"
        payload = {"rules": [], "events": [{"tick": 1, "rule": "R"}]}
        path.write_text(json.dumps(payload), encoding="utf-8")
        with pytest.raises(ObsError, match="malformed alert event"):
            obs.load_alerts(path)
