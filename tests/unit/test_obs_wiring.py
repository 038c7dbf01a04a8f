"""Instrumentation wiring: toolchain spans/metrics from real subsystem runs.

The default tracer and registry are process-global and shared with other
tests, so every assertion here works on *deltas* — spans recorded after
a marker index, counter values captured before and after an action.
"""

import importlib

import pytest

from repro import obs
from repro.core.analyzer import TPUPointAnalyzer
from repro.core.analyzer.kmeans import DEFAULT_N_INIT
from repro.core.profiler import ProfilerOptions, TPUPointProfiler
from repro.core.profiler.serialize import load_records, save_records
from repro.serve import FleetService, FleetServiceOptions
from repro.serve.metrics import ServiceMetrics

# The package re-exports the function ``kmeans`` under the module's name.
kmeans_mod = importlib.import_module("repro.core.analyzer.kmeans")


def _spans_after(marker):
    return obs.default_tracer().spans()[marker:]


@pytest.fixture
def span_marker():
    # The default tracer starts disabled; record spans for this test only.
    previous = obs.set_tracing_enabled(True)
    yield len(obs.default_tracer().spans())
    obs.set_tracing_enabled(previous)


class TestProfilerWiring:
    def test_overhead_fraction_and_request_counters(self, tiny_estimator, span_marker):
        gauge = obs.gauge("repro_profiler_overhead_fraction").labels()
        requests = obs.counter("repro_profiler_requests_total").labels()
        kept = obs.counter("repro_profiler_records_kept_total").labels()
        requests_before, kept_before = requests.value, kept.value

        profiler = TPUPointProfiler(
            tiny_estimator, ProfilerOptions(request_interval_ms=200.0)
        )
        profiler.start(analyzer=True)
        tiny_estimator.train()
        records = profiler.stop()

        assert requests.value > requests_before
        assert kept.value - kept_before == len(records)
        # The overhead fraction is a real measurement in (0, 1].
        assert 0.0 < gauge.value <= 1.0
        assert any(s.name == "profiler.stop" for s in _spans_after(span_marker))

    def test_request_latency_histogram_grows(self, tiny_estimator):
        histogram = obs.histogram("repro_profiler_request_seconds").labels()
        before = histogram.count
        profiler = TPUPointProfiler(
            tiny_estimator, ProfilerOptions(request_interval_ms=200.0)
        )
        profiler.start(analyzer=True)
        tiny_estimator.train()
        profiler.stop()
        assert histogram.count > before


class TestAnalyzerWiring:
    def test_kmeans_sweep_emits_nested_fit_spans(self, tiny_run, span_marker, monkeypatch):
        _, _, records = tiny_run
        analyzer = TPUPointAnalyzer(records)
        distance_calls = []
        kernel = kmeans_mod.pairwise_sq_distances

        def counting(matrix, centers, **kwargs):
            distance_calls.append(centers.shape[0])
            return kernel(matrix, centers, **kwargs)

        monkeypatch.setattr(kmeans_mod, "pairwise_sq_distances", counting)
        analyzer.kmeans_sweep(range(1, 5))
        spans = _spans_after(span_marker)
        sweep = next(s for s in spans if s.name == "analyzer.kmeans_sweep")
        fits = [s for s in spans if s.name == "analyzer.kmeans_fit"]
        assert len(fits) == 4
        assert all(fit.parent_id == sweep.span_id for fit in fits)
        assert sorted(fit.attributes["k"] for fit in fits) == [1, 2, 3, 4]
        assert sweep.attributes["k_count"] == 4
        # Each k's rounds are its stacked assignment calls; every restart
        # then takes one final assignment of its own.
        assert all(fit.attributes["rounds"] >= fit.attributes["iterations"] for fit in fits)
        stacked = sum(fit.attributes["rounds"] for fit in fits)
        assert len(distance_calls) == stacked + DEFAULT_N_INIT * len(fits)
        assert max(distance_calls) == DEFAULT_N_INIT * 4  # k = 4, all restarts in one call
        # The sweep's 4 x (1 + 2 + 3 + 4) = 40 picks touch at most 40 rows.
        assert 1 <= sweep.attributes["seed_rows"] <= min(sweep.attributes["steps"], 40)

    def test_per_algorithm_duration_histograms(self, tiny_run):
        _, _, records = tiny_run
        family = obs.histogram(
            "repro_analyzer_duration_seconds", labels=("algorithm",)
        )
        before = {
            algo: family.labels(algorithm=algo).count for algo in ("ols", "kmeans")
        }
        analyzer = TPUPointAnalyzer(records)
        analyzer.analyze("ols")
        analyzer.analyze("kmeans", k=2)
        for algo in ("ols", "kmeans"):
            assert family.labels(algorithm=algo).count == before[algo] + 1

    def test_ols_phase_span_attributes(self, tiny_run, span_marker):
        _, _, records = tiny_run
        TPUPointAnalyzer(records).ols_phases()
        spans = _spans_after(span_marker)
        ols = next(s for s in spans if s.name == "analyzer.ols_phases")
        assert ols.attributes["phases"] >= 1
        merge = next(s for s in spans if s.name == "analyzer.merge_records")
        assert merge.parent_id == ols.span_id  # lazy merge nests under the caller


class TestRecordStoreWiring:
    def test_store_round_trip_is_one_span_per_call(self, tiny_run, span_marker, tmp_path):
        _, _, records = tiny_run
        save_records(records, tmp_path / "store")
        loaded = load_records(tmp_path / "store")
        spans = _spans_after(span_marker)
        assert [s.name for s in spans] == ["records.save", "journal.recover", "records.load"]
        save, recover, load = spans
        assert save.attributes["records"] == len(records)
        assert save.attributes["bytes"] == (tmp_path / "store" / "records.bin").stat().st_size
        assert recover.parent_id == load.span_id
        assert recover.attributes["blocks"] == len(records)
        assert recover.attributes["bytes"] == save.attributes["bytes"]
        assert (recover.attributes["corrupt"], recover.attributes["torn"]) == (0, 0)
        assert load.attributes["records"] == len(loaded)


class TestServiceMetricsOnRegistry:
    def test_attribute_api_preserved(self):
        metrics = ServiceMetrics()
        metrics.record_job("registered", 2)
        metrics.record_submit(10)
        metrics.record_drop("job/0", 3)
        assert metrics.jobs_registered == 2
        assert metrics.records_dropped == 3
        assert metrics.dropped_by_job == {"job/0": 3}
        assert metrics.drop_fraction == pytest.approx(3 / 10)
        with metrics.time_query():
            pass
        assert metrics.queries_served == 1
        assert metrics.query_seconds_total >= 0.0
        assert metrics.query_seconds_max >= 0.0
        assert metrics.mean_query_seconds >= 0.0
        assert metrics.format()
        # Reads only: counting goes through the record_* methods.
        for name in ("jobs_registered", "records_ingested", "steps_assembled"):
            with pytest.raises(AttributeError):
                setattr(metrics, name, 99)
        assert metrics.jobs_registered == 2

    def test_instances_do_not_share_counts(self):
        first, second = ServiceMetrics(), ServiceMetrics()
        first.record_job("registered", 5)
        assert second.jobs_registered == 0

    def test_eviction_folds_per_job_drops(self):
        service = FleetService(options=FleetServiceOptions(queue_capacity=64))
        info = service.register("tiny")
        service.metrics.record_drop(info.job_id, 4)
        assert service.metrics.dropped_by_job == {info.job_id: 4}
        service.evict(info.job_id)
        # The per-job key is gone; the count lives on in the bounded total.
        assert service.metrics.dropped_by_job == {}
        assert service.metrics.evicted_drops == 4
        assert service.metrics.records_dropped == 4
        assert service.metrics.jobs_evicted == 1

    def test_exposition_matches_to_dict(self):
        metrics = ServiceMetrics()
        metrics.record_job("registered", 3)
        metrics.record_submit(7)
        for _ in range(6):
            metrics.record_ingest()
        metrics.record_drop("a/0", 1)
        metrics.record_steps(12)
        snap = metrics.to_dict()
        samples = obs.parse_prometheus(metrics.registry.render())
        jobs = dict(
            (labels["event"], value)
            for labels, value in samples["repro_serve_jobs_total"]
        )
        records = dict(
            (labels["event"], value)
            for labels, value in samples["repro_serve_records_total"]
        )
        assert jobs["registered"] == snap["jobs_registered"]
        assert records["submitted"] == snap["records_submitted"]
        assert records["ingested"] == snap["records_ingested"]
        assert records["dropped"] == snap["records_dropped"]
        assert samples["repro_serve_steps_assembled_total"][0][1] == snap[
            "steps_assembled"
        ]
        assert samples["repro_serve_job_dropped_records_total"] == [
            ({"job": "a/0"}, 1.0)
        ]

    def test_format_derives_from_to_dict(self):
        metrics = ServiceMetrics()
        metrics.record_job("registered")
        lines = metrics.format()
        assert any("1/0/0" in line for line in lines)
        assert any("evicted-job dropped records" in line for line in lines)

    def test_fresh_service_exposes_zero_samples(self):
        samples = obs.parse_prometheus(ServiceMetrics().registry.render())
        assert ({"event": "registered"}, 0.0) in samples["repro_serve_jobs_total"]
        assert ({"event": "dropped"}, 0.0) in samples["repro_serve_records_total"]


class TestCliObsFlags:
    def test_profile_dumps_trace_and_metrics(self, tmp_path, capsys):
        from repro.cli import main as cli_main

        trace_path = tmp_path / "toolchain.json"
        metrics_path = tmp_path / "toolchain.prom"
        assert (
            cli_main(
                [
                    "profile",
                    "dcgan-mnist",
                    "--trace-out",
                    str(trace_path),
                    "--metrics-out",
                    str(metrics_path),
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "wrote toolchain trace" in out
        assert "wrote toolchain metrics" in out

        events = obs.load_trace(trace_path)
        names = {e["name"] for e in events if e.get("ph") == "X"}
        assert "profiler.stop" in names
        samples = obs.parse_prometheus(metrics_path.read_text())
        assert "repro_profiler_overhead_fraction" in samples
        assert "repro_analyzer_duration_seconds_bucket" in samples

        assert cli_main(["obs", str(trace_path), str(metrics_path)]) == 0
        out = capsys.readouterr().out
        assert "chrome://tracing" in out

    def test_profile_trace_has_one_run_steps_span_per_call(self, tmp_path, capsys, monkeypatch):
        from repro.cli import main as cli_main
        from repro.runtime.session import TrainingSession

        calls = []
        sessions = []
        run_steps = TrainingSession.run_steps

        def counted(session, count):
            calls.append(count)
            sessions.append(session)
            return run_steps(session, count)

        monkeypatch.setattr(TrainingSession, "run_steps", counted)
        trace_path = tmp_path / "toolchain.json"
        # The dump holds every span the process kept; this run's are new.
        earlier = {span.span_id for span in obs.default_tracer().spans()}
        assert cli_main(["profile", "dcgan-mnist", "--trace-out", str(trace_path)]) == 0
        capsys.readouterr()
        spans = [
            event
            for event in obs.load_trace(trace_path)
            if event.get("ph") == "X"
            and event["name"] == "runtime.run_steps"
            and event["args"]["span_id"] not in earlier
        ]
        assert len(spans) == len(calls) >= 1
        assert [span["args"]["requested"] for span in spans] == calls
        (session,) = set(sessions)
        assert sum(span["args"]["steps"] for span in spans) == session.global_step > 0

    def test_obs_command_rejects_garbage(self, tmp_path, capsys):
        from repro.cli import main as cli_main

        bad = tmp_path / "bad.prom"
        bad.write_text("{{{ not exposition\n")
        assert cli_main(["obs", str(bad)]) == 1
        assert "error:" in capsys.readouterr().err


class TestHealthWiring:
    def test_health_trace_has_one_span_per_sample_counting_senders(self, tmp_path, capsys):
        from repro.cli import main as cli_main

        trace_path = tmp_path / "health.json"
        assert cli_main(["health", "--jobs", "6", "--trace-out", str(trace_path)]) == 0
        header = [
            line for line in capsys.readouterr().out.splitlines()
            if line.startswith("== fleet health @ tick")
        ][-1]
        samples = int(header.split("(")[1].split()[0])
        events = sorted(
            (e for e in obs.load_trace(trace_path) if e.get("ph") == "X"),
            key=lambda e: e["ts"],
        )
        observed = [e for e in events if e["name"] == "health.observe"]
        assert len(observed) == samples > 2
        assert observed[0]["args"]["tenants"] == 6  # the first sample walks everyone
        # Later samples look at the tenants that folded steps (each
        # global pump's drained tenants) or completed since the previous one.
        since = 0
        for event in events[events.index(observed[0]) + 1:]:
            if event["name"] == "serve.pump" and event["args"]["job"] == "all":
                since += event["args"]["tenants"]
            elif event["name"] == "serve.complete":
                since += 1
            elif event["name"] == "health.observe":
                assert event["args"]["tenants"] == since, event["args"]
                assert event["args"]["points"] > 0 and event["args"]["scopes"] > 0
                since = 0

    def test_a_sample_looks_at_senders_not_live_tenants(self, span_marker):
        from repro.obs.health import HealthMonitor
        from repro.core.profiler.record import ProfileRecord, StepStats
        from repro.runtime.events import DeviceKind

        service = FleetService()
        jobs = [service.register("synthetic").job_id for _ in range(40)]
        monitor = HealthMonitor()
        for tick in range(1, 6):
            for job in jobs[:3]:
                record = ProfileRecord(index=tick, window_start_us=0.0, window_end_us=1.0)
                for number in (2 * tick, 2 * tick + 1):
                    step = StepStats(step=number)
                    step.observe("MatMul", DeviceKind.TPU, 10.0)
                    step.start_us, step.end_us = number * 100.0, number * 100.0 + 50.0
                    record.steps[number] = step
                service.submit(job, record)
            service.pump()
            monitor.observe(service, tick)
        tenants = [
            span.attributes["tenants"]
            for span in _spans_after(span_marker)
            if span.name == "health.observe"
        ]
        assert tenants == [40, 3, 3, 3, 3]
