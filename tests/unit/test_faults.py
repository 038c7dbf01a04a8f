"""Deterministic fault injection, the resilient client, and the journal."""

import json

import pytest

from repro import obs
from repro.core.profiler import ProfilerOptions, TPUPointProfiler
from repro.core.profiler.journal import RecordJournal, recover_journal
from repro.core.profiler.record import ProfileRecord, StepStats
from repro.core.profiler.recorder import RecordingThread
from repro.errors import (
    CircuitOpenError,
    ConfigurationError,
    FaultInjectionError,
    JournalError,
    ProfileServiceError,
)
from repro.faults import (
    FaultKind,
    FaultPlan,
    FaultSpec,
    FaultTarget,
    FaultyProfileService,
    RecordTransit,
    load_plan,
    save_plan,
)
from repro.runtime.events import DeviceKind, EventLog, StepKind, StepMetadata, TraceEvent
from repro.runtime.resilience import (
    BreakerState,
    CircuitBreaker,
    ResilientProfileStub,
    RetryPolicy,
    client_from_config,
)
from repro.runtime.rpc import ProfileRequest, ProfileService


def _log_with_events(count=10, spacing_us=1000.0):
    log = EventLog()
    for i in range(count):
        log.append_event(
            TraceEvent("op", DeviceKind.TPU, step=i, start_us=i * spacing_us, duration_us=500.0)
        )
        log.append_step(
            StepMetadata(
                step=i,
                kind=StepKind.TRAIN,
                start_us=i * spacing_us,
                end_us=i * spacing_us + 500.0,
                tpu_idle_us=0.0,
                mxu_flops=1.0,
            )
        )
    return log


def _record(index=0, steps=(), start=0.0, end=1000.0):
    record = ProfileRecord(index=index, window_start_us=start, window_end_us=end)
    for number in steps:
        step = StepStats(step=number)
        step.observe("MatMul", DeviceKind.TPU, 10.0)
        record.steps[number] = step
    return record


def _metric_value(name, **labels):
    family = obs.default_registry().get(name)
    if family is None:
        return 0.0
    return family.labels(**labels).value


class TestFaultSpec:
    def test_needs_a_schedule(self):
        with pytest.raises(ConfigurationError):
            FaultSpec(kind=FaultKind.ERROR, target=FaultTarget.PROFILE)

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            FaultSpec(kind=FaultKind.ERROR, target=FaultTarget.PROFILE, probability=1.5)
        with pytest.raises(ConfigurationError):
            FaultSpec(kind=FaultKind.ERROR, target=FaultTarget.PROFILE, every_nth=0)
        with pytest.raises(ConfigurationError):
            FaultSpec(kind=FaultKind.ERROR, target=FaultTarget.PROFILE, nth=(0,))
        with pytest.raises(ConfigurationError):
            FaultSpec(
                kind=FaultKind.ERROR,
                target=FaultTarget.PROFILE,
                nth=(5,),
                first_request=4,
                last_request=2,
            )

    def test_kind_must_match_target(self):
        with pytest.raises(ConfigurationError):
            FaultSpec(kind=FaultKind.CRASH, target=FaultTarget.PROFILE, nth=(1,))
        with pytest.raises(ConfigurationError):
            FaultSpec(kind=FaultKind.ERROR, target=FaultTarget.RECORDER, nth=(1,))

    def test_nth_and_every_nth_schedules(self):
        spec = FaultSpec(kind=FaultKind.ERROR, target=FaultTarget.PROFILE, nth=(3, 7))
        hits = [i for i in range(1, 11) if spec.matches(i, rng=None)]
        assert hits == [3, 7]
        spec = FaultSpec(kind=FaultKind.ERROR, target=FaultTarget.PROFILE, every_nth=4)
        hits = [i for i in range(1, 13) if spec.matches(i, rng=None)]
        assert hits == [4, 8, 12]

    def test_request_range_bounds_schedule(self):
        spec = FaultSpec(
            kind=FaultKind.ERROR,
            target=FaultTarget.PROFILE,
            every_nth=1,
            first_request=3,
            last_request=5,
        )
        hits = [i for i in range(1, 10) if spec.matches(i, rng=None)]
        assert hits == [3, 4, 5]

    def test_default_targets_from_dict(self):
        assert FaultSpec.from_dict({"kind": "corrupt", "nth": [1]}).target is FaultTarget.INGEST
        assert FaultSpec.from_dict({"kind": "crash", "nth": [1]}).target is FaultTarget.RECORDER
        assert FaultSpec.from_dict({"kind": "error", "nth": [1]}).target is FaultTarget.PROFILE

    def test_unknown_fields_rejected(self):
        with pytest.raises(ConfigurationError):
            FaultSpec.from_dict({"kind": "error", "nth": [1], "wat": True})


class TestFaultPlan:
    def test_round_trip(self, tmp_path):
        plan = FaultPlan.from_dict(
            {
                "seed": 42,
                "faults": [
                    {"kind": "error", "probability": 0.25},
                    {"kind": "drop", "nth": [2]},
                ],
                "client": {"max_attempts": 3},
            }
        )
        path = save_plan(plan, tmp_path / "plan.json")
        assert load_plan(path) == plan

    def test_lossless_classification(self):
        lossless = FaultPlan.from_dict(
            {"faults": [{"kind": "error", "nth": [1]}, {"kind": "empty", "nth": [2]}]}
        )
        assert lossless.lossless
        lossy = FaultPlan.from_dict({"faults": [{"kind": "drop", "nth": [1]}]})
        assert not lossy.lossless

    def test_load_errors(self, tmp_path):
        with pytest.raises(ConfigurationError):
            load_plan(tmp_path / "missing.json")
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        with pytest.raises(ConfigurationError):
            load_plan(bad)

    @pytest.mark.parametrize(
        "payload",
        [
            {"client": 5},
            {"seed": float("inf")},
            {"seed": float("nan")},
            {"seed": 10**400},
            {"faults": [{"kind": "error", "every_nth": float("inf")}]},
            {"faults": [{"kind": "delay", "nth": [1], "delay_ms": float("nan")}]},
            {"faults": [{"kind": "error", "probability": float("nan")}]},
            {"sdc": [{"model": "bit_flip", "every_nth": 1, "first_step": float("-inf")}]},
            {"sdc": [{"model": "bit_flip", "every_nth": 1, "severity": float("inf")}]},
        ],
        ids=[
            "client-not-an-object", "seed-inf", "seed-nan", "seed-past-float-range",
            "every_nth-inf", "delay_ms-nan", "probability-nan", "sdc-first_step-inf",
            "sdc-severity-inf",
        ],
    )
    def test_non_finite_or_misshapen_values_are_configuration_errors(self, payload):
        with pytest.raises(ConfigurationError):
            FaultPlan.from_dict(payload)

    def test_injector_is_deterministic(self):
        plan = FaultPlan.from_dict(
            {"seed": 9, "faults": [{"kind": "error", "probability": 0.4}]}
        )
        a = plan.injector(FaultTarget.PROFILE)
        b = plan.injector(FaultTarget.PROFILE)
        decisions_a = [a.decide() is not None for _ in range(50)]
        decisions_b = [b.decide() is not None for _ in range(50)]
        assert decisions_a == decisions_b
        assert any(decisions_a)  # the schedule actually fires sometimes

    def test_appending_a_spec_never_shifts_another(self):
        # Per-spec RNG streams: the probabilistic spec draws identically
        # whether or not an unrelated spec is appended after it.
        base = FaultPlan.from_dict(
            {"seed": 5, "faults": [{"kind": "error", "probability": 0.3}]}
        )
        extended = FaultPlan.from_dict(
            {
                "seed": 5,
                "faults": [
                    {"kind": "error", "probability": 0.3},
                    {"kind": "timeout", "nth": [999]},
                ],
            }
        )
        a = base.injector(FaultTarget.PROFILE)
        b = extended.injector(FaultTarget.PROFILE)
        decisions_a = [a.decide() is not None for _ in range(100)]
        decisions_b = [b.decide() is not None for _ in range(100)]
        assert decisions_a == decisions_b

    def test_distinct_keys_get_distinct_streams(self):
        plan = FaultPlan.from_dict(
            {"seed": 3, "faults": [{"kind": "drop", "probability": 0.5}]}
        )
        a = plan.injector(FaultTarget.INGEST, key="job-a")
        b = plan.injector(FaultTarget.INGEST, key="job-b")
        decisions_a = [a.decide() is not None for _ in range(64)]
        decisions_b = [b.decide() is not None for _ in range(64)]
        assert decisions_a != decisions_b


class TestFaultyProfileService:
    def _faulty(self, spec_dicts, count=10, seed=0):
        plan = FaultPlan.from_dict({"seed": seed, "faults": spec_dicts})
        return FaultyProfileService(ProfileService(_log_with_events(count)), plan)

    def test_error_is_retryable_and_preserves_cursor(self):
        service = self._faulty([{"kind": "error", "nth": [1]}])
        with pytest.raises(FaultInjectionError) as excinfo:
            service.serve(ProfileRequest(), finished=True)
        assert excinfo.value.retryable
        assert isinstance(excinfo.value, ProfileServiceError)
        # The retry recovers everything the failed request would have served.
        response = service.serve(ProfileRequest(), finished=True)
        assert response.num_events == 10
        assert response.final

    def test_timeout_kind(self):
        service = self._faulty([{"kind": "timeout", "nth": [1]}])
        with pytest.raises(FaultInjectionError) as excinfo:
            service.serve(ProfileRequest())
        assert excinfo.value.kind == "timeout"

    def test_empty_response_defers_the_window(self):
        service = self._faulty([{"kind": "empty", "nth": [1]}])
        empty = service.serve(ProfileRequest(), finished=True)
        assert empty.num_events == 0
        assert not empty.final
        assert empty.window_start_us == empty.window_end_us == 0.0
        retry = service.serve(ProfileRequest(), finished=True)
        assert retry.num_events == 10
        assert retry.final

    def test_truncate_squeezes_the_event_cap(self):
        service = self._faulty(
            [{"kind": "truncate", "nth": [1], "truncate_events": 4}]
        )
        response = service.serve(ProfileRequest(), finished=False)
        assert response.num_events == 4
        assert response.truncated
        rest = service.serve(ProfileRequest(), finished=True)
        assert rest.num_events == 6  # nothing lost, only deferred

    def test_delay_past_deadline_times_out(self):
        service = self._faulty([{"kind": "delay", "nth": [1], "delay_ms": 2000.0}])
        with pytest.raises(FaultInjectionError) as excinfo:
            service.serve(ProfileRequest(deadline_ms=500.0))
        assert excinfo.value.kind == "timeout"

    def test_delay_within_deadline_serves(self):
        service = self._faulty([{"kind": "delay", "nth": [1], "delay_ms": 100.0}])
        response = service.serve(ProfileRequest(deadline_ms=500.0), finished=True)
        assert response.num_events == 10
        assert service.delay_ms_total == 100.0


class TestRecordTransit:
    def test_drop_returns_none(self):
        plan = FaultPlan.from_dict({"faults": [{"kind": "drop", "nth": [2]}]})
        transit = RecordTransit(plan)
        assert transit.apply_frame(b"frame-0") == b"frame-0"
        assert transit.apply_frame(b"frame-1") is None
        assert transit.dropped == 1


class TestRetryPolicy:
    def test_validation(self):
        with pytest.raises(ConfigurationError):
            RetryPolicy(max_attempts=0)
        with pytest.raises(ConfigurationError):
            RetryPolicy(base_backoff_ms=100.0, max_backoff_ms=10.0)
        with pytest.raises(ConfigurationError):
            RetryPolicy(jitter_fraction=2.0)
        with pytest.raises(ConfigurationError):
            RetryPolicy(deadline_ms=0.0)

    def test_backoff_is_capped_exponential(self):
        policy = RetryPolicy(
            base_backoff_ms=100.0,
            backoff_multiplier=2.0,
            max_backoff_ms=350.0,
            jitter_fraction=0.0,
        )
        assert policy.backoff_ms(1, 0.5) == 100.0
        assert policy.backoff_ms(2, 0.5) == 200.0
        assert policy.backoff_ms(3, 0.5) == 350.0  # capped
        assert policy.backoff_ms(10, 0.5) == 350.0

    def test_jitter_is_symmetric(self):
        policy = RetryPolicy(base_backoff_ms=100.0, jitter_fraction=0.5)
        assert policy.backoff_ms(1, 0.0) == 50.0
        assert policy.backoff_ms(1, 0.5) == 100.0
        assert policy.backoff_ms(1, 1.0) == pytest.approx(150.0)


class TestCircuitBreaker:
    def test_trips_after_threshold(self):
        breaker = CircuitBreaker(failure_threshold=3, cooldown_requests=2)
        assert not breaker.record_failure()
        assert not breaker.record_failure()
        assert breaker.record_failure()
        assert breaker.state is BreakerState.OPEN

    def test_cooldown_then_half_open_probe(self):
        breaker = CircuitBreaker(failure_threshold=1, cooldown_requests=2)
        breaker.record_failure()
        assert not breaker.allow()
        assert not breaker.allow()
        assert breaker.skips == 2
        assert breaker.allow()  # the probe
        assert breaker.state is BreakerState.HALF_OPEN
        breaker.record_success()
        assert breaker.state is BreakerState.CLOSED

    def test_failed_probe_reopens(self):
        breaker = CircuitBreaker(failure_threshold=2, cooldown_requests=1)
        breaker.record_failure()
        breaker.record_failure()
        assert not breaker.allow()
        assert breaker.allow()
        assert breaker.record_failure()  # half-open failure re-trips immediately
        assert breaker.state is BreakerState.OPEN
        assert breaker.trips == 2

    def test_force_probe_skips_cooldown(self):
        breaker = CircuitBreaker(failure_threshold=1, cooldown_requests=100)
        breaker.record_failure()
        breaker.force_probe()
        assert breaker.allow()

    def test_client_from_config_rejects_unknown_keys(self):
        with pytest.raises(ConfigurationError):
            client_from_config({"max_attempts": 2, "retires": 9})
        policy, breaker = client_from_config(
            {"max_attempts": 2, "breaker_threshold": 5}
        )
        assert policy.max_attempts == 2
        assert breaker.failure_threshold == 5

    @pytest.mark.parametrize(
        "client",
        [
            {"max_attempts": float("nan")},
            {"max_attempts": 2.5},
            {"max_attempts": "three"},
            {"base_backoff_ms": float("nan")},
            {"max_backoff_ms": float("inf")},
            {"jitter_fraction": [0.1]},
            {"deadline_ms": float("nan")},
            {"breaker_threshold": float("nan")},
            {"breaker_cooldown": {"n": 2}},
        ],
        ids=lambda client: json.dumps(client),
    )
    def test_client_values_must_be_finite_numbers(self, client):
        field = next(iter(client))
        with pytest.raises(ConfigurationError, match=field):
            client_from_config(client)

    def test_client_numbers_are_coerced(self):
        policy, breaker = client_from_config(
            {"max_attempts": "3", "base_backoff_ms": 10, "deadline_ms": None,
             "breaker_cooldown": 2.0}
        )
        assert policy.max_attempts == 3 and policy.base_backoff_ms == 10.0
        assert policy.deadline_ms is None
        assert breaker.cooldown_requests == 2


class TestResilientProfileStub:
    def _stub(self, spec_dicts, client=None, count=10, seed=0):
        plan = FaultPlan.from_dict(
            {"seed": seed, "faults": spec_dicts, "client": client or {}}
        )
        service = FaultyProfileService(ProfileService(_log_with_events(count)), plan)
        policy, breaker = client_from_config(plan.client)
        return ResilientProfileStub(service, policy=policy, breaker=breaker, seed=seed)

    def test_retries_through_failures(self):
        before = _metric_value("repro_profiler_retries_total")
        stub = self._stub([{"kind": "error", "nth": [1, 2]}])
        response = stub.request_profile(finished=True)
        assert response.final and response.num_events == 10
        assert stub.retries == 2
        assert _metric_value("repro_profiler_retries_total") - before == 2

    def test_backoff_elapses_on_the_sim_clock(self):
        stub = self._stub([{"kind": "error", "nth": [1]}])
        assert stub.clock.now_us == 0.0
        stub.request_profile(finished=True)
        assert stub.clock.now_us > 0.0  # backoff charged to the stub's clock

    def test_exhausted_attempts_reraise(self):
        stub = self._stub(
            [{"kind": "error", "every_nth": 1}], client={"max_attempts": 3}
        )
        with pytest.raises(FaultInjectionError):
            stub.request_profile()
        assert stub.windows_abandoned == 1
        assert stub.failures == 3

    def test_circuit_opens_and_skips_then_recovers(self):
        stub = self._stub(
            [{"kind": "error", "first_request": 1, "last_request": 4, "every_nth": 1}],
            client={"max_attempts": 10, "breaker_threshold": 4, "breaker_cooldown": 2},
        )
        with pytest.raises(CircuitOpenError):
            stub.request_profile()
        # Cooldown: the next two requests are denied without touching the wire.
        for _ in range(2):
            with pytest.raises(CircuitOpenError):
                stub.request_profile()
        assert stub.breaker.skips == 2
        # The half-open probe goes through; faults stopped at request 4.
        response = stub.request_profile(finished=True)
        assert response.final
        assert stub.breaker.state is BreakerState.CLOSED

    def test_non_retryable_errors_pass_through(self):
        stub = self._stub([])
        with pytest.raises(ProfileServiceError):
            stub.request_profile(max_events=-1)


class TestJournal:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "run.jsonl"
        journal = RecordJournal(path)
        records = [_record(i, steps=(i,)) for i in range(5)]
        for record in records:
            journal.append(record)
        journal.close()
        recovery = recover_journal(path)
        assert recovery.lossless
        assert recovery.entries_recovered == 5
        assert [r.index for r in recovery.records] == [0, 1, 2, 3, 4]
        assert recovery.records[2].steps[2].operators

    def test_torn_tail_is_tolerated(self, tmp_path):
        path = tmp_path / "run.jsonl"
        journal = RecordJournal(path)
        journal.append(_record(0))
        journal.append(_record(1))
        journal.tear(_record(2))
        assert not journal.alive
        recovery = recover_journal(path)
        assert recovery.torn_tail
        assert not recovery.lossless
        assert len(recovery.records) == 2

    def test_mid_file_corruption_is_skipped_and_counted(self, legacy_copy):
        path = legacy_copy("run.jsonl")
        lines = path.read_text().splitlines()
        lines[1] = lines[1].replace('"window_start_us"', '"window_stART_us"')
        path.write_text("\n".join(lines) + "\n")
        recovery = recover_journal(path)
        assert recovery.corrupt_entries == 1
        assert [r.index for r in recovery.records] == [0, 8]
        with pytest.raises(JournalError):
            recover_journal(path, strict=True)

    def test_checksum_catches_value_tampering(self, legacy_copy):
        path = legacy_copy("run.jsonl")
        lines = path.read_text().splitlines()
        window_end = json.loads(lines[0])["record"]["window_end_us"]
        original = f'"window_end_us":{json.dumps(window_end)}'
        assert original in lines[0]
        lines[0] = lines[0].replace(original, '"window_end_us":9.0', 1)
        path.write_text("\n".join(lines) + "\n")
        recovery = recover_journal(path)
        assert recovery.corrupt_entries == 1
        assert [r.index for r in recovery.records] == [7, 8]

    def test_missing_journal_raises(self, tmp_path):
        with pytest.raises(JournalError):
            recover_journal(tmp_path / "nope.jsonl")

    def test_append_after_close_raises(self, tmp_path):
        journal = RecordJournal(tmp_path / "run.jsonl")
        journal.close()
        with pytest.raises(JournalError):
            journal.append(_record(0))


class TestRecorderCrash:
    def test_crash_tears_journal_but_keeps_memory(self, tmp_path):
        path = tmp_path / "run.jsonl"
        recorder = RecordingThread(journal=RecordJournal(path))
        recorder.submit(_record(0))
        recorder.crash(_record(1))
        recorder.submit(_record(1))  # the run keeps going in memory
        records = recorder.close()
        assert recorder.crashed
        assert [r.index for r in records] == [0, 1]
        recovery = recover_journal(path)
        assert recovery.torn_tail
        assert [r.index for r in recovery.records] == [0]


class TestFaultyRunEndToEnd:
    PLAN = {
        "seed": 20260805,
        "faults": [
            {"kind": "error", "probability": 0.2},
            {"kind": "timeout", "every_nth": 7},
            {"kind": "empty", "nth": [3]},
            {"kind": "crash", "nth": [4]},
        ],
        "client": {"max_attempts": 8, "breaker_threshold": 16},
    }

    def _run(self, tiny_model, tiny_dataset, plan=None, journal=None):
        estimator = tiny_model.build_estimator(tiny_dataset)
        profiler = TPUPointProfiler(
            estimator,
            ProfilerOptions(
                request_interval_ms=200.0,
                online_phases=True,
                fault_plan=plan,
                journal_path=str(journal) if journal else None,
            ),
        )
        profiler.start(analyzer=True)
        estimator.train()
        records = profiler.stop()
        return profiler, records

    def test_faulty_run_matches_clean_run(self, tiny_model, tiny_dataset, tmp_path):
        clean, clean_records = self._run(tiny_model, tiny_dataset)
        plan = FaultPlan.from_dict(self.PLAN)
        retries_before = _metric_value("repro_profiler_retries_total")
        faulty, faulty_records = self._run(
            tiny_model, tiny_dataset, plan, tmp_path / "run.jsonl"
        )
        # The faults in the plan's profile set are all lossless, so the
        # live phase labels must match the fault-free run exactly.
        assert faulty.online_phase_labels == clean.online_phase_labels
        assert faulty.online_phase_count == clean.online_phase_count
        # Retries account 1:1 for every injected error + timeout.
        report = faulty.fault_report()
        injected = faulty._fault_service.injector.injected_of(
            FaultKind.ERROR, FaultKind.TIMEOUT
        )
        assert report["client"]["retries"] == injected
        assert _metric_value("repro_profiler_retries_total") - retries_before == injected
        # The recorder crashed mid-run; the journal survives minus the tail.
        assert report["recorder"]["crashed"]
        recovery = recover_journal(tmp_path / "run.jsonl")
        assert recovery.torn_tail
        assert len(recovery.records) < len(faulty_records)

    def test_faulty_run_is_deterministic(self, tiny_model, tiny_dataset, tmp_path):
        plan = FaultPlan.from_dict(self.PLAN)
        first, first_records = self._run(tiny_model, tiny_dataset, plan, tmp_path / "a.jsonl")
        second, second_records = self._run(tiny_model, tiny_dataset, plan, tmp_path / "b.jsonl")
        assert first.fault_report() == second.fault_report()
        assert first.online_phase_labels == second.online_phase_labels
        assert [r.index for r in first_records] == [r.index for r in second_records]
        assert (tmp_path / "a.jsonl").read_bytes() == (tmp_path / "b.jsonl").read_bytes()

    def test_clean_plan_changes_nothing(self, tiny_model, tiny_dataset):
        clean, clean_records = self._run(tiny_model, tiny_dataset)
        noop_plan = FaultPlan(seed=1, specs=())
        faulty, faulty_records = self._run(tiny_model, tiny_dataset, noop_plan)
        assert faulty.online_phase_labels == clean.online_phase_labels
        assert len(faulty_records) == len(clean_records)
        assert faulty.fault_report()["profile"] == {}
