"""TPUPoint-Profiler.

The profiler attaches to a running estimator, and — independently of the
training loop — periodically requests profiles from the TPU through the
gRPC-style profile service, reduces each response to a statistical
record, and (when the analyzer is enabled) hands records to a recording
thread that persists them to cloud storage (Section III-A).

Real TPUPoint uses OS threads; the simulation replaces preemption with a
step hook that fires the profiling thread whenever the requested
interval of *simulated* time has elapsed, which preserves the observable
contract (periodic bounded profile windows covering the entire run,
ending with a final drain at Stop()) while keeping runs deterministic.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

from repro import obs
from repro.core.profiler.options import ProfilerOptions
from repro.core.profiler.record import ProfileRecord
from repro.core.profiler.recorder import RecordingThread

_REQUESTS_TOTAL = obs.counter(
    "repro_profiler_requests_total", "Profile requests sent to the profile service."
).labels()
_RECORDS_KEPT_TOTAL = obs.counter(
    "repro_profiler_records_kept_total", "Statistical records kept after reduction."
).labels()
_REQUEST_SECONDS = obs.histogram(
    "repro_profiler_request_seconds",
    "Real wall time of one profile request + statistical reduction.",
).labels()
_OVERHEAD_FRACTION = obs.gauge(
    "repro_profiler_overhead_fraction",
    "Real wall time spent inside profiler code over the whole run.",
).labels()


@dataclass(frozen=True)
class ProfilerStats:
    """Work the profiler itself performed over one run.

    The paper's claim that statistical reduction keeps the tool cheap is
    checkable from these numbers: ``events_reduced`` raw events were
    folded into ``operator_entries`` per-step statistics — the
    compression that lets the recording thread keep up.
    """

    requests_served: int
    records_kept: int
    events_reduced: int
    operator_entries: int
    bytes_persisted: float

    @property
    def compression_ratio(self) -> float:
        """Raw events per persisted statistic entry."""
        if self.operator_entries == 0:
            return 0.0
        return self.events_reduced / self.operator_entries
from repro.errors import CircuitOpenError, ProfileServiceError, ProfilerError
from repro.runtime.estimator import TPUEstimator
from repro.runtime.events import StepMetadata
from repro.runtime.rpc import ProfileStub
from repro.runtime.session import TrainingSession

#: Hard ceiling on consecutive final-drain requests. The drain normally
#: converges in a handful of requests; an all-failing fault plan must
#: not hang stop() forever.
_MAX_DRAIN_REQUESTS = 1000

#: Degraded-cadence ceiling: an open circuit stretches the request
#: interval at most this many times its configured value.
_MAX_INTERVAL_SCALE = 8.0


@dataclass
class TPUPointProfiler:
    """Profiles one estimator's training run."""

    estimator: TPUEstimator
    options: ProfilerOptions = field(default_factory=ProfilerOptions)

    def __post_init__(self) -> None:
        self._stub: ProfileStub | None = None
        self._recorder: RecordingThread | None = None
        self._records: list[ProfileRecord] = []
        self._started = False
        self._stopped = False
        self._breakpoint_hit = False
        self._next_request_us = 0.0
        self._record_index = 0
        self._online_scanner = None
        self._online_stream = None
        self._online_steps: list[int] = []
        self._record_hooks: list = []
        self._fault_service = None
        self._crash_injector = None
        self._interval_scale = 1.0
        self._windows_skipped = 0
        self._windows_abandoned = 0
        # Section V overhead accounting, applied to ourselves: real wall
        # time spent inside profiler code vs. the run it observes.
        self._wall_start = 0.0
        self._self_seconds = 0.0

    # --- lifecycle ---------------------------------------------------------

    @property
    def started(self) -> bool:
        return self._started

    @property
    def stopped(self) -> bool:
        return self._stopped

    def start(self, analyzer: bool = True) -> None:
        """Spawn the profiling (and, with ``analyzer``, recording) thread."""
        if self._started:
            raise ProfilerError("profiler already started")
        self._started = True
        self._wall_start = time.perf_counter()
        plan = self.options.fault_plan
        if plan is None:
            self._stub = self.estimator.profile_stub()
        else:
            # Faulty master + resilient client. Both layers are seeded
            # from the plan, so the whole run replays bit-for-bit.
            from repro.faults.inject import FaultyProfileService
            from repro.runtime.resilience import ResilientProfileStub, client_from_config

            self._fault_service = FaultyProfileService(
                self.estimator.profile_service(), plan
            )
            policy, breaker = client_from_config(plan.client)
            self._stub = ResilientProfileStub(
                self._fault_service, policy=policy, breaker=breaker, seed=plan.seed
            )
        if analyzer:
            bucket = self.estimator.bucket if self.options.record_to_storage else None
            journal = None
            if self.options.journal_path is not None:
                from repro.core.profiler.journal import RecordJournal

                journal = RecordJournal(self.options.journal_path)
            self._recorder = RecordingThread(bucket=bucket, journal=journal)
            if plan is not None:
                from repro.faults.plan import FaultTarget

                if plan.targets(FaultTarget.RECORDER):
                    self._crash_injector = plan.injector(FaultTarget.RECORDER)
        if self.options.online_phases:
            from repro.core.analyzer.ols import OnlineLinearScan
            from repro.core.profiler.streaming import StepStream

            self._online_scanner = OnlineLinearScan(
                threshold=self.options.online_phase_threshold
            )
            self._online_stream = StepStream()
        self._next_request_us = self.options.request_interval_ms * 1000.0
        self.estimator.add_step_hook(self._on_step)

    def add_record_hook(self, hook) -> None:
        """Register a callback invoked with each record as it is kept.

        This is the live hand-off consumers like :mod:`repro.serve` use:
        hooks fire during the run, in record order, before Stop() —
        unlike :attr:`records`, which is a post-hoc batch view.
        """
        self._record_hooks.append(hook)

    @property
    def breakpoint_hit(self) -> bool:
        """Whether a user-specified breakpoint ended profiling early."""
        return self._breakpoint_hit

    def stop(self) -> list[ProfileRecord]:
        """Send the final request(s), drain the log, stop all threads.

        When a breakpoint already ended profiling, stop() simply returns
        what was collected up to that point.
        """
        if not self._started:
            raise ProfilerError("profiler was never started")
        if self._stopped:
            raise ProfilerError("profiler already stopped")
        self._stopped = True
        if self._breakpoint_hit:
            self._publish_overhead()
            return list(self._records)
        began = time.perf_counter()
        with obs.trace("profiler.stop", records=len(self._records)):
            self._drain_and_close()
        self._self_seconds += time.perf_counter() - began
        self._publish_overhead()
        if self._recorder is not None:
            return list(self._recorder.records)
        return list(self._records)

    def _publish_overhead(self) -> None:
        """Expose the profiler's own wall-time share as a gauge."""
        total = time.perf_counter() - self._wall_start
        if total > 0:
            _OVERHEAD_FRACTION.set(min(self._self_seconds / total, 1.0))

    def _drain_and_close(self) -> None:
        # Final drain: keep requesting until the service marks the
        # response final (the session may have produced more than one
        # window's worth of events since the last periodic request).
        # Failed requests leave the service cursor untouched, so the
        # drain simply re-asks; an open circuit is forced to probe — at
        # stop() there is no training left to protect by backing off.
        attempts = 0
        while True:
            attempts += 1
            if attempts > _MAX_DRAIN_REQUESTS:
                raise ProfilerError(
                    f"final drain did not converge after {_MAX_DRAIN_REQUESTS} requests"
                )
            try:
                response = self._request(finished=True)
            except CircuitOpenError:
                breaker = getattr(self._stub, "breaker", None)
                if breaker is not None:
                    breaker.force_probe()
                continue
            except ProfileServiceError as error:
                if not getattr(error, "retryable", False):
                    raise
                continue
            if response.final:
                break
        if self._online_stream is not None:
            for step in self._online_stream.flush():
                self._online_scanner.observe(step)
                self._online_steps.append(step.step)
        if self._recorder is not None:
            self._recorder.close()

    # --- the profiling thread ------------------------------------------------

    def _on_step(self, session: TrainingSession, metadata: StepMetadata) -> None:
        """Step hook standing in for the periodic profiling thread."""
        del metadata
        if self._stopped or self._breakpoint_hit:
            return
        began = time.perf_counter()
        try:
            while session.clock.now_us >= self._next_request_us:
                try:
                    self._request(finished=False)
                except CircuitOpenError:
                    # Degraded cadence: while the circuit is open, space
                    # requests further apart instead of hammering a sick
                    # master. The window is deferred, not lost — the
                    # service cursor never moved.
                    self._windows_skipped += 1
                    self._interval_scale = min(
                        self._interval_scale * 2.0, _MAX_INTERVAL_SCALE
                    )
                except ProfileServiceError as error:
                    if not getattr(error, "retryable", False):
                        raise
                    # Every retry attempt was exhausted; the window stays
                    # pending and the next request re-covers it.
                    self._windows_abandoned += 1
                else:
                    self._interval_scale = 1.0
                self._next_request_us += (
                    self.options.request_interval_ms * 1000.0 * self._interval_scale
                )
            breakpoint_step = self.options.breakpoint_step
            if breakpoint_step is not None and session.global_step >= breakpoint_step:
                self._breakpoint_hit = True
                self._drain_and_close()
        finally:
            self._self_seconds += time.perf_counter() - began

    def _request(self, finished: bool):
        if self._stub is None:
            raise ProfilerError("profiler not started")
        began = time.perf_counter()
        response = self._stub.request_profile(
            max_events=self.options.max_events_per_profile,
            max_duration_ms=self.options.max_profile_duration_ms,
            finished=finished,
        )
        record = ProfileRecord.from_response(self._record_index, response)
        self._record_index += 1
        _REQUESTS_TOTAL.inc()
        if record.num_steps or record.truncated or record.final:
            self._records.append(record)
            _RECORDS_KEPT_TOTAL.inc()
            if self._recorder is not None:
                if self._crash_injector is not None and not self._recorder.crashed:
                    if self._crash_injector.decide() is not None:
                        from repro.faults.inject import count_injected

                        count_injected("recorder", "crash")
                        self._recorder.crash(record)
                self._recorder.submit(record)
            if self._online_stream is not None and record.num_steps:
                for step in self._online_stream.submit(record):
                    self._online_scanner.observe(step)
                    self._online_steps.append(step.step)
            for hook in self._record_hooks:
                hook(record)
        _REQUEST_SECONDS.observe(time.perf_counter() - began)
        return response

    # --- results ---------------------------------------------------------------

    @property
    def records(self) -> list[ProfileRecord]:
        """All statistical records collected so far."""
        return list(self._records)

    @property
    def recorder(self) -> RecordingThread | None:
        """The recording thread, when the analyzer flag enabled one."""
        return self._recorder

    def stats(self) -> ProfilerStats:
        """Aggregate work counters for this profiler."""
        events = 0
        entries = 0
        for record in self._records:
            for step in record.steps.values():
                entries += len(step.operators)
                events += sum(s.count for s in step.operators.values())
        return ProfilerStats(
            requests_served=self._record_index,
            records_kept=len(self._records),
            events_reduced=events,
            operator_entries=entries,
            bytes_persisted=self._recorder.bytes_written if self._recorder else 0.0,
        )

    def fault_report(self) -> dict:
        """What the active fault plan did to this run, and what it cost.

        Returns an empty dict on fault-free runs. Otherwise: injected
        fault counts per boundary, the resilient client's retry/breaker
        counters, and the recorder's crash state.
        """
        if self.options.fault_plan is None:
            return {}
        report: dict = {
            "profile": dict(self._fault_service.injector.injected),
            "windows_skipped": self._windows_skipped,
            "windows_abandoned": self._windows_abandoned,
        }
        stats = getattr(self._stub, "stats", None)
        if callable(stats):
            report["client"] = stats()
        if self._crash_injector is not None:
            report["recorder"] = {
                "crashes": self._crash_injector.total_injected,
                "crashed": bool(self._recorder is not None and self._recorder.crashed),
            }
        return report

    @property
    def online_phase_labels(self) -> dict[int, int]:
        """Step number -> phase label from the *online* linear scan.

        Only populated when ``options.online_phases`` is set; available
        immediately after stop() with no post-processing.
        """
        if self._online_scanner is None:
            raise ProfilerError("online phase tracking was not enabled")
        return dict(zip(self._online_steps, self._online_scanner.labels))

    @property
    def online_phase_count(self) -> int:
        """Number of phases the online scan has identified so far."""
        if self._online_scanner is None:
            raise ProfilerError("online phase tracking was not enabled")
        return self._online_scanner.num_phases
