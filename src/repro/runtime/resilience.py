"""Resilient profile client: retries, backoff, and a circuit breaker.

The paper's profiler talks to the TPU master over gRPC, and real Cloud
TPU profile requests fail: transport errors, deadline timeouts, empty
windows. :class:`ResilientProfileStub` keeps the profiling thread alive
through all of that — it retries retryable failures with capped
exponential backoff plus deterministic jitter (the backoff elapses on a
simulation clock, never wall time), applies a per-request deadline, and
trips a :class:`CircuitBreaker` after repeated failures so a sick master
degrades the profiling cadence instead of killing the training run.

Everything is deterministic: jitter comes from a seeded
:mod:`repro.rng` stream, and the breaker's cooldown is counted in
requests rather than seconds, so the same fault plan always produces the
same retry/trip/degradation sequence — and the same metric values.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from repro import obs
from repro import rng as rng_mod
from repro.errors import CircuitOpenError, ConfigurationError, ProfileServiceError
from repro.runtime.clock import SimClock
from repro.runtime.rpc import (
    MAX_EVENTS_PER_PROFILE,
    MAX_PROFILE_DURATION_MS,
    ProfileRequest,
    ProfileResponse,
    ProfileStub,
)
from repro.tpu.sdc import coerce_float, coerce_int

_RETRIES_TOTAL = obs.counter(
    "repro_profiler_retries_total",
    "Profile requests retried after a retryable failure.",
).labels()
_FAILURES_TOTAL = obs.counter(
    "repro_profiler_request_failures_total",
    "Failed profile request attempts, by fault kind.",
    labels=("kind",),
)
_BACKOFF_MS_TOTAL = obs.counter(
    "repro_profiler_backoff_ms_total",
    "Simulated milliseconds the profile client spent backing off.",
).labels()
_CIRCUIT_TRIPS_TOTAL = obs.counter(
    "repro_profiler_circuit_trips_total",
    "Times the profile client's circuit breaker opened.",
).labels()
_CIRCUIT_SKIPS_TOTAL = obs.counter(
    "repro_profiler_circuit_skips_total",
    "Profile requests skipped while the circuit breaker was open.",
).labels()
_WINDOWS_ABANDONED_TOTAL = obs.counter(
    "repro_profiler_windows_abandoned_total",
    "Profile windows abandoned after exhausting every retry attempt.",
).labels()
_CIRCUIT_STATE = obs.gauge(
    "repro_profiler_circuit_state",
    "State of the most recently active circuit breaker "
    "(0 closed, 1 half-open, 2 open).",
).labels()

_STATE_VALUES = {"closed": 0, "half_open": 1, "open": 2}


@dataclass(frozen=True)
class RetryPolicy:
    """Retry/backoff knobs for the resilient profile client."""

    max_attempts: int = 5
    base_backoff_ms: float = 50.0
    backoff_multiplier: float = 2.0
    max_backoff_ms: float = 1600.0
    jitter_fraction: float = 0.25
    deadline_ms: float | None = 1000.0

    def __post_init__(self) -> None:
        if self.max_attempts <= 0:
            raise ConfigurationError("max_attempts must be positive")
        if self.base_backoff_ms < 0 or self.max_backoff_ms < 0:
            raise ConfigurationError("backoff bounds must be non-negative")
        if self.max_backoff_ms < self.base_backoff_ms:
            raise ConfigurationError("max_backoff_ms must be >= base_backoff_ms")
        if self.backoff_multiplier < 1.0:
            raise ConfigurationError("backoff_multiplier must be >= 1")
        if not 0.0 <= self.jitter_fraction <= 1.0:
            raise ConfigurationError("jitter_fraction must be in [0, 1]")
        if self.deadline_ms is not None and self.deadline_ms <= 0:
            raise ConfigurationError("deadline_ms must be positive when set")

    def backoff_ms(self, attempt: int, jitter: float) -> float:
        """Backoff before retry ``attempt`` (1-based), jitter in [0, 1)."""
        raw = min(
            self.base_backoff_ms * self.backoff_multiplier ** (attempt - 1),
            self.max_backoff_ms,
        )
        # Symmetric jitter: +/- jitter_fraction around the raw backoff.
        return raw * (1.0 + self.jitter_fraction * (2.0 * jitter - 1.0))


class BreakerState(enum.Enum):
    """Circuit breaker states (the classic three-state machine)."""

    CLOSED = "closed"
    OPEN = "open"
    HALF_OPEN = "half_open"


class CircuitBreaker:
    """Opens after consecutive failures; cooldown is counted in requests.

    While OPEN, :meth:`allow` denies ``cooldown_requests`` calls (each
    denial is one skipped profile window — the degraded cadence), then
    moves to HALF_OPEN and lets one probe through. A successful probe
    closes the breaker; a failed one re-opens it.
    """

    def __init__(self, failure_threshold: int = 8, cooldown_requests: int = 4):
        if failure_threshold <= 0:
            raise ConfigurationError("failure_threshold must be positive")
        if cooldown_requests <= 0:
            raise ConfigurationError("cooldown_requests must be positive")
        self.failure_threshold = failure_threshold
        self.cooldown_requests = cooldown_requests
        self.state = BreakerState.CLOSED
        self.consecutive_failures = 0
        self.trips = 0
        self.skips = 0
        self._cooldown_left = 0

    def allow(self) -> bool:
        """Whether the next request may be attempted."""
        if self.state is BreakerState.OPEN:
            if self._cooldown_left > 0:
                self._cooldown_left -= 1
                self.skips += 1
                return False
            self.state = BreakerState.HALF_OPEN
        return True

    def record_success(self) -> None:
        self.state = BreakerState.CLOSED
        self.consecutive_failures = 0

    def record_failure(self) -> bool:
        """Count one failure; returns True when this failure trips it open."""
        self.consecutive_failures += 1
        if self.state is BreakerState.HALF_OPEN or (
            self.state is BreakerState.CLOSED
            and self.consecutive_failures >= self.failure_threshold
        ):
            self.state = BreakerState.OPEN
            self.trips += 1
            self._cooldown_left = self.cooldown_requests
            return True
        return False

    def force_probe(self) -> None:
        """Skip the rest of the cooldown (the final drain uses this)."""
        if self.state is BreakerState.OPEN:
            self._cooldown_left = 0


def client_from_config(config: dict) -> tuple[RetryPolicy, CircuitBreaker]:
    """Build the client policy pair from a fault plan's ``client`` block.

    Every value must be a finite number, and an integer where it counts
    attempts, failures or requests; anything else raises
    :class:`~repro.errors.ConfigurationError` naming the field.
    """
    if not isinstance(config, dict):
        raise ConfigurationError("client policy must be an object")
    retry_keys = {
        "max_attempts", "base_backoff_ms", "backoff_multiplier",
        "max_backoff_ms", "jitter_fraction", "deadline_ms",
    }
    breaker_keys = {"breaker_threshold", "breaker_cooldown"}
    unknown = set(config) - retry_keys - breaker_keys
    if unknown:
        raise ConfigurationError(
            f"unknown client policy fields: {', '.join(sorted(unknown))}"
        )
    counts = {"max_attempts", "breaker_threshold", "breaker_cooldown"}
    values = {}
    for key, value in config.items():
        if key == "deadline_ms" and value is None:
            values[key] = None  # no per-request deadline
        else:
            values[key] = (coerce_int if key in counts else coerce_float)(value, key)
    policy = RetryPolicy(**{key: values[key] for key in retry_keys if key in values})
    breaker = CircuitBreaker(
        failure_threshold=values.get("breaker_threshold", 8),
        cooldown_requests=values.get("breaker_cooldown", 4),
    )
    return policy, breaker


class ResilientProfileStub(ProfileStub):
    """A :class:`ProfileStub` that survives a misbehaving master."""

    def __init__(
        self,
        service,
        policy: RetryPolicy | None = None,
        breaker: CircuitBreaker | None = None,
        seed: int = 0,
        clock: SimClock | None = None,
    ):
        super().__init__(service)
        self.policy = policy or RetryPolicy()
        self.breaker = breaker or CircuitBreaker()
        self.clock = clock if clock is not None else SimClock()
        self._jitter_rng = rng_mod.stream("resilience:jitter", seed)
        self.retries = 0
        self.failures = 0
        self.windows_abandoned = 0
        self.backoff_ms_total = 0.0

    def request_profile(
        self,
        max_events: int = MAX_EVENTS_PER_PROFILE,
        max_duration_ms: float = MAX_PROFILE_DURATION_MS,
        finished: bool | None = None,
    ) -> ProfileResponse:
        """Issue one request, retrying retryable failures with backoff.

        Raises :class:`CircuitOpenError` when the breaker denies the
        request or opens mid-retry, and re-raises the last failure when
        every attempt is exhausted. In both cases the service's window
        cursor is untouched, so a later request recovers the same data —
        failures defer profile windows, they never lose them.
        """
        allowed = self.breaker.allow()
        _CIRCUIT_STATE.set(_STATE_VALUES[self.breaker.state.value])
        if not allowed:
            _CIRCUIT_SKIPS_TOTAL.inc()
            raise CircuitOpenError("profile circuit open; request skipped")
        attempt = 1
        while True:
            request = ProfileRequest(
                max_events=max_events,
                max_duration_ms=max_duration_ms,
                deadline_ms=self.policy.deadline_ms,
            )
            try:
                response = self._service.serve(request, finished=finished)
            except ProfileServiceError as error:
                if not getattr(error, "retryable", False):
                    raise
                self.failures += 1
                _FAILURES_TOTAL.labels(kind=str(getattr(error, "kind", "error"))).inc()
                if self.breaker.record_failure():
                    _CIRCUIT_TRIPS_TOTAL.inc()
                    _CIRCUIT_STATE.set(_STATE_VALUES[self.breaker.state.value])
                    raise CircuitOpenError(
                        f"profile circuit opened after "
                        f"{self.breaker.failure_threshold} consecutive failures"
                    ) from error
                if attempt >= self.policy.max_attempts:
                    self.windows_abandoned += 1
                    _WINDOWS_ABANDONED_TOTAL.inc()
                    raise
                backoff = self.policy.backoff_ms(attempt, float(self._jitter_rng.random()))
                self.backoff_ms_total += backoff
                _BACKOFF_MS_TOTAL.inc(backoff)
                self.clock.advance(backoff * 1000.0)
                self.retries += 1
                _RETRIES_TOTAL.inc()
                attempt += 1
                continue
            self.breaker.record_success()
            _CIRCUIT_STATE.set(_STATE_VALUES[self.breaker.state.value])
            return response

    def stats(self) -> dict:
        """Client-side resilience counters for this stub."""
        return {
            "retries": self.retries,
            "failures": self.failures,
            "windows_abandoned": self.windows_abandoned,
            "backoff_ms_total": self.backoff_ms_total,
            "circuit_trips": self.breaker.trips,
            "circuit_skips": self.breaker.skips,
        }
