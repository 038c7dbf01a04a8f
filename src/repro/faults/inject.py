"""Fault injection shims for the profile pipeline.

Two boundaries get wrapped, matching where real deployments actually
fail. :class:`FaultyProfileService` sits where the client→master gRPC
channel lives (Section III-A) and makes ``serve`` misbehave: transport
errors, deadline timeouts, empty or force-truncated windows, injected
latency. :class:`RecordTransit` models the producer→fleet wire and can
drop, corrupt or cut encoded record frames in flight.

The injected failures are shaped so the pipeline's recovery story is
testable: profile-boundary faults never advance the inner service's
window cursor, so a retried or re-issued request recovers exactly the
events a failed one would have carried — which is what makes the
"lossless plan ⇒ identical phase labels" property hold.
"""

from __future__ import annotations

from repro import obs
from repro import rng as rng_mod
from repro.core.profiler import codec
from repro.errors import FaultInjectionError
from repro.faults.plan import FaultInjector, FaultKind, FaultPlan, FaultTarget
from repro.runtime.rpc import ProfileRequest, ProfileResponse, ProfileService

_INJECTED_TOTAL = obs.counter(
    "repro_faults_injected_total",
    "Faults injected by the active fault plan, by target and kind.",
    labels=("target", "kind"),
)


def count_injected(target: str, kind: str) -> None:
    """Count one injected fault in the shared obs registry."""
    _INJECTED_TOTAL.labels(target=target, kind=kind).inc()


class FaultyProfileService:
    """Wraps a :class:`ProfileService`, injecting faults per the plan.

    Duck-types the service interface the stubs use (``serve``,
    ``window_start_us``, ``session_finished``). Every injected failure
    leaves the inner service untouched, so failures defer profile
    windows rather than losing them.
    """

    def __init__(self, inner: ProfileService, plan: FaultPlan, key: str = ""):
        self.inner = inner
        self.plan = plan
        self.injector: FaultInjector = plan.injector(FaultTarget.PROFILE, key=key)
        self.delay_ms_total = 0.0

    @property
    def log(self):
        return self.inner.log

    @property
    def window_start_us(self) -> float:
        return self.inner.window_start_us

    @property
    def requests_served(self) -> int:
        return self.inner.requests_served

    def session_finished(self) -> bool:
        return self.inner.session_finished()

    def serve(self, request: ProfileRequest, finished: bool | None = None) -> ProfileResponse:
        spec = self.injector.decide()
        if spec is None:
            return self.inner.serve(request, finished=finished)
        _INJECTED_TOTAL.labels(target="profile", kind=spec.kind.value).inc()
        if spec.kind is FaultKind.ERROR:
            raise FaultInjectionError(
                f"injected transport error on profile request "
                f"#{self.injector.requests_seen} (UNAVAILABLE)",
                kind="error",
            )
        if spec.kind is FaultKind.TIMEOUT:
            raise FaultInjectionError(
                f"injected deadline timeout on profile request "
                f"#{self.injector.requests_seen} (DEADLINE_EXCEEDED)",
                kind="timeout",
            )
        if spec.kind is FaultKind.EMPTY:
            # A master that answers with nothing: zero events, window not
            # advanced. The next request re-covers the same span.
            start = self.inner.window_start_us
            return ProfileResponse(
                entries=(),
                step_metadata=(),
                window_start_us=start,
                window_end_us=start,
                truncated=False,
                final=False,
            )
        if spec.kind is FaultKind.TRUNCATE:
            squeezed = ProfileRequest(
                max_events=min(request.max_events, spec.truncate_events),
                max_duration_ms=request.max_duration_ms,
                deadline_ms=request.deadline_ms,
            )
            return self.inner.serve(squeezed, finished=finished)
        if spec.kind is FaultKind.DELAY:
            self.delay_ms_total += spec.delay_ms
            if request.deadline_ms is not None and spec.delay_ms > request.deadline_ms:
                raise FaultInjectionError(
                    f"injected {spec.delay_ms:g}ms delay exceeded the "
                    f"{request.deadline_ms:g}ms deadline (DEADLINE_EXCEEDED)",
                    kind="timeout",
                )
            return self.inner.serve(request, finished=finished)
        raise FaultInjectionError(
            f"fault kind {spec.kind.value!r} cannot target the profile boundary",
            kind=spec.kind.value,
            retryable=False,
        )


def corrupt_frame(frame: bytes, rng) -> bytes:
    """A copy of a binary wire frame with exactly one payload bit flipped.

    The flip lands past the frame header, so the framing (magic, seq,
    window span, payload length) stays intact and the receiver can still
    attribute the frame — but the payload CRC-32 *must* catch it: CRC-32
    detects every single-bit error regardless of frame size, which is
    what makes the "corrupt frames are always quarantined, never
    silently accepted" property provable rather than probabilistic.
    """
    if len(frame) <= codec.FRAME_HEADER_BYTES:
        return frame
    payload_bits = (len(frame) - codec.FRAME_HEADER_BYTES) * 8
    bit = int(rng.integers(payload_bits))
    mangled = bytearray(frame)
    mangled[codec.FRAME_HEADER_BYTES + bit // 8] ^= 1 << (bit % 8)
    return bytes(mangled)


def truncate_frame(frame: bytes) -> bytes:
    """The leading half of a wire frame — a connection cut mid-send.

    Always shorter than the input (minimum: the frame magic), so the
    receiver sees a frame whose header promises more payload bytes than
    arrived.
    """
    keep = max(len(codec.FRAME_MAGIC), len(frame) // 2)
    return frame[: min(keep, len(frame) - 1)]


class RecordTransit:
    """The wire between a profiling producer and the fleet service.

    ``apply_frame`` operates on encoded frame *bytes*: it returns the
    frame unchanged, a copy with a single flipped payload bit (CORRUPT),
    a mid-block cut (TRUNCATE), or ``None`` (DROP — the record never
    arrives). The producer's own in-memory record stays intact.
    """

    def __init__(self, plan: FaultPlan, key: str = ""):
        self.plan = plan
        self.injector: FaultInjector = plan.injector(FaultTarget.INGEST, key=key)
        self._corrupt_rng = rng_mod.stream(f"faults:corrupt:{key}", plan.seed)
        self.dropped = 0
        self.corrupted = 0
        self.truncated = 0

    def apply_frame(self, frame: bytes) -> bytes | None:
        spec = self.injector.decide()
        if spec is None:
            return frame
        _INJECTED_TOTAL.labels(target="ingest", kind=spec.kind.value).inc()
        if spec.kind is FaultKind.DROP:
            self.dropped += 1
            return None
        if spec.kind is FaultKind.CORRUPT:
            self.corrupted += 1
            return corrupt_frame(frame, self._corrupt_rng)
        if spec.kind is FaultKind.TRUNCATE:
            self.truncated += 1
            return truncate_frame(frame)
        return frame


__all__ = [
    "FaultyProfileService",
    "RecordTransit",
    "corrupt_frame",
    "count_injected",
    "truncate_frame",
]
