"""Declarative, seedable fault plans.

Real Cloud TPU profiling lives on a fragile client→master gRPC boundary
(Section III-A): requests time out, come back empty or truncated, and
the recording pipeline can lose or mangle records mid-run. A
:class:`FaultPlan` describes that misbehaviour *deterministically*: each
:class:`FaultSpec` names a fault kind, the boundary it targets, and a
schedule (specific request indices, every-nth, or a seeded probability).
Two runs with the same plan inject exactly the same faults at exactly
the same request indices, so resilience claims are provable rather than
anecdotal.

Plans load from JSON (``tpupoint profile --faults plan.json``); the
optional ``client`` section configures the resilient profile client
(retry/backoff/circuit-breaker knobs — see
:mod:`repro.runtime.resilience`).
"""

from __future__ import annotations

import enum
import json
from dataclasses import dataclass, field
from pathlib import Path

from repro import rng as rng_mod
from repro.errors import ConfigurationError
from repro.tpu.sdc import (
    SdcInjector,
    SdcSpec,
    coerce_float,
    coerce_int,
    coerce_int_tuple,
    coerce_optional_int,
)


class FaultKind(enum.Enum):
    """What goes wrong when a fault fires."""

    ERROR = "error"  # transport error (UNAVAILABLE); retryable
    TIMEOUT = "timeout"  # deadline exceeded; retryable
    EMPTY = "empty"  # response with zero events, window not advanced
    TRUNCATE = "truncate"  # event cap forced far below the request's
    DELAY = "delay"  # added latency (times out past the deadline)
    CORRUPT = "corrupt"  # record mangled in transit to the fleet service
    DROP = "drop"  # record lost in transit to the fleet service
    CRASH = "crash"  # recording thread dies mid-append (torn journal)


class FaultTarget(enum.Enum):
    """Which pipeline boundary a fault applies to."""

    PROFILE = "profile"  # client → master profile requests
    INGEST = "ingest"  # producer → FleetService.submit transit
    RECORDER = "recorder"  # the journaling recording thread
    DEVICE = "device"  # silent data corruption inside the chip ('sdc' section)


#: Faults the pipeline absorbs without losing any profile data: errors
#: and timeouts are retried against an unchanged service cursor, and
#: empty/truncated/delayed responses only defer events to a later
#: window. CORRUPT/DROP/CRASH lose data by design, and so does *any*
#: kind at the ingest boundary (see :meth:`FaultSpec.lossless`).
LOSSLESS_KINDS = frozenset(
    {FaultKind.ERROR, FaultKind.TIMEOUT, FaultKind.EMPTY, FaultKind.TRUNCATE, FaultKind.DELAY}
)

_DEFAULT_TARGETS = {
    FaultKind.CORRUPT: FaultTarget.INGEST,
    FaultKind.DROP: FaultTarget.INGEST,
    FaultKind.CRASH: FaultTarget.RECORDER,
}

_VALID_BY_TARGET = {
    FaultTarget.PROFILE: frozenset(
        {FaultKind.ERROR, FaultKind.TIMEOUT, FaultKind.EMPTY, FaultKind.TRUNCATE, FaultKind.DELAY}
    ),
    FaultTarget.INGEST: frozenset(
        {FaultKind.CORRUPT, FaultKind.DROP, FaultKind.TRUNCATE}
    ),
    FaultTarget.RECORDER: frozenset({FaultKind.CRASH}),
    # Chip-level faults are silent by definition: no wire FaultKind
    # applies; they are declared in the plan's 'sdc' section instead.
    FaultTarget.DEVICE: frozenset(),
}


@dataclass(frozen=True)
class FaultSpec:
    """One fault and its schedule.

    A spec fires on request index ``i`` (1-based, per target boundary)
    when ``i`` is inside ``[first_request, last_request]`` and either
    ``i`` is listed in ``nth``, ``i`` is a multiple of ``every_nth``, or
    a seeded coin with ``probability`` comes up. The first matching spec
    wins, so at most one fault fires per request.
    """

    kind: FaultKind
    target: FaultTarget
    probability: float = 0.0
    every_nth: int | None = None
    nth: tuple[int, ...] = ()
    first_request: int = 1
    last_request: int | None = None
    delay_ms: float = 0.0
    truncate_events: int = 64

    def __post_init__(self) -> None:
        if not 0.0 <= self.probability <= 1.0:
            raise ConfigurationError("fault probability must be in [0, 1]")
        if self.every_nth is not None and self.every_nth <= 0:
            raise ConfigurationError("every_nth must be positive when set")
        if any(n <= 0 for n in self.nth):
            raise ConfigurationError("nth request indices are 1-based and positive")
        if self.first_request <= 0:
            raise ConfigurationError("first_request is 1-based and positive")
        if self.last_request is not None and self.last_request < self.first_request:
            raise ConfigurationError("last_request must be >= first_request")
        if self.delay_ms < 0:
            raise ConfigurationError("delay_ms must be non-negative")
        if self.truncate_events <= 0:
            raise ConfigurationError("truncate_events must be positive")
        if self.target is FaultTarget.DEVICE:
            raise ConfigurationError(
                "device faults are silent-data-corruption models; declare "
                "them in the plan's 'sdc' section, not 'faults'"
            )
        if self.kind not in _VALID_BY_TARGET[self.target]:
            raise ConfigurationError(
                f"fault kind {self.kind.value!r} does not apply to "
                f"target {self.target.value!r}"
            )
        if self.probability == 0.0 and self.every_nth is None and not self.nth:
            raise ConfigurationError(
                "fault spec needs a schedule: probability, every_nth, or nth"
            )

    @property
    def lossless(self) -> bool:
        """Whether the pipeline can absorb this fault without data loss.

        Kind alone is not enough: TRUNCATE at the profile boundary only
        squeezes a window (the deferred events come back later), but
        TRUNCATE at the ingest boundary cuts a wire frame mid-block —
        the record is refused and quarantined, i.e. lost. Everything at
        the ingest boundary is lossy by construction.
        """
        if self.target is FaultTarget.INGEST:
            return False
        return self.kind in LOSSLESS_KINDS

    def matches(self, index: int, rng) -> bool:
        """Whether this spec fires on 1-based request ``index``."""
        if index < self.first_request:
            return False
        if self.last_request is not None and index > self.last_request:
            return False
        if index in self.nth:
            return True
        if self.every_nth is not None and index % self.every_nth == 0:
            return True
        if self.probability > 0.0:
            return float(rng.random()) < self.probability
        return False

    def to_dict(self) -> dict:
        payload: dict = {"kind": self.kind.value, "target": self.target.value}
        if self.probability:
            payload["probability"] = self.probability
        if self.every_nth is not None:
            payload["every_nth"] = self.every_nth
        if self.nth:
            payload["nth"] = list(self.nth)
        if self.first_request != 1:
            payload["first_request"] = self.first_request
        if self.last_request is not None:
            payload["last_request"] = self.last_request
        if self.kind is FaultKind.DELAY:
            payload["delay_ms"] = self.delay_ms
        if self.kind is FaultKind.TRUNCATE:
            payload["truncate_events"] = self.truncate_events
        return payload

    @classmethod
    def from_dict(cls, payload: dict) -> "FaultSpec":
        if not isinstance(payload, dict):
            raise ConfigurationError("each fault spec must be a JSON object")
        try:
            kind = FaultKind(payload["kind"])
        except KeyError:
            raise ConfigurationError("fault spec is missing 'kind'") from None
        except (ValueError, TypeError):
            known_kinds = ", ".join(k.value for k in FaultKind)
            raise ConfigurationError(
                f"unknown fault kind {payload.get('kind')!r}; "
                f"expected one of {known_kinds}"
            ) from None
        target_value = payload.get("target")
        if target_value is None:
            target = _DEFAULT_TARGETS.get(kind, FaultTarget.PROFILE)
        else:
            try:
                target = FaultTarget(target_value)
            except (ValueError, TypeError):
                known_targets = ", ".join(t.value for t in FaultTarget)
                raise ConfigurationError(
                    f"unknown fault target {target_value!r}; "
                    f"expected one of {known_targets}"
                ) from None
        known = {
            "kind", "target", "probability", "every_nth", "nth",
            "first_request", "last_request", "delay_ms", "truncate_events",
        }
        unknown = set(payload) - known
        if unknown:
            raise ConfigurationError(
                f"unknown fault spec fields: {', '.join(sorted(unknown))}"
            )
        return cls(
            kind=kind,
            target=target,
            probability=coerce_float(payload.get("probability", 0.0), "probability"),
            every_nth=coerce_optional_int(payload.get("every_nth"), "every_nth"),
            nth=coerce_int_tuple(payload.get("nth", ()), "nth"),
            first_request=coerce_int(payload.get("first_request", 1), "first_request"),
            last_request=coerce_optional_int(payload.get("last_request"), "last_request"),
            delay_ms=coerce_float(payload.get("delay_ms", 0.0), "delay_ms"),
            truncate_events=coerce_int(payload.get("truncate_events", 64), "truncate_events"),
        )


class FaultInjector:
    """Deterministic fault decisions for one target boundary.

    One injector serves one boundary instance (one profile service, one
    job's ingest transit, one recorder). Each spec draws from its own
    seeded RNG stream, so adding a spec never shifts another spec's
    probabilistic decisions, and the same ``(seed, key)`` pair always
    yields the same fault sequence.
    """

    def __init__(self, specs, seed: int, target: FaultTarget, key: str = ""):
        self.target = target
        self.key = key
        self._specs = tuple(spec for spec in specs if spec.target is target)
        self._rngs = [
            rng_mod.stream(f"faults:{target.value}:{key}:{i}", seed)
            for i in range(len(self._specs))
        ]
        self.requests_seen = 0
        self.injected: dict[str, int] = {}

    def decide(self) -> FaultSpec | None:
        """The fault (if any) that fires on the next request."""
        self.requests_seen += 1
        for spec, rng in zip(self._specs, self._rngs):
            if spec.matches(self.requests_seen, rng):
                self.injected[spec.kind.value] = self.injected.get(spec.kind.value, 0) + 1
                return spec
        return None

    @property
    def total_injected(self) -> int:
        return sum(self.injected.values())

    def injected_of(self, *kinds: FaultKind) -> int:
        """Total faults injected among the given kinds."""
        return sum(self.injected.get(kind.value, 0) for kind in kinds)


@dataclass(frozen=True)
class FaultPlan:
    """A seed, fault specs, SDC specs, and optional client-policy knobs.

    The ``faults`` section injects at the wire/recorder boundaries; the
    ``sdc`` section (:class:`repro.tpu.sdc.SdcSpec`) injects silent data
    corruption inside the chips themselves and is addressed through
    :attr:`FaultTarget.DEVICE`.
    """

    seed: int = 0
    specs: tuple[FaultSpec, ...] = ()
    client: dict = field(default_factory=dict)
    sdc: tuple[SdcSpec, ...] = ()

    def __post_init__(self) -> None:
        if not isinstance(self.client, dict):
            raise ConfigurationError("fault plan 'client' must be an object")

    def targets(self, target: FaultTarget) -> bool:
        """Whether any spec applies to ``target``."""
        if target is FaultTarget.DEVICE:
            return bool(self.sdc)
        return any(spec.target is target for spec in self.specs)

    @property
    def lossless(self) -> bool:
        """Whether every fault in the plan is absorbable without loss.

        Silent data corruption is never lossless: the corrupted numbers
        are gone even though no record is dropped.
        """
        return not self.sdc and all(spec.lossless for spec in self.specs)

    def injector(self, target: FaultTarget, key: str = "") -> FaultInjector:
        """A fresh deterministic injector for one boundary instance."""
        return FaultInjector(self.specs, self.seed, target, key=key)

    def sdc_injector(self, chip_id: str) -> SdcInjector:
        """A fresh deterministic chip-level injector for ``chip_id``."""
        return SdcInjector(self.sdc, self.seed, chip_id)

    def to_dict(self) -> dict:
        payload: dict = {
            "seed": self.seed,
            "faults": [spec.to_dict() for spec in self.specs],
        }
        if self.sdc:
            payload["sdc"] = [spec.to_dict() for spec in self.sdc]
        if self.client:
            payload["client"] = dict(self.client)
        return payload

    @classmethod
    def from_dict(cls, payload: dict) -> "FaultPlan":
        if not isinstance(payload, dict):
            raise ConfigurationError("fault plan must be a JSON object")
        unknown = set(payload) - {"seed", "faults", "sdc", "client"}
        if unknown:
            raise ConfigurationError(
                f"unknown fault plan fields: {', '.join(sorted(unknown))}"
            )
        faults = payload.get("faults", [])
        if not isinstance(faults, list):
            raise ConfigurationError("fault plan 'faults' must be a list")
        sdc = payload.get("sdc", [])
        if not isinstance(sdc, list):
            raise ConfigurationError("fault plan 'sdc' must be a list")
        client = payload.get("client", {})
        if not isinstance(client, dict):
            raise ConfigurationError("fault plan 'client' must be an object")
        return cls(
            seed=coerce_int(payload.get("seed", 0), "seed"),
            specs=tuple(FaultSpec.from_dict(entry) for entry in faults),
            client=dict(client),
            sdc=tuple(SdcSpec.from_dict(entry) for entry in sdc),
        )


def load_plan(path: str | Path) -> FaultPlan:
    """Load a fault plan from a JSON file."""
    path = Path(path)
    if not path.exists():
        raise ConfigurationError(f"fault plan not found: {path}")
    try:
        payload = json.loads(path.read_text(encoding="utf-8"))
    except json.JSONDecodeError as error:
        raise ConfigurationError(f"fault plan {path} is not valid JSON: {error}")
    return FaultPlan.from_dict(payload)


def save_plan(plan: FaultPlan, path: str | Path) -> Path:
    """Write a plan as JSON; returns the path."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(plan.to_dict(), indent=2) + "\n", encoding="utf-8")
    return path
