"""Declarative alert rules over telemetry rings.

Rules are evaluated on the fleet driver's simulated round clock, never
wall time, so a seeded run produces the same alert sequence every time
and at any shard count. Each :class:`AlertRule` names one ring series
(or a ``prefix:*`` family of them — one alert *scope* per matching
series, e.g. one ``PHASE_DRIFT`` per job) and a condition:

* ``threshold`` — the series' latest value compared against a bound;
* ``rate`` — the same comparison, by convention over a ``:rate``
  series produced by the registry sampler;
* ``absence`` — the series stopped receiving samples for more than
  ``threshold`` ticks (a scrape target went silent).

Conditions must hold for ``for_ticks`` consecutive evaluations before
an alert **fires** and stay clear for ``clear_ticks`` before it
**resolves** — the classic pending/firing hysteresis, so a single noisy
sample neither pages nor flaps. Every transition appends one deduped
:class:`AlertEvent` to the engine's log; between transitions a firing
alert emits nothing, which is what makes the event log diffable in CI.

An evaluation looks only at the scopes that are *due*: a scope whose
series was written (or went stale) since the previous evaluation, one
whose alert is mid-streak (its condition disagrees with its state, so
``for_ticks`` or ``clear_ticks`` is still counting), and an absence
scope whose series is stale while its alert fires or its threshold is
reached. Any other scope would read the same input as last time and
change nothing, so skipping it is exact; the event log is the one a
full scan of every scope emits, in the same rule-then-scope order.
"""

from __future__ import annotations

import enum
import heapq
import math
from dataclasses import dataclass

from repro.errors import ObsError
from repro.obs.drift import DEFAULT_DRIFT_DISTANCE, DEFAULT_SDC_DROP
from repro.obs.timeseries import RingStore


class AlertSeverity(enum.Enum):
    """How loudly an alert should page; orders critical-first."""

    CRITICAL = "critical"
    WARNING = "warning"

    @property
    def rank(self) -> int:
        return 0 if self is AlertSeverity.CRITICAL else 1


class AlertState(enum.Enum):
    """Lifecycle of one (rule, scope) alert."""

    PENDING = "pending"
    FIRING = "firing"
    RESOLVED = "resolved"


_KINDS = ("threshold", "rate", "absence")
_COMPARISONS = ("above", "below")


@dataclass(frozen=True)
class AlertRule:
    """One declarative condition over one series (or series family)."""

    name: str
    series: str
    threshold: float
    comparison: str = "above"
    kind: str = "threshold"
    for_ticks: int = 1
    clear_ticks: int = 1
    severity: AlertSeverity = AlertSeverity.WARNING
    description: str = ""

    def __post_init__(self) -> None:
        if not self.name:
            raise ObsError("alert rule needs a name")
        if not self.series:
            raise ObsError(f"alert rule {self.name} needs a series")
        if self.kind not in _KINDS:
            raise ObsError(f"alert rule {self.name} kind must be one of {_KINDS}")
        if self.comparison not in _COMPARISONS:
            raise ObsError(
                f"alert rule {self.name} comparison must be one of {_COMPARISONS}"
            )
        if self.for_ticks <= 0 or self.clear_ticks <= 0:
            raise ObsError(f"alert rule {self.name} windows must be positive")
        if self.kind == "absence" and self.threshold < 0:
            raise ObsError(f"alert rule {self.name} absence threshold must be >= 0")

    @property
    def wildcard(self) -> bool:
        return self.series.endswith("*")

    def scope_of(self, series: str) -> str | None:
        """The scope this rule watches in ``series``, or None."""
        if not self.wildcard:
            return "fleet" if series == self.series else None
        prefix = self.series[:-1]
        return series[len(prefix):] if series.startswith(prefix) else None

    def breached(self, value: float) -> bool:
        if self.comparison == "above":
            return value > self.threshold
        return value < self.threshold

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "series": self.series,
            "kind": self.kind,
            "comparison": self.comparison,
            "threshold": self.threshold,
            "for_ticks": self.for_ticks,
            "clear_ticks": self.clear_ticks,
            "severity": self.severity.value,
            "description": self.description,
        }


@dataclass(frozen=True)
class AlertEvent:
    """One deduped transition in the alert log."""

    tick: int
    rule: str
    scope: str
    transition: str  # "fired" | "resolved"
    value: float
    severity: str
    description: str = ""

    def format(self) -> str:
        return (
            f"[tick {self.tick:>4}] {self.severity.upper():8} "
            f"{self.rule} ({self.scope}) {self.transition} value={self.value:g}"
        )

    def to_dict(self) -> dict:
        return {
            "tick": self.tick,
            "rule": self.rule,
            "scope": self.scope,
            "transition": self.transition,
            "value": self.value,
            "severity": self.severity,
        }


@dataclass
class Alert:
    """Mutable state machine for one (rule, scope) pair.

    The streak that decides the next transition is exact. An alert whose
    condition agrees with its state is not re-evaluated until its input
    changes, so the other streak stops at the count it had reached.
    """

    rule: AlertRule
    scope: str
    state: AlertState = AlertState.PENDING
    since_tick: int | None = None
    last_value: float = 0.0
    fired_count: int = 0
    acked: bool = False
    bad_streak: int = 0
    good_streak: int = 0

    @property
    def firing(self) -> bool:
        return self.state is AlertState.FIRING

    def to_dict(self) -> dict:
        return {
            "rule": self.rule.name,
            "scope": self.scope,
            "state": self.state.value,
            "since_tick": self.since_tick,
            "last_value": self.last_value,
            "fired_count": self.fired_count,
            "acked": self.acked,
        }


class AlertEngine:
    """Evaluates rules each sampling tick; owns the deduped event log.

    One engine evaluates one :class:`RingStore`: it learns which series
    were written from the store's :meth:`~RingStore.drain_changes`.
    """

    def __init__(self, rules: tuple[AlertRule, ...] | list[AlertRule]):
        names = [rule.name for rule in rules]
        if len(set(names)) != len(names):
            raise ObsError("alert rule names must be unique")
        self.rules = tuple(rules)
        self.events: list[AlertEvent] = []
        self.last_tick = 0
        #: Alerts firing now.
        self.firing = 0
        #: Scopes the last :meth:`evaluate` looked at.
        self.scopes_evaluated = 0
        self._alerts: dict[tuple[str, str], Alert] = {}
        # Scopes due at the next evaluation, as (rule index, scope) ->
        # series, and absence scopes due once a later tick is reached.
        self._due: dict[tuple[int, str], str] = {}
        self._wake: list[tuple[int, int, str, str]] = []
        # Series name -> the (rule index, scope) pairs watching it.
        self._routes: dict[str, tuple[tuple[int, str], ...]] = {}

    # --- evaluation --------------------------------------------------------

    def _observe(self, alert: Alert, tick: int, value: float, bad: bool) -> AlertEvent | None:
        alert.last_value = value
        if bad:
            alert.bad_streak += 1
            alert.good_streak = 0
            if not alert.firing and alert.bad_streak >= alert.rule.for_ticks:
                alert.state = AlertState.FIRING
                alert.since_tick = tick
                alert.fired_count += 1
                alert.acked = False
                self.firing += 1
                return AlertEvent(
                    tick=tick,
                    rule=alert.rule.name,
                    scope=alert.scope,
                    transition="fired",
                    value=value,
                    severity=alert.rule.severity.value,
                    description=alert.rule.description,
                )
        else:
            alert.good_streak += 1
            alert.bad_streak = 0
            if alert.firing and alert.good_streak >= alert.rule.clear_ticks:
                alert.state = AlertState.RESOLVED
                self.firing -= 1
                return AlertEvent(
                    tick=tick,
                    rule=alert.rule.name,
                    scope=alert.scope,
                    transition="resolved",
                    value=value,
                    severity=alert.rule.severity.value,
                    description=alert.rule.description,
                )
        return None

    def evaluate(self, store: RingStore, tick: int) -> list[AlertEvent]:
        """Evaluate every due scope against ``store`` at ``tick``.

        A series with no fresh sample this tick (stale or missing)
        counts as *clear* for threshold/rate rules — so a completed
        job's per-scope alerts resolve instead of firing forever — and
        as *breached* for absence rules once staleness exceeds the
        threshold. Scopes that are not due (see the module docstring)
        would evaluate to no change and are skipped.
        """
        if tick <= self.last_tick and self.last_tick:
            raise ObsError(
                f"alert ticks must increase: got {tick} after {self.last_tick}"
            )
        self.last_tick = tick
        due, self._due = self._due, {}
        wake = self._wake
        while wake and wake[0][0] <= tick:
            _, index, scope, series_name = heapq.heappop(wake)
            due[(index, scope)] = series_name
        for series_name in store.drain_changes():
            routes = self._routes.get(series_name)
            if routes is None:
                routes = self._routes[series_name] = tuple(
                    (index, scope)
                    for index, rule in enumerate(self.rules)
                    if (scope := rule.scope_of(series_name)) is not None
                )
            for route in routes:
                due[route] = series_name
        self.scopes_evaluated = len(due)
        emitted: list[AlertEvent] = []
        for index, scope in sorted(due):
            rule = self.rules[index]
            series_name = due[(index, scope)]
            ring = store.get(series_name)
            if ring is None:
                continue
            key = (rule.name, scope)
            alert = self._alerts.get(key)
            last_tick = ring.last_tick()
            if rule.kind == "absence":
                if last_tick is None:
                    continue  # never reported; nothing to go silent
                staleness = tick - last_tick
                bad = staleness > rule.threshold
                value = float(staleness)
            else:
                value = ring.last() if last_tick == tick else 0.0
                bad = last_tick == tick and rule.breached(value)
                if alert is None and not bad:
                    continue  # don't materialize healthy scopes
            if alert is None:
                alert = Alert(rule=rule, scope=scope)
                self._alerts[key] = alert
            event = self._observe(alert, tick, value, bad)
            if event is not None:
                emitted.append(event)
            if bad != alert.firing or (last_tick == tick and not ring.held):
                # Mid-streak, or fresh from a one-off write: it either
                # changes or goes stale by the next evaluation.
                self._due[(index, scope)] = series_name
            elif rule.kind == "absence" and last_tick < tick:
                if alert.firing:
                    self._due[(index, scope)] = series_name  # staleness grows
                elif math.isfinite(rule.threshold):
                    breach = last_tick + math.floor(rule.threshold) + 1
                    heapq.heappush(wake, (breach, index, scope, series_name))
        self.events.extend(emitted)
        return emitted

    def finish(self, tick: int | None = None) -> list[AlertEvent]:
        """End of run: resolve anything still firing (deduped events)."""
        tick = self.last_tick + 1 if tick is None else tick
        emitted: list[AlertEvent] = []
        for alert in self._ordered_alerts():
            if alert.firing:
                alert.state = AlertState.RESOLVED
                self.firing -= 1
                alert.good_streak = alert.rule.clear_ticks
                alert.bad_streak = 0
                emitted.append(
                    AlertEvent(
                        tick=tick,
                        rule=alert.rule.name,
                        scope=alert.scope,
                        transition="resolved",
                        value=alert.last_value,
                        severity=alert.rule.severity.value,
                        description="end of run",
                    )
                )
        self.events.extend(emitted)
        self.last_tick = tick
        return emitted

    # --- reading -----------------------------------------------------------

    def _ordered_alerts(self) -> list[Alert]:
        order = {rule.name: index for index, rule in enumerate(self.rules)}
        return sorted(
            self._alerts.values(),
            key=lambda alert: (
                alert.rule.severity.rank,
                order[alert.rule.name],
                alert.scope,
            ),
        )

    def active(self) -> list[Alert]:
        """Firing alerts, critical first, in stable rule/scope order."""
        return [alert for alert in self._ordered_alerts() if alert.firing]

    def alert(self, rule: str, scope: str = "fleet") -> Alert | None:
        return self._alerts.get((rule, scope))

    def ack(self, rule: str, scope: str | None = None) -> int:
        """Acknowledge firing alerts of one rule; returns how many."""
        acked = 0
        for (name, alert_scope), alert in self._alerts.items():
            if name != rule or not alert.firing or alert.acked:
                continue
            if scope is not None and alert_scope != scope:
                continue
            alert.acked = True
            acked += 1
        return acked

    def to_dict(self) -> dict:
        """The alert-only dump (``tpupoint alerts --out``): rules, the
        event log, and still-active alerts — deliberately free of rings
        and per-shard state, so the file is identical at any shard count."""
        return {
            "version": 1,
            "last_tick": self.last_tick,
            "rules": [rule.to_dict() for rule in self.rules],
            "events": [event.to_dict() for event in self.events],
            "active": [alert.to_dict() for alert in self.active()],
        }


def builtin_rules(
    drift_distance: float = DEFAULT_DRIFT_DISTANCE,
    goodput_floor: float = 0.25,
    sdc_drop: float = DEFAULT_SDC_DROP,
) -> tuple[AlertRule, ...]:
    """The stock fleet rule set the health monitor installs.

    All series here are fleet-level (aggregated across shards or read
    from the shared ledger/default registry), so the rules evaluate
    identically at any shard count.
    """
    return (
        AlertRule(
            name="CIRCUIT_FLAP",
            series="profiler:circuit_trips:rate",
            kind="rate",
            threshold=0.0,
            comparison="above",
            for_ticks=1,
            clear_ticks=2,
            severity=AlertSeverity.CRITICAL,
            description="profile-RPC circuit breakers tripped this window",
        ),
        AlertRule(
            name="INGEST_SATURATION",
            series="serve:records_dropped:rate",
            kind="rate",
            threshold=0.0,
            comparison="above",
            for_ticks=1,
            clear_ticks=2,
            severity=AlertSeverity.WARNING,
            description="ingest queues shed records this window",
        ),
        AlertRule(
            name="QUARANTINE_GROWTH",
            series="serve:records_quarantined:rate",
            kind="rate",
            threshold=0.0,
            comparison="above",
            for_ticks=1,
            clear_ticks=2,
            severity=AlertSeverity.WARNING,
            description="the fleet quarantined records this window",
        ),
        AlertRule(
            name="GOODPUT_COLLAPSE",
            series="slo:goodput:ratio",
            kind="threshold",
            threshold=goodput_floor,
            comparison="below",
            for_ticks=2,
            clear_ticks=2,
            severity=AlertSeverity.CRITICAL,
            description="windowed goodput ratio fell through the floor",
        ),
        AlertRule(
            name="GOODPUT_BURN",
            series="slo:goodput:burning",
            kind="threshold",
            threshold=0.5,
            comparison="above",
            for_ticks=1,
            clear_ticks=1,
            severity=AlertSeverity.CRITICAL,
            description="goodput SLO burning in both burn-rate windows",
        ),
        AlertRule(
            name="INGEST_BURN",
            series="slo:ingest:burning",
            kind="threshold",
            threshold=0.5,
            comparison="above",
            for_ticks=1,
            clear_ticks=1,
            severity=AlertSeverity.WARNING,
            description="ingest SLO burning in both burn-rate windows",
        ),
        AlertRule(
            name="PHASE_DRIFT",
            series="drift:*",
            kind="threshold",
            threshold=drift_distance,
            comparison="above",
            for_ticks=1,
            clear_ticks=1,
            severity=AlertSeverity.WARNING,
            description="live phase fingerprint drifted from its baseline",
        ),
        AlertRule(
            name="CHIP_SDC_SUSPECT",
            series="chip_sdc:*",
            kind="threshold",
            threshold=sdc_drop,
            comparison="above",
            # Two consecutive bad windows before paging: one anomalous
            # window can be an excursion; a chip silently corrupting
            # its accumulators stays degraded.
            for_ticks=2,
            clear_ticks=2,
            severity=AlertSeverity.CRITICAL,
            description="chip MXU throughput dropped like a silent-data-corruption fault",
        ),
    )
