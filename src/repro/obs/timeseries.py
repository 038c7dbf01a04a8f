"""Fixed-capacity telemetry rings over the metrics registries.

The exposition side of :mod:`repro.obs` is point-in-time: a registry
renders whatever its counters hold *now*. Health monitoring needs
history — "did quarantines grow this window?", "what did goodput look
like over the last 40 rounds?" — without unbounded memory. This module
adds that history as **ring buffers**: each named series keeps its last
``capacity`` ``(tick, value)`` points and evicts the oldest beyond that,
so a monitor's footprint is O(series x capacity) regardless of run
length, the same statistical-summary discipline the paper's recorder
applies to profile windows.

Three layers:

* :class:`RingBuffer` — one bounded series; strictly increasing ticks.
* :class:`RingStore` — a namespace of rings sharing one capacity, with
  a JSON round-trip (``to_dict``/``from_dict``) for ``--out`` dumps.
  A store also keeps a sample clock, so a ring can be *held*: "this
  value at every sample tick from now on" costs O(1) however many
  samples it spans, and the held points are written out only when the
  ring is read. A held ring reads exactly as if the value had been
  appended at each of those ticks, eviction included, so a tenant that
  reports nothing new costs its ring nothing per sample.
* :class:`RegistrySampler` — scrapes a :class:`~repro.obs.metrics.MetricsRegistry`
  into a store: counters become per-tick **rates** (deltas between
  scrapes), gauges record their value, histograms reduce to a small
  deterministic digest (p50/p95/p99 interpolated from the cumulative
  buckets, plus an observation rate).

Ticks are *simulation* time — the fleet driver's scheduling round index
— never wall clock, so two runs of the same seeded fleet produce
bit-identical rings at any shard count.
"""

from __future__ import annotations

import math
import sys
from collections import deque
from itertools import islice

from repro.errors import ObsError

#: Points retained per series; at one sample per fleet round this covers
#: runs far longer than the CLI drives.
DEFAULT_RING_CAPACITY = 240

#: Histogram digest quantiles (suffixes ``:p50``/``:p95``/``:p99``).
DEFAULT_QUANTILES = (0.5, 0.95, 0.99)

_SPARK_GLYPHS = "▁▂▃▄▅▆▇█"


def histogram_quantile(
    cumulative: list[tuple[float, int]],
    quantile: float,
    observed_max: float | None = None,
) -> float:
    """Interpolate one quantile from cumulative ``(bound, count)`` pairs.

    The deterministic digest behind the ``:pNN`` series: the quantile's
    rank is located in the first bucket whose cumulative count reaches
    it and linearly interpolated between the bucket's bounds (Prometheus
    ``histogram_quantile`` semantics). A rank landing in the ``+Inf``
    bucket returns ``observed_max`` when known, else the last finite
    bound — never infinity, so rings stay plottable.
    """
    if not 0.0 < quantile < 1.0:
        raise ObsError("quantile must be inside (0, 1)")
    if not cumulative:
        return 0.0
    total = cumulative[-1][1]
    if total <= 0:
        return 0.0
    rank = quantile * total
    previous_bound, previous_count = 0.0, 0
    for bound, count in cumulative:
        if count >= rank:
            if math.isinf(bound):
                if observed_max is not None:
                    return max(observed_max, previous_bound)
                return previous_bound
            if count == previous_count:
                return bound
            fraction = (rank - previous_count) / (count - previous_count)
            return previous_bound + (bound - previous_bound) * fraction
        previous_bound, previous_count = bound, count
    return previous_bound


class _SampleClock:
    """The ticks a store was sampled at; the last ``capacity + 1`` are kept.

    Sample ``i`` is the ``i``-th call to :meth:`advance`. A held ring
    reads its ticks from here: at most its capacity's worth, ending at
    the current sample or, when its hold ends, at the one before.
    """

    __slots__ = ("count", "_ticks")

    def __init__(self, capacity: int):
        if capacity >= sys.maxsize:
            raise ObsError(f"ring capacity must be below {sys.maxsize}, got {capacity}")
        self.count = 0
        self._ticks: deque[int] = deque(maxlen=capacity + 1)

    @property
    def tick(self) -> int | None:
        """The current sample's tick (None before the first sample)."""
        return self._ticks[-1] if self._ticks else None

    def advance(self, tick: int) -> None:
        if self._ticks and tick <= self._ticks[-1]:
            raise ObsError(
                f"ring ticks must increase: got {tick} after {self._ticks[-1]}"
            )
        self._ticks.append(int(tick))
        self.count += 1

    def span(self, start: int, stop: int) -> list[int]:
        """The ticks of samples ``start`` to ``stop - 1`` (still kept)."""
        first = self.count - len(self._ticks)
        return list(islice(self._ticks, start - first, stop - first))


class RingBuffer:
    """One bounded time series of ``(tick, value)`` points.

    A ring in a :class:`RingStore` can be held at a value through the
    store (:meth:`RingStore.hold`). Until the hold ends, the ring has
    that value at every sample tick of the store's clock; the points
    are written out when a reader asks for them, and :meth:`last`,
    :meth:`last_tick` and ``len`` answer without writing them.
    """

    __slots__ = ("capacity", "evicted", "_ticks", "_values", "_clock", "_held", "_held_from")

    def __init__(self, capacity: int = DEFAULT_RING_CAPACITY):
        if capacity <= 0:
            raise ObsError("ring capacity must be positive")
        self.capacity = capacity
        self.evicted = 0
        self._ticks: list[int] = []
        self._values: list[float] = []
        self._clock: _SampleClock | None = None
        self._held: float | None = None  # None: not held
        self._held_from = 0  # first held sample not yet written out

    def __len__(self) -> int:
        if self._held is None:
            return len(self._ticks)
        return min(
            self.capacity, len(self._ticks) + self._clock.count - self._held_from
        )

    @property
    def held(self) -> bool:
        """Whether the ring gains its value at every sample tick."""
        return self._held is not None

    def _fill(self, stop: int) -> None:
        """Write out the held points of samples up to ``stop - 1``."""
        start = self._held_from
        if stop <= start:
            return
        self._held_from = stop
        ticks = self._clock.span(max(start, stop - self.capacity), stop)
        overflow = len(self._ticks) + (stop - start) - self.capacity
        self._ticks.extend(ticks)
        self._values.extend([self._held] * len(ticks))
        if overflow > 0:
            self.evicted += overflow
            del self._ticks[: -self.capacity]
            del self._values[: -self.capacity]

    def _settle(self) -> None:
        if self._held is not None:
            self._fill(self._clock.count)

    def _end_hold(self) -> None:
        """End the hold before the current sample."""
        if self._held is None:
            return
        current = self._clock.count - 1
        if self._held_from > current:
            raise ObsError("a held ring was read at this sample before its hold changed")
        self._fill(current)
        self._held = None

    def _hold(self, value: float) -> None:
        """Hold ``value`` from the current sample on (see :meth:`RingStore.hold`)."""
        clock = self._clock
        if clock is None or not clock.count:
            raise ObsError("a ring hold needs a sampled store clock")
        self._end_hold()
        if self._ticks and clock.tick <= self._ticks[-1]:
            raise ObsError(
                f"ring ticks must increase: got {clock.tick} after {self._ticks[-1]}"
            )
        self._held = float(value)
        self._held_from = clock.count - 1

    def append(self, tick: int, value: float) -> None:
        """Add one point; ticks must be strictly increasing. Ends a hold."""
        self._end_hold()
        if self._ticks and tick <= self._ticks[-1]:
            raise ObsError(
                f"ring ticks must increase: got {tick} after {self._ticks[-1]}"
            )
        self._ticks.append(int(tick))
        self._values.append(float(value))
        if len(self._ticks) > self.capacity:
            del self._ticks[0]
            del self._values[0]
            self.evicted += 1

    def ticks(self) -> list[int]:
        self._settle()
        return list(self._ticks)

    def values(self) -> list[float]:
        self._settle()
        return list(self._values)

    def last(self) -> float | None:
        if self._held is not None:
            return self._held
        return self._values[-1] if self._values else None

    def last_tick(self) -> int | None:
        if self._held is not None:
            return self._clock.tick
        return self._ticks[-1] if self._ticks else None

    def window(self, n: int) -> list[float]:
        """The most recent ``n`` values (all, when fewer are held)."""
        if n <= 0:
            raise ObsError("window size must be positive")
        self._settle()
        return list(self._values[-n:])

    def mean(self, n: int | None = None) -> float:
        self._settle()
        values = self._values if n is None else self._values[-n:]
        return (sum(values) / len(values)) if values else 0.0

    def to_dict(self) -> dict:
        self._settle()
        return {
            "capacity": self.capacity,
            "evicted": self.evicted,
            "ticks": list(self._ticks),
            "values": list(self._values),
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "RingBuffer":
        """Rebuild a ring from :meth:`to_dict` output; validates shape."""
        if not isinstance(payload, dict):
            raise ObsError(f"ring dump must be an object, got {type(payload).__name__}")
        capacity = payload.get("capacity")
        if not isinstance(capacity, int) or capacity <= 0:
            raise ObsError(f"ring dump has a bad capacity: {capacity!r}")
        ticks = payload.get("ticks")
        values = payload.get("values")
        if not isinstance(ticks, list) or not isinstance(values, list):
            raise ObsError("ring dump needs 'ticks' and 'values' arrays")
        if len(ticks) != len(values):
            raise ObsError(
                f"ring dump is torn: {len(ticks)} ticks vs {len(values)} values"
            )
        if len(ticks) > capacity:
            raise ObsError(f"ring dump holds {len(ticks)} points over capacity {capacity}")
        ring = cls(capacity)
        previous = None
        for tick, value in zip(ticks, values):
            if not isinstance(tick, int) or isinstance(tick, bool):
                raise ObsError(f"ring dump has a non-integer tick: {tick!r}")
            if not isinstance(value, (int, float)) or isinstance(value, bool):
                raise ObsError(f"ring dump has a non-numeric value: {value!r}")
            if previous is not None and tick <= previous:
                raise ObsError(f"ring dump ticks are not increasing at {tick}")
            previous = tick
            try:
                ring.append(tick, float(value))
            except OverflowError:
                raise ObsError(f"ring dump value at tick {tick} is past float range") from None
        evicted = payload.get("evicted") or 0
        if not isinstance(evicted, int) or evicted < 0:
            raise ObsError(f"ring dump has a bad evicted count: {evicted!r}")
        ring.evicted = evicted
        return ring


class RingStore:
    """A namespace of rings sharing one capacity.

    Write through the store (:meth:`record`, :meth:`hold`,
    :meth:`release`, after :meth:`advance` opens a sample): each write
    costs O(1) and keeps :meth:`points` exact and the series written
    since the last :meth:`drain_changes` known, so a reader of changes
    (the alert engine) never scans every series.
    """

    def __init__(self, capacity: int = DEFAULT_RING_CAPACITY):
        if capacity <= 0:
            raise ObsError("ring capacity must be positive")
        self.capacity = capacity
        self._series: dict[str, RingBuffer] = {}
        self._clock = _SampleClock(capacity)
        self._changed: dict[str, None] = {}
        self._points = 0
        # Held rings below capacity gain one point per sample: how many
        # do now, and at which sample count each batch of them is full.
        self._growing = 0
        self._full_at: dict[int, int] = {}
        #: Points written by :meth:`record` and :meth:`hold` since creation.
        self.appended = 0

    def __len__(self) -> int:
        return len(self._series)

    def series(self, name: str) -> RingBuffer:
        """The ring for ``name``, created empty on first use (read it; write through the store)."""
        ring = self._series.get(name)
        if ring is None:
            ring = RingBuffer(self.capacity)
            ring._clock = self._clock
            self._series[name] = ring
        return ring

    def advance(self, tick: int) -> None:
        """Open the sample at ``tick``: every held ring has a point there."""
        self._clock.advance(tick)
        self._growing -= self._full_at.pop(self._clock.count, 0)
        self._points += self._growing

    def _full_count(self, ring: RingBuffer) -> int | None:
        """The sample count from which a held ring gains no more points,
        or None when it gains none at the next sample."""
        if not ring.held:
            return None
        full = ring._held_from + ring.capacity - len(ring._ticks)
        return full + 1 if full > self._clock.count else None

    def _write(self, name: str, ring: RingBuffer, write, *args) -> None:
        before, stop = len(ring), self._full_count(ring)
        try:
            write(*args)
        finally:
            if stop is not None:
                self._growing -= 1
                left = self._full_at[stop] - 1
                if left:
                    self._full_at[stop] = left
                else:
                    del self._full_at[stop]
            self._points += len(ring) - before
            stop = self._full_count(ring)
            if stop is not None:
                self._growing += 1
                self._full_at[stop] = self._full_at.get(stop, 0) + 1
            self._changed[name] = None

    def record(self, name: str, tick: int, value: float) -> None:
        """Append one point to ``name`` (ending its hold, if held)."""
        ring = self.series(name)
        if ring.held:
            self._write(name, ring, ring.append, tick, value)
        else:
            before = len(ring._ticks)
            ring.append(tick, value)
            self._points += len(ring._ticks) - before
            self._changed[name] = None
        self.appended += 1

    def hold(self, name: str, value: float) -> None:
        """Give ``name`` ``value`` at the current sample tick and at every
        later one, until the series is held again, recorded or released.

        Holding the value a ring already holds changes nothing.
        """
        value = float(value)
        ring = self.series(name)
        held = ring.last() if ring.held else None
        if held == value and math.copysign(1.0, held) == math.copysign(1.0, value):
            return
        self._write(name, ring, ring._hold, value)
        self.appended += 1

    def release(self, name: str) -> None:
        """End ``name``'s hold before the current sample tick: the series
        goes stale (no-op when it is not held)."""
        ring = self._series.get(name)
        if ring is not None and ring.held:
            self._write(name, ring, ring._end_hold)

    def drain_changes(self) -> list[str]:
        """Series written since the previous call, in first-write order."""
        changed, self._changed = self._changed, {}
        return list(changed)

    def get(self, name: str) -> RingBuffer | None:
        return self._series.get(name)

    def names(self) -> list[str]:
        return sorted(self._series)

    def match(self, prefix: str) -> list[str]:
        """Series names starting with ``prefix``, sorted."""
        return sorted(name for name in self._series if name.startswith(prefix))

    def points(self) -> int:
        """Total points held across every series (kept current per write)."""
        return self._points

    def to_dict(self) -> dict:
        return {
            "capacity": self.capacity,
            "series": {name: self._series[name].to_dict() for name in self.names()},
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "RingStore":
        if not isinstance(payload, dict):
            raise ObsError(f"ring store dump must be an object, got {type(payload).__name__}")
        capacity = payload.get("capacity")
        if not isinstance(capacity, int) or capacity <= 0:
            raise ObsError(f"ring store dump has a bad capacity: {capacity!r}")
        series = payload.get("series")
        if not isinstance(series, dict):
            raise ObsError("ring store dump needs a 'series' object")
        store = cls(capacity)
        for name, ring_payload in series.items():
            if not isinstance(name, str) or not name:
                raise ObsError(f"ring store dump has a bad series name: {name!r}")
            ring = RingBuffer.from_dict(ring_payload)
            ring._clock = store._clock
            store._series[name] = ring
            store._changed[name] = None
            store._points += len(ring)
        return store


def merge_stores(stores: list[RingStore], capacity: int | None = None) -> RingStore:
    """Sum per-shard stores into one fleet-wide view, pointwise by tick.

    Series sum across stores at matching ticks (absent series contribute
    nothing); quantile digests (``:pNN`` suffixes) take the max instead,
    since latencies do not add across shards. Stores sampled on the same
    tick schedule merge losslessly; misaligned ticks union.
    """
    if capacity is None:
        capacity = max((store.capacity for store in stores), default=DEFAULT_RING_CAPACITY)
    merged = RingStore(capacity)
    names = sorted({name for store in stores for name in store.names()})
    for name in names:
        suffix = name.rsplit(":", 1)[-1]
        is_quantile = (
            ":" in name and suffix.startswith("p") and suffix[1:].isdigit()
        )
        combined: dict[int, float] = {}
        for store in stores:
            ring = store.get(name)
            if ring is None:
                continue
            for tick, value in zip(ring.ticks(), ring.values()):
                if is_quantile:
                    combined[tick] = max(combined.get(tick, value), value)
                else:
                    combined[tick] = combined.get(tick, 0.0) + value
        for tick in sorted(combined):
            merged.record(name, tick, combined[tick])
    return merged


def sparkline(values: list[float], width: int = 24) -> str:
    """Render a series as unicode block glyphs (the dashboard rings)."""
    if not values:
        return ""
    tail = values[-width:]
    low = min(tail)
    high = max(tail)
    if high <= low:
        return _SPARK_GLYPHS[0] * len(tail)
    span = high - low
    glyphs = []
    for value in tail:
        index = int((value - low) / span * (len(_SPARK_GLYPHS) - 1))
        glyphs.append(_SPARK_GLYPHS[index])
    return "".join(glyphs)


class RegistrySampler:
    """Scrapes metric families into a :class:`RingStore`.

    Counters record as ``<name>[{labels}]:rate`` (delta since the prior
    scrape; the first scrape establishes the baseline and records 0, so
    totals accumulated before monitoring began never masquerade as a
    burst). Gauges record their value under the bare name. Histograms
    record ``:p50``/``:p95``/``:p99`` digests and an observation
    ``:rate``. Label sets render sorted, so series names are stable.
    """

    def __init__(
        self,
        store: RingStore,
        prefix: str = "",
        quantiles: tuple[float, ...] = DEFAULT_QUANTILES,
    ):
        self.store = store
        self.prefix = prefix
        self.quantiles = tuple(quantiles)
        self._previous: dict[str, float] = {}

    def _series_name(self, family_name: str, labels: dict[str, str]) -> str:
        if not labels:
            return f"{self.prefix}{family_name}"
        inner = ",".join(f"{key}={labels[key]}" for key in sorted(labels))
        return f"{self.prefix}{family_name}{{{inner}}}"

    def _rate(self, name: str, tick: int, total: float) -> None:
        previous = self._previous.get(name)
        self._previous[name] = total
        delta = max(total - previous, 0.0) if previous is not None else 0.0
        self.store.record(name, tick, delta)

    def sample(self, registry, tick: int, names: set[str] | None = None) -> int:
        """Scrape one registry at ``tick``; returns series touched."""
        touched = 0
        for family in registry.families():
            if names is not None and family.name not in names:
                continue
            for child in family.children():
                base = self._series_name(family.name, child.label_values)
                if family.kind == "counter":
                    self._rate(f"{base}:rate", tick, child.value)
                    touched += 1
                elif family.kind == "gauge":
                    self.store.record(base, tick, child.value)
                    touched += 1
                else:  # histogram
                    pairs = child.cumulative_buckets()
                    for quantile in self.quantiles:
                        label = f"p{int(round(quantile * 100))}"
                        self.store.record(
                            f"{base}:{label}",
                            tick,
                            histogram_quantile(pairs, quantile, observed_max=child.max),
                        )
                    self._rate(f"{base}:rate", tick, float(child.count))
                    touched += 1
        return touched
