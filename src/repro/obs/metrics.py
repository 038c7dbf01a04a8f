"""Toolchain metrics: counters, gauges, and histograms with labels.

A :class:`MetricsRegistry` holds named metric *families*; each family
yields one child per label combination (``family.labels(algorithm="ols")``)
or a single unlabeled child. Values export two ways:

* :meth:`MetricsRegistry.render` — Prometheus text exposition format
  (``# HELP`` / ``# TYPE`` headers, ``name{label="v"} value`` samples,
  cumulative ``_bucket``/``_sum``/``_count`` series for histograms);
* :meth:`MetricsRegistry.to_dict` — a JSON-friendly snapshot.

Metric names follow ``repro_<subsystem>_<name>_<unit>`` (see
``docs/observability.md``). A process-wide default registry backs the
module-level :func:`counter`/:func:`gauge`/:func:`histogram` helpers the
instrumented modules use; :class:`~repro.serve.metrics.ServiceMetrics`
instances carry their own registry so per-service counts stay isolated.
All operations are lock-protected and safe under concurrent use.
"""

from __future__ import annotations

import json
import math
import re
import threading
from pathlib import Path

from repro.errors import ObsError

_NAME_RE = re.compile(r"^[a-zA-Z_:][a-zA-Z0-9_:]*$")
_LABEL_RE = re.compile(r"^[a-zA-Z_][a-zA-Z0-9_]*$")

#: Default latency buckets (seconds): toolchain work spans microseconds
#: (queue pops) to tens of seconds (clustering sweeps).
DEFAULT_BUCKETS = (
    0.0001,
    0.001,
    0.005,
    0.01,
    0.05,
    0.1,
    0.5,
    1.0,
    5.0,
    30.0,
)


def _escape_label_value(value: str) -> str:
    return value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")


def _format_value(value: float) -> str:
    if value == math.inf:
        return "+Inf"
    if float(value).is_integer():
        return str(int(value))
    return repr(float(value))


def _label_suffix(labels: dict[str, str]) -> str:
    if not labels:
        return ""
    inner = ",".join(
        f'{key}="{_escape_label_value(str(value))}"' for key, value in labels.items()
    )
    return "{" + inner + "}"


class Counter:
    """A monotonically increasing value."""

    def __init__(self, labels: dict[str, str]):
        self.label_values = labels
        self._value = 0.0
        self._lock = threading.Lock()

    @property
    def value(self) -> float:
        return self._value

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ObsError("counters only go up; inc() needs a non-negative amount")
        with self._lock:
            self._value += amount

    def _reset(self) -> None:
        self._value = 0.0


class Gauge:
    """A value that can move in either direction."""

    def __init__(self, labels: dict[str, str]):
        self.label_values = labels
        self._value = 0.0
        self._lock = threading.Lock()

    @property
    def value(self) -> float:
        return self._value

    def set(self, value: float) -> None:
        with self._lock:
            self._value = float(value)

    def inc(self, amount: float = 1.0) -> None:
        with self._lock:
            self._value += amount

    def dec(self, amount: float = 1.0) -> None:
        self.inc(-amount)

    def _reset(self) -> None:
        self._value = 0.0


class Histogram:
    """Bucketed observations with a running sum and count.

    Buckets follow Prometheus semantics: an observation lands in every
    bucket whose upper bound is >= the value (``le`` is inclusive), and
    exposition renders the counts cumulatively with a final ``+Inf``.
    """

    def __init__(self, labels: dict[str, str], buckets: tuple[float, ...]):
        self.label_values = labels
        self.buckets = buckets
        self._bucket_counts = [0] * (len(buckets) + 1)  # trailing +Inf
        self._sum = 0.0
        self._count = 0
        self._max = 0.0
        self._lock = threading.Lock()

    def observe(self, value: float) -> None:
        with self._lock:
            index = len(self.buckets)
            for i, bound in enumerate(self.buckets):
                if value <= bound:
                    index = i
                    break
            self._bucket_counts[index] += 1
            self._sum += value
            self._count += 1
            self._max = max(self._max, value)

    @property
    def count(self) -> int:
        return self._count

    @property
    def sum(self) -> float:
        return self._sum

    @property
    def max(self) -> float:
        """Largest value observed so far (0.0 before any observation)."""
        return self._max

    @property
    def mean(self) -> float:
        if self._count == 0:
            return 0.0
        return self._sum / self._count

    def cumulative_buckets(self) -> list[tuple[float, int]]:
        """``(upper_bound, cumulative_count)`` pairs, ending at +Inf."""
        with self._lock:
            pairs: list[tuple[float, int]] = []
            running = 0
            for bound, count in zip(self.buckets, self._bucket_counts):
                running += count
                pairs.append((bound, running))
            pairs.append((math.inf, self._count))
            return pairs

    def _reset(self) -> None:
        self._bucket_counts = [0] * (len(self.buckets) + 1)
        self._sum = 0.0
        self._count = 0
        self._max = 0.0


_CHILD_TYPES = {"counter": Counter, "gauge": Gauge, "histogram": Histogram}


class MetricFamily:
    """All children of one named metric, keyed by label values."""

    def __init__(
        self,
        name: str,
        kind: str,
        help: str = "",
        label_names: tuple[str, ...] = (),
        buckets: tuple[float, ...] = DEFAULT_BUCKETS,
    ):
        if not _NAME_RE.match(name):
            raise ObsError(f"invalid metric name {name!r}")
        for label in label_names:
            if not _LABEL_RE.match(label):
                raise ObsError(f"invalid label name {label!r} on {name}")
        if kind == "histogram" and (
            not buckets or list(buckets) != sorted(set(buckets))
        ):
            raise ObsError(f"histogram {name} buckets must be sorted and distinct")
        self.name = name
        self.kind = kind
        self.help = help
        self.label_names = tuple(label_names)
        self.buckets = tuple(buckets)
        self._children: dict[tuple[str, ...], object] = {}
        self._lock = threading.Lock()

    def labels(self, **label_values: str):
        """The child for one label combination (created on first use)."""
        if set(label_values) != set(self.label_names):
            raise ObsError(
                f"metric {self.name} takes labels {self.label_names}, "
                f"got {tuple(sorted(label_values))}"
            )
        key = tuple(str(label_values[name]) for name in self.label_names)
        with self._lock:
            child = self._children.get(key)
            if child is None:
                labels = dict(zip(self.label_names, key))
                if self.kind == "histogram":
                    child = Histogram(labels, self.buckets)
                else:
                    child = _CHILD_TYPES[self.kind](labels)
                self._children[key] = child
            return child

    def find(self, **label_values: str) -> object | None:
        """The child for one label combination, or None; never creates one.

        A lookup adds and removes nothing, so it takes no lock.
        """
        key = tuple([str(label_values[name]) for name in self.label_names])
        return self._children.get(key)

    def remove(self, **label_values: str) -> object | None:
        """Drop one child (e.g. when its labeled entity is evicted)."""
        key = tuple(str(label_values[name]) for name in self.label_names)
        with self._lock:
            return self._children.pop(key, None)

    def children(self) -> list:
        with self._lock:
            return list(self._children.values())

    def _default_child(self):
        return self.labels()


class MetricsRegistry:
    """A namespace of metric families; the unit of exposition."""

    def __init__(self):
        self._families: dict[str, MetricFamily] = {}
        self._lock = threading.Lock()

    # --- registration ------------------------------------------------------

    def _family(
        self,
        name: str,
        kind: str,
        help: str,
        labels: tuple[str, ...],
        buckets: tuple[float, ...] = DEFAULT_BUCKETS,
    ) -> MetricFamily:
        with self._lock:
            family = self._families.get(name)
            if family is None:
                family = MetricFamily(
                    name, kind, help=help, label_names=tuple(labels), buckets=buckets
                )
                self._families[name] = family
                return family
        if family.kind != kind or family.label_names != tuple(labels):
            raise ObsError(
                f"metric {name} already registered as {family.kind}"
                f"{family.label_names}, not {kind}{tuple(labels)}"
            )
        return family

    def counter(self, name: str, help: str = "", labels: tuple[str, ...] = ()) -> MetricFamily:
        """Register (or fetch) a counter family; idempotent by name."""
        return self._family(name, "counter", help, tuple(labels))

    def gauge(self, name: str, help: str = "", labels: tuple[str, ...] = ()) -> MetricFamily:
        return self._family(name, "gauge", help, tuple(labels))

    def histogram(
        self,
        name: str,
        help: str = "",
        labels: tuple[str, ...] = (),
        buckets: tuple[float, ...] = DEFAULT_BUCKETS,
    ) -> MetricFamily:
        return self._family(name, "histogram", help, tuple(labels), buckets=tuple(buckets))

    # --- reading -----------------------------------------------------------

    def families(self) -> list[MetricFamily]:
        with self._lock:
            return [self._families[name] for name in sorted(self._families)]

    def get(self, name: str) -> MetricFamily | None:
        with self._lock:
            return self._families.get(name)

    def reset(self) -> None:
        """Zero every child without invalidating family handles."""
        for family in self.families():
            for child in family.children():
                child._reset()

    # --- exposition --------------------------------------------------------

    def render(self) -> str:
        """Prometheus text exposition of every family."""
        lines: list[str] = []
        for family in self.families():
            lines.append(f"# HELP {family.name} {family.help}")
            lines.append(f"# TYPE {family.name} {family.kind}")
            children = family.children()
            if not children and not family.label_names:
                # An unlabeled family always exposes its (zero) sample.
                children = [family._default_child()]
            for child in children:
                suffix = _label_suffix(child.label_values)
                if family.kind == "histogram":
                    for bound, count in child.cumulative_buckets():
                        labels = dict(child.label_values)
                        labels["le"] = _format_value(bound)
                        lines.append(
                            f"{family.name}_bucket{_label_suffix(labels)} {count}"
                        )
                    lines.append(f"{family.name}_sum{suffix} {_format_value(child.sum)}")
                    lines.append(f"{family.name}_count{suffix} {child.count}")
                else:
                    lines.append(f"{family.name}{suffix} {_format_value(child.value)}")
        return "\n".join(lines) + "\n"

    def to_dict(self) -> dict:
        """A JSON-friendly snapshot of every family."""
        snapshot: dict = {}
        for family in self.families():
            samples = []
            for child in family.children():
                entry: dict = {"labels": dict(child.label_values)}
                if family.kind == "histogram":
                    entry["count"] = child.count
                    entry["sum"] = child.sum
                    entry["buckets"] = {
                        _format_value(bound): count
                        for bound, count in child.cumulative_buckets()
                    }
                else:
                    entry["value"] = child.value
                samples.append(entry)
            snapshot[family.name] = {
                "type": family.kind,
                "help": family.help,
                "samples": samples,
            }
        return snapshot


#: The process-wide registry the toolchain instruments itself into.
_DEFAULT_REGISTRY = MetricsRegistry()


def default_registry() -> MetricsRegistry:
    """The process-wide metrics registry."""
    return _DEFAULT_REGISTRY


def counter(name: str, help: str = "", labels: tuple[str, ...] = ()) -> MetricFamily:
    """A counter family on the default registry."""
    return _DEFAULT_REGISTRY.counter(name, help=help, labels=labels)


def gauge(name: str, help: str = "", labels: tuple[str, ...] = ()) -> MetricFamily:
    """A gauge family on the default registry."""
    return _DEFAULT_REGISTRY.gauge(name, help=help, labels=labels)


def histogram(
    name: str,
    help: str = "",
    labels: tuple[str, ...] = (),
    buckets: tuple[float, ...] = DEFAULT_BUCKETS,
) -> MetricFamily:
    """A histogram family on the default registry."""
    return _DEFAULT_REGISTRY.histogram(name, help=help, labels=labels, buckets=buckets)


def render_prometheus(registries) -> str:
    """Concatenated Prometheus exposition of several registries."""
    return "".join(registry.render() for registry in registries)


def write_metrics(
    path: str | Path, registries=None
) -> Path:
    """Dump a metrics snapshot; format chosen by suffix.

    ``.json`` writes the merged :meth:`MetricsRegistry.to_dict` snapshot;
    anything else (``.prom``, ``.txt``) writes Prometheus text. With no
    ``registries`` the default registry alone is dumped.
    """
    if registries is None:
        registries = [_DEFAULT_REGISTRY]
    path = Path(path)
    if path.parent != Path(""):
        path.parent.mkdir(parents=True, exist_ok=True)
    if path.suffix == ".json":
        merged: dict = {}
        for registry in registries:
            merged.update(registry.to_dict())
        path.write_text(json.dumps(merged, indent=2) + "\n", encoding="utf-8")
    else:
        path.write_text(render_prometheus(registries), encoding="utf-8")
    return path
