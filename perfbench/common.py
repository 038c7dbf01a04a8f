"""Shared pieces of the three workloads: run context, episode record,
output digests, latency summaries and program counters."""

from __future__ import annotations

import hashlib
import json
import statistics
import time
from dataclasses import dataclass, field
from functools import partial
from pathlib import Path

import numpy as np

from repro.core.analyzer.kmeans import kmeans
from repro.core.analyzer.pca import PCA
from repro.obs.metrics import default_registry

from layers import LayerTracer


class CheckFailed(AssertionError):
    """An output check failed; the run reports no numbers."""


def check(condition: bool, message: str) -> None:
    """Fail the run with ``message`` unless ``condition`` holds."""
    if not condition:
        raise CheckFailed(message)


@dataclass
class Bench:
    """What every workload gets: seed, tracer and a scratch dir."""

    seed: int
    workdir: Path
    layers: LayerTracer = field(default_factory=LayerTracer)
    #: Episodes run so far; workloads do their one-off checks on the first.
    episodes: int = 0


#: The probe's time on a quiet 2-vCPU Xeon VM; end-to-end timings are
#: scaled to a host where the probe takes this long.
REFERENCE_PROBE_S = 0.005

_PROBE_ROWS = np.random.default_rng(7).normal(size=(1024, 32))
_PROBE_CENTERS_T = np.ascontiguousarray(_PROBE_ROWS[:32].T)
_PROBE_OUT = np.empty((1024, 32))


def probe() -> float:
    """Seconds a fixed reference kernel takes now: the host's current speed.

    The kernel is the benchmark's own code, never the program's: a few
    matrix products into a preallocated buffer in numpy and a
    dict-counting loop in Python, the two kinds of work the workloads
    spend their time on. A change to the program never changes its
    cost; contention from other tenants of the host slows it as it
    slows the program.
    """
    began = time.perf_counter()
    for _ in range(30):
        np.matmul(_PROBE_ROWS, _PROBE_CENTERS_T, out=_PROBE_OUT)
        _PROBE_OUT.argmin(axis=1)
    counts: dict[int, int] = {}
    for value in range(30_000):
        key = value % 61
        counts[key] = counts.get(key, 0) + 1
    return time.perf_counter() - began


for _ in range(3):  # first calls fault in pages and load BLAS
    probe()


class Stopwatch:
    """Splits one episode's wall time into named stages, and samples the
    host's speed while it runs.

    ``lap(stage)`` charges the time since the previous lap to ``stage``:
    ``ingest`` (inputs flowing in), ``answer`` (last input to last
    answered query) and, offline, ``tune``/``online``; a set-up is one
    ``setup`` stage. The stages cover the episode from the first timed
    input to the last answered query.

    ``sample()`` times the reference :func:`probe` between two pieces of
    work, and every lap ends with one, so the stages are cut into
    segments with a probe at each end. The probes' own time is left out.
    A segment's *scaled* time is its time on a host where the probe
    takes ``REFERENCE_PROBE_S``: ``seconds * REFERENCE_PROBE_S / mean of
    its two probes``. ``query(ms)`` records a query latency; it is
    scaled with the segment it ran in.
    """

    def __init__(self) -> None:
        self.probes = [probe()]
        #: ``(stage, seconds)``; segment ``k`` lies between probes ``k`` and ``k + 1``.
        self.segments: list[tuple[str, float]] = []
        #: ``(segment index, milliseconds)``.
        self.queries: list[tuple[int, float]] = []
        self._open: list[float] = []
        self._mark = time.perf_counter()

    def sample(self) -> None:
        self._open.append(time.perf_counter() - self._mark)
        self.probes.append(probe())
        self._mark = time.perf_counter()

    def lap(self, stage: str) -> None:
        self.sample()
        self.segments.extend((stage, seconds) for seconds in self._open)
        self._open = []

    def query(self, ms: float) -> None:
        self.queries.append((len(self.segments) + len(self._open), ms))

    def _scale(self, segment: int) -> float:
        pair = self.probes[segment : segment + 2]
        return REFERENCE_PROBE_S * len(pair) / sum(pair)

    @property
    def stages(self) -> dict[str, float]:
        """Raw seconds per stage."""
        found: dict[str, float] = {}
        for stage, seconds in self.segments:
            found[stage] = found.get(stage, 0.0) + seconds
        return found

    def scaled_stages(self) -> dict[str, float]:
        found: dict[str, float] = {}
        for index, (stage, seconds) in enumerate(self.segments):
            found[stage] = found.get(stage, 0.0) + seconds * self._scale(index)
        return found

    @property
    def queries_ms(self) -> list[float]:
        """Raw query latencies."""
        return [ms for _, ms in self.queries]

    def scaled_queries_ms(self) -> list[float]:
        return [ms * self._scale(segment) for segment, ms in self.queries]


@dataclass
class Episode:
    """One timed pass of a workload, from first input to last answer.

    ``watch`` holds the stage times and the query latencies behind
    ``query_p50_ms``/``query_tail_ms``; ``steps``/``records`` are the
    work of the ``ingest`` stage. ``attempted``/``failed`` count records
    submitted plus queries issued, and records dropped or quarantined
    plus queries that raised.
    """

    watch: Stopwatch
    steps: int
    records: int
    attempted: int
    failed: int
    digest: str
    #: Workload-specific latencies (snapshot and phase queries).
    details: dict[str, list[float]] = field(default_factory=dict)
    #: Per-layer counts read from the program after the episode.
    counts: dict[str, float] = field(default_factory=dict)

    @property
    def stages(self) -> dict[str, float]:
        return self.watch.stages

    @property
    def queries_ms(self) -> list[float]:
        return self.watch.queries_ms

    @property
    def wall_s(self) -> float:
        return sum(self.stages.values())


def digest(value) -> str:
    """A short stable hash of a JSON-serializable value."""
    text = json.dumps(value, sort_keys=True, default=repr, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


def tail(values: list[float]) -> tuple[float, float, int]:
    """``(value, percentile, n)``: the highest percentile with at least
    ten samples beyond it, or the maximum when there are fewer than 20."""
    ordered = sorted(values)
    n = len(ordered)
    if n < 20:
        return ordered[-1], 100.0, n
    return ordered[n - 11], 100.0 * (n - 10) / n, n


def summarize(values: list[float]) -> dict:
    """Median and tail of a latency sample, with the sample count."""
    value, percentile, n = tail(values)
    return {
        "p50": statistics.median(values),
        "tail": value,
        "tail_percentile": percentile,
        "n": n,
    }


def _family_total(name: str, attribute: str = "value") -> float:
    family = default_registry().get(name)
    if family is None:
        return 0.0
    return float(sum(getattr(child, attribute) for child in family.children()))


def profiler_request_seconds() -> float:
    """Cumulative wall seconds inside profile requests, process-wide."""
    return _family_total("repro_profiler_request_seconds", "sum")


def profiler_counts() -> dict[str, float]:
    """Cumulative profile requests sent and records kept, process-wide."""
    return {
        "profiler.requests": _family_total("repro_profiler_requests_total"),
        "profiler.records": _family_total("repro_profiler_records_kept_total"),
    }


def train_steps(bench: Bench, estimator, count: int | None = None) -> None:
    """Run ``count`` steps (or the whole plan) under a ``runtime.train`` span.

    The profiler's request time, which includes the record hooks the
    benchmark wraps in their own spans, is carved out of the span as
    ``profiler.request``.
    """
    run = estimator.train if count is None else partial(estimator.train_steps, count)
    if not bench.layers.enabled:
        run()
        return
    before = profiler_request_seconds()
    with bench.layers.span("runtime.train") as span:
        run()
        span.set(carve={"profiler.request": profiler_request_seconds() - before})


def warm_up() -> None:
    """Pay lazy first-call costs (numpy linear algebra behind PCA and k-means)."""
    rows = np.random.default_rng(0).normal(size=(64, 16))
    kmeans(PCA(max_components=8).fit_transform(rows), 3, seed=0)
