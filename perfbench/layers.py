"""Layer spans recorded from the benchmark's own code, and self time.

The benchmark wraps every call it makes into a layer's public surface in
a span named ``<layer>.<operation>`` (``serve.pump``, ``runtime.train``,
...). Spans go to a private :class:`repro.obs.tracing.Tracer`, so they
never mix with the program's default tracer. With tracing off a span is
a shared no-op context, so untraced runs pay one attribute lookup and
one call per wrapped call.

:func:`self_times` turns a finished span list into per-name self time:
a span's duration minus the part of its interval its child spans cover,
using the per-thread parent links the tracer records. A span may also
*carve* time out of its self time for another name — the profiler is
reachable only through the step hook inside ``train_steps``, so the
training span carves the profiler's request time (measured from the
program's own request histogram) out of its own self time.
"""

from __future__ import annotations

from collections import defaultdict
from contextlib import nullcontext

from repro.obs.tracing import Tracer

#: Finished spans held before the benchmark folds them into totals.
MAX_SPANS = 1_000_000

_NULL = nullcontext()


class LayerTracer:
    """Spans around layer calls, off by default."""

    def __init__(self) -> None:
        self.tracer = Tracer(enabled=False, max_spans=MAX_SPANS)

    @property
    def enabled(self) -> bool:
        return self.tracer.enabled

    @enabled.setter
    def enabled(self, value: bool) -> None:
        self.tracer.enabled = bool(value)

    def span(self, name: str, **attributes):
        """A span named ``name`` when tracing, else a no-op context."""
        if not self.tracer.enabled:
            return _NULL
        return self.tracer.trace(name, **attributes)

    def wrap(self, name: str, fn):
        """``fn`` with every call recorded as a span named ``name``."""

        def wrapped(*args, **kwargs):
            with self.span(name):
                return fn(*args, **kwargs)

        return wrapped

    def drain(self) -> list:
        """Finished spans since the last drain; clears the tracer."""
        spans = self.tracer.spans()
        self.tracer.reset()
        return spans


def _covered_us(start: float, end: float, intervals: list[tuple[float, float]]) -> float:
    """Length of the union of ``intervals`` clipped to ``[start, end]``."""
    covered = 0.0
    cursor = start
    for lo, hi in sorted(intervals):
        lo, hi = max(lo, cursor), min(hi, end)
        if hi > lo:
            covered += hi - lo
            cursor = hi
    return covered


def self_times(spans) -> tuple[dict[str, float], dict[str, int]]:
    """``({name: self seconds}, {name: span count})`` over finished spans.

    Parent links are resolved within each thread only: a span's children
    are the spans on the same thread whose ``parent_id`` names it. A
    span's ``carve`` attribute (``{name: seconds}``) names time inside
    the span, its children included, that belongs to another name; the
    part not covered by children moves from the span's self time to that
    name.
    """
    children: dict[tuple[int, int], list[tuple[float, float]]] = defaultdict(list)
    for span in spans:
        if span.parent_id is not None:
            children[(span.thread_id, span.parent_id)].append(
                (span.start_us, span.start_us + span.duration_us)
            )
    seconds: dict[str, float] = defaultdict(float)
    counts: dict[str, int] = defaultdict(int)
    for span in spans:
        end = span.start_us + span.duration_us
        inner = children.get((span.thread_id, span.span_id), ())
        covered = _covered_us(span.start_us, end, list(inner)) / 1e6
        own = span.duration_us / 1e6 - covered
        for name, gross in span.attributes.get("carve", {}).items():
            carved = min(max(gross - covered, 0.0), own)
            seconds[name] += carved
            own -= carved
        seconds[span.name] += own
        counts[span.name] += 1
    return dict(seconds), dict(counts)
