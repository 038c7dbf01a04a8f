"""Toolchain span tracing.

TPUPoint makes *workloads* observable; this module makes the *toolchain
itself* observable. A :class:`Tracer` produces nested, thread-safe spans
around the profiler/analyzer/optimizer/serve hot paths —

>>> with trace("analyzer.kmeans_sweep", steps=420) as span:
...     for k in range(1, 16):
...         with trace("analyzer.kmeans_fit", k=k):
...             fit(k)
...     span.set(best_k=6)

— and exports them in the same chrome://tracing Trace Event Format the
analyzer already emits for workloads (:mod:`repro.core.analyzer.visualize`),
so a toolchain trace opens in the same viewer (chrome://tracing, Perfetto).

Spans record *real* wall time (:func:`time.perf_counter`), unlike the
simulated clock the workload traces follow: a toolchain trace answers
"where did the tool spend its time", the paper's Section V overhead
question, for our own implementation. Each thread keeps its own active
span stack (parent linkage never crosses threads); the finished-span log
and id allocation are lock-protected, so concurrent fleet-style use is
safe. An exception inside a span still closes it, tagging the span with
the exception type under the ``error`` attribute.
"""

from __future__ import annotations

import json
import threading
import time
from collections import deque
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path

_PID = 1
_TRACER_NAME = "repro.obs toolchain"

#: Finished spans a tracer retains before it starts dropping. Long
#: fleet runs emit spans every scheduling round; the cap keeps trace
#: memory bounded while ``repro_obs_spans_dropped_total`` records how
#: much history the export is missing.
DEFAULT_MAX_SPANS = 100_000


@dataclass
class Span:
    """One timed, attributed region of toolchain work."""

    span_id: int
    name: str
    start_us: float
    parent_id: int | None = None
    thread_id: int = 0
    duration_us: float | None = None
    attributes: dict = field(default_factory=dict)

    def set(self, **attributes) -> "Span":
        """Attach attributes to the span; returns the span for chaining."""
        self.attributes.update(attributes)
        return self

    @property
    def finished(self) -> bool:
        return self.duration_us is not None


_SPANS_DROPPED = None


def _spans_dropped_counter():
    """The process-wide drop counter, bound on first drop.

    Imported lazily so this module stays importable on its own without
    pulling :mod:`repro.obs.metrics` in at load time.
    """
    global _SPANS_DROPPED
    if _SPANS_DROPPED is None:
        from repro.obs.metrics import counter

        _SPANS_DROPPED = counter(
            "repro_obs_spans_dropped_total",
            "Finished spans evicted from bounded tracer storage.",
        ).labels()
    return _SPANS_DROPPED


class _NullSpan:
    """The span handed out while tracing is disabled; absorbs writes."""

    __slots__ = ()

    def set(self, **attributes) -> "_NullSpan":
        del attributes
        return self


NULL_SPAN = _NullSpan()


def _jsonable(value):
    """Coerce an attribute value so the chrome export always serializes.

    Span attributes accept anything (enums, paths, specs); only JSON
    scalars pass through untouched, everything else exports as ``str``.
    """
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    return str(value)


class Tracer:
    """Collects spans for one process; thread-safe.

    Storage is bounded: once ``max_spans`` finished spans are held, the
    oldest span is dropped per new arrival (the recent history is the
    diagnostic one), in O(1), and ``repro_obs_spans_dropped_total``
    counts what the export will be missing.
    """

    def __init__(self, enabled: bool = True, max_spans: int = DEFAULT_MAX_SPANS):
        if max_spans <= 0:
            raise ValueError("max_spans must be positive")
        self.enabled = enabled
        self.max_spans = max_spans
        self.dropped_spans = 0
        self._lock = threading.Lock()
        self._epoch = time.perf_counter()
        self._spans: deque[Span] = deque(maxlen=max_spans)
        self._next_id = 0
        self._local = threading.local()

    # --- recording ---------------------------------------------------------

    def _now_us(self) -> float:
        return (time.perf_counter() - self._epoch) * 1e6

    def _stack(self) -> list[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = []
            self._local.stack = stack
        return stack

    @contextmanager
    def trace(self, name: str, **attributes):
        """Open a span named ``name``; nests under the thread's current span."""
        if not self.enabled:
            yield NULL_SPAN
            return
        stack = self._stack()
        parent_id = stack[-1].span_id if stack else None
        with self._lock:
            span_id = self._next_id
            self._next_id += 1
        span = Span(
            span_id=span_id,
            name=name,
            start_us=self._now_us(),
            parent_id=parent_id,
            thread_id=threading.get_ident(),
            attributes=dict(attributes),
        )
        stack.append(span)
        try:
            yield span
        except BaseException as error:
            span.attributes.setdefault("error", type(error).__name__)
            raise
        finally:
            span.duration_us = max(self._now_us() - span.start_us, 0.0)
            stack.pop()
            with self._lock:
                if len(self._spans) == self.max_spans:
                    self.dropped_spans += 1
                    _spans_dropped_counter().inc()
                self._spans.append(span)  # a full deque drops its oldest

    # --- reading -----------------------------------------------------------

    def spans(self) -> list[Span]:
        """All finished spans, in completion order."""
        with self._lock:
            return list(self._spans)

    def active_depth(self) -> int:
        """Open spans on the calling thread's stack."""
        return len(self._stack())

    def reset(self) -> None:
        """Drop finished spans and restart the clock epoch."""
        with self._lock:
            self._spans.clear()
            self.dropped_spans = 0
            self._epoch = time.perf_counter()

    # --- export ------------------------------------------------------------

    def chrome_trace(self) -> dict:
        """The spans as a chrome://tracing dictionary.

        Same Trace Event Format as the analyzer's workload export: one
        process, one track per OS thread, complete events (``ph: "X"``)
        with microsecond timestamps. Span attributes and parent links
        land in ``args`` so the viewer shows them on click.
        """
        spans = self.spans()
        tids: dict[int, int] = {}
        events: list[dict] = [
            {
                "name": "process_name",
                "ph": "M",
                "pid": _PID,
                "args": {"name": _TRACER_NAME},
            }
        ]
        for span in spans:
            if span.thread_id not in tids:
                tid = len(tids) + 1
                tids[span.thread_id] = tid
                events.append(
                    {
                        "name": "thread_name",
                        "ph": "M",
                        "pid": _PID,
                        "tid": tid,
                        "args": {"name": f"toolchain thread {tid}"},
                    }
                )
        for span in spans:
            args = {"span_id": span.span_id}
            if span.parent_id is not None:
                args["parent_id"] = span.parent_id
            args.update(
                (key, _jsonable(value)) for key, value in span.attributes.items()
            )
            events.append(
                {
                    "name": span.name,
                    "ph": "X",
                    "pid": _PID,
                    "tid": tids[span.thread_id],
                    "ts": span.start_us,
                    "dur": max(span.duration_us or 0.0, 0.01),
                    "args": args,
                }
            )
        return {"traceEvents": events, "displayTimeUnit": "ms"}

    def write(self, path: str | Path) -> Path:
        """Write the chrome://tracing JSON file; returns the path written."""
        path = Path(path)
        if path.parent != Path(""):
            path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(self.chrome_trace(), handle, indent=2)
        return path


#: The process-wide tracer every instrumented module records into. It
#: starts disabled, so a process keeps no spans nobody reads;
#: ``--trace-out`` and :func:`set_tracing_enabled` turn it on.
_DEFAULT_TRACER = Tracer(enabled=False)


def default_tracer() -> Tracer:
    """The process-wide tracer instance."""
    return _DEFAULT_TRACER


def trace(name: str, **attributes):
    """Open a span on the default tracer (the common entry point)."""
    return _DEFAULT_TRACER.trace(name, **attributes)


def set_tracing_enabled(enabled: bool) -> bool:
    """Toggle span collection process-wide (off at import); returns the previous state."""
    previous = _DEFAULT_TRACER.enabled
    _DEFAULT_TRACER.enabled = bool(enabled)
    return previous


def write_trace(path: str | Path) -> Path:
    """Dump the default tracer as chrome://tracing JSON."""
    return _DEFAULT_TRACER.write(path)
