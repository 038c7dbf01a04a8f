"""Tests for the self-time aggregator, the stopwatch and the benchmark spec.

Run with ``python3 -m pytest perfbench -q`` from the repository root.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

from repro.obs.tracing import Span  # noqa: E402

import common  # noqa: E402
import spec  # noqa: E402
from layers import LayerTracer, self_times  # noqa: E402


def _span(span_id, name, start, end, parent=None, thread=1, **attributes):
    return Span(
        span_id=span_id,
        name=name,
        start_us=start * 1e6,
        parent_id=parent,
        thread_id=thread,
        duration_us=(end - start) * 1e6,
        attributes=attributes,
    )


def test_self_time_subtracts_the_union_of_children():
    spans = [
        _span(0, "outer", 0, 100),
        _span(1, "left", 10, 30, parent=0),
        _span(2, "right", 20, 50, parent=0),  # overlaps "left": union is 40
        _span(3, "leaf", 12, 18, parent=1),
    ]
    seconds, counts = self_times(spans)
    assert seconds == pytest.approx({"outer": 60, "left": 14, "right": 30, "leaf": 6})
    assert counts == {"outer": 1, "left": 1, "right": 1, "leaf": 1}


def test_parent_links_do_not_cross_threads():
    spans = [
        _span(0, "main", 0, 10, thread=1),
        _span(1, "worker", 2, 8, parent=0, thread=2),
    ]
    seconds, _ = self_times(spans)
    assert seconds == pytest.approx({"main": 10, "worker": 6})


def test_carve_moves_time_not_covered_by_children():
    spans = [
        _span(0, "runtime.train", 200, 300, carve={"profiler.request": 50}),
        _span(1, "serve.sink", 210, 240, parent=0),
    ]
    seconds, counts = self_times(spans)
    assert seconds == pytest.approx(
        {"runtime.train": 50, "serve.sink": 30, "profiler.request": 20}
    )
    assert "profiler.request" not in counts
    assert sum(seconds.values()) == pytest.approx(100)


def test_same_name_spans_accumulate():
    spans = [_span(0, "serve.pump", 0, 1), _span(1, "serve.pump", 5, 7)]
    seconds, counts = self_times(spans)
    assert seconds == pytest.approx({"serve.pump": 3})
    assert counts == {"serve.pump": 2}


def test_layer_tracer_records_only_when_enabled():
    layers = LayerTracer()
    with layers.span("off"):
        pass
    assert layers.drain() == []
    layers.enabled = True
    wrapped = layers.wrap("inner", lambda value: value + 1)
    with layers.span("outer"):
        assert wrapped(1) == 2
    spans = layers.drain()
    assert [span.name for span in spans] == ["inner", "outer"]
    seconds, _ = self_times(spans)
    outer = next(span for span in spans if span.name == "outer")
    assert seconds["outer"] + seconds["inner"] == pytest.approx(outer.duration_us / 1e6)
    assert layers.drain() == []


def test_stopwatch_scales_each_segment_by_the_probes_at_its_ends(monkeypatch):
    probes = iter([0.005, 0.010, 0.0025, 0.005])
    monkeypatch.setattr(common, "probe", lambda: next(probes))
    watch = common.Stopwatch()
    watch.sample()
    watch.query(2.0)  # runs in the segment between the 0.010 and 0.0025 probes
    watch.lap("ingest")
    watch.lap("answer")
    assert [stage for stage, _ in watch.segments] == ["ingest", "ingest", "answer"]
    (_, first), (_, second), (_, third) = watch.segments
    ref = common.REFERENCE_PROBE_S
    assert watch.stages == pytest.approx({"ingest": first + second, "answer": third})
    assert watch.scaled_stages() == pytest.approx(
        {"ingest": first * ref / 0.0075 + second * ref / 0.00625, "answer": third * ref / 0.00375}
    )
    assert watch.queries_ms == [2.0]
    assert watch.scaled_queries_ms() == pytest.approx([2.0 * ref / 0.00625])


def test_benchmark_json_matches_the_spec():
    written = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert written == spec.document()
    names = [metric["name"] for metric in written["end_to_end"]]
    assert "setup_s" in names and len(set(names)) == len(names)
