"""Simulation clock and event log."""

import numpy as np
import pytest

from repro.errors import SimulationError
from repro.runtime.clock import SimClock
from repro.runtime.events import (
    DeviceKind,
    EventLog,
    OpBlock,
    StepKind,
    StepMetadata,
    TraceEvent,
)


class TestClock:
    def test_starts_at_zero(self):
        assert SimClock().now_us == 0.0

    def test_advance(self):
        clock = SimClock()
        assert clock.advance(10.0) == 10.0
        assert clock.now_us == 10.0

    def test_negative_advance_rejected(self):
        with pytest.raises(SimulationError):
            SimClock().advance(-1.0)

    def test_advance_to(self):
        clock = SimClock(5.0)
        clock.advance_to(8.0)
        assert clock.now_us == 8.0
        with pytest.raises(SimulationError):
            clock.advance_to(7.0)


def _event(name="op", step=0, start=0.0, dur=1.0, device=DeviceKind.TPU):
    return TraceEvent(name=name, device=device, step=step, start_us=start, duration_us=dur)


def _meta(step=0, kind=StepKind.TRAIN, start=0.0, end=10.0, idle=2.0, flops=1e9):
    return StepMetadata(
        step=step, kind=kind, start_us=start, end_us=end, tpu_idle_us=idle, mxu_flops=flops
    )


class TestEvents:
    def test_event_end(self):
        assert _event(start=3.0, dur=4.0).end_us == 7.0

    def test_metadata_derived_metrics(self):
        meta = _meta(start=0.0, end=10.0, idle=2.0)
        assert meta.elapsed_us == 10.0
        assert meta.idle_fraction == pytest.approx(0.2)

    def test_idle_fraction_capped(self):
        assert _meta(end=1.0, idle=100.0).idle_fraction == 1.0


class TestEventLog:
    def test_append_and_counters(self):
        log = EventLog()
        log.append_event(_event())
        assert log.num_events == 1
        assert log.last_time_us == 1.0

    def test_blocks_expand_in_log_order(self):
        log = EventLog()
        log.append_event(_event())
        block = OpBlock(("a", "b"), DeviceKind.TPU, 1, np.array([1.0, 3.0]), np.array([2.0, 0.5]))
        log.append_block(block)
        log.append_block(block.cut(1, 1))  # empty blocks are dropped
        assert log.num_events == 3 and len(log.entries) == 2
        assert log.last_time_us == 3.5
        assert [(e.name, e.step, e.start_us, e.end_us) for e in log.events[1:]] == [
            ("a", 1, 1.0, 3.0),
            ("b", 1, 3.0, 3.5),
        ]

    def test_steps_must_be_ordered(self):
        log = EventLog()
        log.append_step(_meta(step=1))
        with pytest.raises(SimulationError):
            log.append_step(_meta(step=1))

    def test_steps_between_overlap_semantics(self):
        log = EventLog()
        log.append_step(_meta(step=0, start=0.0, end=10.0))
        log.append_step(_meta(step=1, start=10.0, end=20.0))
        inside = log.steps_between(5.0, 15.0)
        assert [m.step for m in inside] == [0, 1]
        assert log.steps_between(20.0, 30.0) == []
