"""Workers: event emission for TPU and host work."""

import numpy as np
import pytest

from repro.host.pipeline import BatchPlan
from repro.host.stages import StageKind, StageSpec
from repro.runtime.events import DeviceKind, EventLog
from repro.runtime.master import compile_graph
from repro.runtime.worker import HostWorker, TpuWorker
from repro.tpu.device import TpuDevice
from repro.tpu.specs import TPU_V2
from repro.graph import ops as opdefs
from repro.graph.builder import GraphBuilder
from repro.graph.shapes import TensorShape


def _program():
    b = GraphBuilder()
    x = b.infeed(TensorShape((8, 64)))
    w = b.const(TensorShape((64, 64)))
    h = b.matmul(x, w, 8, 64, 64)
    b.outfeed(h)
    return compile_graph(b.build(), TPU_V2)


def test_tpu_worker_logs_every_op():
    log = EventLog()
    worker = TpuWorker(TpuDevice("v2"), log)
    execution = worker.execute_step(_program(), step=3, start_us=100.0, infeed_ready_us=0.0)
    assert len(log.events) == len(execution.executions)
    assert all(e.device is DeviceKind.TPU and e.step == 3 for e in log.events)
    assert log.events[0].start_us == 100.0


def _batch_cost():
    stages = (
        StageSpec("decode", StageKind.CPU, ops=(("DecodeAndCropJpeg", 1.0),)),
        StageSpec(
            "transfer",
            StageKind.TRANSFER,
            ops=(("TransferBufferToInfeedLocked", 1.0), ("InfeedEnqueueTuple", 1.0)),
        ),
    )
    cost = BatchPlan.compile(stages, (300.0, 200.0)).cost(1.0)
    assert (cost.total_wall_us, cost.transfer_wall_us) == (500.0, 200.0)
    return cost


def test_host_worker_batch_events_end_at_ready_time():
    log = EventLog()
    HostWorker(log).emit_batch_production(_batch_cost(), step=1, ready_at_us=10_000.0)
    assert log.events[-1].end_us == pytest.approx(10_000.0)
    assert log.events[0].start_us == pytest.approx(10_000.0 - 500.0)
    # Events are laid out serially.
    for first, second in zip(log.events, log.events[1:]):
        assert second.start_us == pytest.approx(first.end_us)


def test_backpressure_charged_to_locked_infeed_op():
    log = EventLog()
    HostWorker(log).emit_batch_production(
        _batch_cost(), step=1, ready_at_us=10_000.0, backpressure_us=400.0
    )
    locked = next(e for e in log.events if e.name == "TransferBufferToInfeedLocked")
    plain = next(e for e in log.events if e.name == "InfeedEnqueueTuple")
    assert locked.duration_us == pytest.approx(100.0 + 400.0)
    assert plain.duration_us == pytest.approx(100.0)
    assert log.events[-1].end_us == pytest.approx(10_000.0)


def test_emit_op():
    log = EventLog()
    HostWorker(log).emit_op("SaveV2", 7, 50.0, 25.0)
    event = log.events[0]
    assert (event.name, event.step, event.start_us, event.duration_us) == (
        "SaveV2",
        7,
        50.0,
        25.0,
    )
    assert event.device is DeviceKind.HOST
