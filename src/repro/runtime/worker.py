"""Workers: execute compiled programs and emit trace events.

The TensorFlow master hands subgraphs to workers, which run kernels and
manage communication (Section II-B). Here the :class:`TpuWorker` replays
a compiled TPU schedule on the device model, and the :class:`HostWorker`
lays the host-side pipeline and runtime operators onto the timeline. Both
append to the session's event log — the raw material the profiler
samples: a TPU step and a host batch as one columnar :class:`OpBlock`
each, a single runtime op as a :class:`TraceEvent`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.host.pipeline import BatchCost
from repro.runtime.events import DeviceKind, EventLog, OpBlock, TraceEvent
from repro.runtime.master import CompiledProgram
from repro.tpu.device import StepExecution, TpuDevice


@dataclass
class TpuWorker:
    """Executes the TPU side of a compiled program, step by step."""

    device: TpuDevice
    log: EventLog

    def execute_step(
        self,
        program: CompiledProgram,
        step: int,
        start_us: float,
        infeed_ready_us: float,
    ) -> StepExecution:
        """Run one step's TPU schedule and log its operator events.

        A clean step is logged as one block. With an SDC injector armed
        the device runs op by op, and each op is logged as its own event.
        """
        execution = self.device.execute_step(
            step_number=step,
            schedule=program.tpu_schedule,
            start_us=start_us,
            infeed_ready_us=infeed_ready_us,
        )
        if self.device.sdc is None:
            self.log.append_block(
                OpBlock(
                    execution.names,
                    DeviceKind.TPU,
                    step,
                    execution.starts,
                    execution.durations,
                )
            )
            return execution
        for op_execution in execution.executions:
            self.log.append_event(
                TraceEvent(
                    name=op_execution.name,
                    device=DeviceKind.TPU,
                    step=step,
                    start_us=op_execution.start_us,
                    duration_us=op_execution.duration_us,
                )
            )
        return execution


@dataclass
class HostWorker:
    """Emits host-side operator events for pipeline and runtime work."""

    log: EventLog

    def emit_batch_production(
        self, cost: BatchCost, step: int, ready_at_us: float, backpressure_us: float = 0.0
    ) -> None:
        """Log the host ops that produced one batch, ending at ``ready_at_us``.

        The batch's host ops are laid out serially, in the order of its
        plan, so that the final (transfer) op finishes exactly when the
        batch becomes available to the TPU. ``backpressure_us`` extends
        the op the plan marks as blocked (``TransferBufferToInfeedLocked``,
        else the last op): it is the time the producer spent blocked on a
        full infeed queue, which is precisely what makes
        ``TransferBufferToInfeedLocked`` a dominant host operator on
        TPU-bound workloads.
        """
        plan = cost.plan
        durations = cost.op_durations()
        total = sum(durations) + backpressure_us
        if backpressure_us > 0:
            durations[plan.blocked] += backpressure_us
        # Lay the ops out back to back, as ``now += duration`` would.
        times = np.array([ready_at_us - total, *durations], dtype=np.float64)
        durations = times[1:].copy()
        np.add.accumulate(times, out=times)
        self.log.append_block(OpBlock(plan.names, DeviceKind.HOST, step, times[:-1], durations))

    def emit_op(self, name: str, step: int, start_us: float, duration_us: float) -> None:
        """Log a single host runtime operator."""
        self.log.append_event(
            TraceEvent(
                name=name,
                device=DeviceKind.HOST,
                step=step,
                start_us=start_us,
                duration_us=duration_us,
            )
        )
