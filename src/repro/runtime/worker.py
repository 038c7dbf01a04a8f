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

        The batch's stage costs are laid out serially so that the final
        (transfer) op finishes exactly when the batch becomes available to
        the TPU. ``backpressure_us`` extends the transfer op: it is the
        time the producer spent blocked on a full infeed queue, which is
        precisely what makes ``TransferBufferToInfeedLocked`` a dominant
        host operator on TPU-bound workloads.
        """
        op_durations = cost.op_durations()
        total = sum(duration for _, duration in op_durations) + backpressure_us
        # Charge the blocked time to the locked infeed-DMA op itself; if a
        # pipeline has no such op, the final stage absorbs it.
        blocked_index = len(op_durations) - 1
        for index, (name, _) in enumerate(op_durations):
            if name == "TransferBufferToInfeedLocked":
                blocked_index = index
                break
        durations = np.array([duration for _, duration in op_durations], dtype=np.float64)
        if backpressure_us > 0 and op_durations:
            durations[blocked_index] += backpressure_us
        # Lay the ops out back to back, as ``now += duration`` would.
        times = np.empty(len(durations) + 1)
        times[0] = ready_at_us - total
        times[1:] = durations
        np.add.accumulate(times, out=times)
        self.log.append_block(
            OpBlock(
                tuple(name for name, _ in op_durations),
                DeviceKind.HOST,
                step,
                times[:-1],
                durations,
            )
        )

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
