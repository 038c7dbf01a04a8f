"""Training session: the simulated TensorFlow step loop.

The session stitches every substrate together: the host input pipeline
produces batches (with bounded-buffer backpressure controlled by the
prefetch depth), the TPU worker consumes them step by step, checkpoints
are written to storage on a cadence, and eval rounds interleave with
training. Every operator lands in the event log with its start and
duration (a step's TPU ops and a batch's host ops as one columnar block
each), and every step appends a :class:`StepMetadata` record — exactly
the stream the TPUPoint profiler samples.

Timing model for one training step ``i`` (prefetch depth ``B``):

* the producer may start batch ``i`` once it finished batch ``i-1`` *and*
  a queue slot is free (the TPU started consuming batch ``i-B``);
* the TPU asks for batch ``i`` when step ``i-1`` finished; the difference
  between asking and the batch being ready is infeed stall — TPU idle
  time attributed to the ``InfeedDequeueTuple`` operator;
* ``B = 0`` disables overlap entirely: the host starts producing only
  when the TPU asks (the fully naive pipeline).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from repro import obs
from repro.errors import ConfigurationError, SimulationError
from repro.host.pipeline import InputPipeline
from repro.runtime.clock import SimClock
from repro.runtime.events import DeviceKind, EventLog, StepKind, StepMetadata, TraceEvent
from repro.runtime.master import CompiledProgram
from repro.runtime.worker import HostWorker, TpuWorker
from repro.storage.checkpoints import Checkpoint, CheckpointStore
from repro.tpu.device import TpuDevice

# Fixed host-runtime costs (microseconds).
_INIT_TPU_US = 1_500_000.0  # InitializeHostForDistributedTpu
_DISCONNECT_US = 500_000.0  # DisconnectHostFromDistributedTPUSystem
_RUN_GRAPH_US = 60_000.0  # per-loop session driver (summaries, global step)
_SEND_RECV_US = 1_200.0  # per-loop coordination messages
_OUTFEED_DEQUEUE_MIN_US = 150.0  # floor for the blocking dequeue op
_CHECKPOINT_SERIALIZE_US_PER_MB = 250.0

# Optional bookkeeping operators that appear in a step's event set with a
# fixed probability (see TrainingSession._emit_incidental_ops).
_INCIDENTAL_OPS: tuple[tuple[str, DeviceKind, float], ...] = (
    ("IteratorGetNext", DeviceKind.HOST, 0.030),
    ("Shape", DeviceKind.HOST, 0.012),
    ("StridedSlice", DeviceKind.HOST, 0.010),
    ("Identity", DeviceKind.HOST, 0.008),
    ("NoOp", DeviceKind.HOST, 0.008),
    ("Range", DeviceKind.HOST, 0.006),
    ("Copy", DeviceKind.TPU, 0.012),
    ("collective-permute", DeviceKind.TPU, 0.006),
)


@dataclass(frozen=True)
class SessionPlan:
    """What one training run should execute.

    Attributes:
        train_steps: number of training steps.
        batch_size: examples per step.
        iterations_per_loop: steps per host RunGraph loop.
        eval_every: run an eval round every N train steps (0 = never).
        eval_steps: eval iterations per eval round.
        checkpoint_every: save a checkpoint every N train steps
            (0 = only the final checkpoint).
        checkpoint_bytes: serialized model size.
        warm_start: restore the latest checkpoint during initialization.
        incidental_scale: multiplier on the per-step probability of
            incidental bookkeeping operators; heavy streaming input
            pipelines (large image datasets) churn their iterator state
            more, producing more step-to-step event-set variation.
    """

    train_steps: int
    batch_size: int
    iterations_per_loop: int = 100
    eval_every: int = 0
    eval_steps: int = 0
    checkpoint_every: int = 0
    checkpoint_bytes: float = 350e6
    warm_start: bool = False
    incidental_scale: float = 1.0

    def __post_init__(self) -> None:
        if self.train_steps <= 0 or self.batch_size <= 0:
            raise ConfigurationError("train_steps and batch_size must be positive")
        if self.iterations_per_loop <= 0:
            raise ConfigurationError("iterations_per_loop must be positive")
        if self.eval_every < 0 or self.eval_steps < 0 or self.checkpoint_every < 0:
            raise ConfigurationError("cadence values must be non-negative")
        if self.eval_every and self.eval_steps <= 0:
            raise ConfigurationError("eval_every requires eval_steps > 0")
        if self.incidental_scale < 0:
            raise ConfigurationError("incidental_scale must be non-negative")


@dataclass(frozen=True)
class SessionSummary:
    """Aggregate outcome of a finished session."""

    wall_us: float
    tpu_busy_us: float
    mxu_flops: float
    peak_flops: float
    steps_executed: int
    events_recorded: int

    @property
    def tpu_idle_fraction(self) -> float:
        """Fraction of the whole run the TPU spent idle."""
        if self.wall_us <= 0:
            return 0.0
        return max(0.0, 1.0 - self.tpu_busy_us / self.wall_us)

    @property
    def mxu_utilization(self) -> float:
        """Achieved matrix FLOPs over the whole run against peak."""
        if self.wall_us <= 0:
            return 0.0
        achieved = self.mxu_flops / (self.wall_us / 1e6)
        return min(achieved / self.peak_flops, 1.0)


StepHook = Callable[["TrainingSession", StepMetadata], None]


class TrainingSession:
    """Simulated execution of one workload on one TPU instance."""

    def __init__(
        self,
        plan: SessionPlan,
        pipeline: InputPipeline,
        device: TpuDevice,
        train_program: CompiledProgram,
        checkpoint_store: CheckpointStore,
        rng: np.random.Generator,
        eval_program: CompiledProgram | None = None,
    ):
        self.plan = plan
        self.pipeline = pipeline
        self.device = device
        self.train_program = train_program
        self.eval_program = eval_program or train_program
        self.checkpoint_store = checkpoint_store
        self.rng = rng
        self.clock = SimClock()
        self.log = EventLog()
        self.tpu_worker = TpuWorker(device, self.log)
        self.host_worker = HostWorker(self.log)
        self._hooks: list[StepHook] = []
        # Each incidental op's chance of appearing in a step, fixed by the plan.
        self._incidental_ops = tuple(
            (name, device, min(probability * plan.incidental_scale, 0.5))
            for name, device, probability in _INCIDENTAL_OPS
        )

        # Execution state.
        self._initialized = False
        self._finalized = False
        self._global_step = 0  # train steps completed
        self._profile_step = 0  # monotonically increasing metadata index
        self._producer_free_us = 0.0  # when the host may start the next batch
        self._pop_times: deque[float] = deque()  # infeed queue slot frees
        self._outfeed_free_us = 0.0  # when the dequeue thread went back to waiting

    # --- public surface ---------------------------------------------------

    @property
    def global_step(self) -> int:
        """Training steps completed so far."""
        return self._global_step

    @property
    def initialized(self) -> bool:
        """Whether initialization has completed."""
        return self._initialized

    @property
    def finished(self) -> bool:
        """Whether the session ran to completion and was finalized."""
        return self._finalized

    def add_step_hook(self, hook: StepHook) -> None:
        """Register a callback invoked after every step's metadata lands."""
        self._hooks.append(hook)

    def checkpoint_now(self) -> None:
        """Force a checkpoint at the current global step.

        TPUPoint-Optimizer instruments the program to checkpoint before
        segments it is about to tune, enabling rollback/fast-forward.
        No-op when the current step is already checkpointed.
        """
        if not self._initialized or self._finalized:
            raise SimulationError("checkpoint_now requires a live session")
        last = self.checkpoint_store.checkpoints[-1].step if len(self.checkpoint_store) else -1
        if last != self._global_step:
            self._run_checkpoint()

    def run(self) -> SessionSummary:
        """Execute the whole plan and return the summary."""
        self.initialize()
        self.run_steps(self.plan.train_steps - self._global_step)
        return self.finalize()

    def summary(self) -> SessionSummary:
        """Aggregate metrics over everything executed so far."""
        return SessionSummary(
            wall_us=self.clock.now_us,
            tpu_busy_us=self.device.total_busy_us,
            mxu_flops=self.device.total_mxu_flops,
            peak_flops=self.device.spec.peak_flops,
            steps_executed=self._profile_step,
            events_recorded=self.log.num_events,
        )

    # --- lifecycle ---------------------------------------------------------

    def initialize(self) -> None:
        """TPU system init, program compilation, optional warm restore."""
        if self._initialized:
            raise SimulationError("session already initialized")
        start = self.clock.now_us
        now = start
        self.host_worker.emit_op("InitializeHostForDistributedTpu", 0, now, _INIT_TPU_US)
        now += _INIT_TPU_US
        self.host_worker.emit_op("StartProgram", 0, now, self.train_program.compile_time_us)
        now += self.train_program.compile_time_us
        if self.plan.warm_start and len(self.checkpoint_store):
            checkpoint = self.checkpoint_store.latest()
            restore_us = self.checkpoint_store.restore_time_us(checkpoint)
            self.host_worker.emit_op("RestoreV2", 0, now, restore_us)
            now += restore_us
            self._global_step = checkpoint.step
        self.clock.advance_to(now)
        self._record_step(StepKind.INIT, start, now, idle_us=now - start, mxu_flops=0.0)
        self._producer_free_us = now
        self._outfeed_free_us = now
        self._initialized = True

    def run_steps(self, count: int) -> int:
        """Run up to ``count`` training steps (plus cadenced eval/checkpoints).

        Returns the number of train steps actually executed, which may be
        less than requested when the plan's step budget runs out.
        """
        if not self._initialized:
            raise SimulationError("initialize() must run before run_steps()")
        if self._finalized:
            raise SimulationError("session already finalized")
        executed = 0
        with obs.trace("runtime.run_steps", requested=count) as span:
            while executed < count and self._global_step < self.plan.train_steps:
                self._run_train_step()
                executed += 1
                if (
                    self.plan.checkpoint_every
                    and self._global_step % self.plan.checkpoint_every == 0
                    and self._global_step < self.plan.train_steps
                ):
                    self._run_checkpoint()
                if (
                    self.plan.eval_every
                    and self._global_step % self.plan.eval_every == 0
                    and self._global_step < self.plan.train_steps
                ):
                    self._run_eval_round()
            span.set(steps=executed)
        return executed

    def finalize(self) -> SessionSummary:
        """Final checkpoint, disconnect, and summary."""
        if not self._initialized:
            raise SimulationError("initialize() must run before finalize()")
        if self._finalized:
            raise SimulationError("session already finalized")
        if self._global_step < self.plan.train_steps:
            raise SimulationError(
                f"cannot finalize at step {self._global_step} of {self.plan.train_steps}"
            )
        last_saved = self.checkpoint_store.checkpoints[-1].step if len(self.checkpoint_store) else -1
        if last_saved != self._global_step:
            self._run_checkpoint()
        start = self.clock.now_us
        self.host_worker.emit_op(
            "DisconnectHostFromDistributedTPUSystem", self._profile_step, start, _DISCONNECT_US
        )
        end = start + _DISCONNECT_US
        self.clock.advance_to(end)
        self._record_step(StepKind.SHUTDOWN, start, end, idle_us=end - start, mxu_flops=0.0)
        self._finalized = True
        return self.summary()

    # --- step execution ----------------------------------------------------------

    def _run_train_step(self) -> None:
        self._run_compute_step(self.train_program, StepKind.TRAIN)
        self._global_step += 1
        if self._global_step % self.plan.iterations_per_loop == 0:
            self._emit_loop_boundary()

    def _run_compute_step(self, program: CompiledProgram, kind: StepKind) -> None:
        step = self._profile_step
        ask_at = self.clock.now_us
        cost = self.pipeline.batch_cost(self.plan.batch_size, self.rng)

        # Bounded-buffer producer: wait for our turn and for a free slot.
        depth = self.pipeline.config.prefetch_depth
        if depth == 0:
            gate = max(self._producer_free_us, ask_at)
        elif len(self._pop_times) >= depth:
            gate = max(self._producer_free_us, self._pop_times[-depth])
        else:
            gate = self._producer_free_us
        backpressure = max(0.0, gate - self._producer_free_us)
        ready_at = gate + cost.total_wall_us
        self._producer_free_us = ready_at
        self.host_worker.emit_batch_production(cost, step, ready_at, backpressure)

        execution = self.tpu_worker.execute_step(
            program, step, start_us=ask_at, infeed_ready_us=ready_at
        )
        # The infeed pop frees a queue slot when the TPU starts consuming.
        self._pop_times.append(execution.start_us)
        if len(self._pop_times) > max(depth, 1) + 1:
            self._pop_times.popleft()

        # Host-side blocking dequeue of this step's results.
        outfeed_done = max(execution.end_us, self._outfeed_free_us) + _OUTFEED_DEQUEUE_MIN_US
        self.host_worker.emit_op(
            "OutfeedDequeueTuple",
            step,
            self._outfeed_free_us,
            outfeed_done - self._outfeed_free_us,
        )
        self._outfeed_free_us = outfeed_done

        self._emit_incidental_ops(step, execution.start_us)
        self.clock.advance_to(execution.end_us)
        self._record_step(
            kind,
            execution.start_us,
            execution.end_us,
            idle_us=execution.idle_us,
            mxu_flops=execution.mxu_flops,
        )

    def _run_eval_round(self) -> None:
        for _ in range(self.plan.eval_steps):
            self._run_compute_step(self.eval_program, StepKind.EVAL)
            self.host_worker.emit_op(
                "BuildPaddedOutput", self._profile_step - 1, self.clock.now_us, 800.0
            )

    def _run_checkpoint(self) -> None:
        """Save a checkpoint between steps.

        Checkpoints are host work: the TPU has no step number for them,
        so the SaveV2 event is attributed to the last executed TPU step
        (whose global step the checkpoint carries) and no step metadata
        is recorded — matching how Cloud TPU step numbers behave.
        """
        start = self.clock.now_us
        checkpoint = Checkpoint(
            step=self._global_step, saved_at_us=start, num_bytes=self.plan.checkpoint_bytes
        )
        write_us = self.checkpoint_store.save(checkpoint)
        serialize_us = self.plan.checkpoint_bytes / 1e6 * _CHECKPOINT_SERIALIZE_US_PER_MB
        duration = serialize_us + write_us
        self.host_worker.emit_op("SaveV2", max(self._profile_step - 1, 0), start, duration)
        end = start + duration
        self.clock.advance_to(end)
        # The producer keeps running ahead during the save, but the dequeue
        # thread idles until training resumes.
        self._outfeed_free_us = max(self._outfeed_free_us, end)

    def _emit_incidental_ops(self, step: int, start_us: float) -> None:
        """Small, irregular host/TPU bookkeeping ops within a step.

        Real profiles never show perfectly identical event sets step after
        step: iterator bookkeeping, shape queries, and occasional copies
        come and go. Each optional op appears with a fixed probability, so
        consecutive steps usually share most — but not all — of their
        event set. This is what gives the OLS StepSimilarity sweep its
        shape (few phases at the 70% threshold, many at 100%).
        """
        now = start_us
        for name, device, probability in self._incidental_ops:
            if self.rng.random() >= probability:
                continue
            duration = 20.0 + float(self.rng.random()) * 120.0
            if device is DeviceKind.HOST:
                self.host_worker.emit_op(name, step, now, duration)
            else:
                self.log.append_event(
                    TraceEvent(
                        name=name,
                        device=DeviceKind.TPU,
                        step=step,
                        start_us=now,
                        duration_us=duration,
                    )
                )
            now += duration

    def _emit_loop_boundary(self) -> None:
        """Host work at an iterations_per_loop boundary.

        The TPU sits idle while the host driver processes outfeed
        summaries and advances the training loop — a real source of TPU
        idle time that grows with loop frequency.
        """
        now = self.clock.now_us
        step = self._profile_step - 1
        self.host_worker.emit_op("RunGraph", step, now, _RUN_GRAPH_US)
        self.host_worker.emit_op("Send", step, now + _RUN_GRAPH_US, _SEND_RECV_US)
        self.host_worker.emit_op("Recv", step, now + _RUN_GRAPH_US + _SEND_RECV_US, _SEND_RECV_US)
        self.clock.advance(_RUN_GRAPH_US + 2 * _SEND_RECV_US)
        self._outfeed_free_us = max(self._outfeed_free_us, self.clock.now_us)

    # --- bookkeeping -------------------------------------------------------------

    def _record_step(
        self, kind: StepKind, start_us: float, end_us: float, idle_us: float, mxu_flops: float
    ) -> None:
        metadata = StepMetadata(
            step=self._profile_step,
            kind=kind,
            start_us=start_us,
            end_us=end_us,
            tpu_idle_us=idle_us,
            mxu_flops=mxu_flops,
        )
        self.log.append_step(metadata)
        self._profile_step += 1
        for hook in self._hooks:
            hook(self, metadata)
