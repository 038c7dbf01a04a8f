"""TPUEstimator-like front end.

TPU training runs through TensorFlow's high-level ``TPUEstimator`` API
(Figure 2 of the paper). This mirror of that API owns device selection,
graph compilation, pipeline construction, and the training session, so
user code — and the TPUPoint toolchain — interacts with one object:

>>> estimator = TPUEstimator(model_graph, pipeline_factory, plan, "v2")
>>> summary = estimator.train()

The estimator exposes the hooks TPUPoint needs: the live session's event
log (through the profile service), step hooks, and a mutable pipeline
configuration for online tuning.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from repro.errors import SimulationError
from repro.graph.graph import Graph
from repro.host.pipeline import InputPipeline, PipelineConfig
from repro.runtime.master import CompiledProgram, compile_graph, compile_target
from repro.runtime.rpc import ProfileService, ProfileStub
from repro.runtime.session import SessionPlan, SessionSummary, StepHook, TrainingSession
from repro.storage.bucket import Bucket
from repro.storage.checkpoints import CheckpointStore
from repro.tpu.device import TpuDevice
from repro.tpu.slice import TpuSliceSpec
from repro.tpu.specs import TpuGeneration

PipelineFactory = Callable[[PipelineConfig, Bucket], InputPipeline]


@dataclass
class TPUEstimator:
    """High-level training driver for one workload on one TPU instance.

    Attributes:
        train_graph: per-step training graph (compiled once per run).
        pipeline_factory: builds the input pipeline for a config+bucket.
        plan: session plan (steps, batch size, cadences).
        generation: TPU generation to run on ("v2"/"v3").
        pipeline_config: initial input-pipeline tuning knobs.
        eval_graph: optional distinct eval-step graph.
        rng: deterministic generator for per-batch jitter.
        programs: the train and eval programs, when the graphs were
            already compiled for this generation (a workload model's
            memo passes them); otherwise the first session compiles.
    """

    train_graph: Graph
    pipeline_factory: PipelineFactory
    plan: SessionPlan
    generation: TpuGeneration | str = TpuGeneration.V2
    pipeline_config: PipelineConfig | None = None
    eval_graph: Graph | None = None
    rng: np.random.Generator | None = None
    programs: tuple[CompiledProgram, CompiledProgram | None] | None = None

    def __post_init__(self) -> None:
        target = compile_target(self.generation)
        if isinstance(target, TpuSliceSpec):
            self.slice_spec: TpuSliceSpec | None = target
            self.spec = target.aggregate_chip_spec()
        else:
            self.slice_spec = None
            self.spec = target
        self.bucket = Bucket("training-bucket")
        self.checkpoint_store = CheckpointStore(self.bucket)
        self._session: TrainingSession | None = None
        self._train_program, self._eval_program = self.programs or (None, None)
        self._sdc_injector = None

    # --- compilation -----------------------------------------------------

    def compile(self) -> CompiledProgram:
        """Compile (fold/partition/fuse/lower) the training graph once."""
        if self._train_program is None:
            target = self.slice_spec if self.slice_spec is not None else self.spec
            self._train_program = compile_graph(self.train_graph, target)
            if self.eval_graph is not None:
                self._eval_program = compile_graph(self.eval_graph, target)
        return self._train_program

    # --- session management ------------------------------------------------

    @property
    def session(self) -> TrainingSession:
        """The live training session; created lazily."""
        if self._session is None:
            program = self.compile()
            config = self.pipeline_config or PipelineConfig()
            pipeline = self.pipeline_factory(config, self.bucket)
            device = TpuDevice(self.spec)
            if self._sdc_injector is not None:
                device.attach_sdc(self._sdc_injector)
            rng = self.rng if self.rng is not None else np.random.default_rng(0)
            self._session = TrainingSession(
                plan=self.plan,
                pipeline=pipeline,
                device=device,
                train_program=program,
                checkpoint_store=self.checkpoint_store,
                rng=rng,
                eval_program=self._eval_program,
            )
        return self._session

    def attach_sdc(self, injector) -> None:
        """Wire a silent-data-corruption injector into the device.

        Takes effect on the (possibly future) session's device; attach
        before training starts so the whole run shares one injector
        state. Pass an :class:`~repro.tpu.sdc.SdcInjector` (duck-typed
        here to keep the runtime layer free of fault imports).
        """
        self._sdc_injector = injector
        if self._session is not None:
            self._session.device.attach_sdc(injector)

    def add_step_hook(self, hook: StepHook) -> None:
        """Register a per-step callback on the (possibly future) session."""
        self.session.add_step_hook(hook)

    def profile_service(self) -> ProfileService:
        """A fresh profile service over the live session's event log."""
        return ProfileService(self.session.log)

    def profile_stub(self) -> ProfileStub:
        """A gRPC-style stub over the live session's event log."""
        return ProfileStub(self.profile_service())

    # --- training ----------------------------------------------------------

    def train(self) -> SessionSummary:
        """Run the plan to completion (resumes a partially run session)."""
        session = self.session
        if not session.initialized:
            session.initialize()
        session.run_steps(self.plan.train_steps - session.global_step)
        return session.finalize()

    def train_steps(self, count: int) -> int:
        """Run a bounded number of steps (used by online tuning)."""
        session = self.session
        if not session.initialized:
            session.initialize()
        return session.run_steps(count)

    def finalize(self) -> SessionSummary:
        """Finish the run (final checkpoint + shutdown)."""
        session = self.session
        if not session.initialized:
            raise SimulationError("cannot finalize a session that never ran")
        return session.finalize()

    # --- online tuning surface ------------------------------------------------

    def update_pipeline_config(self, config: PipelineConfig) -> None:
        """Swap the live pipeline's tuning knobs (correctness-preserving)."""
        self.session.pipeline.config = config

    def current_pipeline_config(self) -> PipelineConfig:
        """The live pipeline's tuning knobs."""
        return self.session.pipeline.config
