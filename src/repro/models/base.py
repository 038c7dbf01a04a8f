"""Workload-model interface.

A workload model is the behavioural stand-in for one entry of the paper's
Table I: it builds the per-step training/eval graphs (which the master
compiles into a TPU schedule), describes its input pipeline's stages for
a given dataset, and supplies default session parameters. Everything a
:class:`~repro.runtime.estimator.TPUEstimator` needs comes from here.

A graph and its program depend only on the model that builds the graph,
the batch size, the dataset and the compile target, so
:meth:`WorkloadModel.build_estimator` builds and compiles each distinct
graph once per process and shares the frozen graph and read-only
program among the estimators that run it, the way XLA caches compiled
programs. Each session still charges the program's simulated compile
time; only host work is saved.
"""

from __future__ import annotations

import abc
import threading
from collections import OrderedDict
from dataclasses import dataclass

import numpy as np

from repro import obs
from repro.datasets.base import DatasetKind, DatasetSpec
from repro.graph.graph import Graph
from repro.host.pipeline import InputPipeline, PipelineConfig
from repro.host.stages import StageKind, StageSpec
from repro.host.vm import HostVM
from repro.runtime.estimator import TPUEstimator
from repro.runtime.master import CompiledProgram, compile_graph, compile_target
from repro.runtime.session import SessionPlan
from repro.storage.bucket import Bucket
from repro.storage.objects import StorageObject
from repro.tpu.slice import TpuSliceSpec
from repro.tpu.specs import TpuChipSpec, TpuGeneration

# Transfer-stage operator mix: the locked infeed DMA plus its helpers.
_TRANSFER_OPS = (
    ("TransferBufferToInfeedLocked", 0.5),
    ("InfeedEnqueueTuple", 0.2),
    ("LinearizeX32", 0.2),
    ("LSRAv2", 0.1),
)

_IMAGE_PREPROCESS_OPS = (
    ("ResizeBicubic", 0.5),
    ("Cast", 0.2),
    ("Sub", 0.15),
    ("Maximum", 0.08),
    ("Minimum", 0.07),
)

_TEXT_PARSE_OPS = (("Cast", 0.6), ("Sub", 0.4))
_TEXT_PREPROCESS_OPS = (("Maximum", 0.4), ("Minimum", 0.3), ("Cast", 0.3))


@dataclass(frozen=True)
class WorkloadDefaults:
    """Default training parameters for one (model, dataset) pairing.

    ``paper_train_steps`` records the publication's configuration;
    ``train_steps`` is the scaled-down simulation default that keeps the
    benchmark harness fast while preserving the phase structure.
    """

    batch_size: int
    train_steps: int
    paper_train_steps: int
    iterations_per_loop: int = 20
    eval_every: int = 0
    eval_steps: int = 0
    checkpoint_every: int = 0
    checkpoint_bytes: float = 350e6
    incidental_scale: float = 1.0

    def session_plan(self) -> SessionPlan:
        """Materialize the defaults as a session plan."""
        return SessionPlan(
            train_steps=self.train_steps,
            batch_size=self.batch_size,
            iterations_per_loop=self.iterations_per_loop,
            eval_every=self.eval_every,
            eval_steps=self.eval_steps,
            checkpoint_every=self.checkpoint_every,
            checkpoint_bytes=self.checkpoint_bytes,
            incidental_scale=self.incidental_scale,
        )


def apply_mxu_efficiency(graph: Graph, efficiency: float) -> Graph:
    """Stamp a calibrated MXU efficiency onto every compute op of a graph.

    Shape-based efficiency alone overestimates what real models achieve;
    each workload model calibrates its achieved fraction of peak to the
    utilization levels the paper (and ParaDnn) report for that model
    family.
    """
    for op in graph:
        if op.kind.uses_mxu:
            op.attrs.setdefault("mxu_efficiency", efficiency)
    return graph


#: Compiled graphs one process keeps, least recently used dropped first:
#: the train and eval graphs of every registered workload on two
#: generations fit.
_MEMO_SIZE = 64

# key -> (graph model, frozen graph, program). Keys name the model by
# id(); the entry holds the model, so the id cannot be reused meanwhile.
_memo: OrderedDict[tuple, tuple[WorkloadModel, Graph, CompiledProgram]] = OrderedDict()
_memo_lock = threading.Lock()

_COMPILE_REQUESTS = obs.counter(
    "repro_runtime_compile_cache_total",
    "Graph compile requests from workload models, by memo result (hit or miss).",
    labels=("result",),
)


def _compiled(
    model: WorkloadModel,
    role: str,
    batch_size: int,
    dataset: DatasetSpec,
    target: TpuChipSpec | TpuSliceSpec,
) -> tuple[Graph, CompiledProgram]:
    """``model``'s ``role`` ("train" or "eval") graph and its program.

    A miss builds the graph, compiles it with :func:`compile_graph` and
    freezes it; every later request with the same key shares both.
    """
    key = (id(model), role, batch_size, dataset, target)
    with obs.trace("runtime.compile") as span:
        with _memo_lock:
            entry = _memo.get(key)
            result = "miss" if entry is None else "hit"
            if entry is None:
                build = model.build_train_graph if role == "train" else model.build_eval_graph
                graph = build(batch_size, dataset)
                program = compile_graph(graph, target)
                entry = _memo[key] = (model, graph.freeze(), program)
                if len(_memo) > _MEMO_SIZE:
                    _memo.popitem(last=False)
            else:
                _memo.move_to_end(key)
        _, graph, program = entry
        span.set(graph=graph.name, cache=result)
    _COMPILE_REQUESTS.labels(result=result).inc()
    return graph, program


def _clear_compile_memo() -> None:
    """Forget every compiled graph, as in a fresh process (for tests)."""
    with _memo_lock:
        _memo.clear()


class WorkloadModel(abc.ABC):
    """Behavioural model of one TPU workload.

    A model is fixed once it has built an estimator: its graphs are
    memoized by model identity (see the module docstring).
    """

    #: model name as it appears in Table I ("BERT", "ResNet", ...)
    name: str = "workload"
    #: workload type column of Table I ("Natural Language", ...)
    workload_type: str = "Generic"

    # --- graphs -----------------------------------------------------------

    @abc.abstractmethod
    def build_train_graph(self, batch_size: int, dataset: DatasetSpec) -> Graph:
        """The per-step training graph (forward + backward + optimizer).

        The dataset participates because input geometry (image size,
        sequence length) determines the graph's compute — the mechanism
        behind the paper's Observation 6.
        """

    def build_eval_graph(self, batch_size: int, dataset: DatasetSpec) -> Graph:
        """The per-step eval graph; defaults to the training graph."""
        return self.build_train_graph(batch_size, dataset)

    @property
    def graph_model(self) -> WorkloadModel:
        """The model whose graphs this one builds: itself, unless it wraps one."""
        return self

    # --- defaults -----------------------------------------------------------

    @abc.abstractmethod
    def defaults(self, dataset: DatasetSpec) -> WorkloadDefaults:
        """Default training parameters for a dataset."""

    def default_pipeline_config(self) -> PipelineConfig:
        """Reasonably tuned knobs (the public TPU-zoo implementations)."""
        return PipelineConfig()

    # --- input pipeline ---------------------------------------------------------

    def pipeline_stages(self, dataset: DatasetSpec) -> tuple[StageSpec, ...]:
        """tf.data stages for this model on a dataset, by modality."""
        if dataset.kind is DatasetKind.IMAGE:
            return (
                StageSpec("read", StageKind.READ, ops=(("Send", 0.5), ("Recv", 0.5))),
                StageSpec(
                    "decode",
                    StageKind.CPU,
                    cpu_us_per_example=dataset.decode_cpu_us,
                    ops=(("DecodeAndCropJpeg", 1.0),),
                ),
                StageSpec(
                    "preprocess",
                    StageKind.CPU,
                    cpu_us_per_example=dataset.preprocess_cpu_us,
                    ops=_IMAGE_PREPROCESS_OPS,
                ),
                StageSpec(
                    "batch",
                    StageKind.BATCH,
                    cpu_us_per_example=0.4,
                    parallelizable=False,
                    ops=(("Cast", 1.0),),
                ),
                StageSpec("transfer", StageKind.TRANSFER, ops=_TRANSFER_OPS),
            )
        return (
            StageSpec("read", StageKind.READ, ops=(("Send", 0.5), ("Recv", 0.5))),
            StageSpec(
                "parse",
                StageKind.CPU,
                cpu_us_per_example=dataset.decode_cpu_us,
                ops=_TEXT_PARSE_OPS,
            ),
            StageSpec(
                "preprocess",
                StageKind.CPU,
                cpu_us_per_example=dataset.preprocess_cpu_us,
                ops=_TEXT_PREPROCESS_OPS,
            ),
            StageSpec(
                "batch",
                StageKind.BATCH,
                cpu_us_per_example=0.6,
                parallelizable=False,
                ops=(("BuildPaddedOutput", 1.0),),
            ),
            StageSpec("transfer", StageKind.TRANSFER, ops=_TRANSFER_OPS),
        )

    # --- wiring -------------------------------------------------------------------

    def build_estimator(
        self,
        dataset: DatasetSpec,
        generation: TpuGeneration | str = TpuGeneration.V2,
        plan: SessionPlan | None = None,
        pipeline_config: PipelineConfig | None = None,
        rng: np.random.Generator | None = None,
    ) -> TPUEstimator:
        """Assemble a ready-to-train estimator for this workload."""
        defaults = self.defaults(dataset)
        plan = plan or defaults.session_plan()
        config = pipeline_config or self.default_pipeline_config()
        stages = self.pipeline_stages(dataset)

        def pipeline_factory(cfg: PipelineConfig, bucket: Bucket) -> InputPipeline:
            for shard in dataset.shards():
                if not bucket.exists(shard.name):
                    bucket.put(StorageObject(shard.name, shard.num_bytes))
            return InputPipeline(
                vm=HostVM(),
                bucket=bucket,
                stages=stages,
                config=cfg,
                bytes_per_example_storage=dataset.storage_bytes_per_example,
                bytes_per_example_device=dataset.device_bytes_per_example,
            )

        target = compile_target(generation)
        train_graph, train_program = _compiled(
            self.graph_model, "train", plan.batch_size, dataset, target
        )
        eval_graph, eval_program = _compiled(
            self.graph_model, "eval", plan.batch_size, dataset, target
        )
        return TPUEstimator(
            train_graph=train_graph,
            pipeline_factory=pipeline_factory,
            plan=plan,
            generation=generation,
            pipeline_config=config,
            eval_graph=eval_graph,
            rng=rng,
            programs=(train_program, eval_program),
        )
