"""Naive workload variants for the TPUPoint-Optimizer study.

The public TPU model-zoo implementations were hand-optimized by Google
engineers, so to evaluate the optimizer the paper's authors wrote naive
implementations of each workload (Section VII-C). The naive variant keeps
the model's compute identical but ships the input pipeline a beginner
would write: no prefetching, single-threaded decode, one storage read
stream, and an oversized shuffle buffer. Everything TPUPoint-Optimizer
knows how to fix.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.datasets.base import DatasetSpec
from repro.graph.graph import Graph
from repro.host.pipeline import PipelineConfig
from repro.host.stages import StageSpec
from repro.models.base import WorkloadDefaults, WorkloadModel


def naive_pipeline_config() -> PipelineConfig:
    """The untuned knobs of a first-draft input pipeline."""
    return PipelineConfig(
        num_parallel_reads=1,
        num_parallel_calls=1,
        prefetch_depth=0,
        shuffle_buffer=65_536,
        infeed_threads=1,
    )


@dataclass
class NaiveVariant(WorkloadModel):
    """Wraps a workload model with a naive input pipeline."""

    base: WorkloadModel = None  # type: ignore[assignment]

    def __post_init__(self) -> None:
        if self.base is None:
            raise TypeError("NaiveVariant requires a base model")
        self.name = f"Naive{self.base.name}"
        self.workload_type = self.base.workload_type

    @property
    def graph_model(self) -> WorkloadModel:
        return self.base.graph_model

    def build_train_graph(self, batch_size: int, dataset: DatasetSpec) -> Graph:
        return self.base.build_train_graph(batch_size, dataset)

    def build_eval_graph(self, batch_size: int, dataset: DatasetSpec) -> Graph:
        return self.base.build_eval_graph(batch_size, dataset)

    def defaults(self, dataset: DatasetSpec) -> WorkloadDefaults:
        return self.base.defaults(dataset)

    def pipeline_stages(self, dataset: DatasetSpec) -> tuple[StageSpec, ...]:
        return self.base.pipeline_stages(dataset)

    def default_pipeline_config(self) -> PipelineConfig:
        return naive_pipeline_config()
