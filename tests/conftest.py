"""Shared fixtures.

The expensive artifacts (a profiled workload run and its analyzer) are
session-scoped: runs are deterministic, so sharing them across tests is
safe and keeps the suite fast.
"""

from __future__ import annotations

import shutil
from pathlib import Path

import numpy as np
import pytest

from repro.core.analyzer import TPUPointAnalyzer
from repro.core.api import TPUPoint
from repro.core.profiler import ProfilerOptions, TPUPointProfiler
from repro.datasets.base import DatasetKind, DatasetSpec
from repro.graph import ops as opdefs
from repro.graph.builder import GraphBuilder
from repro.graph.graph import Graph
from repro.graph.shapes import TensorShape
from repro.models.base import WorkloadDefaults, WorkloadModel
from repro.runtime.session import SessionPlan
from repro.workloads.runner import build_estimator
from repro.workloads.spec import WorkloadSpec


class TinyModel(WorkloadModel):
    """A minimal workload: one matmul layer plus infeed/outfeed.

    Used wherever a test needs a real estimator without the cost of a
    full Table I model graph.
    """

    name = "Tiny"
    workload_type = "Test"

    def build_train_graph(self, batch_size: int, dataset: DatasetSpec) -> Graph:
        b = GraphBuilder(f"tiny-train-b{batch_size}")
        x = b.infeed(TensorShape((batch_size, 64)))
        w = b.const(TensorShape((64, 64)))
        h = b.matmul(x, w, batch_size, 64, 64)
        h = b.elementwise(opdefs.RELU, h)
        # A backward-pass matmul so training costs more than eval.
        w_grad = b.const(TensorShape((64, 64)))
        grad = b.matmul(h, w_grad, batch_size, 64, 64)
        out = b.elementwise(opdefs.SUM, grad)
        b.outfeed(out)
        return b.build()

    def build_eval_graph(self, batch_size: int, dataset: DatasetSpec) -> Graph:
        b = GraphBuilder(f"tiny-eval-b{batch_size}")
        x = b.infeed(TensorShape((batch_size, 64)))
        w = b.const(TensorShape((64, 64)))
        h = b.matmul(x, w, batch_size, 64, 64)
        b.outfeed(h)
        return b.build()

    def defaults(self, dataset: DatasetSpec) -> WorkloadDefaults:
        return WorkloadDefaults(
            batch_size=32,
            train_steps=40,
            paper_train_steps=40,
            iterations_per_loop=10,
            checkpoint_every=15,
            checkpoint_bytes=10e6,
        )


TINY_DATASET = DatasetSpec(
    name="TinySet",
    kind=DatasetKind.TEXT,
    total_bytes=10 * 1024 * 1024,
    num_examples=10_000,
    example_shape=(64,),
    device_bytes_per_example=64 * 4,
    decode_cpu_us=5.0,
    preprocess_cpu_us=5.0,
)


@pytest.fixture
def tiny_model() -> TinyModel:
    return TinyModel()


@pytest.fixture
def tiny_dataset() -> DatasetSpec:
    return TINY_DATASET


@pytest.fixture
def tiny_estimator(tiny_model, tiny_dataset):
    """A fresh, unexecuted estimator over the tiny workload."""
    return tiny_model.build_estimator(tiny_dataset)


@pytest.fixture
def tiny_run(tiny_model, tiny_dataset):
    """A completed tiny run with profiler records attached."""
    estimator = tiny_model.build_estimator(tiny_dataset)
    profiler = TPUPointProfiler(estimator, ProfilerOptions(request_interval_ms=200.0))
    profiler.start(analyzer=True)
    summary = estimator.train()
    records = profiler.stop()
    return estimator, summary, records


@pytest.fixture(scope="session")
def bert_mrpc_run():
    """A completed bert-mrpc run (shared; treat as read-only)."""
    estimator = build_estimator(WorkloadSpec("bert-mrpc"))
    tpupoint = TPUPoint(estimator)
    tpupoint.Start(analyzer=True)
    summary = estimator.train()
    tpupoint.Stop()
    return estimator, summary, tpupoint.records


@pytest.fixture(scope="session")
def bert_mrpc_analyzer(bert_mrpc_run) -> TPUPointAnalyzer:
    """An analyzer over the shared bert-mrpc records (read-only)."""
    _, _, records = bert_mrpc_run
    return TPUPointAnalyzer(records)


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(1234)


#: Record files in the encodings that are read but no longer written.
LEGACY_DATA = Path(__file__).resolve().parent / "data" / "legacy"


@pytest.fixture
def legacy_copy(tmp_path):
    """Copy a file or directory of ``tests/data/legacy`` into ``tmp_path``.

    Tests that damage a legacy file edit the returned copy, never the
    committed original.
    """

    def copy(name: str) -> Path:
        source, target = LEGACY_DATA / name, tmp_path / name
        if source.is_dir():
            shutil.copytree(source, target)
        else:
            shutil.copyfile(source, target)
        return target

    return copy
