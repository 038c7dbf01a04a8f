"""Each distinct graph is built and compiled once per process.

Workload models memoize a graph and its program by model, role, batch
size, dataset and compile target. Estimators that share a key share the
frozen graph and the read-only program, and every session still charges
the program's simulated compile time.
"""

from __future__ import annotations

import dataclasses

import pytest

import repro.models.base as base
import repro.runtime.estimator as estimator_module
from repro.core.api import TPUPoint
from repro.core.optimizer import AutotuneOptions, autotune
from repro.errors import GraphError
from repro.graph import ops as opdefs
from repro.graph.ops import Operation
from repro.host.pipeline import PipelineConfig
from repro.models.registry import PAPER_WORKLOADS, SMALL_DATASET_WORKLOADS, workload
from repro.runtime.master import compile_graph, compile_target
from repro.tpu.slice import tpu_slice
from repro.tpu.specs import TpuGeneration
from repro.workloads.runner import build_estimator
from repro.workloads.spec import WorkloadSpec


def _start_program_us(estimator) -> list[float]:
    estimator.train_steps(1)
    return [
        event.duration_us
        for event in estimator.session.log.events
        if event.name == "StartProgram"
    ]


def test_estimators_of_one_spec_share_a_program_and_each_charges_compile_time():
    spec = WorkloadSpec("dcgan-mnist")
    first, second = build_estimator(spec), build_estimator(spec)
    assert first.compile() is second.compile()
    assert first.train_graph is second.train_graph
    compile_us = first.compile().compile_time_us
    assert compile_us > 0
    assert _start_program_us(first) == [compile_us]
    assert _start_program_us(second) == [compile_us]


def test_naive_variant_and_generation_spellings_share_programs():
    plain = build_estimator(WorkloadSpec("bert-mrpc"))
    naive = build_estimator(WorkloadSpec("naive-bert-mrpc", generation="v2"))
    assert naive.programs == plain.programs
    assert all(a is b for a, b in zip(naive.programs, plain.programs))
    enum = build_estimator(WorkloadSpec("dcgan-mnist", generation=TpuGeneration.V3))
    text = build_estimator(WorkloadSpec("dcgan-mnist", generation="v3"))
    assert enum.compile() is text.compile()
    assert enum.compile() is not build_estimator(WorkloadSpec("dcgan-mnist")).compile()


@pytest.mark.parametrize(
    "generation",
    [TpuGeneration.V2, TpuGeneration.V3, tpu_slice("v2", 4)],
    ids=["v2", "v3", "v2-8"],
)
def test_memoized_programs_equal_fresh_compiles(generation):
    target = compile_target(generation)
    for key in PAPER_WORKLOADS + SMALL_DATASET_WORKLOADS:
        entry = workload(key)
        estimator = entry.model.build_estimator(entry.dataset, generation=generation)
        batch = estimator.plan.batch_size
        fresh_train = compile_graph(entry.model.build_train_graph(batch, entry.dataset), target)
        fresh_eval = compile_graph(entry.model.build_eval_graph(batch, entry.dataset), target)
        for cached, fresh in zip(estimator.programs, (fresh_train, fresh_eval)):
            assert cached.tpu_schedule == fresh.tpu_schedule, key
            assert cached.host_ops == fresh.host_ops, key
            assert cached.partition == fresh.partition, key
            assert (cached.folding, cached.fusion) == (fresh.folding, fresh.fusion), key
            assert cached.compile_time_us == fresh.compile_time_us, key
            assert cached == fresh, key


def test_shared_programs_and_graphs_are_read_only():
    estimator = build_estimator(WorkloadSpec("dcgan-mnist"))
    program = estimator.compile()
    with pytest.raises(dataclasses.FrozenInstanceError):
        program.compile_time_us = 0.0
    with pytest.raises(dataclasses.FrozenInstanceError):
        program.partition.host_ops = ()
    with pytest.raises(TypeError):
        program.partition.assignment["extra"] = None
    graph = estimator.train_graph
    assert graph.frozen
    with pytest.raises(GraphError):
        graph.add(Operation(name="extra", kind=opdefs.NO_OP))
    with pytest.raises(GraphError):
        graph.remove(next(iter(graph)).name)
    with pytest.raises(AttributeError):
        graph.name = "renamed"
    # A frozen graph still compiles: it was folded before it was shared.
    assert compile_graph(graph, estimator.spec).tpu_schedule == program.tpu_schedule


def test_cold_offline_characterize_compiles_each_distinct_graph_once(monkeypatch):
    """The builds of perfbench's offline set-up and episode, from a cold memo.

    Set-up builds the three profiled workloads plus a probe and an
    online estimator of ``bert-mrpc``; the episode's 15 autotune trials
    build ``bert-mrpc`` again, and ``TPUPoint.optimize()`` trains the
    online one. Compiling each build separately makes 40 calls.
    """
    calls: list[str] = []

    def counting(graph, target):
        calls.append(graph.name)
        return compile_graph(graph, target)

    monkeypatch.setattr(base, "compile_graph", counting)
    monkeypatch.setattr(estimator_module, "compile_graph", counting)
    base._clear_compile_memo()
    for index, key in enumerate(("bert-squad", "qanet-squad", "retinanet-coco")):
        build_estimator(WorkloadSpec(key, seed=1000 + index)).compile()
    tune = WorkloadSpec("bert-mrpc", seed=1003)
    probe, online = build_estimator(tune), build_estimator(tune)
    tuned = autotune(
        lambda config: build_estimator(dataclasses.replace(tune, pipeline_config=config)),
        probe.pipeline_config or PipelineConfig(),
        AutotuneOptions(seed=tune.seed, workload="bert-mrpc"),
    )
    TPUPoint(online).optimize()
    assert len(tuned.trials) == 15
    assert len(calls) <= 8


def test_memo_is_bounded():
    base._clear_compile_memo()
    entry = workload("dcgan-mnist")
    plan = entry.model.defaults(entry.dataset).session_plan()
    for batch in range(1, base._MEMO_SIZE // 2 + 3):
        entry.model.build_estimator(
            entry.dataset, plan=dataclasses.replace(plan, batch_size=batch)
        )
    assert len(base._memo) == base._MEMO_SIZE
