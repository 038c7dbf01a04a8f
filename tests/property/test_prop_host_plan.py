"""The host batch plan against the per-stage cost path it replaced.

:func:`_reference_batch_cost` and :func:`_reference_emit` are the code
that costed and logged every batch before the plan: each batch computed
every stage's wall from the pipeline's expressions, built one
:class:`_StageCost` per stage and split its wall across the stage's ops,
and the host worker laid the ``(name, duration)`` pairs out as a block.
The plan must reproduce the op names, the op durations, the batch total,
the transfer wall and the emitted block bit for bit: on random stage
specs, configurations, batch sizes and jitter (0 included), and when
the online tuner swaps the configuration in the middle of a run.
"""

from dataclasses import dataclass, replace

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.host.pipeline import InputPipeline, PipelineConfig
from repro.host.stages import StageKind, StageSpec
from repro.host.vm import HostVM
from repro.runtime.events import DeviceKind, EventLog, OpBlock
from repro.runtime.worker import HostWorker
from repro.storage.bucket import Bucket

#: Few names, so names repeat inside a batch; the blocked op among them.
OP_NAMES = ("Cast", "Sub", "Send", "TransferBufferToInfeedLocked", "LSRAv2")


@dataclass(frozen=True)
class _StageCost:
    """A stage's realized cost for one batch, as each batch built it."""

    name: str
    wall_us: float
    ops: tuple[tuple[str, float], ...]

    def op_durations(self) -> list[tuple[str, float]]:
        if not self.ops:
            return [(self.name, self.wall_us)]
        total_weight = sum(weight for _, weight in self.ops)
        return [
            (op_name, self.wall_us * weight / total_weight) for op_name, weight in self.ops
        ]


@dataclass(frozen=True)
class _ReferenceCost:
    stages: tuple[_StageCost, ...]
    total_wall_us: float
    transfer_wall_us: float

    def op_durations(self) -> list[tuple[str, float]]:
        durations: list[tuple[str, float]] = []
        for stage in self.stages:
            durations.extend(stage.op_durations())
        return durations


def _reference_batch_cost(pipeline, batch_size, rng) -> _ReferenceCost:
    """One batch's cost, every stage wall computed anew."""
    config = pipeline.config
    jitter = float(rng.lognormal(mean=0.0, sigma=config.jitter)) if config.jitter else 1.0
    costs = []
    transfer_wall = 0.0
    for spec in pipeline.stages:
        if spec.kind is StageKind.READ:
            wall = pipeline._read_wall_us(batch_size) + pipeline._shuffle_wall_us(batch_size)
        elif spec.kind is StageKind.TRANSFER:
            wall = pipeline._transfer_wall_us(batch_size)
        else:
            wall = pipeline._cpu_wall_us(spec, batch_size)
        wall *= jitter
        if spec.kind is StageKind.TRANSFER:
            transfer_wall += wall
        costs.append(_StageCost(spec.name, wall, spec.ops))
    total = sum(stage.wall_us for stage in costs)
    return _ReferenceCost(tuple(costs), total, transfer_wall)


def _reference_emit(cost, step, ready_at_us, backpressure_us) -> OpBlock:
    """The block the host worker logged for ``cost``."""
    op_durations = cost.op_durations()
    total = sum(duration for _, duration in op_durations) + backpressure_us
    blocked_index = len(op_durations) - 1
    for index, (name, _) in enumerate(op_durations):
        if name == "TransferBufferToInfeedLocked":
            blocked_index = index
            break
    durations = np.array([duration for _, duration in op_durations], dtype=np.float64)
    if backpressure_us > 0 and op_durations:
        durations[blocked_index] += backpressure_us
    times = np.empty(len(durations) + 1)
    times[0] = ready_at_us - total
    times[1:] = durations
    np.add.accumulate(times, out=times)
    return OpBlock(
        tuple(name for name, _ in op_durations), DeviceKind.HOST, step, times[:-1], durations
    )


class _ReferenceHostWorker(HostWorker):
    """A host worker that logs batches the way the per-stage path did."""

    def emit_batch_production(self, cost, step, ready_at_us, backpressure_us=0.0):
        self.log.append_block(_reference_emit(cost, step, ready_at_us, backpressure_us))


def _bits(values) -> list[str]:
    return [float(value).hex() for value in values]


stage_specs = st.builds(
    StageSpec,
    name=st.sampled_from(("read", "decode", "batch", "transfer")),
    kind=st.sampled_from(list(StageKind)),
    cpu_us_per_example=st.one_of(st.just(0.0), st.floats(0.0, 500.0)),
    parallelizable=st.booleans(),
    ops=st.lists(
        st.tuples(st.sampled_from(OP_NAMES), st.floats(0.05, 5.0)), max_size=4
    ).map(tuple),
)

configs = st.builds(
    PipelineConfig,
    num_parallel_reads=st.integers(1, 64),
    num_parallel_calls=st.integers(1, 64),
    prefetch_depth=st.integers(0, 8),
    shuffle_buffer=st.one_of(st.just(0), st.integers(1, 1 << 20)),
    infeed_threads=st.integers(1, 16),
    vectorized_preprocess=st.booleans(),
    jitter=st.one_of(st.just(0.0), st.floats(0.0, 0.5)),
)


@st.composite
def pipelines(draw):
    return InputPipeline(
        vm=HostVM(),
        bucket=Bucket(
            "b",
            read_bandwidth=draw(st.floats(1e6, 1e10)),
            request_latency_us=draw(st.floats(0.0, 1e5)),
        ),
        stages=tuple(draw(st.lists(stage_specs, min_size=1, max_size=5))),
        config=PipelineConfig(),
        bytes_per_example_storage=draw(st.floats(0.0, 1e6)),
        bytes_per_example_device=draw(st.floats(0.0, 1e6)),
    )


batches = st.lists(
    st.fixed_dictionaries(
        {
            "config": st.integers(0, 2),
            "batch_size": st.sampled_from((1, 7, 32, 512)),
            "ready": st.floats(-1e6, 1e9),
            "backpressure": st.one_of(st.just(0.0), st.floats(0.0, 1e4)),
        }
    ),
    min_size=1,
    max_size=8,
)


@settings(max_examples=200, deadline=None)
@given(
    pipeline=pipelines(),
    knobs=st.lists(configs, min_size=1, max_size=3),
    plan=batches,
    seed=st.integers(0, 2**32 - 1),
)
def test_plan_matches_the_per_stage_path(pipeline, knobs, plan, seed):
    rng = np.random.default_rng(seed)
    reference_rng = np.random.default_rng(seed)
    log, reference_log = EventLog(), EventLog()
    for step, batch in enumerate(plan):
        # The configuration may change between any two batches, as the
        # online tuner's swaps do.
        pipeline.config = knobs[batch["config"] % len(knobs)]
        size = batch["batch_size"]
        cost = pipeline.batch_cost(size, rng)
        want = _reference_batch_cost(pipeline, size, reference_rng)

        names, durations = zip(*want.op_durations())
        assert cost.plan.names == names
        assert _bits(cost.op_durations()) == _bits(durations)
        assert _bits([cost.total_wall_us, cost.transfer_wall_us]) == _bits(
            [want.total_wall_us, want.transfer_wall_us]
        )
        quiet = replace(pipeline, config=replace(pipeline.config, jitter=0.0))
        assert _bits([pipeline.mean_batch_wall_us(size)]) == _bits(
            [_reference_batch_cost(quiet, size, np.random.default_rng(0)).total_wall_us]
        )

        HostWorker(log).emit_batch_production(cost, step, batch["ready"], batch["backpressure"])
        reference_log.append_block(
            _reference_emit(want, step, batch["ready"], batch["backpressure"])
        )
    # Both paths drew the same jitter, in the same order.
    assert rng.random() == reference_rng.random()
    for got, expected in zip(log.entries, reference_log.entries, strict=True):
        assert got.names == expected.names
        assert got.step == expected.step
        assert _bits(got.starts) == _bits(expected.starts)
        assert _bits(got.durations) == _bits(expected.durations)


def _entries(log):
    return [
        (event.name, event.device, event.step, *_bits([event.start_us, event.duration_us]))
        for event in log.events
    ]


def test_a_config_swapped_mid_run_matches_the_per_stage_path(tiny_model, tiny_dataset):
    """A whole session, with ``update_pipeline_config`` between its stretches."""
    swaps = (
        PipelineConfig(num_parallel_calls=2, prefetch_depth=0, jitter=0.0),
        PipelineConfig(num_parallel_reads=16, shuffle_buffer=0, infeed_threads=4),
        PipelineConfig(),
    )
    runs = []
    for reference in (False, True):
        estimator = tiny_model.build_estimator(tiny_dataset)
        session = estimator.session
        if reference:
            pipeline = session.pipeline
            pipeline.batch_cost = lambda size, rng: _reference_batch_cost(pipeline, size, rng)
            session.host_worker = _ReferenceHostWorker(session.log)
        estimator.train_steps(5)
        for config in swaps:
            estimator.update_pipeline_config(config)
            estimator.train_steps(7)
        estimator.train()
        runs.append(session)
    got, want = runs
    assert _entries(got.log) == _entries(want.log)
    assert [
        (meta.step, *_bits([meta.start_us, meta.end_us, meta.tpu_idle_us])) for meta in got.log.steps
    ] == [
        (meta.step, *_bits([meta.start_us, meta.end_us, meta.tpu_idle_us]))
        for meta in want.log.steps
    ]
