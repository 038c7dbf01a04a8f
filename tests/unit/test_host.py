"""Host VM, stages, and input pipeline."""

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.host.pipeline import BatchPlan, InputPipeline, PipelineConfig
from repro.host.stages import StageKind, StageSpec
from repro.host.vm import HostVM, HostVmSpec
from repro.storage.bucket import Bucket


class TestHostVM:
    def test_vcpus(self):
        assert HostVmSpec().vcpus == 32

    def test_parallelism_monotone_then_saturates(self):
        vm = HostVM()
        values = [vm.effective_parallelism(n) for n in (1, 2, 4, 8, 16, 32, 64)]
        assert all(b >= a for a, b in zip(values, values[1:]))
        assert values[-1] == values[-2]  # beyond vCPUs adds nothing

    def test_parallelism_sublinear(self):
        vm = HostVM()
        assert vm.effective_parallelism(16) < 16.0
        assert vm.effective_parallelism(16) > 8.0

    def test_smt_contributes_less_than_cores(self):
        vm = HostVM()
        core_gain = vm.effective_parallelism(16) - vm.effective_parallelism(15)
        smt_gain = vm.effective_parallelism(17) - vm.effective_parallelism(16)
        assert smt_gain < core_gain

    def test_parallel_time(self):
        vm = HostVM()
        assert vm.parallel_time_us(1000.0, 1) == pytest.approx(1000.0)
        assert vm.parallel_time_us(1000.0, 8) < 1000.0

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            HostVM().effective_parallelism(0)
        with pytest.raises(ConfigurationError):
            HostVM().parallel_time_us(-1.0, 1)
        with pytest.raises(ConfigurationError):
            HostVmSpec(physical_cores=0)


class TestStages:
    def test_stage_validation(self):
        with pytest.raises(ConfigurationError):
            StageSpec("s", StageKind.CPU, cpu_us_per_example=-1.0)
        with pytest.raises(ConfigurationError):
            StageSpec("s", StageKind.CPU, ops=(("x", 0.0),))

    def test_op_durations_split_by_weight(self):
        stage = StageSpec("s", StageKind.CPU, ops=(("a", 3.0), ("b", 1.0)))
        cost = BatchPlan.compile((stage,), (100.0,)).cost(1.0)
        durations = dict(zip(cost.plan.names, cost.op_durations()))
        assert durations["a"] == pytest.approx(75.0)
        assert durations["b"] == pytest.approx(25.0)

    def test_op_durations_default_to_stage_name(self):
        stage = StageSpec("decode", StageKind.CPU, ops=())
        cost = BatchPlan.compile((stage,), (10.0,)).cost(1.0)
        assert list(zip(cost.plan.names, cost.op_durations())) == [("decode", 10.0)]


def _pipeline(config=None, decode_us=100.0):
    stages = (
        StageSpec("read", StageKind.READ, ops=(("Send", 1.0),)),
        StageSpec("decode", StageKind.CPU, cpu_us_per_example=decode_us),
        StageSpec("batch", StageKind.BATCH, cpu_us_per_example=0.5, parallelizable=False),
        StageSpec("transfer", StageKind.TRANSFER),
    )
    return InputPipeline(
        vm=HostVM(),
        bucket=Bucket("b"),
        stages=stages,
        config=config or PipelineConfig(),
        bytes_per_example_storage=10_000.0,
        bytes_per_example_device=40_000.0,
    )


class TestPipeline:
    def test_config_validation(self):
        with pytest.raises(ConfigurationError):
            PipelineConfig(num_parallel_calls=0)
        with pytest.raises(ConfigurationError):
            PipelineConfig(prefetch_depth=-1)
        with pytest.raises(ConfigurationError):
            PipelineConfig(jitter=-0.1)

    @pytest.mark.parametrize(
        "knob",
        ["num_parallel_reads", "num_parallel_calls", "prefetch_depth", "shuffle_buffer", "infeed_threads"],
    )
    @pytest.mark.parametrize("value", [2.5, 2.0, float("nan"), True, "3", None, 2**53 + 1])
    def test_integer_knobs_reject_values_the_simulation_cannot_run(self, knob, value):
        with pytest.raises(ConfigurationError):
            PipelineConfig(**{knob: value})

    def test_integer_knobs_accept_numpy_integers(self):
        config = PipelineConfig(prefetch_depth=np.int64(3), num_parallel_calls=np.int32(4))
        assert config == PipelineConfig(prefetch_depth=3, num_parallel_calls=4)

    @pytest.mark.parametrize("jitter", [float("nan"), float("inf"), "0.1", True])
    def test_jitter_must_be_a_finite_number(self, jitter):
        with pytest.raises(ConfigurationError):
            PipelineConfig(jitter=jitter)

    @pytest.mark.parametrize("value", [1, "yes", [], None])
    def test_vectorized_preprocess_must_be_a_bool(self, value):
        with pytest.raises(ConfigurationError):
            PipelineConfig(vectorized_preprocess=value)

    def test_with_updates_returns_new_config(self):
        config = PipelineConfig()
        updated = config.with_updates(num_parallel_calls=16)
        assert updated.num_parallel_calls == 16
        assert config.num_parallel_calls == 8

    def test_batch_cost_structure(self, rng):
        cost = _pipeline().batch_cost(64, rng)
        assert len(cost.walls) == 4
        assert cost.total_wall_us == pytest.approx(sum(cost.walls))
        assert 0.0 < cost.transfer_wall_us < cost.total_wall_us
        assert cost.produce_wall_us == cost.total_wall_us - cost.transfer_wall_us

    def test_more_threads_is_faster(self, rng):
        slow = _pipeline(PipelineConfig(num_parallel_calls=1, jitter=0.0))
        fast = _pipeline(PipelineConfig(num_parallel_calls=16, jitter=0.0))
        assert fast.batch_cost(64, rng).total_wall_us < slow.batch_cost(64, rng).total_wall_us

    def test_more_parallel_reads_is_faster(self, rng):
        slow = _pipeline(PipelineConfig(num_parallel_reads=1, jitter=0.0))
        fast = _pipeline(PipelineConfig(num_parallel_reads=16, jitter=0.0))
        assert fast.batch_cost(64, rng).total_wall_us < slow.batch_cost(64, rng).total_wall_us

    def test_vectorized_preprocess_is_faster(self, rng):
        plain = _pipeline(PipelineConfig(jitter=0.0))
        vectorized = _pipeline(PipelineConfig(jitter=0.0, vectorized_preprocess=True))
        assert (
            vectorized.batch_cost(64, rng).total_wall_us
            < plain.batch_cost(64, rng).total_wall_us
        )

    def test_batch_stage_not_parallelized(self, rng):
        # Non-parallelizable stage cost is independent of thread count.
        one = _pipeline(PipelineConfig(num_parallel_calls=1, jitter=0.0)).batch_cost(64, rng)
        many = _pipeline(PipelineConfig(num_parallel_calls=32, jitter=0.0)).batch_cost(64, rng)
        batch_one = one.walls[2]  # the "batch" stage
        batch_many = many.walls[2]
        assert batch_one == pytest.approx(batch_many)

    def test_shuffle_buffer_costs_cpu(self, rng):
        off = _pipeline(PipelineConfig(shuffle_buffer=0, jitter=0.0)).batch_cost(64, rng)
        on = _pipeline(PipelineConfig(shuffle_buffer=65536, jitter=0.0)).batch_cost(64, rng)
        assert on.total_wall_us > off.total_wall_us

    def test_jitter_zero_is_deterministic(self):
        pipe = _pipeline(PipelineConfig(jitter=0.0))
        a = pipe.batch_cost(64, np.random.default_rng(1)).total_wall_us
        b = pipe.batch_cost(64, np.random.default_rng(2)).total_wall_us
        assert a == b

    def test_mean_batch_wall_is_jitter_free(self):
        pipe = _pipeline(PipelineConfig(jitter=0.5))
        assert pipe.mean_batch_wall_us(64) == pytest.approx(
            _pipeline(PipelineConfig(jitter=0.0)).mean_batch_wall_us(64)
        )

    def test_invalid_batch_size(self, rng):
        with pytest.raises(ConfigurationError):
            _pipeline().batch_cost(0, rng)

    def test_requires_stages(self):
        with pytest.raises(ConfigurationError):
            InputPipeline(
                vm=HostVM(),
                bucket=Bucket("b"),
                stages=(),
                config=PipelineConfig(),
                bytes_per_example_storage=1.0,
                bytes_per_example_device=1.0,
            )
