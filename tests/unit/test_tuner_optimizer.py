"""The online hill climb (LiveTrialEvaluator) and the optimizer orchestration."""

import math
from dataclasses import replace

import pytest

from repro.core.optimizer.autotune import AutotuneOptions
from repro.core.optimizer.optimizer import (
    LiveTrialEvaluator,
    OptimizerOptions,
    TPUPointOptimizer,
)
from repro.core.optimizer.parameters import discover_parameters
from repro.core.optimizer.quality import QualityController
from repro.core.optimizer.strategies import HillClimbStrategy
from repro.errors import OptimizerError, SearchExhausted
from repro.host.pipeline import PipelineConfig
from repro.models.naive import naive_pipeline_config


def _slow_estimator(tiny_model, tiny_dataset):
    """A tiny workload throttled by a naive pipeline (tunable headroom).

    The dataset's per-example CPU cost is inflated so the single-threaded,
    unprefetched naive pipeline genuinely bounds the step time.
    """
    heavy = replace(tiny_dataset, decode_cpu_us=400.0, preprocess_cpu_us=200.0)
    return tiny_model.build_estimator(
        heavy,
        pipeline_config=naive_pipeline_config().with_updates(jitter=0.0),
    )


def _optimize(estimator, **options):
    options = {"detection_chunk_steps": 5, "trial_steps": 3, **options}
    return TPUPointOptimizer(estimator, OptimizerOptions(**options)).run()


class TestTuner:
    def test_validation(self, tiny_model, tiny_dataset):
        # A request over the step budget is refused before it touches the run.
        estimator = _slow_estimator(tiny_model, tiny_dataset)
        estimator.train_steps(1)
        start = estimator.current_pipeline_config()
        evaluator = LiveTrialEvaluator(
            estimator, QualityController(estimator), step_budget=4
        )
        other = start.with_updates(prefetch_depth=start.prefetch_depth + 1)
        with pytest.raises(SearchExhausted):
            evaluator.evaluate([("hill:1", other, 5)])
        assert estimator.session.global_step == 1
        assert estimator.current_pipeline_config() == start
        assert evaluator.steps_consumed == 0

    def test_tune_respects_step_budget(self, tiny_model, tiny_dataset):
        estimator = _slow_estimator(tiny_model, tiny_dataset)
        estimator.train_steps(1)
        start = estimator.current_pipeline_config()
        evaluator = LiveTrialEvaluator(
            estimator, QualityController(estimator), step_budget=10
        )
        outcome = HillClimbStrategy(trial_steps=5).search(
            discover_parameters(start), start, evaluator, seed=0
        )
        assert len(outcome.trials) == 2
        assert outcome.steps_consumed == evaluator.steps_consumed <= 10
        assert estimator.session.global_step == 1 + outcome.steps_consumed

    def test_tuning_improves_naive_pipeline(self, tiny_model, tiny_dataset):
        estimator = _slow_estimator(tiny_model, tiny_dataset)
        result = _optimize(estimator)
        assert result.tuning is not None
        assert result.tuning.improvement > 1.0
        assert result.tuning.best_config != result.tuning.initial_config
        # The run finishes on the best configuration, not the last one tried.
        assert estimator.current_pipeline_config() == result.tuning.best_config

    def test_best_found_after_baseline(self, tiny_model, tiny_dataset):
        estimator = _slow_estimator(tiny_model, tiny_dataset)
        result = _optimize(estimator)
        assert result.tuning.trials_to_best > 1

    def test_overhead_charged_per_trial(self, tiny_model, tiny_dataset):
        estimator = _slow_estimator(tiny_model, tiny_dataset)
        result = _optimize(estimator, overhead_us_per_trial=12_345.0)
        events = [
            e
            for e in estimator.session.log.events
            if e.name == "TPUPointOptimizerPostProcess"
        ]
        assert len(events) == len(result.tuning.trials)
        assert all(e.duration_us == 12_345.0 for e in events)


class TestQualityViolation:
    def test_violating_candidate_never_trains_and_run_finishes_untuned(
        self, tiny_model, tiny_dataset
    ):
        estimator = _slow_estimator(tiny_model, tiny_dataset)
        start = estimator.pipeline_config
        plan = estimator.plan
        swap_config = estimator.update_pipeline_config
        train_steps = estimator.train_steps
        trained_under: list[PipelineConfig] = []

        def swap_with_drift(config):
            # One candidate (the walk's second map-parallelism step, after
            # an accepted first) also doubles the batch size, which
            # changes the run's output signature.
            swap_config(config)
            drifts = config.num_parallel_calls == 4
            estimator.plan = replace(plan, batch_size=plan.batch_size * 2) if drifts else plan

        def train_and_record(count):
            trained_under.append(estimator.current_pipeline_config())
            return train_steps(count)

        estimator.update_pipeline_config = swap_with_drift
        estimator.train_steps = train_and_record
        result = _optimize(estimator)

        assert result.detector_triggered_at_step is not None
        assert result.tuning is None
        assert not result.tuned and result.improvement == 1.0
        assert estimator.session.finished
        assert estimator.session.global_step == plan.train_steps
        assert estimator.current_pipeline_config() == start
        assert all(c.num_parallel_calls != 4 for c in trained_under)
        post_process = [
            e
            for e in estimator.session.log.events
            if e.name == "TPUPointOptimizerPostProcess"
        ]
        assert len(post_process) == 2  # baseline and the accepted first step


class TestOptimizerOptions:
    def test_validation(self):
        with pytest.raises(OptimizerError):
            OptimizerOptions(trial_steps=0)
        with pytest.raises(OptimizerError):
            OptimizerOptions(max_tuning_fraction=0.0)

    @pytest.mark.parametrize("options_class", [OptimizerOptions, AutotuneOptions])
    @pytest.mark.parametrize("overhead", [-1e9, -1.0, math.nan, math.inf, -math.inf])
    def test_overhead_must_be_finite_and_non_negative(self, options_class, overhead):
        with pytest.raises(OptimizerError, match="overhead_us_per_trial"):
            options_class(overhead_us_per_trial=overhead)

    @pytest.mark.parametrize("options_class", [OptimizerOptions, AutotuneOptions])
    def test_zero_overhead_is_valid(self, options_class):
        assert options_class(overhead_us_per_trial=0.0).overhead_us_per_trial == 0.0


class TestOptimizerRun:
    def test_full_run_completes_plan(self, tiny_model, tiny_dataset):
        estimator = _slow_estimator(tiny_model, tiny_dataset)
        result = TPUPointOptimizer(
            estimator, OptimizerOptions(detection_chunk_steps=5, trial_steps=3)
        ).run()
        assert estimator.session.finished
        assert estimator.session.global_step == estimator.plan.train_steps
        assert result.summary.wall_us > 0

    def test_naive_workload_gets_tuned(self, tiny_model, tiny_dataset):
        estimator = _slow_estimator(tiny_model, tiny_dataset)
        result = TPUPointOptimizer(
            estimator, OptimizerOptions(detection_chunk_steps=5, trial_steps=3)
        ).run()
        assert result.detector_triggered_at_step is not None
        assert result.tuned
        assert result.improvement > 1.0

    def test_optimized_beats_untouched_naive_run(self, tiny_model, tiny_dataset):
        baseline = _slow_estimator(tiny_model, tiny_dataset).train()
        estimator = _slow_estimator(tiny_model, tiny_dataset)
        result = TPUPointOptimizer(
            estimator, OptimizerOptions(detection_chunk_steps=5, trial_steps=3)
        ).run()
        assert result.summary.wall_us < baseline.wall_us

    def test_instrumentation_checkpoint_written(self, tiny_model, tiny_dataset):
        estimator = _slow_estimator(tiny_model, tiny_dataset)
        result = TPUPointOptimizer(
            estimator, OptimizerOptions(detection_chunk_steps=5, trial_steps=3)
        ).run()
        if result.tuning is not None:
            assert result.instrumentation.checkpoint_steps
