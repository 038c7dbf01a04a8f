"""The pluggable search-strategy engine (offline autotune trials)."""

from concurrent.futures import ThreadPoolExecutor

import pytest

from repro.core.optimizer.parameters import discover_parameters
from repro.core.optimizer.strategies import (
    STRATEGIES,
    CandidateTrial,
    HillClimbStrategy,
    SearchOutcome,
    SimulatedAnnealingStrategy,
    SuccessiveHalvingStrategy,
    SurrogateStrategy,
    build_strategy,
)
from repro.errors import OptimizerError
from repro.host.pipeline import PipelineConfig
from repro.models.naive import naive_pipeline_config
from repro.rng import stream as rng_stream


class SyntheticEvaluator:
    """A pure-function workload: faster with more parallelism, no noise.

    Elapsed time per step falls with every knob the strategies can turn
    up, so every strategy should find an improvement over the naive
    configuration; a tiny per-trial jitter drawn from the trial key's
    substream keeps measurements realistic yet fully deterministic.
    """

    def __init__(self, seed: int = 7, pool: ThreadPoolExecutor | None = None):
        self.seed = seed
        self.pool = pool
        self.calls = 0

    def _elapsed_per_step(self, config: PipelineConfig, key: str) -> float:
        speed = (
            1.0
            + 0.30 * config.num_parallel_calls
            + 0.20 * config.prefetch_depth
            + 0.25 * config.infeed_threads
            + 0.10 * config.num_parallel_reads
            + (2.0 if config.vectorized_preprocess else 0.0)
        )
        jitter = 1.0 + 0.01 * float(rng_stream(f"synthetic:{key}", self.seed).random())
        return 1e6 / speed * jitter

    def _run(self, request):
        key, config, steps = request
        return CandidateTrial(
            key=key,
            config=config,
            steps=steps,
            elapsed_us=self._elapsed_per_step(config, key) * steps,
        )

    def evaluate(self, requests):
        self.calls += len(requests)
        mapper = map if self.pool is None else self.pool.map
        return list(mapper(self._run, requests))


def _search(strategy, start=None, seed=11, pool=None):
    start = start or naive_pipeline_config()
    evaluator = SyntheticEvaluator(pool=pool)
    return strategy.search(discover_parameters(start), start, evaluator, seed)


class TestCandidateTrial:
    def test_throughput(self):
        trial = CandidateTrial("t", PipelineConfig(), steps=4, elapsed_us=2e6)
        assert trial.throughput == pytest.approx(2.0)

    def test_degenerate_measurements_rejected(self):
        with pytest.raises(OptimizerError):
            CandidateTrial("t", PipelineConfig(), steps=0, elapsed_us=1.0)
        with pytest.raises(OptimizerError):
            CandidateTrial("t", PipelineConfig(), steps=4, elapsed_us=0.0)
        with pytest.raises(OptimizerError):
            CandidateTrial("t", PipelineConfig(), steps=4, elapsed_us=-5.0)


class TestSearchOutcome:
    def test_trials_to_config(self):
        a, b = PipelineConfig(), PipelineConfig(prefetch_depth=8)
        outcome = SearchOutcome(
            strategy="x",
            initial_config=a,
            best_config=b,
            baseline_throughput=1.0,
            best_throughput=2.0,
            trials=[
                CandidateTrial("1", a, 2, 1e6),
                CandidateTrial("2", b, 2, 5e5),
            ],
        )
        assert outcome.trials_to_config(a) == 1
        assert outcome.trials_to_config(b) == 2
        assert outcome.trials_to_best == 2
        assert outcome.trials_to_config(PipelineConfig(prefetch_depth=16)) is None
        assert outcome.improvement == pytest.approx(2.0)
        assert outcome.steps_consumed == 4


class TestRegistry:
    def test_all_strategies_registered(self):
        assert set(STRATEGIES) == {"hill-climb", "annealing", "racing", "surrogate"}

    def test_build_by_name(self):
        assert isinstance(build_strategy("hill-climb"), HillClimbStrategy)
        assert isinstance(build_strategy("annealing"), SimulatedAnnealingStrategy)
        assert isinstance(build_strategy("racing"), SuccessiveHalvingStrategy)
        assert isinstance(build_strategy("surrogate"), SurrogateStrategy)

    def test_unknown_strategy_rejected(self):
        with pytest.raises(OptimizerError, match="unknown search strategy"):
            build_strategy("grid")

    def test_unknown_option_rejected(self):
        with pytest.raises(OptimizerError, match="does not accept"):
            build_strategy("racing", temperature=3.0)

    def test_options_forwarded(self):
        strategy = build_strategy("racing", population=4, trial_steps=2)
        assert strategy.population == 4
        assert strategy.trial_steps == 2


class TestValidation:
    def test_hill_climb(self):
        with pytest.raises(OptimizerError):
            HillClimbStrategy(trial_steps=0)
        with pytest.raises(OptimizerError):
            HillClimbStrategy(min_improvement=0.5)

    def test_annealing(self):
        with pytest.raises(OptimizerError):
            SimulatedAnnealingStrategy(rounds=0)
        with pytest.raises(OptimizerError):
            SimulatedAnnealingStrategy(cooling=1.0)
        with pytest.raises(OptimizerError):
            SimulatedAnnealingStrategy(initial_temperature=0.0)

    def test_racing(self):
        with pytest.raises(OptimizerError):
            SuccessiveHalvingStrategy(population=1)
        with pytest.raises(OptimizerError):
            SuccessiveHalvingStrategy(eta=1)

    def test_surrogate(self):
        with pytest.raises(OptimizerError):
            SurrogateStrategy(population=1)
        with pytest.raises(OptimizerError):
            SurrogateStrategy(measure_fraction=0.0)
        with pytest.raises(OptimizerError):
            SurrogateStrategy(measure_fraction=1.5)
        with pytest.raises(OptimizerError):
            SurrogateStrategy(min_measure=0)


class TestSearchBehaviour:
    @pytest.mark.parametrize("name", sorted(STRATEGIES))
    def test_improves_naive_config(self, name):
        outcome = _search(build_strategy(name))
        assert outcome.improvement > 1.0
        assert outcome.best_config != naive_pipeline_config()
        assert outcome.trials, "every search must log its trials"
        assert outcome.strategy == name

    def test_racing_first_trial_is_start_config(self):
        start = naive_pipeline_config()
        outcome = _search(SuccessiveHalvingStrategy(population=4, trial_steps=2), start)
        assert outcome.trials[0].config == start
        assert outcome.trials_to_config(start) == 1

    def test_racing_rungs_shrink_population(self):
        outcome = _search(SuccessiveHalvingStrategy(population=4, eta=2, trial_steps=2))
        rung0 = [t for t in outcome.trials if t.key.startswith("race:r0:")]
        rung1 = [t for t in outcome.trials if t.key.startswith("race:r1:")]
        assert len(rung0) == 4
        assert len(rung1) == 2
        # Deeper rungs measure longer.
        assert rung1[0].steps == rung0[0].steps * 2

    def test_annealing_rounds_batched(self):
        strategy = SimulatedAnnealingStrategy(rounds=3, batch=2, trial_steps=2)
        outcome = _search(strategy)
        # One baseline plus rounds x batch proposals.
        assert len(outcome.trials) == 1 + 3 * 2

    @pytest.mark.parametrize("name", sorted(STRATEGIES))
    def test_identical_across_worker_counts(self, name):
        observed = []
        for workers in (1, 2, 4):
            with ThreadPoolExecutor(max_workers=workers) as pool:
                outcome = _search(build_strategy(name), pool=pool)
            observed.append(
                [(t.key, t.config, t.steps, t.elapsed_us) for t in outcome.trials]
                + [outcome.best_config, outcome.best_throughput]
            )
        assert observed[0] == observed[1] == observed[2]
