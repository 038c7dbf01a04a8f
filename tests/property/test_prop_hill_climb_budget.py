"""A budget-stopped hill climb is a prefix of the unlimited walk.

The online optimizer's evaluator raises :class:`SearchExhausted` once
its step budget is spent. :class:`HillClimbStrategy` must then stop
cleanly: after ``b`` affordable trials it returns exactly the first
``b`` trials of the walk it would have run without a budget, and the
configuration an acceptance replay of those trials settles on. With no
trial affordable it keeps the initial configuration and reports an
improvement of 1.0.
"""

from hypothesis import given, settings, strategies as st

from repro.core.optimizer.parameters import discover_parameters
from repro.core.optimizer.strategies import MIN_IMPROVEMENT, HillClimbStrategy
from repro.errors import SearchExhausted
from repro.host.pipeline import PipelineConfig
from repro.models.naive import naive_pipeline_config
from tests.property.test_prop_autotune import PureEvaluator


class _Inline:
    """Runs an evaluator's batch in the calling thread."""

    map = staticmethod(map)


class BudgetedEvaluator:
    """Measures like ``inner`` until ``budget`` trials are spent, then refuses."""

    def __init__(self, inner, budget: int):
        self.inner = inner
        self.budget = budget
        self.measured = 0

    def evaluate(self, requests):
        trials = []
        for request in requests:
            if self.measured >= self.budget:
                raise SearchExhausted(f"budget of {self.budget} trials spent")
            trials.extend(self.inner.evaluate([request]))
            self.measured += 1
        return trials


def _search(start, seed, evaluator):
    strategy = HillClimbStrategy(trial_steps=4)
    return strategy.search(discover_parameters(start), start, evaluator, seed)


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 2**16),
    naive=st.booleans(),
    extra=st.integers(0, 3),
    data=st.data(),
)
def test_budget_stop_returns_prefix_of_unlimited_walk(seed, naive, extra, data):
    start = naive_pipeline_config() if naive else PipelineConfig()
    unlimited = _search(start, seed, PureEvaluator(seed, _Inline))
    budget = data.draw(st.integers(0, len(unlimited.trials) + extra), label="budget")

    stopped = _search(start, seed, BudgetedEvaluator(PureEvaluator(seed, _Inline), budget))

    assert stopped.trials == unlimited.trials[:budget]
    assert stopped.initial_config == start
    if budget == 0:
        assert stopped.best_config == start
        assert stopped.improvement == 1.0
        return
    # Replay the walk's acceptance rule over the trials it could afford.
    best, best_throughput = start, stopped.trials[0].throughput
    for trial in stopped.trials[1:]:
        if trial.throughput >= best_throughput * MIN_IMPROVEMENT:
            best, best_throughput = trial.config, trial.throughput
    assert stopped.best_config == best
    assert stopped.best_throughput == best_throughput
    assert stopped.baseline_throughput == stopped.trials[0].throughput
    if budget >= len(unlimited.trials):
        assert stopped.best_config == unlimited.best_config
        assert stopped.improvement == unlimited.improvement
