"""Autotune invariants: worker-count determinism, KB hits preserve quality.

Two properties pin the offline engine's contracts:

1. **Worker counts never change answers.** Annealing and racing draw all
   randomness from the search's own RNG and per-trial substreams, and an
   executor's ``map`` returns results in submission order — so the full
   trial sequence (keys, configs, measurements) and the chosen best must
   be bit-identical at 1, 2, and 4 worker threads, for any seed.
2. **A knowledge-base hit never buys speed with correctness.** Whatever
   valid knob combination a stored entry carries, applying it to a base
   configuration must leave the training run's output signature exactly
   where :class:`QualityController` pinned it — tuning knobs are
   performance-only by construction.
"""

from concurrent.futures import ThreadPoolExecutor

from hypothesis import given, settings, strategies as st

from repro.core.optimizer.knowledge import KnowledgeEntry
from repro.core.optimizer.parameters import discover_parameters
from repro.core.optimizer.quality import OutputSignature, QualityController
from repro.core.optimizer.strategies import (
    CandidateTrial,
    build_strategy,
)
from repro.host.pipeline import PipelineConfig
from repro.models.naive import naive_pipeline_config
from repro.rng import stream as rng_stream
from tests.conftest import TINY_DATASET, TinyModel

_WORKER_WIDTHS = (1, 2, 4)


class PureEvaluator:
    """Deterministic stand-in workload for strategy-level properties.

    Throughput rises with every parallelism knob; a small jitter drawn
    from the trial key's named substream keeps it realistic while staying
    a pure function of (seed, key, config) — never of scheduling.
    """

    def __init__(self, seed: int, pool: ThreadPoolExecutor):
        self.seed = seed
        self.pool = pool

    def _run(self, request):
        key, config, steps = request
        speed = (
            1.0
            + 0.30 * config.num_parallel_calls
            + 0.20 * config.prefetch_depth
            + 0.25 * config.infeed_threads
            + 0.10 * config.num_parallel_reads
            + (2.0 if config.vectorized_preprocess else 0.0)
        )
        jitter = 1.0 + 0.01 * float(rng_stream(f"pure:{key}", self.seed).random())
        return CandidateTrial(
            key=key, config=config, steps=steps,
            elapsed_us=1e6 / speed * jitter * steps,
        )

    def evaluate(self, requests):
        return list(self.pool.map(self._run, requests))


def _trial_tuples(strategy_name, options, seed, workers):
    start = naive_pipeline_config()
    strategy = build_strategy(strategy_name, **options)
    with ThreadPoolExecutor(max_workers=workers) as pool:
        outcome = strategy.search(
            discover_parameters(start), start, PureEvaluator(seed, pool), seed
        )
    return (
        [(t.key, t.config, t.steps, t.elapsed_us) for t in outcome.trials],
        outcome.best_config,
        outcome.best_throughput,
    )


@settings(max_examples=10, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_annealing_bit_identical_across_worker_counts(seed):
    options = {"rounds": 2, "batch": 3, "trial_steps": 2}
    observed = [
        _trial_tuples("annealing", options, seed, workers)
        for workers in _WORKER_WIDTHS
    ]
    assert observed[0] == observed[1] == observed[2]


@settings(max_examples=10, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_racing_bit_identical_across_worker_counts(seed):
    options = {"population": 4, "trial_steps": 2}
    observed = [
        _trial_tuples("racing", options, seed, workers)
        for workers in _WORKER_WIDTHS
    ]
    assert observed[0] == observed[1] == observed[2]


stored_configs = st.fixed_dictionaries(
    {},
    optional={
        "num_parallel_reads": st.integers(1, 32),
        "num_parallel_calls": st.integers(1, 64),
        "prefetch_depth": st.integers(0, 16),
        "shuffle_buffer": st.integers(0, 262_144),
        "infeed_threads": st.integers(1, 16),
        "vectorized_preprocess": st.booleans(),
    },
).filter(bool)


@settings(max_examples=20, deadline=None)
@given(stored_configs)
def test_kb_hit_config_never_violates_quality(config):
    entry = KnowledgeEntry(
        signature=frozenset({"fusion", "InfeedDequeueTuple"}),
        config=config,
        improvement=1.5,
        trials=3,
    )
    model = TinyModel()
    base = PipelineConfig(jitter=0.0)
    reference = model.build_estimator(TINY_DATASET, pipeline_config=base)
    controller = QualityController(reference)
    candidate = model.build_estimator(
        TINY_DATASET, pipeline_config=entry.apply_to(base)
    )
    # The exact check EstimatorTrialEvaluator applies to every trial:
    # warm-start knobs must not move anything the controller pins.
    assert OutputSignature.of(candidate) == controller.reference
    controller.verify()
