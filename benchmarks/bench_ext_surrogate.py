"""Extension: the learned performance surrogate pays for its training.

Three claims, each measured and asserted (docs/surrogate.md):

1. **Surrogate-guided tuning spends less.** On the naive DCGAN
   pipeline, a surrogate search seeded from the committed bench corpus
   plus a recorded knowledge-base entry reaches the best-known
   configuration with *fewer total real trials* and *less total
   simulated time* than both the cold racing search and the warm-started
   racing search — and its trials-to-best-known is no worse than the
   warm start's.
2. **Predictions and schedules are bit-identical.** Two surrogate runs
   over the same inputs produce the identical trial sequence and the
   identical serialized model (the ``--surrogate-out`` artifact).
3. **The guard stays in charge.** The surrogate run's winner is
   accepted by the same warm-start guard that protects racing: the
   returned configuration was measured for real, never merely predicted.

``--quick`` (the CI smoke guard) runs the same flow on a shorter
detection window and a smaller population.
"""

import argparse
import dataclasses
import json
import sys
import tempfile
from pathlib import Path

from repro import PipelineConfig, WorkloadSpec, build_estimator
from repro.core.optimizer import AutotuneOptions, TuningKnowledgeBase, autotune

_WORKLOAD = "naive-dcgan-mnist"
_CORPUS = Path(__file__).parent / "corpus" / "surrogate_corpus.json"


def _factory(spec: WorkloadSpec):
    return lambda cfg: build_estimator(dataclasses.replace(spec, pipeline_config=cfg))


def _initial_config(spec: WorkloadSpec) -> PipelineConfig:
    probe = build_estimator(spec)
    return probe.pipeline_config or PipelineConfig()


def _options(strategy: str, quick: bool) -> AutotuneOptions:
    return AutotuneOptions(
        strategy=strategy,
        detection_steps=20 if quick else 40,
        workload=_WORKLOAD,
        surrogate_corpus=str(_CORPUS),
    )


def _strategy_options(quick: bool) -> dict:
    return (
        {"population": 8, "trial_steps": 3}
        if quick
        else {"population": 12, "trial_steps": 4}
    )


def run_trials_to_best(quick: bool) -> list[str]:
    spec = WorkloadSpec(_WORKLOAD)
    factory = _factory(spec)
    initial = _initial_config(spec)
    strategy_options = _strategy_options(quick)

    with tempfile.TemporaryDirectory() as knowledge_dir:
        cold = autotune(
            factory, initial, _options("racing", quick),
            knowledge=TuningKnowledgeBase.open(knowledge_dir),
            strategy_options=strategy_options,
        )
        assert cold.knowledge_recorded, "cold racing must record its result"
        warm = autotune(
            factory, initial, _options("racing", quick),
            knowledge=TuningKnowledgeBase.open(knowledge_dir),
            strategy_options=strategy_options,
        )
        assert warm.warm_started and not warm.rolled_back
        guided = autotune(
            factory, initial, _options("surrogate", quick),
            knowledge=TuningKnowledgeBase.open(knowledge_dir),
            strategy_options=strategy_options,
        )

    assert guided.surrogate is not None and guided.surrogate.ready, (
        "corpus + knowledge base must make the surrogate ready"
    )
    # Claim 1: fewer real trials and less total simulated time than both
    # the cold and the warm-started racing paths.
    assert len(guided.trials) < len(cold.trials), (
        f"guided search must measure fewer real trials than cold racing "
        f"({len(guided.trials)} vs {len(cold.trials)})"
    )
    assert len(guided.trials) < len(warm.trials), (
        f"guided search must measure fewer real trials than warm racing "
        f"({len(guided.trials)} vs {len(warm.trials)})"
    )
    assert guided.simulated_us < cold.simulated_us, (
        "guided search must spend less simulated time than cold racing"
    )
    assert guided.simulated_us < warm.simulated_us, (
        "guided search must spend less simulated time than warm racing"
    )
    # ... while still reaching the best-known configuration, and sooner
    # than the cold search that discovered it.
    best_known = cold.best_config
    reached_at = guided.outcome.trials_to_config(best_known)
    assert reached_at is not None, (
        "guided search never measured the best-known configuration"
    )
    cold_reached_at = cold.outcome.trials_to_config(best_known)
    assert reached_at < cold_reached_at, (
        f"guided search must reach the best-known config in fewer trials "
        f"than the cold search ({reached_at} vs {cold_reached_at})"
    )
    # Claim 3: the guard and the real measurements stay in charge — the
    # returned winner was measured, not merely predicted, and it beats
    # (or matches) every other configuration the run measured for real.
    assert not guided.rolled_back, "the guided winner must survive the guard"
    assert guided.outcome.trials_to_config(guided.best_config) is not None, (
        "the guided winner must come from a real trial"
    )

    document = guided.surrogate.to_document()
    return [
        f"workload {_WORKLOAD}, population "
        f"{strategy_options['population']}, corpus {_CORPUS.name}",
        f"  cold racing : {len(cold.trials):2d} real trials, "
        f"{cold.simulated_us / 1e6:6.2f} s simulated, "
        f"best-known found at trial {cold_reached_at}",
        f"  warm racing : {len(warm.trials):2d} real trials, "
        f"{warm.simulated_us / 1e6:6.2f} s simulated",
        f"  surrogate   : {len(guided.trials):2d} real trials, "
        f"{guided.simulated_us / 1e6:6.2f} s simulated, "
        f"best-known measured at trial {reached_at}",
        f"  model: {document['kind']}, {document['pairs']} training pairs, "
        f"{document['refits']} refits, digest {document['training_digest']}",
    ]


def run_determinism(quick: bool) -> list[str]:
    spec = WorkloadSpec(_WORKLOAD)
    factory = _factory(spec)
    initial = _initial_config(spec)
    strategy_options = _strategy_options(quick)

    # Claim 2: repeat runs are bit-identical (schedule and model dump).
    dumps = []
    for _ in range(2):
        result = autotune(
            factory, initial, _options("surrogate", quick),
            strategy_options=strategy_options,
        )
        dumps.append(
            (
                [(t.key, t.config, t.steps, t.elapsed_us) for t in result.trials],
                json.dumps(result.surrogate.to_document(), sort_keys=True),
            )
        )
    assert dumps[0] == dumps[1], "surrogate runs differ between repeats"

    return [
        "determinism: 2 repeat runs bit-identical (trials + model dump), "
        f"{len(dumps[0][0])} trials",
    ]


def run_quick() -> list[str]:
    return run_trials_to_best(quick=True) + run_determinism(quick=True)


def run_full() -> list[str]:
    return run_trials_to_best(quick=False) + run_determinism(quick=False)


def test_ext_surrogate(benchmark):
    from _harness import emit, once

    lines: list[str] = []

    def run_all():
        lines.extend(run_full())

    once(benchmark, run_all)
    emit(
        "ext_surrogate",
        "Extension: surrogate-guided autotune (learned performance model)",
        lines,
    )


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--quick",
        action="store_true",
        help="smoke run for CI (short detection window, small population)",
    )
    args = parser.parse_args(argv)
    title = "Extension: surrogate-guided autotune (learned performance model)"
    if args.quick:
        lines = run_quick()
        print("\n".join([f"== {title} (quick) =="] + lines))
    else:
        from _harness import emit

        lines = run_full()
        emit("ext_surrogate", title, lines)
    return 0


if __name__ == "__main__":
    sys.exit(main())
