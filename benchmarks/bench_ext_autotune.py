"""Extension: offline autotuning — warm starts pay for themselves.

Three claims, each measured and asserted (docs/tuning.md):

1. **Warm starts converge faster.** A cold racing search on the naive
   DCGAN pipeline finds its best configuration after several trials; a
   second search warm-started from the recorded knowledge-base entry
   measures that same configuration on its *first* trial — strictly
   fewer trials-to-best-known, and less end-to-end simulated time to
   reach it.
2. **Reruns replay exactly.** Three annealing runs, and three racing
   runs, at the same seed give the identical trial sequence (keys,
   configs, steps, simulated elapsed time).
3. **The knowledge base round-trips.** The entry recorded by the cold
   search is found again by a fresh ``TuningKnowledgeBase.open`` at
   similarity 1.0.

``--quick`` (the CI smoke guard) runs the same flow on a shorter
detection window and smaller racing population.
"""

import argparse
import dataclasses
import sys
import tempfile

from repro import PipelineConfig, WorkloadSpec, build_estimator
from repro.core.optimizer import AutotuneOptions, TuningKnowledgeBase, autotune

_WORKLOAD = "naive-dcgan-mnist"
_RUNS = 3


def _factory(spec: WorkloadSpec):
    return lambda cfg: build_estimator(dataclasses.replace(spec, pipeline_config=cfg))


def _initial_config(spec: WorkloadSpec) -> PipelineConfig:
    probe = build_estimator(spec)
    return probe.pipeline_config or PipelineConfig()


def _trial_time_us(result, upto_trial: int) -> float:
    """Simulated time spent through trial ``upto_trial`` (1-based)."""
    overhead = 40_000.0
    return sum(
        trial.elapsed_us + overhead for trial in result.trials[:upto_trial]
    )


def run_warm_vs_cold(quick: bool) -> list[str]:
    spec = WorkloadSpec(_WORKLOAD)
    factory = _factory(spec)
    initial = _initial_config(spec)
    strategy_options = (
        {"population": 4, "trial_steps": 3} if quick else {"population": 8, "trial_steps": 4}
    )
    options = AutotuneOptions(
        strategy="racing",
        detection_steps=20 if quick else 40,
        workload=spec.key,
    )

    with tempfile.TemporaryDirectory() as knowledge_dir:
        cold_kb = TuningKnowledgeBase.open(knowledge_dir)
        cold = autotune(
            factory, initial, options, knowledge=cold_kb,
            strategy_options=strategy_options,
        )
        assert not cold.warm_started, "first search must run cold"
        assert cold.knowledge_recorded, "cold search must record its result"
        assert cold.improvement > 1.0, (
            f"racing found no improvement over the naive pipeline "
            f"({cold.improvement:.3f}x)"
        )

        # A fresh open must see the recorded entry (claim 3).
        warm_kb = TuningKnowledgeBase.open(knowledge_dir)
        assert len(warm_kb) == 1, f"knowledge base holds {len(warm_kb)} entries"
        warm = autotune(
            factory, initial, options, knowledge=warm_kb,
            strategy_options=strategy_options,
        )

    assert warm.warm_started and not warm.rolled_back, (
        "second search must warm-start from the recorded entry"
    )
    assert warm.warm_similarity == 1.0, (
        f"same workload, same phase: similarity {warm.warm_similarity}"
    )

    cold_best_at = cold.outcome.trials_to_config(cold.best_config)
    warm_best_at = warm.outcome.trials_to_config(cold.best_config)
    assert warm_best_at is not None, (
        "warm search never measured the cold search's best configuration"
    )
    assert warm_best_at < cold_best_at, (
        f"warm start must reach the cold best in strictly fewer trials "
        f"({warm_best_at} vs {cold_best_at})"
    )
    cold_time = _trial_time_us(cold, cold_best_at)
    warm_time = _trial_time_us(warm, warm_best_at)
    assert warm_time < cold_time, (
        "warm start must reach the cold best in less simulated time"
    )

    return [
        f"workload {spec.key}, racing "
        f"(population {strategy_options['population']}, "
        f"trial_steps {strategy_options['trial_steps']})",
        f"  cold: best {cold.outcome.best_throughput:6.2f} steps/s "
        f"({cold.improvement:.3f}x) found at trial {cold_best_at} "
        f"of {len(cold.trials)}, {cold_time / 1e6:.2f} s simulated to best",
        f"  warm: reaches that config at trial {warm_best_at} "
        f"of {len(warm.trials)}, {warm_time / 1e6:.2f} s simulated to it "
        f"(similarity {warm.warm_similarity:.2f})",
        f"  trials-to-best-known: {cold_best_at} cold -> {warm_best_at} warm; "
        f"simulated time to it: {cold_time / warm_time:.1f}x less",
    ]


def run_determinism(quick: bool) -> list[str]:
    spec = WorkloadSpec(_WORKLOAD)
    factory = _factory(spec)
    initial = _initial_config(spec)
    matrix = {
        "annealing": {"rounds": 2 if quick else 4, "batch": 3, "trial_steps": 3},
        "racing": {"population": 4, "trial_steps": 3},
    }
    lines = ["rerun determinism (trial keys, configs, steps, elapsed)"]
    for strategy, strategy_options in matrix.items():
        options = AutotuneOptions(strategy=strategy, detection_steps=20)
        observed = []
        for _ in range(_RUNS):
            result = autotune(
                factory, initial, options, strategy_options=strategy_options
            )
            observed.append(
                [(t.key, t.config, t.steps, t.elapsed_us) for t in result.trials]
            )
        assert all(run == observed[0] for run in observed), (
            f"{strategy} trials differ between runs at the same seed"
        )
        lines.append(
            f"  {strategy:10s}: {_RUNS} runs at seed {options.seed} -> "
            f"{len(observed[0])} identical trials"
        )
    return lines


def run_quick() -> list[str]:
    return run_warm_vs_cold(quick=True) + run_determinism(quick=True)


def run_full() -> list[str]:
    return run_warm_vs_cold(quick=False) + run_determinism(quick=False)


def test_ext_autotune(benchmark):
    from _harness import emit, once

    lines: list[str] = []

    def run_all():
        lines.extend(run_full())

    once(benchmark, run_all)
    emit(
        "ext_autotune",
        "Extension: offline autotune (warm-started multi-strategy search)",
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
    title = "Extension: offline autotune (warm-started multi-strategy search)"
    if args.quick:
        lines = run_quick()
        print("\n".join([f"== {title} (quick) =="] + lines))
    else:
        from _harness import emit

        lines = run_full()
        emit("ext_autotune", title, lines)
    return 0


if __name__ == "__main__":
    sys.exit(main())
