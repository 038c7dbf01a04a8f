"""Tune a badly written input pipeline, online and offline.

Part 1 reproduces the Section VII study: a "naive" implementation
(single-threaded decode, no prefetching, one storage stream) leaves the
TPU mostly idle; TPUPoint-Optimizer detects the performance-critical
phase online, hill-climbs the adjustable parameters on the run's own
steps while checking output quality, and finishes the run with the
improved configuration. The tuning log lists every trial.

Part 2 runs the offline autotune engine (the `tpupoint tune` entry
point) twice against a knowledge base: the first search runs cold and
records its best configuration keyed by the workload's phase signature;
the second warm-starts from that entry and measures the known-best
configuration on its very first trial. See docs/tuning.md.

Run:
    python examples/optimize_pipeline.py [workload] [generation]
Defaults: naive-dcgan-mnist on TPUv2.
"""

import dataclasses
import sys
import tempfile

from repro import TPUPoint, WorkloadSpec, build_estimator, run_workload
from repro import units
from repro.core.optimizer import AutotuneOptions, TuningKnowledgeBase, autotune
from repro.host.pipeline import PipelineConfig


def online_optimize(spec: WorkloadSpec) -> None:
    """Section VII: one live run, tuned mid-flight."""
    baseline = run_workload(spec)
    print(f"=== baseline: {spec.display_name} ===")
    print(f"wall time : {units.format_duration(baseline.summary.wall_us)}")
    print(f"TPU idle  : {baseline.idle_fraction:.1%}")
    print(f"MXU util  : {baseline.mxu_utilization:.1%}")

    # The optimizer owns the training loop: detection -> tuning -> remainder.
    estimator = build_estimator(spec)
    result = TPUPoint(estimator).optimize()
    speedup = baseline.summary.wall_us / result.summary.wall_us

    print("\n=== optimized run (online) ===")
    print(f"wall time : {units.format_duration(result.summary.wall_us)}")
    print(f"TPU idle  : {result.summary.tpu_idle_fraction:.1%}")
    print(f"MXU util  : {result.summary.mxu_utilization:.1%}")
    print(f"speedup   : {speedup:.3f}x")
    print(f"critical phase detected at step: {result.detector_triggered_at_step}")

    tuning = result.tuning
    if tuning is not None:
        # Each trial's knobs that differ from the starting configuration;
        # BEST marks the trial that first measured the winner.
        print(f"\n=== tuning log ({tuning.steps_consumed} steps consumed) ===")
        for index, trial in enumerate(tuning.trials, start=1):
            changed = ", ".join(
                f"{field.name}={getattr(trial.config, field.name)}"
                for field in dataclasses.fields(trial.config)
                if getattr(trial.config, field.name)
                != getattr(tuning.initial_config, field.name)
            )
            marker = "BEST" if index == tuning.trials_to_best else "    "
            print(
                f"  {marker} {trial.key:8s} {trial.throughput:8.2f} steps/s  "
                f"{changed or '(starting config)'}"
            )
        print(f"\nbest configuration: {tuning.best_config}")
        print(f"measured tuning improvement: {tuning.improvement:.3f}x")


def offline_autotune(spec: WorkloadSpec) -> None:
    """The `tpupoint tune` flow: strategy search + warm-start knowledge."""

    def factory(config: PipelineConfig):
        return build_estimator(dataclasses.replace(spec, pipeline_config=config))

    probe = build_estimator(spec)
    initial = probe.pipeline_config or PipelineConfig()
    options = AutotuneOptions(strategy="racing", workload=spec.key)

    with tempfile.TemporaryDirectory() as knowledge_dir:
        for label in ("cold", "warm"):
            knowledge = TuningKnowledgeBase.open(knowledge_dir)
            result = autotune(factory, initial, options, knowledge=knowledge)
            outcome = result.outcome
            print(f"\n=== offline autotune, {label} run (racing) ===")
            print(f"warm start : {'yes' if result.warm_started else 'no'}")
            print(f"trials     : {len(outcome.trials)} "
                  f"({units.format_duration(result.simulated_us)} simulated)")
            print(f"best       : {outcome.best_throughput:.2f} steps/s "
                  f"({outcome.improvement:.3f}x, "
                  f"found at trial {outcome.trials_to_best})")
            print(f"best config: {outcome.best_config}")


def main() -> None:
    key = sys.argv[1] if len(sys.argv) > 1 else "naive-dcgan-mnist"
    generation = sys.argv[2] if len(sys.argv) > 2 else "v2"
    spec = WorkloadSpec(key, generation=generation)
    online_optimize(spec)
    offline_autotune(spec)


if __name__ == "__main__":
    main()
