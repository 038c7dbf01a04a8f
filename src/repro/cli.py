"""Command-line front end.

Subcommands mirror the toolchain:

* ``tpupoint list`` — show the registered workloads (Table I).
* ``tpupoint profile <workload>`` — run a workload under the profiler,
  detect phases with a chosen algorithm, print the summary, and export
  the chrome://tracing JSON + CSVs (optionally persisting raw records
  with ``--save-records`` and stopping early with ``--breakpoint``).
* ``tpupoint analyze <records-dir>`` — offline analysis of records
  previously saved by ``profile --save-records``.
* ``tpupoint report <workload>`` — profile and write a Markdown
  characterization report.
* ``tpupoint optimize <workload>`` — run the workload under
  TPUPoint-Optimizer and report the speedup against an untouched run.
* ``tpupoint tune <workload>`` — offline multi-strategy configuration
  search (``--strategy hill-climb|annealing|racing|surrogate``),
  optionally warm-started from a phase-keyed knowledge base
  (``--knowledge-dir``; a read-only directory degrades to a loud
  no-persist warning). ``--strategy surrogate`` ranks candidates with a
  learned performance model trained from the knowledge base plus
  ``--surrogate-corpus`` and measures only the predicted frontier;
  ``--surrogate-out`` dumps the fitted model JSON.
* ``tpupoint fleet`` — drive N concurrent workloads through the
  multi-tenant live profiling service (:mod:`repro.serve`) and print
  each job's live phases plus the fleet rollup; ``--shards N`` spreads
  tenants over a consistent-hashed :class:`~repro.serve.ShardedFleet`
  with identical results plus goodput accounting and topology.
* ``tpupoint goodput`` — run a fleet on the sharded tier and print the
  per-tenant goodput/badput report (identical at any shard count).
* ``tpupoint health`` — run a fleet under a :class:`HealthMonitor` and
  render the health dashboard: telemetry rings, per-job phase drift,
  SLO burn rates, and the alert timeline (``--faults`` plus the
  ``--checkpoint-*``/``--eval-*`` plan overrides build deterministic
  degradation scenarios; ``--out`` dumps the full health JSON).
* ``tpupoint alerts`` — the same monitored run, reported as the alert
  event log alone (bit-identical at any ``--shards`` count); ``--ack``
  acknowledges a firing rule, ``--out`` writes the alert dump JSON.
* ``tpupoint scrub`` — run the seeded checkered self-test across N
  simulated chips (optionally under a fault plan's ``sdc`` section) and
  name the chips whose step digests, timings, or MXU utilization
  diverge from the golden reference — the confirmation step behind the
  fleet's ``CHIP_SDC_SUSPECT`` quarantine.
* ``tpupoint obs <files>`` — validate and summarize observability dumps
  (toolchain/workload chrome traces, Prometheus or JSON metrics).
* ``tpupoint recover <journal>`` — load a crash-safe record journal
  (written via ``profile --journal``), report what survived, and run
  offline phase analysis on the recovered records.

``profile`` and ``fleet`` accept ``--faults <plan.json>`` to run under a
deterministic fault plan (:mod:`repro.faults`) — see
``docs/robustness.md`` and ``examples/faults/``.

``profile``, ``analyze``, and ``fleet`` accept ``--trace-out`` /
``--metrics-out`` to dump the toolchain's own spans (chrome://tracing
JSON) and metrics snapshot (Prometheus text, or JSON for ``.json``
paths) — see :mod:`repro.obs` and ``docs/observability.md``. Spans are
recorded only for a command given ``--trace-out``.
"""

from __future__ import annotations

import argparse
import sys

from repro import units
from repro.core.analyzer import TPUPointAnalyzer, associate_checkpoints
from repro.core.api import TPUPoint
from repro.models.registry import PAPER_WORKLOADS, workload
from repro.runtime.events import DeviceKind
from repro.workloads.runner import build_estimator, run_workload
from repro.workloads.spec import WorkloadSpec


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tpupoint",
        description="TPUPoint reproduction: profile, analyze, and optimize "
        "simulated Cloud TPU workloads.",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    subparsers.add_parser("list", help="list the registered workloads")

    profile = subparsers.add_parser("profile", help="profile a workload and detect phases")
    profile.add_argument("workload", help="workload key, e.g. bert-mrpc")
    profile.add_argument("--generation", default="v2", choices=["v2", "v3"])
    profile.add_argument(
        "--method", default="ols", choices=["ols", "kmeans", "dbscan"], help="phase detector"
    )
    profile.add_argument(
        "--threshold",
        type=float,
        default=None,
        help="OLS step-similarity threshold in [0, 1] (default 0.70)",
    )
    profile.add_argument("--out", default=None, help="directory for trace/CSV exports")
    profile.add_argument(
        "--save-records", default=None, help="directory to persist raw profile records"
    )
    profile.add_argument(
        "--breakpoint", type=int, default=None, help="stop profiling at this global step"
    )
    profile.add_argument(
        "--faults", default=None, help="JSON fault plan to inject (see docs/robustness.md)"
    )
    profile.add_argument(
        "--journal", default=None, help="crash-safe record journal path"
    )
    _add_obs_flags(profile)

    analyze = subparsers.add_parser(
        "analyze", help="analyze previously saved profile records"
    )
    analyze.add_argument("records", help="directory written by profile --save-records")
    analyze.add_argument(
        "--method", default="ols", choices=["ols", "kmeans", "dbscan"], help="phase detector"
    )
    analyze.add_argument(
        "--threshold",
        type=float,
        default=None,
        help="OLS step-similarity threshold in [0, 1] (default 0.70)",
    )
    analyze.add_argument("--out", default=None, help="directory for trace/CSV exports")
    _add_obs_flags(analyze)

    report = subparsers.add_parser(
        "report", help="profile a workload and write a Markdown report"
    )
    report.add_argument("workload", help="workload key, e.g. bert-mrpc")
    report.add_argument("--generation", default="v2", choices=["v2", "v3"])
    report.add_argument("--out", default="tpupoint_report.md", help="report path")

    optimize = subparsers.add_parser("optimize", help="run a workload under the optimizer")
    optimize.add_argument("workload", help="workload key, e.g. naive-qanet-squad")
    optimize.add_argument("--generation", default="v2", choices=["v2", "v3"])

    tune = subparsers.add_parser(
        "tune",
        help="search pipeline configurations offline (multi-strategy, "
        "warm-started from a knowledge base)",
    )
    tune.add_argument("workload", help="workload key, e.g. naive-dcgan-mnist")
    tune.add_argument("--generation", default="v2", choices=["v2", "v3"])
    tune.add_argument(
        "--strategy",
        default="racing",
        choices=["hill-climb", "annealing", "racing", "surrogate"],
        help="search strategy (default racing); surrogate ranks candidates "
        "with a learned performance model and measures only the predicted "
        "frontier (see docs/surrogate.md)",
    )
    tune.add_argument(
        "--knowledge-dir",
        default=None,
        help="tuning knowledge base directory; hits warm-start the search "
        "and finished searches are recorded back. A read-only or "
        "uncreatable directory never fails the run: the search still "
        "executes and a no-persist warning is printed instead",
    )
    tune.add_argument(
        "--surrogate-corpus",
        default=None,
        help="JSON corpus of (signature, config) -> throughput training "
        "pairs merged into the surrogate's training set (the committed "
        "instance is benchmarks/corpus/surrogate_corpus.json)",
    )
    tune.add_argument(
        "--surrogate-kind",
        default="ridge",
        choices=["ridge", "stumps"],
        help="surrogate regressor: closed-form ridge (default) or "
        "gradient-boosted stumps",
    )
    tune.add_argument(
        "--surrogate-out",
        default=None,
        help="write the fitted surrogate model (weights, training digest, "
        "accuracy counters) as JSON after the search",
    )
    tune.add_argument(
        "--trial-steps", type=int, default=None,
        help="train steps measured per candidate (default: strategy-specific)",
    )
    tune.add_argument(
        "--seed", type=int, default=None,
        help="root seed for trial and strategy RNG substreams",
    )
    _add_obs_flags(tune)

    fleet = subparsers.add_parser(
        "fleet",
        help="run N concurrent workloads through the live fleet profiling service",
    )
    _add_fleet_flags(
        fleet,
        shards=None,
        shards_help="spread tenants over this many fleet shards (consistent hashing)",
    )
    fleet.add_argument(
        "--heartbeat-deadline",
        type=int,
        default=None,
        help="stall ACTIVE jobs silent for this many pump rounds",
    )
    _add_obs_flags(fleet)

    goodput = subparsers.add_parser(
        "goodput",
        help="run a fleet and report per-tenant goodput/badput accounting",
    )
    _add_fleet_flags(
        goodput,
        shards=2,
        shards_help="fleet shards to run on (the report is identical at any count)",
    )
    _add_obs_flags(goodput)

    health = subparsers.add_parser(
        "health",
        help="run a monitored fleet and render the health dashboard "
        "(rings, drift, SLO burn rates, alerts)",
    )
    _add_monitored_fleet_flags(health)
    health.add_argument(
        "--every",
        type=int,
        default=0,
        help="also print the dashboard every N scheduling rounds (0 = final only)",
    )
    health.add_argument(
        "--out", default=None, help="write the full health dump as JSON"
    )

    alerts = subparsers.add_parser(
        "alerts",
        help="run a monitored fleet and print the alert timeline "
        "(identical at any shard count)",
    )
    _add_monitored_fleet_flags(alerts)
    alerts.add_argument(
        "--ack",
        default=None,
        metavar="RULE",
        help="acknowledge still-firing alerts of this rule before reporting",
    )
    alerts.add_argument(
        "--out", default=None, help="write the alert dump (rules, events, active) as JSON"
    )

    scrub = subparsers.add_parser(
        "scrub",
        help="run the seeded checkered self-test across simulated chips "
        "and name the SDC suspects",
    )
    scrub.add_argument(
        "--chips",
        type=int,
        default=4,
        help="how many chips to scan (chip-0..chip-N-1, default 4)",
    )
    scrub.add_argument(
        "--generation", default="v2", choices=["v2", "v3"], help="TPU generation"
    )
    scrub.add_argument(
        "--faults",
        default=None,
        metavar="PLAN",
        help="fault plan JSON; its 'sdc' section is injected during the scan "
        "(omit for a clean reference scan)",
    )
    scrub.add_argument(
        "--seed", type=int, default=None, help="scrub schedule seed (default: plan seed)"
    )
    scrub.add_argument(
        "--steps",
        type=int,
        default=None,
        help="self-test steps per chip (default 96)",
    )
    scrub.add_argument("--out", default=None, help="write the scrub report as JSON")

    recover = subparsers.add_parser(
        "recover", help="recover records from a crash-safe journal and analyze them"
    )
    recover.add_argument("journal", help="journal written by profile --journal")
    recover.add_argument(
        "--method", default="ols", choices=["ols", "kmeans", "dbscan"], help="phase detector"
    )
    recover.add_argument(
        "--threshold",
        type=float,
        default=None,
        help="OLS step-similarity threshold in [0, 1] (default 0.70)",
    )
    recover.add_argument("--out", default=None, help="directory for trace/CSV exports")
    recover.add_argument(
        "--strict",
        action="store_true",
        help="fail on mid-journal corruption instead of skipping it",
    )

    obs_cmd = subparsers.add_parser(
        "obs",
        help="validate and summarize observability dumps (traces, metrics)",
    )
    obs_cmd.add_argument(
        "files",
        nargs="+",
        help="files written by --trace-out / --metrics-out (or analyzer exports)",
    )

    compare = subparsers.add_parser(
        "compare", help="profile a workload on both generations and diff the runs"
    )
    compare.add_argument("workload", help="workload key, e.g. bert-squad")

    evaluate = subparsers.add_parser(
        "evaluate", help="reproduce the paper's evaluation in one run"
    )
    evaluate.add_argument("--out", default="evaluation", help="output directory")
    evaluate.add_argument(
        "--workloads", nargs="*", default=None, help="restrict the workload set"
    )
    evaluate.add_argument(
        "--no-optimizer", action="store_true", help="skip the Figure 14 experiments"
    )
    evaluate.add_argument(
        "--no-figures", action="store_true", help="skip SVG figure generation"
    )

    figures = subparsers.add_parser(
        "figures", help="regenerate the paper's figures as SVG images"
    )
    figures.add_argument("--out", default="figures", help="output directory")
    figures.add_argument(
        "--workloads",
        nargs="*",
        default=None,
        help="restrict to these workload keys (default: all nine)",
    )
    figures.add_argument(
        "--only", nargs="*", default=None, help="figure names, e.g. fig10 fig11"
    )

    return parser


def _add_fleet_flags(
    parser: argparse.ArgumentParser, shards: int | None, shards_help: str
) -> None:
    """Fleet-run flags shared by ``fleet``, ``goodput``, ``health`` and ``alerts``.

    Each command picks its own ``--shards`` default and help text.
    """
    parser.add_argument("--jobs", type=int, default=4, help="number of concurrent jobs")
    parser.add_argument(
        "--workloads",
        nargs="*",
        default=None,
        help="workload keys to cycle over (default: a fast Table I mix)",
    )
    parser.add_argument("--generation", default="v2", choices=["v2", "v3"])
    parser.add_argument(
        "--chunk", type=int, default=16, help="train steps per scheduling quantum"
    )
    parser.add_argument(
        "--queue-capacity", type=int, default=64, help="per-job ingest queue bound"
    )
    parser.add_argument(
        "--threshold", type=float, default=0.70, help="live OLS similarity threshold"
    )
    parser.add_argument(
        "--faults", default=None, help="JSON fault plan to inject (see docs/robustness.md)"
    )
    parser.add_argument("--shards", type=int, default=shards, help=shards_help)


def _add_monitored_fleet_flags(parser: argparse.ArgumentParser) -> None:
    """Fleet + monitoring flags shared by ``health`` and ``alerts``."""
    _add_fleet_flags(
        parser,
        shards=2,
        shards_help="fleet shards (alert sequences are identical at any count)",
    )
    parser.add_argument(
        "--request-interval",
        type=float,
        default=250.0,
        help="simulated ms between profile requests (denser than the "
        "profiler default so live telemetry tracks mid-run recovery)",
    )
    parser.add_argument(
        "--sample-every",
        type=int,
        default=1,
        help="health sampling cadence in scheduling rounds",
    )
    parser.add_argument(
        "--checkpoint-every",
        type=int,
        default=None,
        help="session-plan override: checkpoint every N steps (induces a "
        "deterministic phase excursion the drift detector must catch)",
    )
    parser.add_argument(
        "--checkpoint-bytes",
        type=float,
        default=None,
        help="session-plan override: checkpoint size in bytes",
    )
    parser.add_argument(
        "--eval-every",
        type=int,
        default=None,
        help="session-plan override: run evaluation every N steps",
    )
    parser.add_argument(
        "--eval-steps",
        type=int,
        default=None,
        help="session-plan override: evaluation steps per round",
    )
    _add_obs_flags(parser)


def _add_obs_flags(parser: argparse.ArgumentParser) -> None:
    """Self-observability dump flags shared by profile/analyze/fleet."""
    parser.add_argument(
        "--trace-out",
        default=None,
        help="write the toolchain's own spans as chrome://tracing JSON",
    )
    parser.add_argument(
        "--metrics-out",
        default=None,
        help="write the toolchain metrics snapshot (.prom/.txt text, .json JSON)",
    )


def _dump_obs(args: argparse.Namespace, extra_registries=()) -> None:
    """Write the --trace-out / --metrics-out files, if requested."""
    from repro import obs

    if getattr(args, "trace_out", None):
        path = obs.write_trace(args.trace_out)
        print(f"wrote toolchain trace: {path}")
    if getattr(args, "metrics_out", None):
        obs.ensure_core_metrics()
        registries = [obs.default_registry(), *extra_registries]
        path = obs.write_metrics(args.metrics_out, registries)
        print(f"wrote toolchain metrics: {path}")


def _load_fault_plan(path: str | None):
    """The ``--faults`` plan, or None when the flag is absent."""
    if not path:
        return None
    from repro.faults import load_plan

    return load_plan(path)


def _detector_params(args: argparse.Namespace) -> dict:
    """Per-method keyword arguments from the CLI flags."""
    from repro.errors import ConfigurationError

    if args.threshold is None:
        return {}
    if args.method != "ols":
        raise ConfigurationError("--threshold applies only to --method ols")
    if not 0.0 <= args.threshold <= 1.0:
        raise ConfigurationError("--threshold must be in [0, 1]")
    return {"threshold": args.threshold}


def _cmd_list() -> int:
    print(f"{'key':22s} {'model':12s} {'dataset':10s} {'type':22s} {'size':>12s}")
    for key in PAPER_WORKLOADS:
        entry = workload(key)
        print(
            f"{key:22s} {entry.model.name:12s} {entry.dataset.name:10s} "
            f"{entry.model.workload_type:22s} {units.format_bytes(entry.dataset.total_bytes):>12s}"
        )
    print("\nPrefix any key with 'naive-' for the untuned-pipeline variant;")
    print("suffix the dataset with '-half' for the reduced-dataset variant.")
    return 0


def _cmd_profile(args: argparse.Namespace) -> int:
    from repro.core.profiler import ProfilerOptions

    detector_params = _detector_params(args)  # flag conflicts fail before the run
    fault_plan = _load_fault_plan(args.faults)
    spec = WorkloadSpec(args.workload, generation=args.generation)
    estimator = build_estimator(spec)
    options = ProfilerOptions(
        breakpoint_step=args.breakpoint,
        fault_plan=fault_plan,
        journal_path=args.journal,
    )
    tpupoint = TPUPoint(estimator, profiler_options=options)
    tpupoint.Start(analyzer=True)
    summary = estimator.train()
    tpupoint.Stop()
    if fault_plan is not None:
        report = tpupoint.fault_report()
        profile_faults = ", ".join(
            f"{kind}={count}" for kind, count in sorted(report.get("profile", {}).items())
        )
        client = report.get("client", {})
        print(f"fault plan          : {args.faults} (seed {fault_plan.seed})")
        print(f"injected faults     : {profile_faults or 'none'}")
        print(f"client resilience   : {client.get('retries', 0)} retries, "
              f"{client.get('circuit_trips', 0)} circuit trips, "
              f"{report.get('windows_skipped', 0)} windows skipped, "
              f"{report.get('windows_abandoned', 0)} abandoned")
        recorder = report.get("recorder")
        if recorder is not None and recorder.get("crashed"):
            print("recorder            : CRASHED mid-run (journal has a torn tail)")
    if args.journal:
        print(f"record journal      : {args.journal} (binary)")
    if args.save_records:
        from repro.core.profiler.serialize import save_records

        directory = save_records(tpupoint.records, args.save_records)
        print(f"saved {len(tpupoint.records)} records to {directory} (binary)")

    print(f"== {spec.display_name} ==")
    print(f"simulated wall time : {units.format_duration(summary.wall_us)}")
    print(f"TPU idle time       : {summary.tpu_idle_fraction:.1%}")
    print(f"MXU utilization     : {summary.mxu_utilization:.1%}")
    print(f"profile records     : {len(tpupoint.records)}")
    from repro.costs import run_cost

    cost = run_cost(summary, args.generation)
    print(f"TPU bill            : ${cost.tpu_dollars:.4f} "
          f"({cost.idle_dollar_fraction:.0%} paid for idle time)")

    analyzer: TPUPointAnalyzer = tpupoint.analyzer()
    result = analyzer.analyze(args.method, **detector_params)
    report = result.coverage()
    print(f"\nphases ({args.method}, params {result.params}): {result.num_phases}")
    print(f"top-3 phase coverage: {report.top(3):.1%}")
    for rank, phase in enumerate(result.phases[:3]):
        tpu_top = ", ".join(s.name for s in phase.top_operators(5, DeviceKind.TPU))
        host_top = ", ".join(s.name for s in phase.top_operators(5, DeviceKind.HOST))
        print(f"  phase #{rank}: {phase.num_steps} steps, "
              f"{units.format_duration(phase.total_duration_us)}")
        print(f"    top TPU ops : {tpu_top}")
        print(f"    top host ops: {host_top}")

    associations = associate_checkpoints(result.phases, estimator.checkpoint_store, analyzer.steps)
    nearest = {pid: assoc.checkpoint.step for pid, assoc in associations.items()}
    print(f"nearest checkpoints : {nearest}")

    if args.out:
        paths = analyzer.export(args.out, result)
        for kind, path in paths.items():
            print(f"wrote {kind}: {path}")
    _dump_obs(args)
    return 0


def _cmd_optimize(args: argparse.Namespace) -> int:
    spec = WorkloadSpec(args.workload, generation=args.generation)
    baseline = run_workload(spec)
    estimator = build_estimator(spec)
    result = TPUPoint(estimator).optimize()

    speedup = baseline.summary.wall_us / result.summary.wall_us
    print(f"== {spec.display_name} under TPUPoint-Optimizer ==")
    print(f"baseline wall  : {units.format_duration(baseline.summary.wall_us)}")
    print(f"optimized wall : {units.format_duration(result.summary.wall_us)}")
    print(f"speedup        : {speedup:.3f}x")
    print(f"idle           : {baseline.idle_fraction:.1%} -> {result.summary.tpu_idle_fraction:.1%}")
    print(f"MXU util       : {baseline.mxu_utilization:.1%} -> {result.summary.mxu_utilization:.1%}")
    if result.tuning is not None:
        print(f"tuning trials  : {len(result.tuning.trials)} "
              f"({result.tuning.steps_consumed} steps)")
        print(f"best config    : {result.tuning.best_config}")
    return 0


def _cmd_tune(args: argparse.Namespace) -> int:
    import dataclasses

    from repro.core.optimizer import AutotuneOptions, TuningKnowledgeBase, autotune
    from repro.host.pipeline import PipelineConfig
    from repro.rng import DEFAULT_SEED

    spec = WorkloadSpec(args.workload, generation=args.generation)
    probe = build_estimator(spec)
    initial = probe.pipeline_config or PipelineConfig()

    def factory(config: PipelineConfig):
        return build_estimator(dataclasses.replace(spec, pipeline_config=config))

    knowledge = None
    prior_entries = 0
    if args.knowledge_dir:
        knowledge = TuningKnowledgeBase.open(args.knowledge_dir)
        prior_entries = len(knowledge)
        if knowledge.persist_error is not None or not knowledge.writable():
            reason = knowledge.persist_error or "directory is not writable"
            print(
                f"warning: knowledge dir {args.knowledge_dir} is read-only; "
                f"tuning will run but nothing will be persisted ({reason})",
                file=sys.stderr,
            )
    options = AutotuneOptions(
        strategy=args.strategy,
        seed=args.seed if args.seed is not None else DEFAULT_SEED,
        workload=spec.key,
        surrogate_kind=args.surrogate_kind,
        surrogate_corpus=args.surrogate_corpus,
    )
    strategy_options = {}
    if args.trial_steps is not None:
        strategy_options["trial_steps"] = args.trial_steps
    result = autotune(
        factory,
        initial,
        options,
        knowledge=knowledge,
        strategy_options=strategy_options or None,
    )

    outcome = result.outcome
    print(f"== {spec.display_name}: offline autotune ({args.strategy}) ==")
    print(f"phase signature : {', '.join(sorted(result.signature))}")
    if knowledge is not None:
        state = (
            f"hit, similarity {result.warm_similarity:.2f}"
            if result.warm_similarity is not None
            else "miss"
        )
        print(f"knowledge base  : {prior_entries} entries in "
              f"{args.knowledge_dir} ({state})")
    warm = "yes" if result.warm_started else "no"
    if result.rolled_back:
        warm += " (rolled back)"
    print(f"warm start      : {warm}")
    print(f"trials          : {len(outcome.trials)} ({outcome.steps_consumed} steps, "
          f"{units.format_duration(result.simulated_us)} simulated)")
    print(f"baseline        : {outcome.baseline_throughput:.2f} steps/s")
    print(f"best            : {outcome.best_throughput:.2f} steps/s "
          f"({outcome.improvement:.3f}x, found at trial {outcome.trials_to_best})")
    print(f"best config     : {outcome.best_config}")
    if result.surrogate is not None:
        model = result.surrogate
        state = "fitted" if model.ready else "cold (too few training pairs)"
        print(f"surrogate       : {model.kind}, {len(model.pairs)} training "
              f"pairs, {state}")
    if result.knowledge_recorded:
        print("recorded        : best config stored for future warm starts")
    if result.knowledge_persist_error is not None:
        print(
            f"warning: knowledge base not persisted (is {args.knowledge_dir} "
            f"read-only?): {result.knowledge_persist_error}",
            file=sys.stderr,
        )
    if args.surrogate_out:
        import json as _json
        from pathlib import Path as _Path

        model = result.surrogate
        if model is None:
            from repro.core.optimizer import build_surrogate

            model = build_surrogate(
                knowledge=knowledge, corpus=args.surrogate_corpus,
                kind=args.surrogate_kind,
            )
        _Path(args.surrogate_out).write_text(
            _json.dumps(model.to_document(), indent=2, sort_keys=True) + "\n",
            encoding="utf-8",
        )
        print(f"surrogate dump  : {args.surrogate_out}")
    _dump_obs(args)
    return 0


def _run_fleet_from_flags(args: argparse.Namespace, service_options=None, **run_options):
    """Run the fleet the shared fleet flags describe.

    Checks ``--jobs``, loads the ``--faults`` plan and cycles the
    ``--workloads`` keys over the jobs. ``service_options`` adds
    :class:`FleetServiceOptions` fields beyond the queue capacity and
    threshold; ``run_options`` go to :func:`run_fleet`. Returns the
    :class:`FleetRunResult` and the fault plan (None without one).
    """
    from repro.errors import ConfigurationError
    from repro.serve import DEFAULT_FLEET_WORKLOADS, FleetServiceOptions, run_fleet

    if args.jobs <= 0:
        raise ConfigurationError("--jobs must be positive")
    fault_plan = _load_fault_plan(args.faults)
    keys = tuple(args.workloads) if args.workloads else DEFAULT_FLEET_WORKLOADS
    result = run_fleet(
        [keys[i % len(keys)] for i in range(args.jobs)],
        generation=args.generation,
        chunk_steps=args.chunk,
        service_options=FleetServiceOptions(
            queue_capacity=args.queue_capacity,
            threshold=args.threshold,
            **(service_options or {}),
        ),
        fault_plan=fault_plan,
        shards=args.shards,
        **run_options,
    )
    return result, fault_plan


def _cmd_fleet(args: argparse.Namespace) -> int:
    result, fault_plan = _run_fleet_from_flags(
        args,
        service_options={"heartbeat_deadline": args.heartbeat_deadline},
    )
    if fault_plan is not None:
        quarantined = result.service.quarantined()
        print(f"fault plan : {args.faults} (seed {fault_plan.seed}); "
              f"{result.service.metrics.records_quarantined} records quarantined")
        for entry in quarantined[:5]:
            print(f"  quarantined {entry.job_id} record "
                  f"#{entry.record.index}: {entry.reason}")

    # Section order matters to CI: everything above the service-metrics
    # marker is bit-identical at any shard count, so the shard smoke job
    # diffs the sharded and unsharded runs up to that line.
    print(f"== fleet of {args.jobs} jobs on TPU{args.generation} "
          f"({result.rounds} scheduling rounds) ==")
    for job in result.jobs:
        for line in job.snapshot.format():
            print(line)
    print("\n-- streaming phase analyses --")
    for job in result.jobs:
        analysis = result.service.phase_analysis(job.job_id)
        boundaries = ", ".join(
            f"[{start}..{end}]#{phase}" for start, end, phase in analysis.label_runs()
        )
        print(f"{job.job_id}: {analysis.num_phases} phases over "
              f"{len(analysis.labels)} steps ({analysis.method}, "
              f"k={analysis.params.get('k')}) {boundaries}")
    print("\n-- fleet rollup --")
    for line in result.rollup.format():
        print(line)
    if result.goodput is not None:
        print("\n-- goodput --")
        for line in result.goodput.format():
            print(line)
    print("\n-- service metrics --")
    for line in result.service.metrics.format():
        print(line)
    if args.shards is not None:
        print("\n-- shard topology --")
        for shard, tenants in enumerate(result.service.shard_tenants()):
            print(f"shard {shard}: {', '.join(tenants) or '-'}")
    registries = getattr(result.service, "registries", None)
    if registries is None:
        registries = [result.service.metrics.registry]
    _dump_obs(args, extra_registries=registries)
    return 0


def _cmd_goodput(args: argparse.Namespace) -> int:
    """Run a fleet on the sharded tier and print the goodput report.

    The report depends only on the tenants' simulated timelines, so the
    output is identical at any shard count — which is exactly what the
    CI smoke job pins by diffing ``--shards 1`` against ``--shards 2``.
    """
    result, _ = _run_fleet_from_flags(args)
    print(f"== goodput report: {args.jobs} jobs on TPU{args.generation} ==")
    for line in result.goodput.format():
        print(line)
    _dump_obs(args, extra_registries=result.service.registries)
    return 0


def _monitor_from_flags(args: argparse.Namespace):
    """A fresh :class:`HealthMonitor` configured from the shared flags."""
    from repro.obs import HealthMonitor, HealthOptions

    return HealthMonitor(HealthOptions(sample_every=args.sample_every))


def _run_monitored_fleet(args: argparse.Namespace, health, on_round=None):
    """Drive one fleet run under ``health`` (a :class:`HealthMonitor`).

    Returns the finished :class:`FleetRunResult`; the monitor's residual
    alerts are resolved. Shared by ``tpupoint health`` and ``tpupoint
    alerts`` so both commands observe the exact same deterministic
    scenario for a given flag set.
    """
    from repro.core.profiler import ProfilerOptions

    overrides = {
        name: value
        for name, value in (
            ("checkpoint_every", args.checkpoint_every),
            ("checkpoint_bytes", args.checkpoint_bytes),
            ("eval_every", args.eval_every),
            ("eval_steps", args.eval_steps),
        )
        if value is not None
    }
    result, _ = _run_fleet_from_flags(
        args,
        profiler_options=ProfilerOptions(request_interval_ms=args.request_interval),
        health=health,
        plan_overrides=overrides or None,
        on_round=on_round,
    )
    return result


def _write_json(path: str, payload: dict) -> str:
    import json

    with open(path, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
        handle.write("\n")
    return path


def _cmd_health(args: argparse.Namespace) -> int:
    monitor = _monitor_from_flags(args)

    def on_round(service, rounds):
        del service
        if rounds % args.every == 0:
            for line in monitor.dashboard():
                print(line)
            print()

    _run_monitored_fleet(args, monitor, on_round=on_round if args.every > 0 else None)
    for line in monitor.dashboard():
        print(line)
    if monitor.engine.events:
        print("\n-- alert timeline --")
        for event in monitor.engine.events:
            print(event.format())
    if args.out:
        print(f"\nwrote health dump: {_write_json(args.out, monitor.to_dict())}")
    _dump_obs(args)
    return 0


def _cmd_alerts(args: argparse.Namespace) -> int:
    monitor = _monitor_from_flags(args)
    result = _run_monitored_fleet(args, monitor)
    if args.ack:
        acked = monitor.engine.ack(args.ack)
        print(f"acked {acked} firing alert(s) of rule {args.ack}")
    print(f"== alert timeline ({len(monitor.engine.events)} transitions, "
          f"{result.rounds} rounds) ==")
    for event in monitor.engine.events:
        print(event.format())
    active = monitor.engine.active()
    print(f"\n-- still firing ({len(active)}) --")
    for alert in active:
        marker = " [acked]" if alert.acked else ""
        print(f"{alert.rule.severity.value.upper():8} {alert.rule.name} "
              f"({alert.scope}) since tick {alert.since_tick}{marker}")
    if args.out:
        print(f"\nwrote alert dump: {_write_json(args.out, monitor.alerts_dict())}")
    _dump_obs(args)
    return 0


def _cmd_scrub(args: argparse.Namespace) -> int:
    from repro.errors import ConfigurationError
    from repro.tpu.sdc import DEFAULT_SCRUB_STEPS, run_scrub

    if args.chips <= 0:
        raise ConfigurationError("--chips must be positive")
    plan = _load_fault_plan(args.faults)
    kwargs = {}
    if args.seed is not None:
        kwargs["seed"] = args.seed
    report = run_scrub(
        args.chips,
        generation=args.generation,
        plan=plan,
        steps=args.steps if args.steps is not None else DEFAULT_SCRUB_STEPS,
        **kwargs,
    )
    for line in report.format():
        print(line)
    if args.out:
        print(f"\nwrote scrub report: {_write_json(args.out, report.to_dict())}")
    return 0


def _cmd_analyze(args: argparse.Namespace) -> int:
    from repro.core.profiler.serialize import load_records

    records = load_records(args.records)
    analyzer = TPUPointAnalyzer(records)
    result = analyzer.analyze(args.method, **_detector_params(args))
    print(f"records  : {len(records)} ({len(analyzer.steps)} steps)")
    _print_phase_table(args, analyzer, result)
    _dump_obs(args)
    return 0


def _print_phase_table(args: argparse.Namespace, analyzer, result) -> None:
    """The phase table ``analyze`` and ``recover`` print, then ``--out`` exports."""
    print(f"phases ({args.method}, params {result.params}): {result.num_phases}")
    print(f"top-3 phase coverage: {result.coverage().top(3):.1%}")
    for rank, phase in enumerate(result.phases[:5]):
        tpu_top = ", ".join(s.name for s in phase.top_operators(5, DeviceKind.TPU))
        print(f"  phase #{rank}: {phase.num_steps} steps, "
              f"{units.format_duration(phase.total_duration_us)}  [{tpu_top}]")
    if args.out:
        for kind, path in analyzer.export(args.out, result).items():
            print(f"wrote {kind}: {path}")


def _cmd_recover(args: argparse.Namespace) -> int:
    import time

    from repro.core.profiler.journal import recover_journal

    started = time.perf_counter()
    recovery = recover_journal(args.journal, strict=args.strict)
    elapsed = time.perf_counter() - started
    print(f"== recovery of {args.journal} ==")
    for line in recovery.format():
        print(line)
    mb_per_s = recovery.bytes_total / max(elapsed, 1e-9) / 1e6
    print(f"throughput      : {recovery.bytes_total} bytes in "
          f"{elapsed * 1e3:.1f} ms ({mb_per_s:.1f} MB/s)")
    if not recovery.records:
        print("no intact records survived; nothing to analyze")
        return 0
    analyzer = TPUPointAnalyzer(list(recovery.records))
    result = analyzer.analyze(args.method, **_detector_params(args))
    _print_phase_table(args, analyzer, result)
    return 0


def _cmd_obs(args: argparse.Namespace) -> int:
    from repro import obs

    for path in args.files:
        for line in obs.summarize(path):
            print(line)
    return 0


def _cmd_report(args: argparse.Namespace) -> int:
    from repro.report import build_report, write_report

    spec = WorkloadSpec(args.workload, generation=args.generation)
    estimator = build_estimator(spec)
    tpupoint = TPUPoint(estimator)
    tpupoint.Start(analyzer=True)
    summary = estimator.train()
    tpupoint.Stop()
    report = build_report(
        spec.display_name,
        summary,
        tpupoint.analyzer(),
        methods=("ols", "kmeans"),
        checkpoint_store=estimator.checkpoint_store,
        generation=args.generation,
    )
    path = write_report(args.out, report)
    print(f"wrote report: {path}")
    return 0


def _cmd_compare(args: argparse.Namespace) -> int:
    from repro.compare import compare_runs
    from repro.costs import run_cost

    summaries = {}
    records = {}
    for generation in ("v2", "v3"):
        spec = WorkloadSpec(args.workload, generation=generation)
        estimator = build_estimator(spec)
        tpupoint = TPUPoint(estimator)
        tpupoint.Start(analyzer=True)
        summaries[generation] = estimator.train()
        tpupoint.Stop()
        records[generation] = tpupoint.records
    comparison = compare_runs(
        f"{args.workload} on TPUv2", summaries["v2"], records["v2"],
        f"{args.workload} on TPUv3", summaries["v3"], records["v3"],
    )
    print(comparison.format())
    for generation in ("v2", "v3"):
        cost = run_cost(summaries[generation], generation)
        print(f"TPU{generation} bill: ${cost.tpu_dollars:.4f} "
              f"({cost.idle_dollar_fraction:.0%} paid for idle time)")
    return 0


def _cmd_evaluate(args: argparse.Namespace) -> int:
    from repro.evaluate import evaluate
    from repro.viz.figures import DEFAULT_WORKLOADS

    workloads = tuple(args.workloads) if args.workloads else DEFAULT_WORKLOADS
    result = evaluate(
        args.out,
        workloads=workloads,
        run_optimizer=not args.no_optimizer,
        figures=not args.no_figures,
    )
    print(f"mean idle      : v2 {result.mean_idle('v2'):.1%}, "
          f"v3 {result.mean_idle('v3'):.1%} (paper 38.9% / 43.5%)")
    print(f"mean MXU util  : v2 {result.mean_mxu('v2'):.1%}, "
          f"v3 {result.mean_mxu('v3'):.1%} (paper 22.7% / 11.3%)")
    if result.speedups:
        for key, speedup in result.speedups.items():
            print(f"optimizer      : {key} {speedup:.3f}x")
    print(f"wrote {result.out_dir}/SUMMARY.md, metrics.csv"
          + (f", {len(result.figures)} figures" if result.figures else ""))
    return 0


def _cmd_figures(args: argparse.Namespace) -> int:
    from repro.viz.figures import DEFAULT_WORKLOADS, generate_figures

    workloads = tuple(args.workloads) if args.workloads else DEFAULT_WORKLOADS
    names = tuple(args.only) if args.only else None
    written = generate_figures(args.out, workloads=workloads, names=names)
    for name, path in sorted(written.items()):
        print(f"wrote {name}: {path}")
    return 0


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns a process exit code.

    Library errors (unknown workload, unreadable records, ...) print a
    one-line message and exit 1 instead of dumping a traceback.
    """
    from repro import obs
    from repro.errors import ReproError

    args = _build_parser().parse_args(argv)
    # --trace-out records spans for this command only, then puts the
    # process-wide switch back as it found it.
    tracing = obs.set_tracing_enabled(True) if getattr(args, "trace_out", None) else None
    dispatch = {
        "list": lambda: _cmd_list(),
        "profile": lambda: _cmd_profile(args),
        "analyze": lambda: _cmd_analyze(args),
        "report": lambda: _cmd_report(args),
        "optimize": lambda: _cmd_optimize(args),
        "tune": lambda: _cmd_tune(args),
        "fleet": lambda: _cmd_fleet(args),
        "goodput": lambda: _cmd_goodput(args),
        "health": lambda: _cmd_health(args),
        "alerts": lambda: _cmd_alerts(args),
        "scrub": lambda: _cmd_scrub(args),
        "obs": lambda: _cmd_obs(args),
        "recover": lambda: _cmd_recover(args),
        "compare": lambda: _cmd_compare(args),
        "evaluate": lambda: _cmd_evaluate(args),
        "figures": lambda: _cmd_figures(args),
    }
    try:
        return dispatch[args.command]()
    except ReproError as error:
        print(f"error: {error}", file=sys.stderr)
        return 1
    finally:
        if tracing is not None:
            obs.set_tracing_enabled(tracing)


if __name__ == "__main__":
    sys.exit(main())
