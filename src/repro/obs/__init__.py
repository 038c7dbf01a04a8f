"""repro.obs — self-observability for the TPUPoint toolchain.

TPUPoint characterizes opaque accelerator workloads; this package turns
the same lens on the toolchain itself, in the spirit of the paper's
Section V overhead accounting: every hot path (profiler poll/record
cycles, analyzer sweeps, optimizer trials, the fleet service) records
spans into a process-wide :class:`Tracer` and counts into a
:class:`MetricsRegistry`, so "where did the analyzer spend its time?"
and "how much overhead does the profiler add?" are answerable from a
chrome://tracing file and a Prometheus snapshot rather than guesswork.

Surface area:

* ``trace("analyzer.kmeans_sweep", ...)`` — nested, thread-safe spans,
  recorded once :func:`set_tracing_enabled` (or ``--trace-out``) turns
  the default tracer on; :func:`write_trace` exports chrome://tracing
  JSON (same viewer as the workload traces the analyzer emits).
* :func:`counter` / :func:`gauge` / :func:`histogram` — named families
  on the default registry; :func:`write_metrics` exports Prometheus
  text or JSON.
* ``tpupoint profile/analyze/fleet --trace-out/--metrics-out`` and
  ``tpupoint obs`` on the CLI.

Naming convention: ``repro_<subsystem>_<name>_<unit>`` (see
``docs/observability.md``).
"""

# metrics/tracing bind first: instrumented modules outside this package
# (profiler, analyzer, optimizer) re-enter `repro.obs` and read
# `obs.counter`/`obs.trace` at import time, so anything imported below
# them must never pull those modules in before these names exist.
from repro.obs.metrics import (
    DEFAULT_BUCKETS,
    MetricFamily,
    MetricsRegistry,
    counter,
    default_registry,
    gauge,
    histogram,
    render_prometheus,
    write_metrics,
)
from repro.obs.tracing import (
    DEFAULT_MAX_SPANS,
    NULL_SPAN,
    Span,
    Tracer,
    default_tracer,
    set_tracing_enabled,
    trace,
    write_trace,
)
from repro.obs.alerts import (
    Alert,
    AlertEngine,
    AlertEvent,
    AlertRule,
    AlertSeverity,
    AlertState,
    builtin_rules,
)
from repro.obs.drift import (
    DEFAULT_SDC_DROP,
    DriftBand,
    PhaseDriftDetector,
    UtilizationAnomalyDetector,
    mix_distance,
    phase_fingerprint,
    window_fingerprint,
)
from repro.obs.health import HealthMonitor, HealthOptions
from repro.obs.inspect import (
    load_alerts,
    load_health,
    load_metrics,
    load_trace,
    parse_prometheus,
    summarize,
    summarize_alerts,
    summarize_health,
    summarize_metrics,
    summarize_trace,
)
from repro.obs.slo import DEFAULT_SLOS, SLOEngine, SLOSpec
from repro.obs.timeseries import (
    DEFAULT_RING_CAPACITY,
    RegistrySampler,
    RingBuffer,
    RingStore,
    histogram_quantile,
    merge_stores,
    sparkline,
)

#: Seconds-scale buckets for per-algorithm analyzer durations.
ALGORITHM_BUCKETS = (0.001, 0.01, 0.05, 0.1, 0.5, 1.0, 5.0, 30.0, 120.0)


def ensure_core_metrics() -> None:
    """Register the toolchain's headline families on the default registry.

    Exposition should always include the metrics dashboards key on —
    profiler overhead, per-algorithm durations — even in a process where
    that subsystem never ran (e.g. ``tpupoint analyze`` never starts a
    profiler), so the families are declared here with the same names the
    instrumented modules use and render as zero-valued until touched.
    """
    gauge(
        "repro_profiler_overhead_fraction",
        "Real wall time spent inside profiler code over the whole run.",
    )
    histogram(
        "repro_analyzer_duration_seconds",
        "Wall time of one phase-detection run, by algorithm.",
        labels=("algorithm",),
        buckets=ALGORITHM_BUCKETS,
    )
    histogram(
        "repro_analyzer_sweep_seconds",
        "Wall time of one parameter sweep, by algorithm.",
        labels=("algorithm",),
        buckets=ALGORITHM_BUCKETS,
    )
    counter(
        "repro_analyzer_distance_passes_total",
        "Full self-pairwise distance passes over a feature matrix.",
    )
    counter(
        "repro_optimizer_strategy_trials_total",
        "Autotune trials measured, by search strategy.",
        labels=("strategy",),
    )
    counter(
        "repro_optimizer_kb_lookups_total",
        "Knowledge-base lookups, by outcome (hit or miss).",
        labels=("outcome",),
    )
    counter(
        "repro_optimizer_warmstart_rollbacks_total",
        "Warm-started searches rolled back by the quality/throughput guard.",
    )
    gauge(
        "repro_optimizer_kb_entries",
        "Entries held by the most recently opened tuning knowledge base.",
    )
    counter(
        "repro_workloads_runs_total",
        "Workload runs driven by the runner, by workload key.",
        labels=("workload",),
    )
    gauge(
        "repro_serve_shards",
        "Shards in the current sharded-fleet topology.",
    )
    counter(
        "repro_serve_shard_rebalanced_tenants_total",
        "Tenants that changed shard across resize rebalances.",
    )


__all__ = [
    "ALGORITHM_BUCKETS",
    "Alert",
    "AlertEngine",
    "AlertEvent",
    "AlertRule",
    "AlertSeverity",
    "AlertState",
    "DEFAULT_BUCKETS",
    "DEFAULT_MAX_SPANS",
    "DEFAULT_RING_CAPACITY",
    "DEFAULT_SDC_DROP",
    "DEFAULT_SLOS",
    "DriftBand",
    "HealthMonitor",
    "HealthOptions",
    "MetricFamily",
    "MetricsRegistry",
    "NULL_SPAN",
    "PhaseDriftDetector",
    "RegistrySampler",
    "RingBuffer",
    "RingStore",
    "SLOEngine",
    "SLOSpec",
    "Span",
    "Tracer",
    "UtilizationAnomalyDetector",
    "builtin_rules",
    "counter",
    "default_registry",
    "default_tracer",
    "ensure_core_metrics",
    "gauge",
    "histogram",
    "histogram_quantile",
    "load_alerts",
    "load_health",
    "load_metrics",
    "load_trace",
    "merge_stores",
    "mix_distance",
    "parse_prometheus",
    "phase_fingerprint",
    "render_prometheus",
    "set_tracing_enabled",
    "sparkline",
    "summarize",
    "summarize_alerts",
    "summarize_health",
    "summarize_metrics",
    "summarize_trace",
    "trace",
    "window_fingerprint",
    "write_metrics",
    "write_trace",
]
