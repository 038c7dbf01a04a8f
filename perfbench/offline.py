"""offline-characterize: the paper's offline flow, journal to tuned run.

``bert-squad``, ``qanet-squad`` and ``retinanet-coco`` each train under
the profiler while a record hook appends every record to a binary
journal. Each closed journal is read back with ``recover_journal`` and
the batch analyzer computes k-means, DBSCAN and OLS phases over the
recovered records. Finally ``autotune()`` (default racing strategy) and
``TPUPoint.optimize()`` run on ``bert-mrpc``.
"""

from __future__ import annotations

import dataclasses
import time
from dataclasses import dataclass
from pathlib import Path

from repro.core.analyzer import StreamingAnalyzer, TPUPointAnalyzer
from repro.core.api import TPUPoint
from repro.core.optimizer import AutotuneOptions, autotune
from repro.core.profiler.journal import RecordJournal, recover_journal
from repro.core.profiler.serialize import record_checksum
from repro.host.pipeline import PipelineConfig
from repro.workloads.runner import attach_record_sink, build_estimator
from repro.workloads.spec import WorkloadSpec

from common import Bench, Episode, Stopwatch, check, digest, train_steps

PROFILED = ("bert-squad", "qanet-squad", "retinanet-coco")
TUNED = "bert-mrpc"


@dataclass
class _Run:
    key: str
    estimator: object
    profiler: object
    journal: RecordJournal
    path: Path


@dataclass
class _State:
    runs: list[_Run]
    tune_spec: WorkloadSpec
    tune_initial: PipelineConfig
    online: object


def setup(bench: Bench) -> _State:
    """Build and compile every estimator; open the journals."""
    layers = bench.layers
    runs = []
    for index, key in enumerate(PROFILED):
        spec = WorkloadSpec(key, seed=bench.seed * 1000 + index)
        path = bench.workdir / f"{key}.journal"
        journal = RecordJournal(path)
        with layers.span("workloads.build"):
            estimator = build_estimator(spec)
            profiler = attach_record_sink(
                estimator, layers.wrap("journal.append", journal.append)
            )
        runs.append(_Run(key, estimator, profiler, journal, path))
    tune_spec = WorkloadSpec(TUNED, seed=bench.seed * 1000 + len(PROFILED))
    with layers.span("workloads.build"):
        probe = build_estimator(tune_spec)
        online = build_estimator(tune_spec)
    return _State(
        runs=runs,
        tune_spec=tune_spec,
        tune_initial=probe.pipeline_config or PipelineConfig(),
        online=online,
    )


def episode(bench: Bench, state: _State) -> Episode:
    layers = bench.layers
    outputs = {}
    watch = Stopwatch()
    for run in state.runs:
        train_steps(bench, run.estimator)
        with layers.span("profiler.stop"):
            run.profiler.stop()
        with layers.span("journal.append"):
            run.journal.close()
        watch.sample()
    watch.lap("ingest")

    analyzers = []
    recoveries = []
    for run in state.runs:
        with layers.span("journal.recover"):
            recovery = recover_journal(run.path)
        analyzer = TPUPointAnalyzer(list(recovery.records))
        with layers.span("analyzer.reduce"):
            analyzer.reduced_matrix()
        watch.sample()
        start = time.perf_counter()
        with layers.span("analyzer.kmeans"):
            kmeans = analyzer.kmeans_phases()
        watch.query((time.perf_counter() - start) * 1e3)
        watch.sample()
        with layers.span("analyzer.dbscan"):
            dbscan = analyzer.dbscan_phases()
        with layers.span("analyzer.ols"):
            ols = analyzer.ols_phases()
        analyzer.close()
        outputs[run.key] = [r.labels.tolist() for r in (kmeans, dbscan, ols)]
        analyzers.append(analyzer)
        recoveries.append(recovery)
        watch.sample()
    watch.lap("answer")

    build = layers.wrap("workloads.build", build_estimator)
    with layers.span("optimizer.autotune"):
        tuned = autotune(
            lambda config: build(dataclasses.replace(state.tune_spec, pipeline_config=config)),
            state.tune_initial,
            AutotuneOptions(seed=state.tune_spec.seed, workload=TUNED),
        )
    watch.lap("tune")
    with layers.span("optimizer.online"):
        online = TPUPoint(state.online).optimize()
    watch.lap("online")

    if bench.episodes == 0:
        _check(state, recoveries, tuned)
    steps = sum(run.estimator.session.global_step for run in state.runs)
    records = sum(run.journal.entries_written for run in state.runs)
    counts = {
        "runtime.steps": steps,
        "journal.bytes": sum(run.journal.bytes_written for run in state.runs),
        "analyzer.steps": sum(len(analyzer.steps) for analyzer in analyzers),
        "optimizer.trials": len(tuned.trials),
        "optimizer.simulated_s": tuned.simulated_us / 1e6,
    }
    if layers.enabled:
        counts["analyzer.unique_signature_share"] = _unique_share(recoveries)
    return Episode(
        watch=watch,
        steps=steps,
        records=records,
        attempted=records + len(watch.queries),
        failed=sum(recovery.corrupt_entries for recovery in recoveries),
        digest=digest(
            {
                "labels": outputs,
                "best": dataclasses.asdict(tuned.best_config),
                "improvement": tuned.improvement,
                "online": online.improvement,
            }
        ),
        counts=counts,
    )


def _unique_share(recoveries) -> float:
    """Distinct step signatures over steps, as the streaming analyzer folds them."""
    signatures = folded = 0
    for recovery in recoveries:
        streaming = StreamingAnalyzer()
        for record in recovery.records:
            streaming.fold_record(record)
        streaming.finish()
        signatures += streaming.num_signatures
        folded += streaming.steps_folded
    return signatures / max(folded, 1)


def _check(state: _State, recoveries, tuned) -> None:
    """Journal recovery is lossless and the tuner improves throughput."""
    for run, recovery in zip(state.runs, recoveries):
        kept = [record_checksum(record) for record in run.profiler.records]
        check(recovery.lossless, f"{run.key} journal recovery lost entries")
        check(
            [record_checksum(record) for record in recovery.records] == kept,
            f"{run.key} journal recovered different records than the profiler kept",
        )
    check(tuned.improvement > 1.0, f"autotune improvement {tuned.improvement:.3f} <= 1")
