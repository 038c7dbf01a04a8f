#!/usr/bin/env python3
"""The toolchain benchmark: three workloads, end-to-end and per-layer.

Run one workload for a fixed time and print its metrics:

    python3 perfbench/run.py --workload fleet-live --seed 1 --seconds 40 --trace 0

``--trace 0`` reports the end-to-end metrics of untraced episodes.
``--trace 1`` alternates untraced and traced episodes and reports layer
self times from the traced ones, plus tracing overhead against the
untraced ones. ``--workload all`` runs every workload, untraced then
traced, each in a fresh process. ``--seed heldout`` selects the held-out
seed, kept aside for checking claims on inputs not used while making
them. ``--write-spec`` regenerates ``BENCHMARK.json``.

Each run repeats set-up and episode while another iteration fits in
``--seconds`` and reports medians, with every timing scaled to a
reference host speed (see ``_e2e``). Output checks run on the first
episode, and every episode must produce the same output digest; a failed check exits
non-zero without printing numbers. The last stdout line is one JSON
object; the full result, with commit, mode, seed, nproc and thread pins,
goes to ``perfbench/results/``.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import spec

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RESULTS = HERE / "results"
DEFAULT_SEED = 1
HELD_OUT_SEED = 104729
#: Latency percentiles count each query this many times (fewer only if
#: the run had fewer episodes), so that the tail, the highest percentile
#: with ten samples beyond it, sits at the same rank in every run.
QUERY_EPISODES = 4
#: BLAS/OpenMP pools are pinned before numpy loads: with default
#: threads, k-means timings on a small machine turn bimodal.
THREAD_PINS = {
    name: "1"
    for name in (
        "OMP_NUM_THREADS",
        "OPENBLAS_NUM_THREADS",
        "MKL_NUM_THREADS",
        "VECLIB_MAXIMUM_THREADS",
        "NUMEXPR_NUM_THREADS",
    )
}


def _seed(text: str) -> int:
    named = {"default": DEFAULT_SEED, "heldout": HELD_OUT_SEED}
    if text in named:
        return named[text]
    try:
        return int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            "seed must be an integer, 'default' or 'heldout'"
        ) from None


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=[*spec.WORKLOADS, "all"])
    parser.add_argument("--seed", type=_seed, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=spec.RUN_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-spec", action="store_true")
    return parser


def _commit() -> str:
    """The checked-out commit, read from ``.git`` without running git."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return "unknown"


def _run_all(args) -> int:
    """Every workload, untraced then traced, each in a fresh process."""
    status = 0
    for name in spec.WORKLOADS:
        for trace in (0, 1):
            command = [
                sys.executable, str(Path(__file__).resolve()),
                "--workload", name, "--seed", str(args.seed),
                "--seconds", str(args.seconds), "--trace", str(trace),
            ]
            print(f"== {name} (trace {trace})", flush=True)
            status |= subprocess.run(command, check=False).returncode
    return status


def _latencies(common, per_episode: list[list[float]]) -> dict:
    """Median and tail of the run's query latencies.

    Every episode issues the same queries in the same order, so a
    query's latency is its median over the episodes, which leaves out
    the odd stall of a single repeat; each query then counts
    ``QUERY_EPISODES`` times.
    """
    common.check(
        len({len(queries) for queries in per_episode}) == 1,
        "episodes with the same seed issued different numbers of queries",
    )
    typical = [statistics.median(repeats) for repeats in zip(*per_episode)]
    return common.summarize(typical * min(len(per_episode), QUERY_EPISODES))


def _e2e(common, episodes, setups) -> dict:
    """End-to-end metrics: medians over the run, in reference seconds.

    Other tenants of a shared host slow the whole machine, by up to
    half, in stretches from milliseconds to minutes, so raw times of the
    same work drift from run to run with the neighbours' load. Every
    timing is therefore scaled by the speed of a fixed reference kernel
    timed around each piece of work (see :class:`common.Stopwatch`): it
    is the time the work would take on a host where the kernel takes
    ``REFERENCE_PROBE_S``. The raw figures are in the result file.
    """
    stages = [e.watch.scaled_stages() for e in episodes]
    queries = _latencies(common, [e.watch.scaled_queries_ms() for e in episodes])
    return {
        "wall_s": statistics.median(sum(s.values()) for s in stages),
        "setup_s": statistics.median(w.scaled_stages()["setup"] for w in setups),
        "train_steps_per_s": statistics.median(
            e.steps / s["ingest"] for e, s in zip(episodes, stages)
        ),
        "ingest_records_per_s": statistics.median(
            e.records / s["ingest"] for e, s in zip(episodes, stages)
        ),
        "query_p50_ms": queries["p50"],
        "query_tail_ms": queries["tail"],
        "analyze_s": statistics.median(s["answer"] for s in stages),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def _raw(common, episodes, setups) -> dict:
    """The same timings unscaled."""
    queries = _latencies(common, [e.queries_ms for e in episodes])
    return {
        "wall_s": statistics.median(e.wall_s for e in episodes),
        "setup_s": statistics.median(w.stages["setup"] for w in setups),
        "train_steps_per_s": statistics.median(
            e.steps / e.stages["ingest"] for e in episodes
        ),
        "ingest_records_per_s": statistics.median(
            e.records / e.stages["ingest"] for e in episodes
        ),
        "query_p50_ms": queries["p50"],
        "query_tail_ms": queries["tail"],
        "analyze_s": statistics.median(e.stages["answer"] for e in episodes),
    }


def _details(common, episodes) -> dict:
    """Workload-specific figures under their own names, and query sample facts."""
    query = _latencies(common, [e.queries_ms for e in episodes])
    found: dict = {"query_tail_percentile": query["tail_percentile"], "query_n": query["n"]}
    if "tune" in episodes[0].stages:
        found["tune_s"] = statistics.median(e.stages["tune"] for e in episodes)
    for name, unit in (("snapshot", "us"), ("phase_query", "ms")):
        values = [
            v for e in episodes[:QUERY_EPISODES] for v in e.details.get(f"{name}_{unit}", [])
        ]
        if values:
            summary = common.summarize(values)
            found.update({
                f"{name}_p50_{unit}": summary["p50"],
                f"{name}_tail_{unit}": summary["tail"],
                f"{name}_tail_percentile": summary["tail_percentile"],
                f"{name}_n": summary["n"],
            })
    found["failed_frac"] = sum(e.failed for e in episodes) / sum(e.attempted for e in episodes)
    return found


def _per_layer(traced, untraced) -> dict:
    """Per-episode means over the traced episodes."""
    count = len(traced)
    found = {name: 0.0 for name, *_ in spec.PER_LAYER}
    attributed = 0.0
    for seconds, counts, _, _ in traced:
        for name, value in seconds.items():
            found[f"{name}_s"] += value / count
            attributed += value / count
        for name, value in counts.items():
            found[name] += value / count
    iteration_wall = sum(wall for _, _, wall, _ in traced) / count
    found["bench.unattributed_s"] = iteration_wall - attributed
    if found["journal.recover_s"] > 0:
        found["journal.recover_mb_per_s"] = (
            found["journal.bytes"] / 1e6 / found["journal.recover_s"]
        )
    traced_wall = statistics.median(episode_wall for *_, episode_wall in traced)
    found["bench.trace_overhead_frac"] = traced_wall / statistics.median(untraced) - 1.0
    return found


def run(args) -> int:
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: no program source at {SRC}; run from a checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import common  # noqa: PLC0415 - needs the source tree on the path
    from layers import self_times  # noqa: PLC0415

    module_name, _ = spec.WORKLOADS[args.workload]
    workload = importlib.import_module(module_name)
    workdir = RESULTS / f"work-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    bench = common.Bench(seed=args.seed, workdir=workdir)
    episodes, setups, untraced, traced, digests = [], [], [], [], set()
    iterations = []
    began = time.perf_counter()
    try:
        while True:
            tracing = bool(args.trace) and len(episodes) % 2 == 1
            bench.layers.enabled = tracing
            before = common.profiler_counts()
            start = time.perf_counter()
            watch = common.Stopwatch()
            if not episodes:
                common.warm_up()
            state = workload.setup(bench)
            watch.lap("setup")
            setup_s = watch.stages["setup"]
            gc.collect()  # every episode starts from a collected heap
            episode = workload.episode(bench, state)
            bench.layers.enabled = False
            bench.episodes += 1
            episodes.append(episode)
            setups.append(watch)
            digests.add(episode.digest)
            if tracing:
                seconds, spans = self_times(bench.layers.drain())
                counts = dict(episode.counts)
                after = common.profiler_counts()
                counts.update({name: after[name] - before[name] for name in after})
                counts["serve.pump_calls"] = spans.get("serve.pump", 0)
                traced.append((seconds, counts, setup_s + episode.wall_s, episode.wall_s))
            else:
                untraced.append(episode.wall_s)
            common.check(
                len(digests) == 1,
                "episodes with the same seed produced different output digests",
            )
            now = time.perf_counter()
            iterations.append(now - start)
            # Stop before an iteration that would run past the deadline.
            late = now - began + statistics.median(iterations) > args.seconds
            if late and (not args.trace or (traced and untraced)):
                break
        if args.trace:
            metrics = _per_layer(traced, untraced)
        else:
            metrics = _e2e(common, episodes, setups)
        details = _details(common, episodes)
    except common.CheckFailed as failure:
        print(f"error: output check failed: {failure}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    attempted = sum(e.attempted for e in episodes)
    failed = sum(e.failed for e in episodes)
    result = {
        "workload": args.workload,
        "mode": "traced" if args.trace else "untraced",
        "commit": _commit(),
        "seed": args.seed,
        "seconds": args.seconds,
        "nproc": os.cpu_count(),
        "thread_pins": THREAD_PINS,
        "python": platform.python_version(),
        "episodes": len(episodes),
        "setup_first_s": setups[0].stages["setup"],
        "digest": episodes[0].digest,
        "metrics": {k: {"value": v, "unit": spec.UNITS[k]} for k, v in metrics.items()},
        "details": details,
        "episode_stages_s": [e.stages for e in episodes],
        "setups_s": [w.stages["setup"] for w in setups],
        "raw": None if args.trace else _raw(common, episodes, setups),
        "episode_probes_s": [e.watch.probes for e in episodes],
        "attempted": attempted,
        "failed": failed,
    }
    RESULTS.mkdir(parents=True, exist_ok=True)
    out = RESULTS / f"{args.workload}-{result['mode']}-seed{args.seed}.json"
    out.write_text(json.dumps(result, indent=2) + "\n", encoding="utf-8")

    print(f"{args.workload} ({result['mode']}, seed {args.seed}, "
          f"{len(episodes)} episodes, digest {result['digest']}) -> {out.relative_to(ROOT)}")
    for name, value in {**metrics, **details}.items():
        unit = spec.UNITS.get(name, "")
        print(f"  {name:34s} {value:14.6g} {unit}")
    print(json.dumps({
        "correct": True,
        "attempted": attempted,
        "failed": failed,
        "metrics": result["metrics"],
    }))
    return 0


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    if args.write_spec:
        print(spec.write(ROOT / "BENCHMARK.json"))
        return 0
    if args.workload is None:
        _parser().error("--workload is required")
    os.environ.update(THREAD_PINS)  # before run() imports numpy
    if args.workload == "all":
        return _run_all(args)
    return run(args)


if __name__ == "__main__":
    sys.exit(main())
