"""Extension: the DBSCAN sweep shares one neighbor graph; the k-sweep's worker curve.

Two parts (docs/performance.md):

* The DBSCAN min_samples sweep spends exactly ONE distance pass — the
  neighbor graph (and the k-distance eps) are computed in a single
  blocked traversal and every sweep point is a cheap relabeling. The
  baseline (one eps pass plus one graph build per sweep value) is re-run
  here for comparison and must be at least 3x slower, with byte-identical
  labels.
* The seeded k = 1..15 sweep on matrices shaped like the benchmark's
  phase queries, at one and two workers: inline, split over two threads,
  and split with the helper process under free and pinned placement
  (``kmeans._sweep``), each in a fresh process with BLAS pinned to one
  thread and then at its default thread count. Every split must return
  the inline fits bit for bit; the times are reported, not asserted,
  since they depend on a second CPU being free.

``--quick`` runs smaller inputs and only the correctness assertions —
the sweep's distance-pass counter reads exactly 1, and every split fit
equals its inline fit.
"""

import argparse
import importlib
import os
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy as np

from repro.core.analyzer.dbscan import (
    MIN_SAMPLES_SWEEP,
    dbscan,
    default_eps,
    sweep_min_samples,
)
from repro.core.analyzer.distance import distance_passes, reset_pass_counter

# The package re-exports the function ``kmeans`` under the module's name.
kmeans_mod = importlib.import_module("repro.core.analyzer.kmeans")

_SEED = 20260805
_FULL_STEPS, _FULL_DIMS = 700, 12
_QUICK_STEPS, _QUICK_DIMS = 160, 6
#: (steps, PCA dimensions) of phase-query sweeps in the benchmark's
#: fleet-live and offline-characterize episodes.
_SWEEP_SHAPES = ((59, 59), (124, 60), (194, 64), (263, 66), (310, 68), (402, 74), (722, 72))
_QUICK_SWEEP_SHAPES = ((41, 41), (124, 60))
_SWEEP_REPS = 8
#: The variables BLAS libraries read their thread count from.
_BLAS_THREADS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "BLIS_NUM_THREADS")


def _step_matrix(n: int, dims: int) -> np.ndarray:
    """Synthetic PCA-reduced step vectors shaped like a profiled run.

    A dominant dense blob (train steps), a smaller offset blob (eval),
    and diffuse outliers (checkpoint/setup) — the structure both
    clustering methods see in real Table I runs.
    """
    rng = np.random.default_rng(_SEED)
    train = rng.normal(0.0, 0.6, size=(int(n * 0.8), dims))
    evals = rng.normal(4.0, 0.9, size=(int(n * 0.15), dims))
    rest = rng.normal(-5.0, 2.0, size=(n - len(train) - len(evals), dims))
    return np.concatenate([train, evals, rest])


def _dbscan_baseline(matrix: np.ndarray, values: list[int]) -> dict:
    """The per-value sweep: eps once, then one graph build per value."""
    eps = default_eps(matrix)
    return {ms: dbscan(matrix, eps, ms) for ms in values}


def run_dbscan_comparison(matrix: np.ndarray, min_speedup: float | None) -> list[str]:
    values = list(MIN_SAMPLES_SWEEP)

    reset_pass_counter()
    began = time.perf_counter()
    baseline = _dbscan_baseline(matrix, values)
    baseline_seconds = time.perf_counter() - began
    baseline_passes = distance_passes()

    reset_pass_counter()
    began = time.perf_counter()
    shared = sweep_min_samples(matrix, values)
    shared_seconds = time.perf_counter() - began
    shared_passes = distance_passes()

    assert shared_passes == 1, (
        f"DBSCAN sweep spent {shared_passes} distance passes; the shared "
        f"neighbor graph must cost exactly one"
    )
    for ms in values:
        assert np.array_equal(baseline[ms].labels, shared[ms].labels), (
            f"shared-graph labels diverge from per-call labels at "
            f"min_samples={ms}"
        )
    speedup = baseline_seconds / shared_seconds
    if min_speedup is not None:
        assert speedup >= min_speedup, (
            f"shared-graph sweep is only {speedup:.2f}x faster than the "
            f"per-value baseline (need >= {min_speedup}x)"
        )
    return [
        f"dbscan sweep ({len(values)} min_samples values, "
        f"{matrix.shape[0]} steps x {matrix.shape[1]} dims)",
        f"  baseline (graph per value): {baseline_seconds * 1e3:8.1f} ms, "
        f"{baseline_passes} distance passes",
        f"  shared neighbor graph     : {shared_seconds * 1e3:8.1f} ms, "
        f"{shared_passes} distance pass",
        f"  speedup                   : {speedup:8.2f}x  (labels identical)",
    ]


def _sweep_inputs(shapes) -> list[np.ndarray]:
    """Phase-structured step matrices of the given shapes, as PCA hands them to the sweep."""
    inputs = []
    for index, (steps, dims) in enumerate(shapes):
        rng = np.random.default_rng(_SEED + index)
        phases = rng.normal(0.0, 3.0, size=(6, dims))
        members = rng.choice(6, size=steps, p=[0.55, 0.2, 0.1, 0.07, 0.05, 0.03])
        inputs.append(kmeans_mod._checked(phases[members] + rng.normal(0.0, 0.5, size=(steps, dims))))
    return inputs


def _inline(matrix, ks):
    return kmeans_mod._fits(matrix, ks, None, 0, kmeans_mod.DEFAULT_N_INIT, {})[0]


def _two_threads(matrix, ks):
    """The helper's split, with the other half on a thread of this process."""
    mine, theirs = kmeans_mod._halves(ks)
    other: dict = {}
    worker = threading.Thread(target=lambda: other.update(_inline(matrix, theirs)))
    worker.start()
    fits = _inline(matrix, mine)
    worker.join()
    return {k: fits[k] if k in fits else other[k] for k in ks}


def _with_helper(helper, cpus):
    def split(matrix, ks):
        os.sched_setaffinity(helper.pid, cpus)
        return kmeans_mod._sweep(matrix, ks, None, 0, kmeans_mod.DEFAULT_N_INIT, helper)[0]

    return split


def _assert_same(fits, reference, context):
    for k, fit in reference.items():
        same = (
            np.array_equal(fits[k].labels, fit.labels)
            and np.array_equal(fits[k].centers, fit.centers)
            and fits[k].inertia == fit.inertia
            and fits[k].iterations == fit.iterations
        )
        assert same, f"{context}: the fit at k={k} differs from the inline fit"


def run_sweep_curve(shapes, reps: int) -> list[str]:
    """Inline vs two threads vs the helper (free, pinned): bit-identity, then timings."""
    inputs = _sweep_inputs(shapes)
    ks_of = [list(range(1, min(15, len(matrix)) + 1)) for matrix in inputs]
    helper = kmeans_mod._running_helper()
    blas = "1" if kmeans_mod._one_blas_thread() else "default"
    head = (
        f"k-sweep worker curve (k = 1..15, n_init {kmeans_mod.DEFAULT_N_INIT}, "
        f"{len(inputs)} matrices of {shapes[0][0]}-{shapes[-1][0]} steps, BLAS threads {blas})"
    )
    ways = {"inline (1 process)": _inline, "two threads": _two_threads}
    if helper is None:
        lines = [head, "  helper: not started (this host leaves the process one CPU)"]
    else:
        pinned = os.sched_getaffinity(helper.pid)
        ways["helper, free placement"] = _with_helper(helper, os.sched_getaffinity(0))
        ways["helper, pinned"] = _with_helper(helper, pinned)
        lines = [head]
    reference = [_inline(matrix, ks) for matrix, ks in zip(inputs, ks_of)]
    for name, way in ways.items():
        for matrix, ks, fits in zip(inputs, ks_of, reference):
            _assert_same(way(matrix, ks), fits, name)
    lines.append(f"  every fit of {len(ways) - 1} split ways equals the inline fit, bit for bit")
    if not reps:
        return lines
    seconds = {name: [] for name in ways}
    names = list(ways)
    for rep in range(reps):
        for name in names[rep % len(names):] + names[: rep % len(names)]:
            time.sleep(0.2)  # let a neighbour's burst on the second CPU pass
            began = time.perf_counter()
            for matrix, ks in zip(inputs, ks_of):
                ways[name](matrix, ks)
            seconds[name].append(time.perf_counter() - began)
    if helper is not None:
        os.sched_setaffinity(helper.pid, pinned)
    base = seconds[names[0]]
    for name in names:
        ratios = [b / t for b, t in zip(base, seconds[name])]
        lines.append(
            f"  {name:24s}: median {statistics.median(seconds[name]) * 1e3:7.1f} ms, "
            f"x{statistics.median(ratios):.2f} (x{min(ratios):.2f}-x{max(ratios):.2f} "
            f"over {reps} rotated reps)"
        )
    return lines


def run_sweep_curves(shapes, reps: int) -> list[str]:
    """The curve with BLAS pinned to one thread, then at its default, each in a fresh process.

    BLAS reads its thread count when numpy loads, so each setting needs
    its own interpreter.
    """
    here = Path(__file__).resolve().parent
    src = Path(kmeans_mod.__file__).resolve().parents[3]
    code = (
        "import bench_ext_parallel as bench; "
        f"print('\\n'.join(bench.run_sweep_curve({shapes!r}, {reps})))"
    )
    lines = []
    for threads in ("1", None):
        env = {name: value for name, value in os.environ.items() if name not in _BLAS_THREADS}
        env.update({name: threads for name in _BLAS_THREADS if threads})
        env["PYTHONPATH"] = os.pathsep.join([str(src), str(here)])
        done = subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
        )
        lines += done.stdout.splitlines()
    return lines


def run_quick() -> list[str]:
    """Correctness only, small inputs: the one-pass guard, labels, split fits."""
    matrix = _step_matrix(_QUICK_STEPS, _QUICK_DIMS)
    return run_dbscan_comparison(matrix, min_speedup=None) + run_sweep_curve(
        _QUICK_SWEEP_SHAPES, reps=0
    )


def run_full() -> list[str]:
    matrix = _step_matrix(_FULL_STEPS, _FULL_DIMS)
    return run_dbscan_comparison(matrix, min_speedup=3.0) + run_sweep_curves(
        _SWEEP_SHAPES, reps=_SWEEP_REPS
    )


TITLE = "Extension: shared DBSCAN neighbor graph; k-sweep worker curve"


def test_ext_shared_graph(benchmark):
    from _harness import emit, once

    lines: list[str] = []

    def run_all():
        lines.extend(run_full())

    once(benchmark, run_all)
    emit("ext_parallel", TITLE, lines)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--quick",
        action="store_true",
        help="correctness-only smoke run (distance-pass guard, identical labels and fits)",
    )
    args = parser.parse_args(argv)
    if args.quick:
        lines = run_quick()
        print("\n".join([f"== {TITLE} (quick) =="] + lines))
    else:
        from _harness import emit

        lines = run_full()
        emit("ext_parallel", TITLE, lines)
    return 0


if __name__ == "__main__":
    sys.exit(main())
