"""Extension: the DBSCAN sweep shares one neighbor graph.

One claim, measured and asserted (docs/performance.md): the DBSCAN
min_samples sweep spends exactly ONE distance pass — the neighbor graph
(and the k-distance eps) are computed in a single blocked traversal and
every sweep point is a cheap relabeling. The baseline (one eps pass
plus one graph build per sweep value) is re-run here for comparison and
must be at least 3x slower, with byte-identical labels.

``--quick`` runs a smaller matrix and only the correctness assertions —
most importantly that the sweep's distance-pass counter reads exactly 1.
"""

import argparse
import sys
import time

import numpy as np

from repro.core.analyzer.dbscan import (
    MIN_SAMPLES_SWEEP,
    dbscan,
    default_eps,
    sweep_min_samples,
)
from repro.core.analyzer.distance import distance_passes, reset_pass_counter

_SEED = 20260805
_FULL_STEPS, _FULL_DIMS = 700, 12
_QUICK_STEPS, _QUICK_DIMS = 160, 6


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


def run_quick() -> list[str]:
    """Correctness only, small matrix: the one-pass guard and labels."""
    matrix = _step_matrix(_QUICK_STEPS, _QUICK_DIMS)
    return run_dbscan_comparison(matrix, min_speedup=None)


def run_full() -> list[str]:
    matrix = _step_matrix(_FULL_STEPS, _FULL_DIMS)
    return run_dbscan_comparison(matrix, min_speedup=3.0)


def test_ext_shared_graph(benchmark):
    from _harness import emit, once

    lines: list[str] = []

    def run_all():
        lines.extend(run_full())

    once(benchmark, run_all)
    emit(
        "ext_parallel",
        "Extension: shared DBSCAN neighbor graph (one distance pass per sweep)",
        lines,
    )


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--quick",
        action="store_true",
        help="correctness-only smoke run (distance-pass guard, identical labels)",
    )
    args = parser.parse_args(argv)
    title = "Extension: shared DBSCAN neighbor graph (one distance pass per sweep)"
    if args.quick:
        lines = run_quick()
        print("\n".join([f"== {title} (quick) =="] + lines))
    else:
        from _harness import emit

        lines = run_full()
        emit("ext_parallel", title, lines)
    return 0


if __name__ == "__main__":
    sys.exit(main())
