"""Extension: fleet health sampling overhead.

The health monitor observes the serving tier once per scheduling round
— serve counter rates, drift distances, SLO burn rates, alert rules.
That is the continuous-profiling posture the paper takes for the
profiler itself (Section V budgets it at single-digit percent), so the
monitor gets the same discipline. Budget: < 2% on the fleet path.

A sample costs a fraction of a millisecond, and a whole fleet run
varies by tens of percent from one run to the next, so comparing runs
with and without the monitor cannot resolve the cost. The bench times
the monitor's own ``observe`` and ``finish`` calls inside each
monitored run instead, and reports their share of that run's wall
time: the median and quartiles over repeats that alternate with bare
runs (whose wall time is shown for scale).
"""

import statistics
import time

from repro.obs import HealthMonitor
from repro.serve import run_fleet

from _harness import emit, once

_FLEET = ("bert-mrpc", "dcgan-mnist", "dcgan-cifar10", "bert-cola")
_REPEATS = 11


class _TimedMonitor(HealthMonitor):
    """A monitor that adds up the wall time of its own calls."""

    def __init__(self):
        super().__init__()
        self.seconds = 0.0

    def observe(self, *args, **kwargs):
        start = time.perf_counter()
        try:
            return super().observe(*args, **kwargs)
        finally:
            self.seconds += time.perf_counter() - start

    def finish(self, *args, **kwargs):
        start = time.perf_counter()
        try:
            return super().finish(*args, **kwargs)
        finally:
            self.seconds += time.perf_counter() - start


def _drive(monitor: _TimedMonitor | None) -> tuple[float, int]:
    start = time.perf_counter()
    result = run_fleet(_FLEET, health=monitor)
    return time.perf_counter() - start, result.rounds


def _alternating(repeats: int):
    """Bare and monitored runs in turn; the first side alternates."""
    _drive(_TimedMonitor())  # warm caches before anything is timed
    bare, monitored = [], []
    for index in range(repeats):
        for side in ("bare", "monitored") if index % 2 == 0 else ("monitored", "bare"):
            if side == "bare":
                bare.append(_drive(None)[0])
            else:
                monitor = _TimedMonitor()
                wall, rounds = _drive(monitor)
                monitored.append((wall, monitor.seconds, rounds, monitor.samples))
    return bare, monitored


def test_ext_health_overhead(benchmark):
    bare, monitored = once(benchmark, lambda: _alternating(_REPEATS))

    q1, share, q3 = statistics.quantiles(
        [sampled / wall for wall, sampled, _, _ in monitored], n=4
    )
    _, _, rounds, samples = monitored[0]
    per_sample_us = statistics.median(
        sampled / max(count, 1) for _, sampled, _, count in monitored
    ) * 1e6
    lines = [
        f"{'variant':>12s} {f'median of {_REPEATS}':>12s}",
        f"{'monitored':>12s} {statistics.median(run[0] for run in monitored) * 1e3:>10.2f} ms  "
        f"({rounds} rounds, {samples} samples)",
        f"{'bare':>12s} {statistics.median(bare) * 1e3:>10.2f} ms",
        f"monitor calls' share of a monitored run, {_REPEATS} alternating repeats: "
        f"median {share:.2%}, quartiles {q1:.2%} .. {q3:.2%}",
        f"health sampling overhead on the fleet path: {share:.2%} "
        f"(budget < 2%: {'met' if share < 0.02 else 'not met'})",
        f"per-sample cost: {per_sample_us:.0f} us",
    ]
    emit("ext_health", "Extension: fleet health sampling overhead", lines)

    # The share is timed inside each run, so its quartiles sit within a
    # few tenths of a percent; the recorded line is the budget check, and
    # this ceiling catches a sampler that grows several times costlier.
    assert share < 0.10
