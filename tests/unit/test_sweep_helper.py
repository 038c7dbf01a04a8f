"""The k-sweep's helper process: equal fits, its spans, and its lifecycle.

A seeded sweep above the size floor fits half of its k values in one
forked helper process (:mod:`repro.core.analyzer.kmeans`). These tests
drive that path through the module's internal entry points — a helper
started by ``_running_helper`` and the split in ``_sweep`` — never through
an option. The lifecycle cases run in a subprocess, since they exit,
interrupt, kill or fork the process that owns the helper.
"""

import importlib
import os
import signal
import subprocess
import sys
import textwrap
import time
from pathlib import Path

import numpy as np
import pytest

import repro
from repro import obs
from repro.errors import ClusteringError

kmeans_mod = importlib.import_module("repro.core.analyzer.kmeans")
SRC = str(Path(repro.__file__).resolve().parent.parent)
FAILURES = obs.counter("repro_analyzer_sweep_helper_failures_total").labels()


def _matrix(n=160, dims=6, seed=4):
    rng = np.random.default_rng(seed)
    centers = rng.normal(scale=5.0, size=(4, dims))
    return kmeans_mod._checked(centers[rng.integers(4, size=n)] + rng.normal(size=(n, dims)))


def assert_same_fits(fits, other):
    assert list(fits) == list(other)
    for k, fit in fits.items():
        assert np.array_equal(fit.labels, other[k].labels), k
        assert np.array_equal(fit.centers, other[k].centers), k
        assert fit.inertia == other[k].inertia, k
        assert fit.iterations == other[k].iterations, k


def _spans_of(run):
    """The spans ``run()`` records, with tracing on for it alone."""
    previous = obs.set_tracing_enabled(True)
    try:
        marker = len(obs.default_tracer().spans())
        run()
        return obs.default_tracer().spans()[marker:]
    finally:
        obs.set_tracing_enabled(previous)


@pytest.fixture
def helper(monkeypatch):
    """A helper of this test's own, stopped at teardown; the process's own is untouched.

    ``sweep_k`` splits only when BLAS runs one thread; the tests run as
    if it did, whatever the environment says.
    """
    monkeypatch.setattr(kmeans_mod, "_helper", None)
    monkeypatch.setattr(kmeans_mod, "_helper_off", False)
    monkeypatch.setattr(kmeans_mod, "_ONE_BLAS_THREAD", True)
    started = kmeans_mod._running_helper()
    if started is None:
        pytest.skip("this host leaves the process one CPU")
    yield started
    started.stop()


class TestSplitSweep:
    def test_halves_balance_cost(self):
        mine, theirs = kmeans_mod._halves(list(range(1, 16)))
        assert sorted(mine + theirs) == list(range(1, 16))
        assert sum(mine) == sum(theirs) == 60
        assert kmeans_mod._halves([7]) == ([7], [])

    def test_helper_exception_arrives_typed(self, helper):
        failures = FAILURES.value
        # The greedy split sends k = 4 and k = 0 to the helper.
        assert kmeans_mod._halves([0, 5, 4])[1] == [0, 4]
        with pytest.raises(ClusteringError, match="k must be positive"):
            kmeans_mod._sweep(_matrix(), [0, 5, 4], None, 0, 4, helper)
        assert FAILURES.value == failures
        _, attributes = kmeans_mod._sweep(_matrix(), [1, 2, 3], None, 0, 4, helper)
        assert attributes["helper_k_count"] == 2  # k = 1 and 2; the helper still serves

    def test_helper_killed_mid_sweep_fits_inline(self, helper, monkeypatch):
        matrix, ks = _matrix(), list(range(1, 16))
        inline, _ = kmeans_mod._fits(matrix, ks, None, 5, 4, {})
        failures = FAILURES.value
        fits = kmeans_mod._fits

        def kill_then_fit(*args, **kwargs):
            if kmeans_mod._helper is not None:
                os.kill(helper.pid, signal.SIGKILL)  # the helper holds its half
            return fits(*args, **kwargs)

        monkeypatch.setattr(kmeans_mod, "_fits", kill_then_fit)
        split, attributes = kmeans_mod._sweep(matrix, ks, None, 5, 4, helper)
        assert_same_fits(split, inline)
        assert attributes["helper_k_count"] == 0
        assert FAILURES.value == failures + 1
        # The rest of the process sweeps inline and starts no new helper.
        assert kmeans_mod._running_helper() is None
        assert_same_fits(kmeans_mod.sweep_k(matrix, ks, seed=5), inline)

    def test_traced_sweep_has_one_fit_span_per_k(self, helper):
        began = time.perf_counter()
        spans = _spans_of(lambda: kmeans_mod.sweep_k(_matrix(), range(1, 16), seed=1))
        sweep = next(s for s in spans if s.name == "analyzer.kmeans_sweep")
        fits = [s for s in spans if s.name == "analyzer.kmeans_fit"]
        assert sorted(fit.attributes["k"] for fit in fits) == list(range(1, 16))
        assert all(fit.parent_id == sweep.span_id for fit in fits)
        in_helper = [fit for fit in fits if fit.attributes["process"] == "helper"]
        assert len(in_helper) == sweep.attributes["helper_k_count"] > 0
        assert sweep.attributes["helper_wait_s"] >= 0.0
        # Timed in the helper on the shared monotonic clock, inside the sweep.
        epoch = obs.default_tracer()._epoch
        for fit in in_helper:
            assert (began - epoch) * 1e6 <= fit.start_us
            assert fit.start_us + fit.duration_us <= sweep.start_us + sweep.duration_us + 1.0

    def test_small_and_unseeded_sweeps_stay_inline(self, helper):
        def sweeps():
            kmeans_mod.sweep_k(_matrix(n=30), range(1, 5), seed=1)  # 30 x 10 work
            kmeans_mod.sweep_k(_matrix(), range(1, 16), np.random.default_rng(0))

        spans = _spans_of(sweeps)
        assert all(s.attributes["process"] == "caller" for s in spans if s.name == "analyzer.kmeans_fit")
        assert [s.attributes["helper_k_count"] for s in spans if s.name == "analyzer.kmeans_sweep"] == [0, 0]

    def test_sweeps_with_blas_threads_stay_inline(self, helper, monkeypatch):
        monkeypatch.setattr(kmeans_mod, "_ONE_BLAS_THREAD", False)
        spans = _spans_of(lambda: kmeans_mod.sweep_k(_matrix(), range(1, 16), seed=1))
        sweep = next(s for s in spans if s.name == "analyzer.kmeans_sweep")
        assert sweep.attributes["helper_k_count"] == 0


@pytest.mark.parametrize(
    "variables, one",
    [
        ({}, False),
        ({"OMP_NUM_THREADS": "1"}, True),
        ({"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "4"}, True),
        ({"OPENBLAS_NUM_THREADS": "4", "OMP_NUM_THREADS": "1"}, False),
        ({"MKL_NUM_THREADS": " 1 "}, True),
        ({"OMP_NUM_THREADS": "2"}, False),
    ],
)
def test_one_blas_thread_reads_the_first_variable_set(monkeypatch, variables, one):
    for name in ("OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "BLIS_NUM_THREADS", "OMP_NUM_THREADS"):
        monkeypatch.delenv(name, raising=False)
    for name, value in variables.items():
        monkeypatch.setenv(name, value)
    assert kmeans_mod._one_blas_thread() is one


#: Starts the helper, prints its pid, then does what argv[1] asks.
_LIFECYCLE = textwrap.dedent(
    """
    import importlib, os, signal, sys, time
    import numpy as np
    from repro import obs

    km = importlib.import_module("repro.core.analyzer.kmeans")
    failures = obs.counter("repro_analyzer_sweep_helper_failures_total").labels()
    rng = np.random.default_rng(2)
    matrix = km._checked(rng.normal(size=(120, 5)))
    inline, _ = km._fits(matrix, list(range(1, 16)), None, 9, 4, {})

    def check(fits):
        for k, fit in fits.items():
            assert np.array_equal(fit.labels, inline[k].labels) and fit.inertia == inline[k].inertia

    def split():
        fits, attributes = km._sweep(matrix, list(range(1, 16)), None, 9, 4, km._running_helper())
        check(fits)
        assert attributes["helper_k_count"] > 0 and failures.value == 0
        return fits

    mode = sys.argv[1]
    if mode == "one-cpu":
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
        assert km._running_helper() is None
        check(km.sweep_k(matrix, range(1, 16), seed=9))
        print("inline", flush=True)
        sys.exit(0)
    helper = km._running_helper()
    print(helper.pid, flush=True)
    split()
    if mode == "sigint":
        os.kill(helper.pid, signal.SIGINT)  # ignored by the helper
        split()
        os.kill(os.getpid(), signal.SIGINT)
    elif mode == "kill":
        time.sleep(60)
    elif mode == "fork":
        child = os.fork()
        if child == 0:
            assert km._helper is None  # the parent's helper is not the child's
            check(km.sweep_k(matrix, range(1, 16), seed=9))
            mine = km._helper
            assert mine is None or mine.pid != helper.pid
            sys.exit(0)  # atexit runs here, with the parent's registry
        _, status = os.waitpid(child, 0)
        assert os.waitstatus_to_exitcode(status) == 0
        assert km._helper is helper
        split()  # the parent's helper still answers, and only the parent
        print("forked", flush=True)
    """
)


def _run_lifecycle(mode):
    """Start the script; return it and the helper pid it printed."""
    env = {**os.environ, "PYTHONPATH": SRC}
    process = subprocess.Popen(
        [sys.executable, "-c", _LIFECYCLE, mode],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        env=env,
    )
    first = process.stdout.readline().strip()
    return process, first


def _running(pid):
    """Whether ``pid`` is a live, non-zombie process."""
    try:
        with open(f"/proc/{pid}/stat") as handle:
            return handle.read().rsplit(")", 1)[1].split()[0] != "Z"
    except FileNotFoundError:
        return False


def _gone(pid, within=10.0):
    deadline = time.monotonic() + within
    while _running(pid):
        if time.monotonic() > deadline:
            return False
        time.sleep(0.02)
    return True


@pytest.fixture
def two_cpus():
    if not hasattr(os, "sched_getaffinity") or len(os.sched_getaffinity(0)) < 2:
        pytest.skip("this host leaves the process one CPU")


@pytest.mark.parametrize("mode", ["exit", "sigint", "kill"])
def test_no_helper_outlives_its_caller(mode, two_cpus):
    process, first = _run_lifecycle(mode)
    assert first.isdigit(), process.communicate()
    pid = int(first)
    assert _running(pid)
    if mode == "kill":
        process.kill()
    _, err = process.communicate(timeout=60)
    if mode == "exit":
        assert process.returncode == 0, err
    if mode == "sigint":
        assert "KeyboardInterrupt" in err
    assert _gone(pid)


def test_forked_child_fits_without_the_callers_helper(two_cpus):
    process, first = _run_lifecycle("fork")
    out, err = process.communicate(timeout=60)
    assert process.returncode == 0, err
    assert out.split() == ["forked"]
    assert _gone(int(first))


def test_one_cpu_fits_inline():
    process, first = _run_lifecycle("one-cpu")
    _, err = process.communicate(timeout=60)
    assert process.returncode == 0, err
    assert first == "inline"
