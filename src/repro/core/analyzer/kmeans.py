"""k-means clustering, implemented from scratch (Lloyd + k-means++).

TPUPoint-Analyzer runs k-means for k = 1..15 on the PCA-reduced step
vectors and picks k with the elbow method on the sum of squared distances
to centroids (Section IV-A), mirroring SimPoint's methodology with the
elbow heuristic replacing the BIC.

Each k is one fit of ``n_init`` restarts. Every restart of every k is
first seeded with k-means++ (:func:`_seed`, all chains in one batched
pass); each k's restarts then advance through Lloyd's iterations
together as one stacked problem (:func:`_restarts`): every round makes
one call into the blocked shared distance kernel
(:mod:`repro.core.analyzer.distance`) for all restarts still running,
and one vectorized center update. A restart whose centers converged
drops out and takes its last assignment alone.

With a ``seed``, every (k, restart) fit draws from its own named RNG
substream (:func:`restart_key`), and :func:`kmeans` and :func:`sweep_k`
run the same per-k fit, so a sweep's fit at k equals a separate seeded
fit at k; the elbow-chosen fit is therefore taken from the sweep
(:func:`elbow_fit`), never refit.

That same independence lets a seeded sweep run in two processes. On a
host that leaves the process two CPUs, with BLAS running one thread,
:func:`sweep_k` splits the k values into two halves of near-equal cost,
fits one here and sends the other to one long-lived helper process
(:class:`_Helper`: forked on the first sweep of at least
``_HELPER_FLOOR`` work, pinned to a CPU other than the caller's), and
merges the fits in k order. The helper runs the same :func:`_fits`
call, so every fit is bit-identical to an inline one; any failure of
the helper sends the rest of the process inline.
"""

from __future__ import annotations

import atexit
import gc
import math
import os
import signal
import threading
import time
from dataclasses import dataclass
from itertools import compress

import numpy as np

from repro import obs
from repro.core.analyzer.distance import pairwise_sq_distances, row_sq_norms
from repro.core.analyzer.elbow import find_elbow
from repro.errors import ClusteringError
from repro.rng import stream as rng_stream

#: The paper's k sweep: k = 1..15 (Section IV-A).
K_SWEEP = range(1, 16)

DEFAULT_N_INIT = 4

_MAX_ITERATIONS = 300
_TOLERANCE = 1e-6

#: Smallest sweep, in steps times the sum of its k values, that is split
#: with the helper process (docs/performance.md, "The sweep helper
#: process"); smaller sweeps fit inline and start no helper.
_HELPER_FLOOR = 2_000


def _one_blas_thread() -> bool:
    """Whether the environment BLAS loaded with gives it one thread (the first variable set decides).

    A split sweep needs one: with BLAS threads of their own in both
    processes, the halves fight over the CPUs, and the 35 sweeps of the
    benchmark's phase queries took 10x as long as inline.
    """
    for name in ("OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "BLIS_NUM_THREADS", "OMP_NUM_THREADS"):
        value = os.environ.get(name, "").strip()
        if value:
            return value == "1"
    return False


#: Read once, as BLAS read it when numpy loaded (this module imports numpy).
_ONE_BLAS_THREAD = _one_blas_thread()

_HELPER_FAILURES = obs.counter(
    "repro_analyzer_sweep_helper_failures_total",
    "k-sweep helper processes that died or whose pipe broke; the process then sweeps inline.",
).labels()


@dataclass(frozen=True)
class KMeansResult:
    """Outcome of one k-means run."""

    k: int
    labels: np.ndarray
    centers: np.ndarray
    inertia: float  # sum of squared distances of samples to their centers
    iterations: int


def restart_key(k: int, restart: int) -> str:
    """The RNG-substream name of one (k, restart) task.

    Naming the stream by task identity — never by the order fits run
    in — is what makes a sweep's fit at k equal a separate fit at k.
    """
    return f"analyzer.kmeans/k={k}/init={restart}"


def _checked(matrix: np.ndarray) -> np.ndarray:
    """``matrix`` as floats, or a :class:`ClusteringError` if it cannot be clustered."""
    try:
        matrix = np.asarray(matrix, dtype=float)
    except (TypeError, ValueError) as error:
        raise ClusteringError(f"k-means needs a numeric 2-D matrix: {error}") from None
    if matrix.ndim != 2 or matrix.shape[0] == 0:
        raise ClusteringError("k-means needs a non-empty 2-D matrix")
    if not np.isfinite(matrix).all():
        raise ClusteringError("k-means needs finite features; the matrix holds NaN or infinity")
    # One layout for every fit: the copy a helper unpickles is C-ordered too.
    return np.ascontiguousarray(matrix)


def _row_sq(matrix: np.ndarray, row: int, seed_rows: dict[int, np.ndarray]) -> np.ndarray:
    """Squared distances from every row to row ``row``, computed once per cache."""
    if row not in seed_rows:
        seed_rows[row] = ((matrix - matrix[row]) ** 2).sum(axis=1)
    return seed_rows[row]


def _seed(
    matrix: np.ndarray,
    ks: list[int],
    streams: list[np.random.Generator],
    seed_rows: dict[int, np.ndarray],
) -> list[list[int]]:
    """k-means++ picks of every chain ``(ks[i], streams[i])``, one pick step at a time.

    Each pick is the draw ``rng.choice(n, p=closest_sq / total)`` makes:
    one ``rng.random()`` from the chain's own generator, searched in the
    normalized cumulative sum. The live chains' sums run as one array; the
    count of entries ``<= u`` is the index ``searchsorted(u, side="right")``
    returns. Chains that share a generator must be seeded one call each.
    """
    n = matrix.shape[0]
    picks = [[int(rng.integers(n))] for rng in streams]
    live = [chain for chain, k in enumerate(ks) if k > 1]
    closest = np.array([_row_sq(matrix, picks[chain][0], seed_rows) for chain in live])
    while live:
        total = closest.sum(axis=1)
        spent = total <= 0.0
        if spent.any():
            # All points coincide with chosen centers; reuse the first pick.
            for chain in compress(live, spent):
                picks[chain] += picks[chain][:1] * (ks[chain] - len(picks[chain]))
            live, closest = list(compress(live, ~spent)), closest[~spent]
            continue
        cdf = np.cumsum(closest / total[:, None], axis=1)
        cdf /= cdf[:, -1:]
        draws = np.array([streams[chain].random() for chain in live])
        for chain, row in zip(live, (cdf <= draws[:, None]).sum(axis=1).tolist()):
            picks[chain].append(row)
        going = np.array([len(picks[chain]) < ks[chain] for chain in live], dtype=bool)
        live = list(compress(live, going))
        rows = [_row_sq(matrix, picks[chain][-1], seed_rows) for chain in live]
        closest = np.minimum(closest[going], np.array(rows).reshape(-1, n))
    return picks


def _restarts(
    matrix: np.ndarray,
    seeds: np.ndarray,
    matrix_sq: np.ndarray,
    max_iterations: int = _MAX_ITERATIONS,
    tolerance: float = _TOLERANCE,
) -> tuple[list[KMeansResult], int]:
    """Every restart of one k, fit from its seeds (restarts x k x dims) as one Lloyd problem.

    Returns the fits in restart order and the rounds taken: the stacked
    iterations, one shared distance call each. ``matrix_sq`` holds the
    matrix's squared row norms (:func:`row_sq_norms`).
    """
    restarts, k, dims = seeds.shape
    n = matrix.shape[0]
    fits: list[KMeansResult] = [None] * restarts
    active = list(range(restarts))
    centers = seeds.reshape(-1, dims)  # the active restarts' centers, stacked
    rows = np.arange(n)
    rounds = 0
    while active:
        rounds += 1
        stacked = len(active)
        # Assignment: one blocked Gram call, n x (restarts * k), for all of them.
        distances = pairwise_sq_distances(matrix, centers, a_sq=matrix_sq)
        cluster_ids = distances.reshape(n, stacked, k).argmin(axis=2)
        cluster_ids += np.arange(0, stacked * k, k)
        # Update: per-cluster sums of every restart in one matmul against
        # a one-hot membership matrix; an empty cluster keeps its center.
        members = np.zeros((n, stacked * k))
        members[rows[:, None], cluster_ids] = 1.0
        counts = np.bincount(cluster_ids.ravel(), minlength=stacked * k)[:, None]
        new = np.where(counts > 0, (members.T @ matrix) / np.maximum(counts, 1), centers)
        shifts = ((new - centers) ** 2).reshape(stacked, k * dims).sum(axis=1).tolist()
        going = []
        for slot, restart in enumerate(active):
            if not (shifts[slot] <= tolerance or rounds >= max_iterations):
                going.append(slot)
                continue
            # Alone, as in an unstacked fit: a stacked call's last bits
            # depend on a column's place, and restarts that end in one
            # partition must tie in inertia for the earliest to win.
            block = new[slot * k : (slot + 1) * k]
            final = pairwise_sq_distances(matrix, block, a_sq=matrix_sq)
            labels = final.argmin(axis=1)
            fits[restart] = KMeansResult(
                k=k,
                labels=labels,
                centers=block.copy(),
                inertia=float(final[rows, labels].sum()),
                iterations=rounds,
            )
        if len(going) < stacked:  # re-gather only when a restart drops out
            new = new.reshape(stacked, k, dims)[going].reshape(-1, dims)
        centers, active = new, [active[slot] for slot in going]
    return fits, rounds


def _fits(
    matrix: np.ndarray,
    k_values: list[int],
    rng: np.random.Generator | None,
    seed: int | None,
    n_init: int,
    seed_rows: dict[int, np.ndarray],
    max_iterations: int = _MAX_ITERATIONS,
    tolerance: float = _TOLERANCE,
) -> tuple[dict[int, KMeansResult], list[tuple]]:
    """The lowest-inertia restart of every k (ties go to the earliest restart).

    Returns the fits by k and, per fit, ``(k, inertia, iterations,
    rounds, start, seconds)``, timed with :func:`time.perf_counter`.
    Every chain is seeded first. With a ``seed`` each draws from its own
    substream, all in one batched pass; without one, every restart draws
    from ``rng`` after the one before it, so chains are seeded one by one.
    """
    if n_init <= 0:
        raise ClusteringError("n_init must be positive")
    if min(k_values) <= 0:
        raise ClusteringError("k must be positive")
    if max(k_values) > len(matrix):
        raise ClusteringError(f"k={max(k_values)} exceeds the number of samples ({len(matrix)})")
    if max_iterations <= 0:
        raise ClusteringError("max_iterations must be positive")
    ks = [k for k in k_values for _ in range(n_init)]
    if seed is None:
        rng = rng or np.random.default_rng(0)
        picks = [chain for k in ks for chain in _seed(matrix, [k], [rng], seed_rows)]
    else:
        keys = [restart_key(k, restart) for k in k_values for restart in range(n_init)]
        picks = _seed(matrix, ks, [rng_stream(key, seed) for key in keys], seed_rows)
    matrix_sq = row_sq_norms(matrix)
    results, timed = {}, []
    for index, k in enumerate(k_values):
        began = time.perf_counter()
        seeds = matrix[picks[index * n_init : (index + 1) * n_init]]
        fits, rounds = _restarts(matrix, seeds, matrix_sq, max_iterations, tolerance)
        best = results[k] = min(fits, key=lambda fit: fit.inertia)
        timed.append((k, best.inertia, best.iterations, rounds, began, time.perf_counter() - began))
    return results, timed


def _record(timed: list[tuple], process: str) -> None:
    """One ``analyzer.kmeans_fit`` span per fit :func:`_fits` timed, under the open span."""
    for k, inertia, iterations, rounds, began, seconds in timed:
        obs.record_span(
            "analyzer.kmeans_fit", began, seconds,
            k=k, inertia=inertia, iterations=iterations, rounds=rounds, process=process,
        )


def kmeans(
    matrix: np.ndarray,
    k: int,
    rng: np.random.Generator | None = None,
    max_iterations: int = _MAX_ITERATIONS,
    tolerance: float = _TOLERANCE,
    n_init: int = DEFAULT_N_INIT,
    *,
    seed: int | None = None,
) -> KMeansResult:
    """Cluster rows of ``matrix`` into ``k`` groups.

    Runs ``n_init`` independent k-means++ seedings and keeps the lowest
    inertia (ties go to the earliest restart). More restarts make a bad
    local minimum less likely but do not guarantee that SSD falls with
    k: a fit at k can still settle above the fit at k - 1. Passing
    ``rng`` preserves the legacy behaviour of restarts consuming one
    shared sequential stream; passing ``seed`` gives each restart its
    own derived substream (:func:`restart_key`).
    """
    results, timed = _fits(_checked(matrix), [k], rng, seed, n_init, {}, max_iterations, tolerance)
    _record(timed, "caller")
    return results[k]


def sweep_k(
    matrix: np.ndarray,
    k_values: range | list[int] = K_SWEEP,
    rng: np.random.Generator | None = None,
    *,
    seed: int | None = None,
    n_init: int = DEFAULT_N_INIT,
) -> dict[int, KMeansResult]:
    """Run k-means for every feasible k, as the analyzer's stage 2 prescribes.

    Each k is the fit :func:`kmeans` makes; the fits in one process share
    one cache of k-means++ distance rows and one computation of the row
    norms. A seeded sweep of at least ``_HELPER_FLOOR`` work fits half
    of its k values in the helper process when this host allows one and
    BLAS runs one thread.
    """
    matrix = _checked(matrix)
    feasible = [k for k in k_values if k <= matrix.shape[0]]
    if not feasible:
        raise ClusteringError("no feasible k values for the sample count")
    with obs.trace("analyzer.kmeans_sweep", steps=matrix.shape[0]) as span:
        helper = None
        if seed is not None and _ONE_BLAS_THREAD and matrix.shape[0] * sum(feasible) >= _HELPER_FLOOR:
            helper = _running_helper()
        results, attributes = _sweep(matrix, feasible, rng, seed, n_init, helper)
        span.set(k_count=len(results), **attributes)
    return results


def _halves(ks: list[int]) -> tuple[list[int], list[int]]:
    """``ks`` in two sets of near-equal cost, a k costing k: greedy, largest k first."""
    sets, costs = ([], []), [0, 0]
    for k in sorted(ks, reverse=True):
        side = int(costs[1] < costs[0])
        sets[side].append(k)
        costs[side] += k
    return sorted(sets[0]), sorted(sets[1])


def _sweep(
    matrix: np.ndarray,
    ks: list[int],
    rng: np.random.Generator | None,
    seed: int | None,
    n_init: int,
    helper: "_Helper | None",
) -> tuple[dict[int, KMeansResult], dict]:
    """The fits of ``ks`` in k order, half of them in ``helper`` when given one.

    Returns them with the sweep span's attributes. A k's fit is the
    :func:`_fits` call wherever it runs, so the split equals one inline
    call; the helper's half fits here if the helper fails.
    """
    mine, theirs = _halves(ks) if helper is not None else (ks, [])
    sent = bool(theirs) and helper.fit(matrix, theirs, seed, n_init)
    seed_rows: dict[int, np.ndarray] = {}
    try:
        results, timed = _fits(matrix, mine, rng, seed, n_init, seed_rows)
    finally:
        began = time.perf_counter()
        reply = helper.reply() if sent else None  # drained even if this half raised
        waited = time.perf_counter() - began
    _record(timed, "caller")
    if isinstance(reply, Exception):
        raise reply
    helper_rows = 0
    if reply is not None:
        fits, timed, helper_rows = reply
        _record(timed, "helper")
    elif theirs:  # the helper was busy with another thread's sweep, or failed
        fits, timed = _fits(matrix, theirs, rng, seed, n_init, seed_rows)
        _record(timed, "caller")
    if theirs:
        results.update(fits)
    attributes = {
        "seed_rows": len(seed_rows) + helper_rows,
        "helper_k_count": len(theirs) if reply is not None else 0,
        "helper_wait_s": waited,
    }
    return {k: results[k] for k in ks}, attributes


class _Helper:
    """The one process, forked from this one and pinned to another CPU, that fits half a sweep.

    It serves one request at a time over ``conn``: a matrix, k values, a
    seed and ``n_init`` in; the :func:`_fits` result and its cache size
    out, or the exception it raised. ``lock`` is held while a request is
    out. The helper exits when this end of the pipe closes, which the
    kernel does when this process dies.
    """

    def __init__(self, pid: int, conn):
        self.pid, self.conn = pid, conn
        self.lock = threading.Lock()

    def fit(self, matrix: np.ndarray, ks: list[int], seed: int, n_init: int) -> bool:
        """Send one request; False if another thread's request is out or the pipe broke."""
        if not self.lock.acquire(blocking=False):
            return False
        try:
            self.conn.send((matrix, ks, seed, n_init))
        except OSError:
            self.lock.release()
            _stop_helper(failed=True)
            return False
        return True

    def reply(self):
        """The answer to the request sent: a reply, an exception to raise, or None if it failed."""
        try:
            return self.conn.recv()
        except Exception:  # died, broken pipe, or a reply that would not unpickle
            _stop_helper(failed=True)
        except BaseException:  # interrupted mid-reply: the pipe's state is unknown
            _stop_helper(failed=False)
            raise
        finally:
            self.lock.release()
        return None

    def stop(self) -> None:
        """Close the pipe, kill the process and reap it."""
        self.conn.close()
        try:
            os.kill(self.pid, signal.SIGKILL)
            os.waitpid(self.pid, 0)
        except (ProcessLookupError, ChildProcessError):
            pass


_helper: _Helper | None = None
#: Set once this process fits every sweep inline: the host cannot run the
#: helper, or the helper failed or was stopped.
_helper_off = False
_start_lock = threading.Lock()


def _running_helper() -> _Helper | None:
    """This process's helper, forked on first use; None if sweeps must fit inline."""
    global _helper, _helper_off
    with _start_lock:
        if _helper is None and not _helper_off:
            _helper = _start_helper()
            _helper_off = _helper is None
    return _helper


def _stop_helper(failed: bool) -> None:
    """Stop the helper; every later sweep of this process fits inline."""
    global _helper, _helper_off
    helper, _helper, _helper_off = _helper, None, True
    if failed:
        _HELPER_FAILURES.inc()
    if helper is not None:
        helper.stop()


def _current_cpu() -> int:
    """The CPU the calling thread last ran on: field 39 of its ``/proc`` stat line."""
    with open("/proc/thread-self/stat", "rb") as handle:
        return int(handle.read().rsplit(b")", 1)[1].split()[36])


def _quota_cpus() -> float:
    """CPUs the cgroup's CPU quota grants (v2, then v1); infinite without a quota."""
    try:
        with open("/sys/fs/cgroup/cpu.max") as handle:
            quota, period = handle.read().split()
    except (OSError, ValueError):
        try:
            with open("/sys/fs/cgroup/cpu/cpu.cfs_quota_us") as handle:
                quota = handle.read().strip()
            with open("/sys/fs/cgroup/cpu/cpu.cfs_period_us") as handle:
                period = handle.read().strip()
        except OSError:
            return math.inf
    return math.inf if quota in ("max", "-1") else int(quota) / int(period)


def _start_helper() -> _Helper | None:
    """Fork the helper onto a CPU other than this thread's; None if the host leaves one CPU.

    A plain ``os.fork``: the child keeps the loaded modules (no
    re-import), and unlike a ``multiprocessing.Process`` it is in no
    registry that a later fork of this process would inherit and
    terminate at its exit.
    """
    if not (hasattr(os, "fork") and hasattr(os, "sched_setaffinity")):
        return None
    try:
        allowed = os.sched_getaffinity(0)
        if len(allowed) < 2 or _quota_cpus() < 2:
            return None
        cpu = min(allowed - {_current_cpu()})
    except (OSError, ValueError):
        return None
    from multiprocessing.connection import Pipe

    conn, helper_end = Pipe()
    pid = os.fork()
    if pid == 0:
        _serve(helper_end)
    helper_end.close()
    helper = _Helper(pid, conn)
    try:
        os.sched_setaffinity(pid, {cpu})
    except OSError:
        helper.stop()
        return None
    return helper


def _serve(conn) -> None:
    """The helper's whole life: fit each request until the caller hangs up, then exit."""
    status = 1
    try:
        gc.freeze()  # collections here never walk, and so never copy, the caller's objects
        signal.signal(signal.SIGINT, signal.SIG_IGN)  # a terminal's Ctrl-C is the caller's
        # Every inherited descriptor but the helper's own pipe end closes:
        # the caller's end, so recv sees EOF when the caller dies, and any
        # pipe or socket the caller closes later to signal EOF elsewhere.
        keep = conn.fileno()
        os.closerange(3, keep)
        os.closerange(keep + 1, os.sysconf("SC_OPEN_MAX"))
        while True:
            try:
                matrix, ks, seed, n_init = conn.recv()
            except EOFError:
                status = 0
                return
            seed_rows: dict[int, np.ndarray] = {}
            try:
                fits, timed = _fits(matrix, ks, None, seed, n_init, seed_rows)
                reply = (fits, timed, len(seed_rows))
            except Exception as error:  # raised again, typed, in the caller
                reply = error
            conn.send(reply)
    finally:
        os._exit(status)


def _forget_helper() -> None:
    """In a child forked from this process: drop the parent's helper without a word to it."""
    global _helper
    if _helper is not None:
        _helper.conn.close()
    _helper = None


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_forget_helper)
atexit.register(_stop_helper, failed=False)


def elbow_k(sweep: dict[int, float]) -> int:
    """The elbow-selected k of an SSD-per-k series (Section IV-A)."""
    ks = sorted(sweep)
    return ks[find_elbow([float(k) for k in ks], [sweep[k] for k in ks])]


def elbow_fit(results: dict[int, KMeansResult]) -> KMeansResult:
    """The elbow-chosen fit of a :func:`sweep_k` result, taken from the sweep."""
    return results[elbow_k({k: fit.inertia for k, fit in results.items()})]
