"""Phase-signature drift detection for live jobs.

The detection half of the roadmap's SDC item: a job whose *behavior*
changes shows up first as a change in which operators dominate its
steps, long before anything errors. This module watches each live job's
**rolling window mix** — the per-operator shares of time spent in the
steps folded since the previous health sample — and measures its
distance from a baseline. The window is a *delta* of the live
analysis's per-operator duration accumulators between consecutive
observations, so it tracks what the job executed in the last scheduling
round even though the online scan retains no per-step history (and even
when the scan merges an eval or checkpoint excursion into the
surrounding training phase).

Two baselines, in preference order:

* **knowledge base** — when a :class:`TuningKnowledgeBase` is attached
  and holds entries, the baseline is the *nearest* stored signature and
  the distance is 1 minus the paper's Equation 1 set similarity
  (``|A ∩ B| / min(|A|, |B|)`` over top-K operator names — all a stored
  signature carries), so drift means "this job no longer looks like
  anything we have ever tuned";
* **self** — otherwise, the job's first full window mix, compared with
  the *weighted* form of the same overlap: similarity is the summed
  per-operator ``min`` of duration shares, so the distance is the total
  variation between the two mixes. Drift then means "this job stopped
  spending its time the way it started" (an eval or checkpoint
  excursion, or an SDC-corrupted operator mix) — and the weighting sees
  excursions the coarse name-set overlap cannot, because the simulator's
  operator vocabulary barely changes between phases.

Distances land in per-job ``drift:<job_id>`` ring series; the health
monitor's ``PHASE_DRIFT`` rule fires when one exceeds the calibrated
band and resolves when the job returns to its baseline (or completes).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import ObsError

#: Distance above which a window counts as drifted. Calibrated against
#: the fleet workloads at the default chunk size: a healthy training
#: window jitters below ~0.17 against its baseline (incidental ops,
#: queueing variation, the end-of-run checkpoint), while an induced
#: excursion (e.g. a multi-GB checkpoint dominating the window) reads
#: 0.42+. 0.35 splits the gap with margin on both sides.
DEFAULT_DRIFT_DISTANCE = 0.35

#: Operators kept per fingerprint — matches the knowledge base's
#: signature width (``CriticalPhaseDetector.phase_signature`` default).
DEFAULT_FINGERPRINT_K = 8

#: Steps a job must have folded before its fingerprint is trusted.
DEFAULT_MIN_STEPS = 4

#: Relative windowed MXU-throughput drop above which a job reads as an
#: SDC suspect. Calibrated against the fleet workloads: healthy windows
#: jitter within ~0.10 of their pinned baseline rate, while the default
#: fault severity (0.25) reads ~0.25 from either model — a stuck-at
#: fault stretches op durations 1.33x (rate drop 0.25) and a bit flip
#: voids 25% of the window's MXU credit outright. 0.18 splits the gap.
DEFAULT_SDC_DROP = 0.18


@dataclass(frozen=True)
class DriftBand:
    """Calibration of the drift detector."""

    fire_distance: float = DEFAULT_DRIFT_DISTANCE
    top_k: int = DEFAULT_FINGERPRINT_K
    min_steps: int = DEFAULT_MIN_STEPS

    def __post_init__(self) -> None:
        if not 0.0 < self.fire_distance <= 1.0:
            raise ObsError("drift fire_distance must be in (0, 1]")
        if self.top_k <= 0:
            raise ObsError("drift top_k must be positive")
        if self.min_steps < 0:
            raise ObsError("drift min_steps must be >= 0")


def operator_totals(analysis) -> dict[str, float]:
    """Accumulated duration per operator name across all of a job's phases."""
    totals: dict[str, float] = {}
    for phase in analysis.phases.values():
        table = phase.table
        for (name, _), duration in zip(table.index, table.durations):
            totals[name] = totals.get(name, 0.0) + duration
    return totals


def mix_shares(window: dict[str, float]) -> dict[str, float]:
    """Normalize a duration window to per-operator shares summing to 1."""
    total = sum(window.values())
    if total <= 0:
        return {}
    return {name: duration / total for name, duration in window.items()}


def mix_distance(a: dict[str, float], b: dict[str, float]) -> float:
    """Total-variation distance between two share mixes, in [0, 1].

    ``1 - sum(min(share_a, share_b))`` — the weighted counterpart of
    Equation 1's set overlap: identical mixes read 0, disjoint ones 1.
    """
    if not a or not b:
        return 1.0
    overlap = sum(min(share, b[name]) for name, share in a.items() if name in b)
    return min(max(1.0 - overlap, 0.0), 1.0)


def window_fingerprint(
    window: dict[str, float], top_k: int = DEFAULT_FINGERPRINT_K
) -> frozenset[str]:
    """The ``top_k`` operators of one delta window, by time spent.

    Ties break by name so the fingerprint is deterministic regardless of
    dict iteration order. This is the set shape knowledge-base
    signatures store, used for the KB-nearest baseline.
    """
    ranked = sorted(window.items(), key=lambda item: (-item[1], item[0]))
    return frozenset(name for name, _ in ranked[:top_k])


def phase_fingerprint(analysis, top_k: int = DEFAULT_FINGERPRINT_K) -> frozenset[str]:
    """The job's *current* phase as an operator-name set.

    Reads the phase the online scan attributed the most recent step to
    and returns its ``top_k`` operators by accumulated duration. Coarser
    than the delta window (the scan merges similar-looking excursions
    into the surrounding phase); kept for KB-signature comparisons and
    offline summaries. Empty before any step has folded.
    """
    labels = analysis.labels
    if not labels:
        return frozenset()
    phase = analysis.phases.get(labels[-1])
    if phase is None:
        return frozenset()
    return frozenset(phase.top_operator_names(top_k))


def dominant_fingerprint(analysis, top_k: int = DEFAULT_FINGERPRINT_K) -> frozenset[str]:
    """The job's longest-running phase as an operator-name set.

    Offline summary view; NOT the live self-baseline — early in a run
    the one-off initialization phase still dominates by accumulated
    duration, so pinning a baseline to it would read every healthy
    training step as fully drifted.
    """
    phases = analysis.phases_by_duration()
    if not phases:
        return frozenset()
    return frozenset(phases[0].top_operator_names(top_k))


class PhaseDriftDetector:
    """Tracks windowed mix distance from baseline for every live job."""

    def __init__(self, knowledge=None, band: DriftBand | None = None):
        self.band = band or DriftBand()
        self.knowledge = knowledge
        self._totals: dict[str, dict[str, float]] = {}
        self._baselines: dict[str, dict[str, float]] = {}
        self.last_distance: dict[str, float] = {}

    def baseline(self, job_id: str) -> dict[str, float] | None:
        """The self-baseline share mix pinned for ``job_id`` (if any)."""
        return self._baselines.get(job_id)

    def _nearest_distance(self, fingerprint: frozenset[str]) -> float | None:
        if self.knowledge is None or not len(self.knowledge):
            return None
        nearest = self.knowledge.nearest(fingerprint)
        if nearest is None:
            return None
        return 1.0 - nearest.similarity

    def observe(self, job_id: str, analysis) -> float | None:
        """Fold one look at a live job; returns its drift distance.

        The first qualifying look only primes the delta accumulator (the
        history up to it still includes initialization one-offs) and
        returns None; every later look measures the operator time spent
        since the previous one. None also while the job is too young
        (fewer than ``min_steps`` folded steps), and an idle window (no
        operator time since the last look) holds the previous distance
        rather than inventing a fresh reading.
        """
        if analysis.steps_seen < self.band.min_steps:
            return None
        totals = operator_totals(analysis)
        previous = self._totals.get(job_id)
        self._totals[job_id] = totals
        if previous is None:
            return None
        window = {
            name: duration - previous.get(name, 0.0)
            for name, duration in totals.items()
            if duration - previous.get(name, 0.0) > 0.0
        }
        if not window:
            return self.last_distance.get(job_id)
        shares = mix_shares(window)
        distance = self._nearest_distance(
            window_fingerprint(window, self.band.top_k)
        )
        if distance is None:
            baseline = self._baselines.get(job_id)
            if baseline is None:
                # The first full window is the job's steady training mix
                # — pin it, so a healthy run reads ~0 and an eval or
                # checkpoint excursion reads high until the job returns
                # to its baseline mix.
                self._baselines[job_id] = shares
                baseline = shares
            distance = mix_distance(shares, baseline)
        self.last_distance[job_id] = distance
        return distance

    def forget(self, job_id: str) -> None:
        """Drop a job's window state, baseline, and last distance."""
        self._totals.pop(job_id, None)
        self._baselines.pop(job_id, None)
        self.last_distance.pop(job_id, None)


class UtilizationAnomalyDetector:
    """Tracks each live job's windowed MXU-throughput drop from baseline.

    The SDC signature the mix detector cannot see: a silently corrupted
    chip keeps executing the *same operators* (so the phase fingerprint
    and mix shares barely move for a pure accumulator fault) but
    delivers fewer useful MXU FLOPs per microsecond — stretched op
    durations for a stuck-at fault, voided accumulation credit for a
    bit flip. Like :class:`PhaseDriftDetector`, each look measures the
    *delta* window since the previous one (``mxu_flops`` over
    ``total_duration_us``) and pins the first full window as the job's
    healthy throughput baseline; the score is the relative drop from
    that baseline, clamped to [0, 1]. Peak FLOPs cancel out of the
    ratio, so the score is generation-independent.

    Scores land in per-chip ``chip_sdc:<chip>`` rings (the health
    monitor takes the max over a chip's resident jobs) and feed the
    ``CHIP_SDC_SUSPECT`` rule.
    """

    def __init__(self, band: DriftBand | None = None, fire_drop: float = DEFAULT_SDC_DROP):
        if not 0.0 < fire_drop <= 1.0:
            raise ObsError("sdc fire_drop must be in (0, 1]")
        self.band = band or DriftBand()
        self.fire_drop = fire_drop
        self._previous: dict[str, tuple[float, float]] = {}
        self._baselines: dict[str, float] = {}
        self.last_drop: dict[str, float] = {}

    def baseline(self, job_id: str) -> float | None:
        """The pinned healthy FLOPs/us rate for ``job_id`` (if any)."""
        return self._baselines.get(job_id)

    def observe(self, job_id: str, analysis) -> float | None:
        """Fold one look at a live job; returns its utilization drop.

        Mirrors :meth:`PhaseDriftDetector.observe`: None while the job
        is too young or on the priming look, and a window with no
        elapsed device time holds the previous score.
        """
        if analysis.steps_seen < self.band.min_steps:
            return None
        totals = (float(analysis.mxu_flops), float(analysis.total_duration_us))
        previous = self._previous.get(job_id)
        self._previous[job_id] = totals
        if previous is None:
            return None
        flops = totals[0] - previous[0]
        duration = totals[1] - previous[1]
        if duration <= 0.0:
            return self.last_drop.get(job_id)
        rate = max(flops, 0.0) / duration
        baseline = self._baselines.get(job_id)
        if baseline is None:
            # The first full window is the job's healthy throughput —
            # pin it, so a degraded chip reads as a persistent drop
            # rather than shifting its own baseline down.
            self._baselines[job_id] = rate
            baseline = rate
        if baseline <= 0.0:
            drop = 0.0
        else:
            drop = min(max(1.0 - rate / baseline, 0.0), 1.0)
        self.last_drop[job_id] = drop
        return drop

    def forget(self, job_id: str) -> None:
        """Drop a job's window state, baseline, and last score."""
        self._previous.pop(job_id, None)
        self._baselines.pop(job_id, None)
        self.last_drop.pop(job_id, None)
