"""Run comparison tooling.

The paper's analysis repeatedly contrasts pairs of runs — TPUv2 against
TPUv3, full against reduced datasets, default against optimized
pipelines. This module makes those comparisons first-class: it aligns
two profiled runs' operator statistics and headline metrics and reports
the deltas, so "what changed between these runs?" is one call instead of
ad-hoc spreadsheet work.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.analyzer.features import merge_records
from repro.core.profiler.record import ProfileRecord
from repro.errors import AnalyzerError
from repro.runtime.events import DeviceKind
from repro.runtime.session import SessionSummary


@dataclass(frozen=True)
class OperatorDelta:
    """One operator's time in each run and the ratio between them."""

    name: str
    device: DeviceKind
    duration_a_us: float
    duration_b_us: float

    @property
    def ratio(self) -> float:
        """B over A (>1 means the operator got more expensive)."""
        if self.duration_a_us <= 0.0:
            return float("inf") if self.duration_b_us > 0.0 else 1.0
        return self.duration_b_us / self.duration_a_us

    @property
    def delta_us(self) -> float:
        return self.duration_b_us - self.duration_a_us


@dataclass(frozen=True)
class RunComparison:
    """Aligned view of two runs ("A" is the reference, "B" the subject)."""

    label_a: str
    label_b: str
    summary_a: SessionSummary
    summary_b: SessionSummary
    operator_deltas: tuple[OperatorDelta, ...]

    @property
    def speedup(self) -> float:
        """Wall-time speedup of B relative to A (>1 means B is faster)."""
        if self.summary_b.wall_us <= 0:
            return float("inf")
        return self.summary_a.wall_us / self.summary_b.wall_us

    @property
    def idle_delta(self) -> float:
        """Idle-fraction change (B minus A)."""
        return self.summary_b.tpu_idle_fraction - self.summary_a.tpu_idle_fraction

    @property
    def mxu_delta(self) -> float:
        """MXU-utilization change (B minus A)."""
        return self.summary_b.mxu_utilization - self.summary_a.mxu_utilization

    def biggest_movers(self, n: int = 5, device: DeviceKind | None = None) -> list[OperatorDelta]:
        """Operators whose absolute time changed the most."""
        deltas = [
            d for d in self.operator_deltas if device is None or d.device is device
        ]
        return sorted(deltas, key=lambda d: -abs(d.delta_us))[:n]

    def format(self, top: int = 5) -> str:
        """A human-readable comparison block."""
        lines = [
            f"A = {self.label_a}, B = {self.label_b}",
            f"speedup (A/B wall): {self.speedup:.3f}x",
            f"idle: {self.summary_a.tpu_idle_fraction:.1%} -> "
            f"{self.summary_b.tpu_idle_fraction:.1%} ({self.idle_delta:+.1%})",
            f"MXU : {self.summary_a.mxu_utilization:.1%} -> "
            f"{self.summary_b.mxu_utilization:.1%} ({self.mxu_delta:+.1%})",
            "biggest operator movers (|delta time|):",
        ]
        for delta in self.biggest_movers(top):
            lines.append(
                f"  {delta.device.value:4s} {delta.name:32s} "
                f"{delta.duration_a_us / 1e6:9.2f}s -> {delta.duration_b_us / 1e6:9.2f}s "
                f"({delta.ratio:6.2f}x)"
            )
        return "\n".join(lines)


def _operator_totals(records: list[ProfileRecord]) -> dict[tuple[str, DeviceKind], float]:
    totals: dict[tuple[str, DeviceKind], float] = {}
    for step in merge_records(records):
        table = step.columns
        for (name, _), device, duration in zip(table.keys, table.devices, table.durations):
            key = (name, device)
            totals[key] = totals.get(key, 0.0) + duration
    return totals


def compare_runs(
    label_a: str,
    summary_a: SessionSummary,
    records_a: list[ProfileRecord],
    label_b: str,
    summary_b: SessionSummary,
    records_b: list[ProfileRecord],
) -> RunComparison:
    """Align two profiled runs and compute per-operator deltas."""
    if not records_a or not records_b:
        raise AnalyzerError("both runs need profile records to compare")
    totals_a = _operator_totals(records_a)
    totals_b = _operator_totals(records_b)
    deltas = []
    for key in sorted(set(totals_a) | set(totals_b), key=lambda k: (k[1].value, k[0])):
        name, device = key
        deltas.append(
            OperatorDelta(
                name=name,
                device=device,
                duration_a_us=totals_a.get(key, 0.0),
                duration_b_us=totals_b.get(key, 0.0),
            )
        )
    return RunComparison(
        label_a=label_a,
        label_b=label_b,
        summary_a=summary_a,
        summary_b=summary_b,
        operator_deltas=tuple(deltas),
    )
