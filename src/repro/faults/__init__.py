"""Deterministic fault injection for the profile pipeline.

See :mod:`repro.faults.plan` for the declarative fault model and
:mod:`repro.faults.inject` for the shims that apply a plan to the
profile-service and record-ingest boundaries. ``docs/robustness.md``
documents the fault taxonomy and the recovery guarantees end to end.
"""

from repro.faults.inject import (
    FaultyProfileService,
    RecordTransit,
    corrupt_frame,
    count_injected,
    truncate_frame,
)
from repro.faults.plan import (
    LOSSLESS_KINDS,
    FaultInjector,
    FaultKind,
    FaultPlan,
    FaultSpec,
    FaultTarget,
    load_plan,
    save_plan,
)
from repro.tpu.sdc import SdcFaultModel, SdcInjector, SdcSpec

__all__ = [
    "FaultInjector",
    "FaultKind",
    "FaultPlan",
    "FaultSpec",
    "FaultTarget",
    "FaultyProfileService",
    "LOSSLESS_KINDS",
    "RecordTransit",
    "SdcFaultModel",
    "SdcInjector",
    "SdcSpec",
    "corrupt_frame",
    "count_injected",
    "load_plan",
    "save_plan",
    "truncate_frame",
]
