"""Host-VM substrate: the Compute Engine VM and its input pipeline."""

from repro.host.data import Dataset
from repro.host.pipeline import BatchCost, BatchPlan, InputPipeline, PipelineConfig
from repro.host.stages import StageKind, StageSpec
from repro.host.vm import HostVM, HostVmSpec

__all__ = [
    "BatchCost",
    "BatchPlan",
    "Dataset",
    "HostVM",
    "HostVmSpec",
    "InputPipeline",
    "PipelineConfig",
    "StageKind",
    "StageSpec",
]
