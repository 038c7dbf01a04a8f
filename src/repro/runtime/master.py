"""Master: graph placement, optimization, and lowering.

The TensorFlow master receives the client's graph, applies optimizations
(constant folding), partitions it across devices, and hands executable
subgraphs to workers (Section II-B). On TPUs the XLA compiler additionally
fuses compute chains. :func:`compile_graph` runs that pipeline and lowers
the TPU partition into the per-step op schedule the device model executes.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.graph.constant_folding import FoldingReport, fold_constants
from repro.graph.fusion import FusionReport, fuse
from repro.graph.graph import Graph
from repro.graph.ops import CostKind, Operation
from repro.graph.partition import PartitionResult, partition
from repro.tpu.device import TpuOpCategory, TpuOpWork
from repro.tpu.mxu import MatmulShape, MxuModel
from repro.tpu.slice import TpuSliceSpec
from repro.tpu.specs import TpuChipSpec, TpuGeneration, chip_spec

# Fraction of chip peak available to non-MXU (vector) compute.
_VPU_PEAK_FRACTION = 0.04
# Fixed kernel-launch overhead per TPU op.
_KERNEL_LAUNCH_US = 2.0
# Per-step RPC/DMA setup latency of the infeed path (network-attached TPU).
_INFEED_LATENCY_US = 5_000.0
# Per-step host synchronization latency of the outfeed path.
_OUTFEED_SYNC_US = 4_000.0
# TPUv3 doubles the MXU count; the extra units are harder to keep filled,
# so achieved efficiency per FLOP of peak drops (the paper's QANet/RetinaNet
# flop-utilization numbers imply well under peak scaling).
_V3_FILL_PENALTY = 0.62
# Master-side compile cost per graph node (contributes to the INIT phase).
_COMPILE_US_PER_OP = 250.0


@dataclass(frozen=True)
class CompiledProgram:
    """A lowered, per-step executable program.

    Read-only, so one program can serve every session that runs it.

    Attributes:
        tpu_schedule: ordered TPU op work items executed each step; a
            tuple, so a device's cost plan for it can never go stale.
        host_ops: host-placed graph operations (run by the host worker).
        partition: the host/TPU split with boundary edges.
        folding: what constant folding removed.
        fusion: what the XLA-style pass fused.
        compile_time_us: simulated master/XLA compilation time.
    """

    tpu_schedule: tuple[TpuOpWork, ...]
    host_ops: tuple[Operation, ...]
    partition: PartitionResult
    folding: FoldingReport
    fusion: FusionReport
    compile_time_us: float

    @property
    def mxu_flops_per_step(self) -> float:
        """MXU FLOPs one step executes (for utilization planning)."""
        return sum(work.flops for work in self.tpu_schedule if work.uses_mxu)

    def op_names(self) -> list[str]:
        """Distinct TPU operator names in schedule order."""
        return list(dict.fromkeys(work.name for work in self.tpu_schedule))


def _mxu_efficiency(op: Operation, mxu: MxuModel) -> float:
    """Achievable MXU efficiency for an op.

    An explicit ``mxu_efficiency`` attribute wins: workload models use it
    to calibrate achieved-vs-peak FLOPs to published utilization numbers
    (layout, HBM pressure, and per-core batch effects the pure shape
    model cannot see). Otherwise the systolic shape model decides, with a
    default for convolutions/fusions that map onto the MXU well.
    """
    if "mxu_efficiency" in op.attrs:
        return float(op.attrs["mxu_efficiency"])
    if all(key in op.attrs for key in ("m", "k", "n")):
        shape = MatmulShape(
            m=op.attrs["m"], k=op.attrs["k"], n=op.attrs["n"], batch=op.attrs.get("batch", 1)
        )
        return mxu.shape_efficiency(shape)
    return 0.55


def _lower_compute(op: Operation, spec: TpuChipSpec, mxu: MxuModel) -> TpuOpWork:
    if op.kind.uses_mxu:
        mxu_flops = float(op.attrs.get("mxu_flops", op.flops))
    else:
        mxu_flops = 0.0
    vector_flops = max(0.0, op.flops - mxu_flops)
    vector_us = vector_flops / (spec.peak_flops * _VPU_PEAK_FRACTION) * 1e6
    efficiency = _mxu_efficiency(op, mxu) if mxu_flops else 1.0
    if spec.generation is TpuGeneration.V3:
        efficiency *= _V3_FILL_PENALTY
    return TpuOpWork(
        name=op.kind.name,
        category=TpuOpCategory.COMPUTE,
        flops=mxu_flops,
        efficiency=efficiency,
        uses_mxu=mxu_flops > 0,
        fixed_us=_KERNEL_LAUNCH_US + vector_us,
    )


def _lower_memory(op: Operation) -> TpuOpWork:
    return TpuOpWork(
        name=op.kind.name,
        category=TpuOpCategory.MEMORY,
        num_bytes=op.output_bytes,
        fixed_us=_KERNEL_LAUNCH_US,
    )


def compile_target(
    generation: TpuGeneration | str | TpuChipSpec | TpuSliceSpec,
) -> TpuChipSpec | TpuSliceSpec:
    """What a graph compiles against: a slice as given, else its chip spec."""
    if isinstance(generation, TpuSliceSpec):
        return generation
    return chip_spec(generation)


def compile_graph(
    graph: Graph,
    spec: TpuChipSpec | TpuSliceSpec,
) -> CompiledProgram:
    """Optimize, partition, fuse, and lower a model graph.

    ``spec`` may be a single chip or a data-parallel :class:`TpuSliceSpec`;
    slices cost ops against the aggregate device (timing-equivalent to
    sharding the batch) and pay a ring all-reduce over the ICI for the
    gradient exchange.
    """
    slice_spec: TpuSliceSpec | None = None
    if isinstance(spec, TpuSliceSpec):
        slice_spec = spec
        spec = spec.aggregate_chip_spec()
    folding = fold_constants(graph)
    part = partition(graph)

    # Fuse only the TPU side, the way XLA does: build a TPU-only view,
    # fuse it, and keep the host ops untouched.
    tpu_graph = Graph(f"{graph.name}/tpu")
    tpu_names = {op.name for op in part.tpu_ops}
    for op in part.tpu_ops:
        kept_inputs = tuple(name for name in op.inputs if name in tpu_names)
        tpu_graph.add(
            Operation(
                name=op.name,
                kind=op.kind,
                inputs=kept_inputs,
                shape=op.shape,
                flops=op.flops,
                attrs=dict(op.attrs),
            )
        )
    fusion_report = fuse(tpu_graph)

    mxu = MxuModel(spec)
    schedule: list[TpuOpWork] = []
    for op in tpu_graph.topological_order():
        cost = op.kind.cost
        if cost is CostKind.CONSTANT:
            continue
        if cost is CostKind.COMPUTE:
            schedule.append(_lower_compute(op, spec, mxu))
        elif cost is CostKind.MEMORY:
            if op.kind.name == "all-reduce" and slice_spec is not None:
                schedule.append(
                    TpuOpWork(
                        name=op.kind.name,
                        category=TpuOpCategory.SYNC,
                        fixed_us=_KERNEL_LAUNCH_US
                        + slice_spec.all_reduce_us(op.output_bytes),
                    )
                )
            else:
                schedule.append(_lower_memory(op))
        elif cost is CostKind.TRANSFER:
            category = (
                TpuOpCategory.INFEED
                if op.kind.name in ("InfeedDequeueTuple", "Infeed")
                else TpuOpCategory.OUTFEED
            )
            latency = (
                _INFEED_LATENCY_US
                if category is TpuOpCategory.INFEED
                else _OUTFEED_SYNC_US
            )
            schedule.append(
                TpuOpWork(
                    name=op.kind.name,
                    category=category,
                    num_bytes=op.output_bytes,
                    fixed_us=latency,
                )
            )
        else:  # CONTROL or host-ish ops that leaked onto the TPU partition
            schedule.append(
                TpuOpWork(name=op.kind.name, category=TpuOpCategory.SYNC, fixed_us=_KERNEL_LAUNCH_US)
            )

    compile_time = _COMPILE_US_PER_OP * max(len(graph), 1)
    return CompiledProgram(
        tpu_schedule=tuple(schedule),
        host_ops=part.host_ops,
        partition=part,
        folding=folding,
        fusion=fusion_report,
        compile_time_us=compile_time,
    )
