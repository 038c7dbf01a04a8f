"""Host/TPU graph partitioner.

The TensorFlow master places graph nodes on devices and splits the graph
into subgraphs for the workers (Section II-B). This partitioner assigns
every op to the host or the TPU (flexible ops follow their consumers),
then reports the cross-device edges — each host→TPU edge needs an infeed
and each TPU→host edge an outfeed, which is where the paper's dominant
data-exchange operators enter the execution.
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass
from types import MappingProxyType

from repro.errors import PartitionError
from repro.graph.graph import Graph
from repro.graph.ops import Operation, Placement


@dataclass(frozen=True)
class CrossDeviceEdge:
    """One producer→consumer edge that crosses the host/TPU boundary."""

    producer: str
    consumer: str
    num_bytes: float


@dataclass(frozen=True)
class PartitionResult:
    """Outcome of partitioning: per-device ops and boundary edges.

    Read-only, like the compiled program that holds it.
    """

    host_ops: tuple[Operation, ...]
    tpu_ops: tuple[Operation, ...]
    infeed_edges: tuple[CrossDeviceEdge, ...]  # host → TPU
    outfeed_edges: tuple[CrossDeviceEdge, ...]  # TPU → host
    assignment: Mapping[str, Placement]

    @property
    def infeed_bytes(self) -> float:
        """Total bytes crossing into the TPU per execution."""
        return sum(edge.num_bytes for edge in self.infeed_edges)

    @property
    def outfeed_bytes(self) -> float:
        """Total bytes crossing back to the host per execution."""
        return sum(edge.num_bytes for edge in self.outfeed_edges)


def partition(graph: Graph) -> PartitionResult:
    """Assign every op to a device and collect boundary edges."""
    order = graph.topological_order()  # validates: unknown inputs, cycles
    consumers = graph.consumer_map()
    assignment: dict[str, Placement] = {}

    # Fixed placements first.
    flexible: list[Operation] = []
    for op in order:
        if op.kind.placement is Placement.EITHER:
            flexible.append(op)
        else:
            assignment[op.name] = op.kind.placement

    # Flexible ops follow their consumers: if any consumer is (or resolves
    # to) the TPU, the op runs on the TPU to avoid an extra transfer.
    # Process in reverse topological order so consumer placements are known.
    for op in reversed(order):
        if op.name in assignment:
            continue
        consumer_placements = {
            assignment.get(consumer.name, Placement.EITHER)
            for consumer in consumers[op.name]
        }
        if Placement.TPU in consumer_placements:
            assignment[op.name] = Placement.TPU
        elif Placement.HOST in consumer_placements:
            assignment[op.name] = Placement.HOST
        else:
            assignment[op.name] = Placement.TPU  # dangling flexible op: accelerate it
    if len(assignment) != len(order):
        missing = [op.name for op in order if op.name not in assignment]
        raise PartitionError(f"unplaced operations: {missing}")

    ops: dict[Placement, list[Operation]] = {Placement.HOST: [], Placement.TPU: []}
    edges: dict[Placement, list[CrossDeviceEdge]] = {Placement.HOST: [], Placement.TPU: []}
    for op in order:
        ops[assignment[op.name]].append(op)
        for input_name in op.inputs:
            producer_place = assignment[input_name]
            consumer_place = assignment[op.name]
            if producer_place is consumer_place:
                continue
            edges[consumer_place].append(
                CrossDeviceEdge(
                    producer=input_name,
                    consumer=op.name,
                    num_bytes=graph.op(input_name).output_bytes,
                )
            )
    return PartitionResult(
        host_ops=tuple(ops[Placement.HOST]),
        tpu_ops=tuple(ops[Placement.TPU]),
        infeed_edges=tuple(edges[Placement.TPU]),
        outfeed_edges=tuple(edges[Placement.HOST]),
        assignment=MappingProxyType(assignment),
    )
