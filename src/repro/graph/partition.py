"""Host/TPU graph partitioner.

The TensorFlow master places graph nodes on devices and splits the graph
into subgraphs for the workers (Section II-B). This partitioner assigns
every op to the host or the TPU (flexible ops follow their consumers),
then reports the cross-device edges — each host→TPU edge needs an infeed
and each TPU→host edge an outfeed, which is where the paper's dominant
data-exchange operators enter the execution.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import PartitionError
from repro.graph.graph import Graph
from repro.graph.ops import Operation, Placement


@dataclass(frozen=True)
class CrossDeviceEdge:
    """One producer→consumer edge that crosses the host/TPU boundary."""

    producer: str
    consumer: str
    num_bytes: float


@dataclass
class PartitionResult:
    """Outcome of partitioning: per-device op lists and boundary edges."""

    host_ops: list[Operation] = field(default_factory=list)
    tpu_ops: list[Operation] = field(default_factory=list)
    infeed_edges: list[CrossDeviceEdge] = field(default_factory=list)  # host → TPU
    outfeed_edges: list[CrossDeviceEdge] = field(default_factory=list)  # TPU → host
    assignment: dict[str, Placement] = field(default_factory=dict)

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

    result = PartitionResult(assignment=assignment)
    for op in order:
        target = result.tpu_ops if assignment[op.name] is Placement.TPU else result.host_ops
        target.append(op)
        for input_name in op.inputs:
            producer_place = assignment[input_name]
            consumer_place = assignment[op.name]
            if producer_place is consumer_place:
                continue
            edge = CrossDeviceEdge(
                producer=input_name,
                consumer=op.name,
                num_bytes=graph.op(input_name).output_bytes,
            )
            if consumer_place is Placement.TPU:
                result.infeed_edges.append(edge)
            else:
                result.outfeed_edges.append(edge)
    return result
