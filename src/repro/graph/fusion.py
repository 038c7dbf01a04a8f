"""XLA-style fusion pass.

XLA combines compute-intensive TPU operations into ``fusion`` kernels to
reduce memory traffic; the paper finds the resulting ``fusion`` operator
to be the single most time-consuming TPU op across workloads. This pass
merges maximal producer→consumer *chains* of fusable ops into one
``fusion`` node per chain. Chain fusion (each member's output consumed
only by the next member) is the cycle-safe core of what XLA does and is
enough to reproduce the observed operator mix.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.graph import ops as opdefs
from repro.graph.graph import Graph
from repro.graph.ops import Operation


@dataclass(frozen=True)
class FusionReport:
    """Summary of one fusion run."""

    fusions_created: int
    ops_fused: int


def _chain_from(
    graph: Graph,
    consumers: dict[str, list[Operation]],
    start: Operation,
    fused: set[str],
) -> list[Operation]:
    """Grow the longest fusable chain starting at ``start``."""
    chain = [start]
    current = start
    while True:
        readers = consumers[current.name]
        if len(readers) != 1:
            break
        nxt = readers[0]
        if not nxt.kind.fusable or nxt.name in fused:
            break
        # Every other input of the next op must come from outside the chain
        # as a constant, otherwise fusing could bypass a live dependency.
        side_inputs = [name for name in nxt.inputs if name != current.name]
        if any(graph.op(name).kind is not opdefs.CONST for name in side_inputs):
            break
        chain.append(nxt)
        current = nxt
    return chain


def fuse(graph: Graph) -> FusionReport:
    """Fuse compute chains in place; returns what was fused.

    One consumer map serves the whole pass. Each fusion updates it the
    way the graph changes, keeping every list in graph order: the tail's
    consumers now read the fusion op, and the chain's producers lose the
    members and gain the fusion op, which joins the graph last.
    """
    order = graph.topological_order()  # validates: unknown inputs, cycles
    consumers = graph.consumer_map()
    fused: set[str] = set()
    fusions_created = 0
    ops_fused = 0
    for op in order:
        if op.name in fused or not op.kind.fusable:
            continue
        chain = _chain_from(graph, consumers, op, fused)
        if len(chain) < 2:
            continue
        member_names = [member.name for member in chain]
        fused.update(member_names)
        # External inputs: everything the chain reads that it doesn't produce.
        external_inputs = tuple(
            dict.fromkeys(
                name
                for member in chain
                for name in member.inputs
                if name not in member_names
            )
        )
        mxu_members = [member for member in chain if member.kind.uses_mxu]
        mxu_flops = sum(member.flops for member in mxu_members)
        attrs = {"members": tuple(member_names), "mxu_flops": mxu_flops}
        # Preserve calibrated efficiency: the fused kernel achieves the
        # FLOP-weighted efficiency of the matrix ops it absorbed.
        weighted = [
            (member.flops, float(member.attrs["mxu_efficiency"]))
            for member in mxu_members
            if "mxu_efficiency" in member.attrs and member.flops > 0
        ]
        if weighted and mxu_flops > 0:
            attrs["mxu_efficiency"] = sum(f * e for f, e in weighted) / sum(
                f for f, _ in weighted
            )
        fusion_op = Operation(
            name=f"{chain[0].name}.fusion",
            kind=opdefs.FUSION,
            inputs=external_inputs,
            shape=chain[-1].shape,
            flops=sum(member.flops for member in chain),
            attrs=attrs,
        )
        # Rewire consumers of the chain tail to read the fusion output.
        tail = chain[-1].name
        tail_consumers = consumers[tail]
        for consumer in tail_consumers:
            consumer.inputs = tuple(
                fusion_op.name if name == tail else name for name in consumer.inputs
            )
        members = set(member_names)
        for name in member_names:
            del graph._ops[name]  # noqa: SLF001 - pass owns the graph
            del consumers[name]
        graph.add(fusion_op)
        consumers[fusion_op.name] = tail_consumers
        for name in external_inputs:
            readers = consumers[name]
            readers[:] = [reader for reader in readers if reader.name not in members]
            readers.append(fusion_op)
        fusions_created += 1
        ops_fused += len(chain)
    graph.validate()
    return FusionReport(fusions_created=fusions_created, ops_fused=ops_fused)
