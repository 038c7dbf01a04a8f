"""Computational-graph container.

A :class:`Graph` owns a set of named operations connected by producer →
consumer edges. It validates the wiring (inputs exist, no cycles) and
provides the topological order and traversal helpers that every pass
(constant folding, partitioning, fusion) builds on.
"""

from __future__ import annotations

from collections import deque
from types import MappingProxyType
from typing import Iterator

from repro.errors import GraphError
from repro.graph.ops import Operation


class Graph:
    """A directed acyclic graph of :class:`Operation` nodes."""

    def __init__(self, name: str = "graph"):
        self._name = name
        self._ops: dict[str, Operation] = {}

    @property
    def name(self) -> str:
        """The graph's name, fixed at construction."""
        return self._name

    # --- construction ------------------------------------------------------

    def freeze(self) -> Graph:
        """Make the graph read-only, so it can be shared; returns it.

        Adding or removing an op then raises :class:`GraphError`, and a
        pass that would rewrite the graph fails. The ops themselves are
        not frozen; compiling never edits them (it replaces the ops it
        folds and fuses a copy of the TPU side).
        """
        self._ops = MappingProxyType(self._ops)
        return self

    @property
    def frozen(self) -> bool:
        """Whether :meth:`freeze` was called."""
        return isinstance(self._ops, MappingProxyType)

    def _check_mutable(self) -> None:
        if self.frozen:
            raise GraphError(f"graph {self.name!r} is frozen")

    def add(self, op: Operation) -> Operation:
        """Add an operation; duplicate names are rejected."""
        self._check_mutable()
        if op.name in self._ops:
            raise GraphError(f"duplicate operation name {op.name!r}")
        self._ops[op.name] = op
        return op

    def remove(self, name: str) -> None:
        """Remove an op; fails if other ops still consume it."""
        self._check_mutable()
        if name not in self._ops:
            raise GraphError(f"unknown operation {name!r}")
        for other in self._ops.values():
            if other.name != name and name in other.inputs:
                raise GraphError(
                    f"cannot remove {name!r}: still consumed by {other.name!r}"
                )
        del self._ops[name]

    # --- lookup --------------------------------------------------------------

    def __contains__(self, name: str) -> bool:
        return name in self._ops

    def __len__(self) -> int:
        return len(self._ops)

    def __iter__(self) -> Iterator[Operation]:
        return iter(self._ops.values())

    def op(self, name: str) -> Operation:
        """Fetch an operation by name."""
        try:
            return self._ops[name]
        except KeyError as exc:
            raise GraphError(f"unknown operation {name!r}") from exc

    def operations(self) -> list[Operation]:
        """All operations in insertion order."""
        return list(self._ops.values())

    def consumers(self, name: str) -> list[Operation]:
        """Operations that read the named op's output."""
        self.op(name)  # validate
        return [op for op in self._ops.values() if name in op.inputs]

    def consumer_map(self) -> dict[str, list[Operation]]:
        """Every op's consumers, as :meth:`consumers` lists them, in one pass.

        Passes that look up consumers once per op use this map instead of
        rescanning the graph on every lookup.
        """
        consumers: dict[str, list[Operation]] = {name: [] for name in self._ops}
        for op in self._ops.values():
            for input_name in dict.fromkeys(op.inputs):
                if input_name in consumers:
                    consumers[input_name].append(op)
        return consumers

    def producers(self, name: str) -> list[Operation]:
        """Operations whose outputs the named op reads."""
        return [self.op(input_name) for input_name in self.op(name).inputs]

    # --- validation / ordering ---------------------------------------------------

    def validate(self) -> None:
        """Check that all inputs exist and the graph is acyclic."""
        self.topological_order()  # raises on unknown inputs and on cycles

    def topological_order(self) -> list[Operation]:
        """Kahn's algorithm; raises GraphError when a cycle exists."""
        in_degree = {name: 0 for name in self._ops}
        for op in self._ops.values():
            for input_name in op.inputs:
                if input_name not in self._ops:
                    raise GraphError(
                        f"operation {op.name!r} reads unknown input {input_name!r}"
                    )
        for op in self._ops.values():
            in_degree[op.name] = len([i for i in op.inputs if i in self._ops])
        ready = deque(name for name, degree in in_degree.items() if degree == 0)
        order: list[Operation] = []
        consumers: dict[str, list[str]] = {name: [] for name in self._ops}
        for op in self._ops.values():
            for input_name in op.inputs:
                consumers[input_name].append(op.name)
        while ready:
            name = ready.popleft()
            order.append(self._ops[name])
            for consumer in consumers[name]:
                in_degree[consumer] -= 1
                if in_degree[consumer] == 0:
                    ready.append(consumer)
        if len(order) != len(self._ops):
            cyclic = sorted(set(self._ops) - {op.name for op in order})
            raise GraphError(f"graph contains a cycle through {cyclic}")
        return order

    # --- metrics -------------------------------------------------------------------

    def total_flops(self) -> float:
        """Sum of compute work across all ops."""
        return sum(op.flops for op in self._ops.values())

    def count_kind(self, kind_name: str) -> int:
        """Number of ops of a given kind name."""
        return sum(1 for op in self._ops.values() if op.kind.name == kind_name)
