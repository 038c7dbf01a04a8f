"""Compiler passes: constant folding, partitioning, fusion."""

import pytest

from repro.graph import ops as opdefs
from repro.graph.builder import GraphBuilder
from repro.graph.constant_folding import fold_constants
from repro.graph.fusion import fuse
from repro.graph.graph import Graph
from repro.graph.ops import Operation, Placement
from repro.graph.partition import partition
from repro.graph.shapes import TensorShape


def test_fold_constant_subexpression():
    b = GraphBuilder()
    c1 = b.const(TensorShape((4, 4)))
    c2 = b.const(TensorShape((4, 4)))
    product = b.matmul(c1, c2, 4, 4, 4)
    b.elementwise(opdefs.RELU, product)
    g = b.build()
    report = fold_constants(g)
    # Both the matmul and (transitively) the relu fold to constants.
    assert report.folded == 2
    assert report.iterations >= 2
    assert all(op.kind is opdefs.CONST for op in g)


def test_fold_preserves_runtime_inputs():
    b = GraphBuilder()
    x = b.infeed(TensorShape((4, 4)))
    w = b.const(TensorShape((4, 4)))
    b.matmul(x, w, 4, 4, 4)
    g = b.build()
    report = fold_constants(g)
    assert report.folded == 0
    assert g.count_kind("MatMul") == 1


def test_fold_never_touches_transfer_ops():
    b = GraphBuilder()
    c = b.const(TensorShape((4,)))
    b.outfeed(c)
    g = b.build()
    fold_constants(g)
    assert g.count_kind("OutfeedEnqueueTuple") == 1


def _mixed_graph() -> Graph:
    g = Graph("mixed")
    g.add(Operation("decode", opdefs.DECODE_AND_CROP_JPEG, shape=TensorShape((8, 8))))
    g.add(
        Operation("cast", opdefs.CAST, inputs=("decode",), shape=TensorShape((8, 8)))
    )
    g.add(Operation("mm", opdefs.MATMUL, inputs=("cast",), shape=TensorShape((8, 8)), flops=8.0))
    g.add(Operation("out", opdefs.OUTFEED_DEQUEUE, inputs=("mm",)))
    return g


def test_partition_places_fixed_ops():
    result = partition(_mixed_graph())
    assert result.assignment["decode"] is Placement.HOST
    assert result.assignment["mm"] is Placement.TPU
    assert result.assignment["out"] is Placement.HOST


def test_partition_flexible_follows_tpu_consumer():
    # cast is EITHER; its consumer mm is TPU, so cast lands on the TPU.
    result = partition(_mixed_graph())
    assert result.assignment["cast"] is Placement.TPU


def test_partition_boundary_edges_carry_bytes():
    result = partition(_mixed_graph())
    assert len(result.infeed_edges) == 1  # decode(host) -> cast(tpu)
    assert result.infeed_edges[0].num_bytes == 8 * 8 * 4
    assert len(result.outfeed_edges) == 1  # mm(tpu) -> out(host)
    assert result.infeed_bytes > 0 and result.outfeed_bytes > 0


def test_fusion_merges_chain():
    b = GraphBuilder()
    x = b.infeed(TensorShape((8, 64)))
    w = b.const(TensorShape((64, 64)))
    h = b.matmul(x, w, 8, 64, 64)
    h = b.elementwise(opdefs.RELU, h)
    h = b.elementwise(opdefs.MUL, h)
    b.outfeed(h)
    g = b.build()
    report = fuse(g)
    assert report.fusions_created == 1
    assert report.ops_fused == 3
    assert g.count_kind("fusion") == 1
    # The fusion preserves total compute.
    fusion_op = next(op for op in g if op.kind is opdefs.FUSION)
    assert fusion_op.flops > 0
    assert fusion_op.attrs["mxu_flops"] == 2 * 8 * 64 * 64


def test_fusion_propagates_calibrated_efficiency():
    b = GraphBuilder()
    x = b.infeed(TensorShape((8, 64)))
    w = b.const(TensorShape((64, 64)))
    h = b.matmul(x, w, 8, 64, 64)
    h.attrs["mxu_efficiency"] = 0.33
    h = b.elementwise(opdefs.RELU, h)
    g = b.build()
    fuse(g)
    fusion_op = next(op for op in g if op.kind is opdefs.FUSION)
    assert fusion_op.attrs["mxu_efficiency"] == pytest.approx(0.33)


def test_fusion_stops_at_fan_out():
    b = GraphBuilder()
    x = b.infeed(TensorShape((8, 8)))
    relu = b.elementwise(opdefs.RELU, x)
    # Two consumers: the chain must not swallow relu.
    b.elementwise(opdefs.MUL, relu)
    b.elementwise(opdefs.TANH, relu)
    g = b.build()
    fuse(g)
    assert g.count_kind("Relu") == 1


def test_fusion_keeps_graph_valid():
    b = GraphBuilder()
    x = b.infeed(TensorShape((8, 64)))
    w = b.const(TensorShape((64, 64)))
    h = b.matmul(x, w, 8, 64, 64)
    h = b.elementwise(opdefs.RELU, h)
    out = b.outfeed(h)
    g = b.build()
    fuse(g)
    g.validate()
    # The outfeed now reads the fusion output.
    assert any(name.endswith(".fusion") for name in g.op(out.name).inputs)


def test_single_op_not_fused():
    b = GraphBuilder()
    x = b.infeed(TensorShape((8, 8)))
    b.elementwise(opdefs.RELU, x)
    g = b.build()
    report = fuse(g)
    assert report.fusions_created == 0


def _figure_workload_graphs():
    from repro.models.registry import PAPER_WORKLOADS, workload

    for key in PAPER_WORKLOADS:
        entry = workload(key)
        batch = entry.model.defaults(entry.dataset).batch_size
        yield f"{key}/train", entry.model.build_train_graph(batch, entry.dataset)
        yield f"{key}/eval", entry.model.build_eval_graph(batch, entry.dataset)


def test_consumer_map_matches_consumers_on_figure_workloads():
    checked = 0
    for label, graph in _figure_workload_graphs():
        fold_constants(graph)
        mapped = graph.consumer_map()
        assert list(mapped) == [op.name for op in graph], label
        for op in graph:
            assert mapped[op.name] == graph.consumers(op.name), (label, op.name)
        checked += 1
    assert checked == 18
