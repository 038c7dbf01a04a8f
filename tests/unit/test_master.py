"""Master compilation: fold → partition → fuse → lower."""

import pytest

from repro.graph import ops as opdefs
from repro.graph.builder import GraphBuilder
from repro.graph.shapes import TensorShape
from repro.runtime.master import compile_graph
from repro.tpu.device import TpuOpCategory
from repro.tpu.specs import TPU_V2, TPU_V3


def _train_like_graph():
    b = GraphBuilder("train")
    x = b.infeed(TensorShape((32, 64)))
    w = b.const(TensorShape((64, 64)))
    h = b.matmul(x, w, 32, 64, 64)
    h = b.elementwise(opdefs.RELU, h)
    h = b.reshape(h, TensorShape((64, 32)))
    b.outfeed(h)
    return b.build()


def test_compile_produces_schedule():
    program = compile_graph(_train_like_graph(), TPU_V2)
    names = [w.name for w in program.tpu_schedule]
    assert "InfeedDequeueTuple" in names
    assert "OutfeedEnqueueTuple" in names
    assert "Reshape" in names
    assert "fusion" in names  # matmul+relu chain fused


def test_schedule_excludes_constants():
    program = compile_graph(_train_like_graph(), TPU_V2)
    assert all(w.name != "Const" for w in program.tpu_schedule)


def test_infeed_outfeed_categories():
    program = compile_graph(_train_like_graph(), TPU_V2)
    categories = {w.name: w.category for w in program.tpu_schedule}
    assert categories["InfeedDequeueTuple"] is TpuOpCategory.INFEED
    assert categories["OutfeedEnqueueTuple"] is TpuOpCategory.OUTFEED


def test_mxu_flops_per_step_preserved():
    graph = _train_like_graph()
    expected = 2 * 32 * 64 * 64
    program = compile_graph(graph, TPU_V2)
    assert program.mxu_flops_per_step == pytest.approx(expected)


def test_explicit_efficiency_attribute_wins():
    b = GraphBuilder()
    x = b.infeed(TensorShape((32, 128)))
    w = b.const(TensorShape((128, 128)))
    mm = b.matmul(x, w, 128, 128, 128)
    mm.attrs["mxu_efficiency"] = 0.2
    b.outfeed(mm)
    program = compile_graph(b.build(), TPU_V2)
    compute = next(w for w in program.tpu_schedule if w.uses_mxu)
    assert compute.efficiency == pytest.approx(0.2)


def test_v3_fill_penalty_reduces_efficiency():
    def schedule_for(spec):
        b = GraphBuilder()
        x = b.infeed(TensorShape((32, 128)))
        w = b.const(TensorShape((128, 128)))
        b.matmul(x, w, 128, 128, 128)
        return compile_graph(b.build(), spec)

    eff_v2 = next(w for w in schedule_for(TPU_V2).tpu_schedule if w.uses_mxu).efficiency
    eff_v3 = next(w for w in schedule_for(TPU_V3).tpu_schedule if w.uses_mxu).efficiency
    assert eff_v3 < eff_v2


def test_compile_time_scales_with_graph_size():
    small = compile_graph(_train_like_graph(), TPU_V2).compile_time_us
    b = GraphBuilder()
    x = b.infeed(TensorShape((8, 8)))
    for _ in range(50):
        x = b.elementwise(opdefs.MUL, x)
    b.outfeed(x)
    large = compile_graph(b.build(), TPU_V2).compile_time_us
    assert large > small


def test_op_names_deduplicated_in_order():
    program = compile_graph(_train_like_graph(), TPU_V2)
    names = program.op_names()
    assert len(names) == len(set(names))
    assert names[0] == "InfeedDequeueTuple"


def test_host_partition_empty_for_pure_tpu_graph():
    program = compile_graph(_train_like_graph(), TPU_V2)
    assert program.host_ops == ()
