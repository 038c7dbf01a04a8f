"""The compiled step fold against a per-execution fold.

:func:`_reference_record` is the fold ``ProfileRecord.from_response``
ran before steps were folded from compiled plans: every execution, in
log order, adds its duration to its key's total, a new key starting
from 0.0 and joining the step's keys after the ones already there.
Steps appear in the order their first execution was logged; steps that
carry only metadata follow, in metadata order.

Responses are built by hand, so they reach what a simulated log rarely
does: blocks whose names repeat, events before, between and after
blocks that share their keys, blocks cut mid-step, host entries logged
out of time order, durations of 0.0 and -0.0, and steps that carry
metadata only. Every total is compared by its bits, and every step's
key order as well.
"""

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.core.profiler.record import ProfileRecord
from repro.runtime.events import (
    DeviceKind,
    OpBlock,
    StepKind,
    StepMetadata,
    TraceEvent,
    expand,
)
from repro.runtime.rpc import ProfileResponse

#: Few names, so keys repeat inside a block and across entries.
NAMES = ("fusion", "Reshape", "add", "MapAndBatch")

durations = st.one_of(
    st.just(0.0),
    st.just(-0.0),
    st.sampled_from([0.1, 0.2, 0.3, 1e-3, 7.25]),
    st.floats(0.0, 1e4, allow_nan=False, allow_infinity=False),
)
devices = st.sampled_from([DeviceKind.TPU, DeviceKind.HOST])


@st.composite
def blocks(draw, step):
    size = draw(st.integers(1, 24))
    names = tuple(draw(st.lists(st.sampled_from(NAMES), min_size=size, max_size=size)))
    spans = np.array(draw(st.lists(durations, min_size=size, max_size=size)))
    starts = np.concatenate(([draw(st.floats(0.0, 1e6))], spans[:-1])).cumsum()
    block = OpBlock(names, draw(devices), step, starts, spans)
    if draw(st.booleans()):
        # Cut mid-step, as a capped window cuts a block: the names are a
        # slice and the arrays are views.
        begin = draw(st.integers(0, size - 1))
        block = block.cut(begin, draw(st.integers(begin + 1, size)))
    return block


@st.composite
def events(draw, step):
    # Start times are drawn freely: host entries arrive out of time order.
    return TraceEvent(
        draw(st.sampled_from(NAMES)),
        draw(devices),
        step,
        draw(st.floats(0.0, 1e6)),
        draw(durations),
    )


@st.composite
def responses(draw):
    numbers = draw(st.lists(st.integers(0, 6), min_size=0, max_size=4, unique=True))
    entries = []
    for _ in range(draw(st.integers(0, 12))):
        if not numbers:
            break
        step = draw(st.sampled_from(numbers))
        entries.append(draw(st.one_of(blocks(step), events(step))))
    # Metadata for a subset of the logged steps and for steps with no entries.
    metadata_steps = sorted(
        set(draw(st.lists(st.sampled_from(numbers), max_size=3)) if numbers else ())
        | set(draw(st.lists(st.integers(7, 9), max_size=2)))
    )
    metadata = tuple(
        StepMetadata(
            step=number,
            kind=draw(st.sampled_from(list(StepKind))),
            start_us=float(number),
            end_us=number + 1.0,
            tpu_idle_us=draw(st.floats(0.0, 1.0)),
            mxu_flops=draw(st.floats(0.0, 1e12)),
        )
        for number in metadata_steps
    )
    return ProfileResponse(
        entries=tuple(entries),
        step_metadata=metadata,
        window_start_us=0.0,
        window_end_us=1e6,
        truncated=draw(st.booleans()),
        final=draw(st.booleans()),
    )


def _reference_record(response: ProfileResponse) -> list:
    """Each step as (number, metadata, [(key, device, count, total bits)]), one execution at a time."""
    tables: dict[int, dict] = {}
    for event in expand(response.entries):
        table = tables.setdefault(event.step, {})
        key = (event.name, event.device.value)
        count, total = table.get(key, (0, 0.0))
        table[key] = (count + 1, total + event.duration_us)
    metadata = {meta.step: meta for meta in response.step_metadata}
    numbers = list(tables) + [number for number in metadata if number not in tables]
    return [
        (
            number,
            _metadata(metadata.get(number)),
            [
                (key, DeviceKind(key[1]), count, total.hex())
                for key, (count, total) in tables.get(number, {}).items()
            ],
        )
        for number in numbers
    ]


def _metadata(meta: StepMetadata | None) -> tuple:
    if meta is None:
        return (None, 0.0, 0.0, 0.0, 0.0)
    return (meta.kind, meta.start_us, meta.end_us, meta.tpu_idle_us, meta.mxu_flops)


def _folded(record: ProfileRecord) -> list:
    folded = []
    for number, step in record.steps.items():
        columns = step.columns
        folded.append(
            (
                number,
                (step.kind, step.start_us, step.end_us, step.tpu_idle_us, step.mxu_flops),
                [
                    (key, device, count, total.hex())
                    for key, device, count, total in zip(*columns)
                ],
            )
        )
    return folded


@settings(max_examples=200, deadline=None)
@given(responses())
def test_compiled_fold_matches_the_per_execution_fold(response):
    record = ProfileRecord.from_response(3, response)
    assert _folded(record) == _reference_record(response)
    assert (record.truncated, record.final) == (response.truncated, response.final)
    # A second fold of the same response reuses the cached plans.
    assert _folded(ProfileRecord.from_response(3, response)) == _folded(record)


def test_a_single_negative_zero_becomes_positive_zero():
    block = OpBlock(("add",), DeviceKind.TPU, 0, np.array([0.0]), np.array([-0.0]))
    event = TraceEvent("Reshape", DeviceKind.TPU, 0, 0.0, -0.0)
    response = ProfileResponse((event, block), (), 0.0, 1.0, False, False)
    totals = ProfileRecord.from_response(0, response).steps[0].columns.durations
    assert [total.hex() for total in totals] == ["0x0.0p+0", "0x0.0p+0"]
