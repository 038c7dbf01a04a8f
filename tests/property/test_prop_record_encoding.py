"""The compiled record encoder against a per-record one.

:func:`_reference_payload` is the encoder ``codec.encode_payload`` ran
before record layouts were compiled: each record builds its own string
table, name-index and device-code columns and packs everything in one
pass. Both must write the same bytes for every record, including
records whose steps hold ``OperatorStats`` dicts, names shared across
steps, a key whose device value disagrees with the device its stats
hold, empty records and steps with no operators. The compiled encoder
must also write the same bytes on a cache hit and after its layout was
evicted.
"""

import struct
from itertools import chain
from operator import attrgetter

from hypothesis import given, settings, strategies as st

from repro.core.profiler import codec
from repro.core.profiler.record import OperatorStats, ProfileRecord, StepStats
from repro.runtime.events import DeviceKind, StepKind
from tests.property.test_prop_serialize import profile_records

_PAYLOAD_HEADER = struct.Struct("<qddB")
_U16 = struct.Struct("<H")
_U32 = struct.Struct("<I")
_DEVICES = tuple(DeviceKind)
_KIND_BY_CODE = (None,) + tuple(StepKind)
_STEP_FIELDS = attrgetter("step", "kind", "start_us", "end_us", "tpu_idle_us", "mxu_flops")


def _reference_payload(record: ProfileRecord) -> bytes:
    """One record's payload, its layout built for it alone."""
    flags = (1 if record.truncated else 0) | (2 if record.final else 0)
    steps = list(record.steps.values())
    header = _PAYLOAD_HEADER.pack(
        record.index, record.window_start_us, record.window_end_us, flags
    )
    if not steps:
        return header + _U32.pack(0) + _U32.pack(0)
    keys, devices, counts, durations = zip(*[step.columns for step in steps])
    op_names = [name for name, _ in chain.from_iterable(keys)]
    names = {name: code for code, name in enumerate(dict.fromkeys(op_names))}
    table = [_U32.pack(len(names))]
    for name in names:
        raw = name.encode("utf-8")
        table += [_U16.pack(len(raw)), raw]
    n, m = len(steps), len(op_names)
    numbers, kinds, starts, ends, idles, flops = zip(*map(_STEP_FIELDS, steps))
    return b"".join(
        (
            header,
            *table,
            _U32.pack(n),
            struct.pack(
                f"<{n}q{n}B{4 * n}d{n}I",
                *numbers,
                *map(_KIND_BY_CODE.index, kinds),
                *starts,
                *ends,
                *idles,
                *flops,
                *map(len, keys),
            ),
            _U32.pack(m),
            struct.pack(
                f"<{m}I{m}B{m}q{m}d",
                *map(names.__getitem__, op_names),
                *map(_DEVICES.index, chain.from_iterable(devices)),
                *chain.from_iterable(counts),
                *chain.from_iterable(durations),
            ),
        )
    )


#: Few names, so they repeat across steps and records.
NAMES = ("MatMul", "Relu", "IteratorGetNext", "fusion")


@st.composite
def hand_built_records(draw):
    """Records whose steps hold ``OperatorStats`` dicts."""
    record = ProfileRecord(
        index=draw(st.integers(0, 1000)),
        window_start_us=draw(st.floats(0.0, 1e6)),
        window_end_us=draw(st.floats(0.0, 1e6)),
        truncated=draw(st.booleans()),
        final=draw(st.booleans()),
    )
    for number in draw(st.lists(st.integers(0, 50), max_size=4, unique=True)):
        step = StepStats(
            step=number,
            kind=draw(st.sampled_from([*StepKind, None])),
            start_us=draw(st.floats(0.0, 1e6)),
        )
        for name in draw(st.lists(st.sampled_from(NAMES), max_size=4, unique=True)):
            device = draw(st.sampled_from(_DEVICES))
            # The key's device value may disagree with the stats' device.
            value = draw(st.sampled_from([device.value, "host", "tpu"]))
            step.operators[(name, value)] = OperatorStats(
                name=name,
                device=device,
                count=draw(st.integers(1, 3)),
                total_duration_us=draw(st.floats(-0.0, 1e4)),
            )
        record.steps[number] = step
    return record


def _columns_record(record: ProfileRecord) -> ProfileRecord:
    """The same record with every step holding columns, as a decoded one does."""
    copy = ProfileRecord(
        record.index,
        record.window_start_us,
        record.window_end_us,
        truncated=record.truncated,
        final=record.final,
    )
    for number, step in record.steps.items():
        copy.steps[number] = StepStats(
            number,
            kind=step.kind,
            start_us=step.start_us,
            end_us=step.end_us,
            tpu_idle_us=step.tpu_idle_us,
            mxu_flops=step.mxu_flops,
            columns=step.columns,
        )
    return copy


@settings(max_examples=150, deadline=None)
@given(st.lists(st.one_of(hand_built_records(), profile_records()), min_size=1, max_size=6))
def test_compiled_encoder_writes_the_reference_bytes(records):
    for record in records:
        want = _reference_payload(record)
        assert codec.encode_payload(record) == want
        assert codec.encode_payload(record) == want  # a cache hit
        assert codec.encode_payload(_columns_record(record)) == want


def test_a_hit_and_an_evicted_layout_write_the_same_bytes():
    record = ProfileRecord(0, 0.0, 1.0)
    for number in range(3):
        step = StepStats(step=number, kind=StepKind.TRAIN)
        step.operators[("MatMul", "tpu")] = OperatorStats("MatMul", DeviceKind.TPU, 2, 5.5)
        step.operators[("Relu", "host")] = OperatorStats("Relu", DeviceKind.TPU, 1, 0.25)
        record.steps[number] = step
    record.steps[3] = StepStats(step=3)
    want = _reference_payload(record)
    keys = tuple(step.columns.keys for step in record.steps.values())
    assert codec.encode_payload(record) == want
    compiled = codec._encodings[keys]
    assert codec.encode_payload(record) == want
    assert codec._encodings[keys] is compiled
    for index in range(codec.ENCODINGS):
        other = ProfileRecord(index, 0.0, 1.0)
        other.steps[0] = StepStats(step=0, kind=StepKind.EVAL)
        other.steps[0].operators[(f"evicting-{index}", "tpu")] = OperatorStats(
            f"evicting-{index}", DeviceKind.TPU, 1, 1.0
        )
        codec.encode_payload(other)
    assert keys not in codec._encodings
    assert codec.encode_payload(record) == want


def test_same_keys_with_other_devices_encode_their_own_codes():
    # Hand-built keys need not agree with the devices their stats hold:
    # the device codes come from the stats, so a cached layout with the
    # same keys must not serve another devices column.
    first, second = (ProfileRecord(index, 0.0, 1.0) for index in (1, 2))
    for record, device in ((first, DeviceKind.TPU), (second, DeviceKind.HOST)):
        record.steps[0] = StepStats(step=0, kind=StepKind.TRAIN)
        record.steps[0].operators[("MatMul", "tpu")] = OperatorStats("MatMul", device, 1, 2.0)
    for record in (first, second, first):
        assert codec.encode_payload(record) == _reference_payload(record)
