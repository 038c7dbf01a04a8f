"""Property test: live phase analysis equals batch analysis.

The live path (records -> :class:`StepStream` -> released steps ->
``TPUPointAnalyzer.from_steps(...).kmeans_phases()``) must return the
same :class:`AnalysisResult` as ``TPUPointAnalyzer(records).kmeans_phases()``
on *any* stream-legal record sequence: arbitrary step behaviours,
arbitrary repetition, arbitrary partitioning into records, and steps
whose operators straddle a record boundary. This is the one check that
the live path agrees with batch.
"""

from hypothesis import given, settings, strategies as st

from repro.core.analyzer import TPUPointAnalyzer
from repro.core.analyzer.streaming import StreamingAnalyzer
from repro.core.profiler.record import ProfileRecord, StepStats
from repro.runtime.events import DeviceKind, StepKind
from repro.serve import LiveJobAnalysis

#: A small behaviour pool so signatures can repeat, while the duration
#: multipliers still give streams where almost every step is distinct.
_BEHAVIOURS = (
    (("matmul", 40.0), ("fusion", 25.0), ("relu", 5.0)),
    (("conv", 60.0), ("pool", 10.0)),
    (("save", 80.0),),
    (("embed", 15.0), ("gather", 15.0), ("matmul", 30.0), ("send", 2.0)),
)


def _step_part(number, operators, multiplier, metadata):
    """One record's view of a step: ``operators``, plus metadata if asked."""
    step = StepStats(step=number)
    if metadata:
        step.kind = StepKind.TRAIN
        step.start_us = number * 100.0
        step.end_us = (number + 1) * 100.0
        step.tpu_idle_us = 10.0
        step.mxu_flops = 1e6 * multiplier
    for name, duration in operators:
        step.observe(name, DeviceKind.TPU, duration * multiplier)
    return step


@st.composite
def record_streams(draw):
    """A stream-legal record sequence whose steps may straddle records.

    Steps strictly increase across records, except that the last step
    of a record may continue into the next record: its operators split
    at a drawn index, and the second part carries on as the first entry
    of the following record (a record of its own at the end).
    """
    num_steps = draw(st.integers(2, 28))
    choices = draw(
        st.lists(
            st.tuples(st.integers(0, len(_BEHAVIOURS) - 1), st.integers(1, 3)),
            min_size=num_steps,
            max_size=num_steps,
        )
    )
    records = []
    carry = None
    cursor = 0
    while cursor < num_steps:
        size = draw(st.integers(1, 6))
        record = ProfileRecord(index=len(records), window_start_us=0.0, window_end_us=1.0)
        if carry is not None:
            record.steps[carry.step] = carry
            carry = None
        stop = min(cursor + size, num_steps)
        for number in range(cursor, stop):
            behaviour, multiplier = choices[number]
            operators = _BEHAVIOURS[behaviour]
            cut = len(operators)
            if number == stop - 1 and draw(st.booleans()):
                cut = draw(st.integers(0, len(operators)))
                head_metadata = draw(st.booleans())
                carry = _step_part(
                    number, operators[cut:], multiplier, not head_metadata
                )
            else:
                head_metadata = True
            record.steps[number] = _step_part(
                number, operators[:cut], multiplier, head_metadata
            )
        records.append(record)
        cursor = stop
    if carry is not None:
        record = ProfileRecord(index=len(records), window_start_us=0.0, window_end_us=1.0)
        record.steps[carry.step] = carry
        records.append(record)
    return records


def _summary(result):
    """Everything an AnalysisResult reports, in comparable form."""
    return (
        result.method,
        result.params,
        result.labels.tolist(),
        [(phase.phase_id, phase.step_numbers) for phase in result.phases],
    )


@settings(max_examples=25, deadline=None)
@given(record_streams())
def test_streaming_labels_equal_batch_labels(records):
    batch = TPUPointAnalyzer(records).kmeans_phases()

    streaming = StreamingAnalyzer()
    for record in records:
        streaming.fold_record(record)
    streaming.finish()

    live = LiveJobAnalysis()
    for record in records:
        live.ingest(record)
    live.finish()

    for result in (streaming.analyze(), live.phase_analysis()):
        assert _summary(result) == _summary(batch)
