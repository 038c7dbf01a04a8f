"""Property tests: the compiled block path equals the per-op path.

A clean device lays a step out from its compiled plan and logs it as one
columnar block; the profile service cuts blocks by index and the record
folds them with sequential sums. The reference for each layer:

* the device: the same device with an inert SDC injector attached, which
  runs and logs op by op;
* serving and folding: the same log with every execution appended as a
  single :class:`TraceEvent`.

Every float must match bit for bit, and every record must carry the
same checksum and the same operator-key order.
"""

from types import SimpleNamespace

from hypothesis import example, given, settings, strategies as st

from repro.core.profiler.record import ProfileRecord
from repro.core.profiler.serialize import record_checksum
from repro.faults import FaultPlan
from repro.faults.inject import FaultyProfileService
from repro.host.pipeline import BatchPlan
from repro.host.stages import StageKind, StageSpec
from repro.runtime.events import DeviceKind, EventLog, StepKind, StepMetadata, TraceEvent
from repro.runtime.rpc import ProfileRequest, ProfileService
from repro.runtime.worker import HostWorker, TpuWorker
from repro.tpu.device import TpuDevice, TpuOpCategory, TpuOpWork
from repro.tpu.sdc import SdcInjector

#: Few names, so names repeat often inside one block: sequential and
#: pairwise sums then round differently.
TPU_NAMES = ("fusion", "Reshape", "add")
HOST_NAMES = ("DecodeAndCropJpeg", "MapAndBatch", "TransferBufferToInfeedLocked")
MAX_REQUESTS = 5_000

magnitudes = st.one_of(st.just(0.0), st.floats(1e-3, 400.0, allow_nan=False))

body_ops = st.one_of(
    st.builds(
        TpuOpWork,
        name=st.sampled_from(TPU_NAMES),
        category=st.just(TpuOpCategory.COMPUTE),
        flops=st.one_of(st.just(0.0), st.floats(1.0, 1e9)),
        efficiency=st.floats(0.05, 1.0),
        uses_mxu=st.booleans(),
        fixed_us=magnitudes,
    ),
    st.builds(
        TpuOpWork,
        name=st.sampled_from(TPU_NAMES),
        category=st.just(TpuOpCategory.MEMORY),
        num_bytes=st.one_of(st.just(0.0), st.floats(1.0, 1e8)),
        fixed_us=magnitudes,
    ),
    st.builds(
        TpuOpWork,
        name=st.sampled_from(TPU_NAMES + ("OutfeedEnqueueTuple",)),
        category=st.sampled_from([TpuOpCategory.OUTFEED, TpuOpCategory.SYNC]),
        num_bytes=st.one_of(st.just(0.0), st.floats(1.0, 1e6)),
        fixed_us=magnitudes,
    ),
)

infeed_ops = st.builds(
    TpuOpWork,
    name=st.sampled_from(("InfeedDequeueTuple", "Infeed")),
    category=st.just(TpuOpCategory.INFEED),
    num_bytes=st.one_of(st.just(0.0), st.floats(1.0, 1e7)),
    fixed_us=magnitudes,
)


@st.composite
def schedules(draw):
    schedule = draw(st.lists(body_ops, max_size=40))
    for infeed in draw(st.lists(infeed_ops, max_size=3)):
        schedule.insert(draw(st.integers(0, len(schedule))), infeed)
    return tuple(schedule)


@st.composite
def batches(draw):
    stages = tuple(
        StageSpec(
            name=f"stage{index}",
            kind=StageKind.CPU,
            ops=tuple(
                (draw(st.sampled_from(HOST_NAMES)), draw(st.floats(0.1, 4.0)))
                for _ in range(draw(st.integers(1, 4)))
            ),
        )
        for index in range(draw(st.integers(1, 3)))
    )
    walls = [draw(st.floats(0.0, 900.0)) for _ in stages]
    # A jitter of 1.0 leaves every drawn wall as it is.
    cost = BatchPlan.compile(stages, walls).cost(1.0)
    return cost, draw(st.one_of(st.just(0.0), st.floats(0.0, 500.0)))


steps = st.lists(
    st.fixed_dictionaries(
        {
            "gap": st.one_of(st.just(0.0), st.floats(0.0, 3000.0)),
            # Ready before or after the step starts.
            "ready": st.floats(-5000.0, 20_000.0),
            "batches": st.lists(batches(), min_size=1, max_size=2),
            "single_before": st.booleans(),
        }
    ),
    min_size=1,
    max_size=4,
)

caps = st.lists(
    st.tuples(st.integers(1, 60), st.sampled_from([0.2, 2.0, 60_000.0])),
    min_size=1,
    max_size=4,
)


def _bits(value) -> str:
    return float(value).hex()


def _event_key(event: TraceEvent):
    return (event.name, event.device, event.step, _bits(event.start_us), _bits(event.duration_us))


def _run(device, schedule, plan):
    """Drive a device through ``plan``, logging like a training session does."""
    log = EventLog()
    tpu = TpuWorker(device, log)
    host = HostWorker(log)
    program = SimpleNamespace(tpu_schedule=schedule)
    executions = []
    now = 0.0
    for number, step in enumerate(plan):
        start = now + step["gap"]
        ready = start + step["ready"]
        for cost, backpressure in step["batches"]:
            host.emit_batch_production(cost, number, ready, backpressure)
        if step["single_before"]:
            log.append_event(TraceEvent(TPU_NAMES[0], DeviceKind.TPU, number, start, 7.25))
        execution = tpu.execute_step(program, number, start, ready)
        host.emit_op("OutfeedDequeueTuple", number, execution.end_us, 150.0)
        log.append_step(
            StepMetadata(
                step=number,
                kind=StepKind.TRAIN,
                start_us=execution.start_us,
                end_us=execution.end_us,
                tpu_idle_us=execution.idle_us,
                mxu_flops=execution.mxu_flops,
            )
        )
        executions.append(execution)
        now = execution.end_us
    return log, executions


def _records(service, requests):
    """Serve until the final window, cycling through ``requests``."""
    records = []
    for index in range(MAX_REQUESTS):
        response = service.serve(requests[index % len(requests)], finished=True)
        record = ProfileRecord.from_response(index, response)
        records.append((response.num_events, record))
        if response.final:
            return records
    raise AssertionError("the log never drained")


def _assert_same_records(got, want):
    assert len(got) == len(want)
    for (got_events, got_record), (want_events, want_record) in zip(got, want):
        assert got_events == want_events
        assert got_record == want_record
        assert record_checksum(got_record) == record_checksum(want_record)
        assert list(got_record.steps) == list(want_record.steps)
        for number, step in got_record.steps.items():
            assert list(step.operators) == list(want_record.steps[number].operators)


@settings(max_examples=60, deadline=None)
@given(schedule=schedules(), plan=steps, limits=caps, truncate=st.integers(1, 8))
@example(
    # One name 30 times with durations whose pairwise and sequential sums differ.
    schedule=tuple(
        TpuOpWork("fusion", TpuOpCategory.SYNC, fixed_us=0.1 * (index % 7) + 1e-3 * index)
        for index in range(30)
    ),
    plan=[{"gap": 0.0, "ready": 0.0, "batches": [], "single_before": True}],
    limits=[(60, 60_000.0)],
    truncate=8,
)
def test_block_path_matches_per_op_path(schedule, plan, limits, truncate):
    clean = TpuDevice("v2")
    reference = TpuDevice("v2")
    reference.attach_sdc(SdcInjector((), 0, "chip-0"))
    log, executions = _run(clean, schedule, plan)
    ref_log, ref_executions = _run(reference, schedule, plan)

    for got, want in zip(executions, ref_executions):
        for name in ("step_number", "start_us", "end_us", "idle_us", "mxu_flops"):
            assert _bits(getattr(got, name)) == _bits(getattr(want, name)), name
        assert got.output_digest == want.output_digest
        assert [
            (e.name, e.category, _bits(e.start_us), _bits(e.duration_us), e.flops, e.num_bytes)
            for e in got.executions
        ] == [
            (e.name, e.category, _bits(e.start_us), _bits(e.duration_us), e.flops, e.num_bytes)
            for e in want.executions
        ]
    for name in ("total_busy_us", "total_idle_us", "total_mxu_flops"):
        assert _bits(getattr(clean, name)) == _bits(getattr(reference, name)), name
    events = ref_log.events
    assert [_event_key(e) for e in log.events] == [_event_key(e) for e in events]
    assert log.num_events == ref_log.num_events == len(events)
    assert _bits(log.last_time_us) == _bits(ref_log.last_time_us)

    # Serve the block log and a log of single events under the same caps.
    flat = EventLog()
    for event in events:
        flat.append_event(event)
    for step in ref_log.steps:
        flat.append_step(step)
    requests = [
        ProfileRequest(max_events=events_cap, max_duration_ms=duration_ms)
        for events_cap, duration_ms in limits
    ]
    _assert_same_records(
        _records(ProfileService(log), requests), _records(ProfileService(flat), requests)
    )

    # The fault layer's TRUNCATE squeezes the event cap on chosen requests.
    plan_dict = {"seed": 0, "faults": [{"kind": "truncate", "every_nth": 2, "truncate_events": truncate}]}
    _assert_same_records(
        _records(FaultyProfileService(ProfileService(log), FaultPlan.from_dict(plan_dict)), requests),
        _records(FaultyProfileService(ProfileService(flat), FaultPlan.from_dict(plan_dict)), requests),
    )
