"""A profile window's step metadata, found from a cursor, against the full scan.

``EventLog.steps_between`` walks a cursor to a window's first step when
step starts and ends never decrease, and scans every step otherwise. On
any log and any sequence of windows (later windows may start earlier),
it must return what the full scan returns; and the metadata a profile
window examines must not grow with the steps the log holds.
"""

import math

from hypothesis import given, settings, strategies as st

from repro.runtime.events import EventLog, StepKind, StepMetadata


def _full_scan(log, start_us, end_us):
    return [meta for meta in log.steps if meta.end_us > start_us and meta.start_us < end_us]


def _log(intervals):
    log = EventLog()
    for number, (start, end) in enumerate(intervals):
        log.append_step(StepMetadata(number, StepKind.TRAIN, start, end, 0.0, 0.0))
    return log


@st.composite
def ordered_intervals(draw):
    """Back-to-back or gapped steps, zero-length ones included."""
    intervals, now = [], draw(st.floats(-100.0, 100.0))
    for _ in range(draw(st.integers(0, 30))):
        start = now + draw(st.one_of(st.just(0.0), st.floats(0.0, 20.0)))
        now = start + draw(st.one_of(st.just(0.0), st.floats(0.0, 20.0)))
        intervals.append((start, now))
    return intervals


bounds = st.one_of(st.floats(-150.0, 800.0), st.sampled_from([math.nan, math.inf, -math.inf]))
any_intervals = st.lists(st.tuples(bounds, bounds), max_size=20)
windows = st.lists(st.tuples(st.floats(-150.0, 800.0), st.floats(-150.0, 800.0)), max_size=12)


@settings(max_examples=300, deadline=None)
@given(intervals=st.one_of(ordered_intervals(), any_intervals), queries=windows)
def test_cursor_matches_the_full_scan(intervals, queries):
    log = _log(intervals)
    for start, end in queries:
        assert log.steps_between(start, end) == _full_scan(log, start, end)


@settings(max_examples=100, deadline=None)
@given(intervals=ordered_intervals(), more=ordered_intervals(), queries=windows)
def test_cursor_survives_steps_appended_between_windows(intervals, more, queries):
    log = _log(intervals)
    last = intervals[-1][1] if intervals else -math.inf
    half = len(queries) // 2
    for start, end in queries[:half]:
        assert log.steps_between(start, end) == _full_scan(log, start, end)
    for start, end in more:
        if start >= last:
            log.append_step(
                StepMetadata(len(log.steps), StepKind.TRAIN, start, end, 0.0, 0.0)
            )
            last = end
    for start, end in queries[half:]:
        assert log.steps_between(start, end) == _full_scan(log, start, end)


class _CountedStep:
    """Step metadata that counts every read of its bounds."""

    reads = 0
    __slots__ = ("step", "_start", "_end")

    def __init__(self, step, start_us, end_us):
        self.step, self._start, self._end = step, start_us, end_us

    @property
    def start_us(self):
        _CountedStep.reads += 1
        return self._start

    @property
    def end_us(self):
        _CountedStep.reads += 1
        return self._end


def _reads_per_window(num_steps, steps_per_window=4):
    """Bound reads of each profile window over a log of back-to-back steps.

    The windows tile the log in order, ``steps_per_window`` steps each,
    as a profiler's periodic requests do.
    """
    log = EventLog()
    for number in range(num_steps):
        log.append_step(_CountedStep(number, 10.0 * number, 10.0 * number + 10.0))
    width = 10.0 * steps_per_window
    reads = set()
    for window in range(num_steps // steps_per_window):
        _CountedStep.reads = 0
        found = log.steps_between(window * width, (window + 1) * width)
        assert [meta.step for meta in found] == list(
            range(window * steps_per_window, (window + 1) * steps_per_window)
        )
        reads.add(_CountedStep.reads)
    return reads


def test_metadata_examined_per_window_is_flat_in_steps_recorded():
    small = _reads_per_window(500)
    assert max(small) <= 16
    assert _reads_per_window(5_000) == small
    assert _reads_per_window(50_000) == small
