"""TPUPoint-Profiler: periodic statistical profiling of TPU training."""

from repro.core.profiler.codec import (
    CODEC_VERSION,
    decode_frame,
    encode_frame,
    frame_stub,
)
from repro.core.profiler.journal import (
    JournalRecovery,
    RecordJournal,
    detect_journal_format,
    recover_journal,
)
from repro.core.profiler.options import ProfilerOptions
from repro.core.profiler.profiler import ProfilerStats, TPUPointProfiler
from repro.core.profiler.record import OperatorStats, ProfileRecord, StepStats
from repro.core.profiler.recorder import RecordingThread
from repro.core.profiler.streaming import StepStream
from repro.core.profiler.serialize import (
    load_records,
    record_from_dict,
    record_to_dict,
    save_records,
)

__all__ = [
    "CODEC_VERSION",
    "JournalRecovery",
    "OperatorStats",
    "ProfileRecord",
    "ProfilerOptions",
    "ProfilerStats",
    "RecordJournal",
    "RecordingThread",
    "StepStats",
    "StepStream",
    "TPUPointProfiler",
    "decode_frame",
    "detect_journal_format",
    "encode_frame",
    "frame_stub",
    "load_records",
    "record_from_dict",
    "record_to_dict",
    "recover_journal",
    "save_records",
]
