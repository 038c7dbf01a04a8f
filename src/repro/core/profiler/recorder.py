"""The recording thread.

When the analyzer flag is set, TPUPoint-Profiler spawns a recording
thread that stores each statistical record in Cloud Storage while the
profiling thread keeps requesting the next profile (Section III-A). In
the simulation the thread is an object with the same contract: it
receives records, persists them (bucket writes cost simulated time,
charged asynchronously), and hands the collected list back at the end.
Without the analyzer flag, records stay buffered in host memory only.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

from repro.core.profiler.journal import RecordJournal
from repro.core.profiler.record import ProfileRecord
from repro.errors import ProfilerError
from repro.storage.bucket import Bucket
from repro.storage.objects import StorageObject


@dataclass
class RecordingThread:
    """Persists profile records into a bucket as they arrive.

    When ``journal`` is attached, every record is also durably appended
    to a checksummed on-disk journal *before* the in-memory buffer grows
    — after a crash, the journal holds everything the thread ever
    acknowledged (minus at most one torn tail block).
    """

    bucket: Bucket | None = None
    prefix: str = "tpupoint/profiles/"
    records: list[ProfileRecord] = field(default_factory=list)
    journal: RecordJournal | None = None
    bytes_written: float = 0.0
    crashed: bool = False
    _closed: bool = False

    def submit(self, record: ProfileRecord) -> None:
        """Accept one record from the profiling thread."""
        if self._closed:
            raise ProfilerError("recording thread already stopped")
        if self.journal is not None and self.journal.alive:
            self.journal.append(record)
        self.records.append(record)
        if self.bucket is not None:
            size = record.estimated_bytes()
            self.bucket.put(
                StorageObject(f"{self.prefix}record-{record.index:06d}.pb", size)
            )
            self.bytes_written += size

    def crash(self, record: ProfileRecord | None = None) -> None:
        """Kill the journaling half of the thread mid-append.

        Models the recorder dying mid-``write``: the journal is left
        with a torn tail block and stops accepting appends. The in-memory buffer keeps filling so the
        surrounding run still completes — recovery happens offline via
        ``tpupoint recover``.
        """
        self.crashed = True
        if self.journal is not None:
            self.journal.tear(record)

    def close(self) -> list[ProfileRecord]:
        """Stop the thread and return everything recorded."""
        self._closed = True
        if self.journal is not None:
            self.journal.close()
        return list(self.records)

    def manifest(self) -> dict:
        """A JSON-serializable summary of what was recorded."""
        return {
            "num_records": len(self.records),
            "bytes_written": self.bytes_written,
            "records": [
                {
                    "index": record.index,
                    "window_start_us": record.window_start_us,
                    "window_end_us": record.window_end_us,
                    "num_steps": record.num_steps,
                    "truncated": record.truncated,
                    "final": record.final,
                }
                for record in self.records
            ],
        }

    def dump_manifest(self) -> str:
        """The manifest as a JSON string."""
        return json.dumps(self.manifest(), indent=2)
