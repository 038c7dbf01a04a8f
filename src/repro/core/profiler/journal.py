"""Crash-safe record journaling.

The recording thread persists each :class:`ProfileRecord` to an
append-only journal as it arrives, flushed before the next record is
accepted. Journals are written in the columnar block format of
:mod:`repro.core.profiler.codec`: one CRC-32-checked block per record
behind an 8-byte file magic, read back through a memory map.

Journals written before the binary codec existed are JSONL — one line
per record carrying a sequence number and a CRC-32 over the record's
canonical JSON encoding. They are read-only now: nothing writes them,
but :func:`recover_journal` still reads them byte-for-byte as before.

If the recorder (or the whole process) dies mid-write, the journal is
left with at most one torn entry at the tail; :func:`recover_journal`
auto-detects the format by magic bytes, verifies every entry's
checksum, skips and counts corrupt entries, stops at a torn tail, and
returns everything that survived so ``tpupoint recover`` can resume
offline analysis from a partial run.
"""

from __future__ import annotations

import json
import mmap
import traceback
from dataclasses import dataclass
from pathlib import Path

from repro import obs
from repro.core.profiler import codec
from repro.core.profiler.record import ProfileRecord
from repro.core.profiler.serialize import (
    SCHEMA_VERSION,
    payload_checksum,
    record_from_dict,
)
from repro.errors import JournalError


def decode_entry(line: str) -> tuple[int, ProfileRecord]:
    """Parse and verify one legacy JSONL journal line; raises :class:`JournalError`."""
    try:
        entry = json.loads(line)
    except json.JSONDecodeError as error:
        raise JournalError(f"unparseable journal line: {error}") from None
    if not isinstance(entry, dict) or "record" not in entry:
        raise JournalError("journal line is not a record entry")
    payload = entry["record"]
    if payload_checksum(payload) != entry.get("crc"):
        raise JournalError(f"checksum mismatch on journal entry {entry.get('seq')}")
    try:
        record = record_from_dict(payload)
    except Exception as error:
        raise JournalError(f"journal entry {entry.get('seq')} is malformed: {error}")
    try:
        seq = int(entry["seq"])
    except (KeyError, TypeError, ValueError):
        raise JournalError("journal entry is missing a sequence number") from None
    return seq, record


class RecordJournal:
    """Append-only journal of CRC-checked codec blocks for one profiling run."""

    def __init__(self, path: str | Path):
        self.path = Path(path)
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self._seq = 0
        self._dead = False
        self.entries_written = 0
        self._handle = open(self.path, "wb")
        self._handle.write(codec.MAGIC)
        self._handle.flush()
        self.bytes_written = len(codec.MAGIC)

    @property
    def alive(self) -> bool:
        """Whether the journal still accepts appends."""
        return not self._dead

    def append(self, record: ProfileRecord) -> None:
        """Durably append one record (write + flush before returning)."""
        if self._dead:
            raise JournalError(f"journal {self.path} is closed")
        block = codec.encode_block(self._seq, record)
        self._handle.write(block)
        self._handle.flush()
        self._seq += 1
        self.entries_written += 1
        self.bytes_written += len(block)

    def tear(self, record: ProfileRecord | None = None) -> None:
        """Simulate a crash mid-append: leave a torn block, go dead.

        Writes a prefix of what would have been the next block — the
        exact on-disk state a process death mid-``write`` leaves behind
        — then stops accepting appends.
        """
        if self._dead:
            return
        if record is None:
            record = ProfileRecord(index=self._seq, window_start_us=0.0, window_end_us=0.0)
        block = codec.encode_block(self._seq, record)
        self._handle.write(block[: max(8, len(block) // 2)])
        self.close()

    def close(self) -> None:
        """Flush and close the journal file."""
        if not self._dead:
            self._handle.flush()
            self._handle.close()
            self._dead = True


@dataclass(frozen=True)
class JournalRecovery:
    """What :func:`recover_journal` salvaged from a journal file."""

    records: tuple[ProfileRecord, ...]
    entries_total: int
    entries_recovered: int
    corrupt_entries: int
    torn_tail: bool
    journal_format: str = "json"
    bytes_total: int = 0

    @property
    def lossless(self) -> bool:
        """Whether the journal was recovered without losing anything."""
        return self.corrupt_entries == 0 and not self.torn_tail

    def format(self) -> list[str]:
        return [
            f"format          : {self.journal_format}",
            f"journal entries : {self.entries_total} "
            f"({self.entries_recovered} recovered, {self.corrupt_entries} corrupt)",
            f"torn tail       : {'yes' if self.torn_tail else 'no'}",
            f"records         : {len(self.records)}",
        ]


def detect_journal_format(path: str | Path) -> str:
    """``"binary"`` or ``"json"``, by magic bytes; raises on garbage.

    An empty file reads as JSONL (a binary journal always carries at
    least its file magic). A path that is missing or not a regular
    file, or a file that starts with neither the binary magic nor a
    JSON object, is not a record journal at all — it gets a clean
    :class:`JournalError`, not a traceback from deep inside a parser.
    """
    path = Path(path)
    if not path.exists():
        raise JournalError(f"no journal at {path}")
    if not path.is_file():
        raise JournalError(f"{path} is not a record journal (not a regular file)")
    with open(path, "rb") as handle:
        head = handle.read(len(codec.MAGIC))
    if head.startswith(codec.MAGIC_PREFIX):
        if head != codec.MAGIC:
            version = head[len(codec.MAGIC_PREFIX) :]
            raise JournalError(
                f"{path} is a binary journal of unsupported codec version "
                f"{version.hex() or '??'} (this reader understands version "
                f"{codec.CODEC_VERSION})"
            )
        return "binary"
    if head == b"" or head.lstrip()[:1] == b"{":
        return "json"
    raise JournalError(
        f"{path} is not a record journal (unrecognized magic bytes "
        f"{head[:8].hex()})"
    )


def recover_journal(path: str | Path, strict: bool = False) -> JournalRecovery:
    """Load every intact record from a (possibly torn) journal.

    The format is auto-detected by magic bytes, so old JSONL journals
    and new binary ones recover through the same call. A failure on the
    *last* entry is a torn tail — the expected signature of a crash
    mid-append — and is always tolerated. Failures on earlier entries
    are genuine corruption: skipped and counted by default, raised as
    :class:`JournalError` under ``strict``. Duplicate or regressing
    sequence numbers are treated as corrupt entries.
    """
    path = Path(path)
    with obs.trace("journal.recover", strict=strict) as span:
        journal_format = detect_journal_format(path)
        if journal_format == "binary":
            recovery = _recover_binary(path, strict)
        else:
            recovery = _recover_json(path, strict)
        span.set(
            format=journal_format,
            blocks=recovery.entries_total,
            bytes=recovery.bytes_total,
            corrupt=recovery.corrupt_entries,
            torn=int(recovery.torn_tail),
        )
    return recovery


def _recover_binary(path: Path, strict: bool) -> JournalRecovery:
    """Block-by-block scan over a memory-mapped binary journal.

    Blocks whose framing is intact but whose CRC (or payload decode)
    fails are skipped and counted; once the framing itself is cut —
    a header or payload shorter than its declared length, or an
    implausible length field — nothing after that offset is readable,
    which is exactly the shape a mid-write crash leaves, so the scan
    stops there with ``torn_tail`` set.
    """
    with open(path, "rb") as handle:
        size = path.stat().st_size
        try:
            buffer: mmap.mmap | bytes = mmap.mmap(
                handle.fileno(), 0, access=mmap.ACCESS_READ
            )
        except (ValueError, OSError):
            buffer = handle.read()
        try:
            view = memoryview(buffer)
            by_seq: dict[int, ProfileRecord] = {}
            entries_total = corrupt = 0
            torn_tail = False
            last_seq = -1
            offset = len(codec.MAGIC)
            while offset < size:
                read = codec.read_block(view, offset)
                if read.status == "torn":
                    entries_total += 1
                    torn_tail = True
                    break
                entries_total += 1
                if read.status == "corrupt" or read.seq <= last_seq:
                    error = read.error or f"journal sequence regressed at entry {read.seq}"
                    if strict:
                        raise JournalError(error)
                    corrupt += 1
                    offset = read.next_offset
                    continue
                by_seq[read.seq] = read.record
                last_seq = read.seq
                offset = read.next_offset
        except BaseException as error:
            # The traceback keeps the raising frames, and any slices of
            # the map they made, alive: closing the map under them would
            # raise BufferError in place of this error. Clear them first.
            traceback.clear_frames(error.__traceback__)
            raise
        finally:
            view.release()
            if isinstance(buffer, mmap.mmap):
                buffer.close()
    records = tuple(sorted(by_seq.values(), key=lambda record: record.index))
    return JournalRecovery(
        records=records,
        entries_total=entries_total,
        entries_recovered=len(by_seq),
        corrupt_entries=corrupt,
        torn_tail=torn_tail,
        journal_format="binary",
        bytes_total=size,
    )


def _recover_json(path: Path, strict: bool) -> JournalRecovery:
    try:
        raw = path.read_text(encoding="utf-8")
    except UnicodeDecodeError as error:
        raise JournalError(f"{path} is not a JSONL journal: {error}") from None
    lines = raw.split("\n")
    if lines and lines[-1] == "":
        lines.pop()
        ends_clean = True
    else:
        ends_clean = bool(raw == "")
    by_seq: dict[int, ProfileRecord] = {}
    corrupt = 0
    torn_tail = False
    last_seq = -1
    for position, line in enumerate(lines):
        is_tail = position == len(lines) - 1
        try:
            seq, record = decode_entry(line)
            if seq <= last_seq:
                raise JournalError(f"journal sequence regressed at entry {seq}")
        except JournalError:
            if is_tail and not ends_clean:
                torn_tail = True
                break
            if strict:
                raise
            corrupt += 1
            continue
        by_seq[seq] = record
        last_seq = seq
    records = tuple(sorted(by_seq.values(), key=lambda record: record.index))
    return JournalRecovery(
        records=records,
        entries_total=len(lines),
        entries_recovered=len(by_seq),
        corrupt_entries=corrupt,
        torn_tail=torn_tail,
        journal_format="json",
        bytes_total=len(raw.encode("utf-8")),
    )


__all__ = [
    "JournalRecovery",
    "RecordJournal",
    "decode_entry",
    "detect_journal_format",
    "recover_journal",
    "SCHEMA_VERSION",
]
