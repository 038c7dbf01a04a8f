"""Versioned columnar binary codec for profile records.

The legacy JSONL journal spent most of its time re-encoding records as
text: every append built the nested dict view and canonicalized it
*twice* (once for the checksum, once for the entry), and every recover
parsed and re-canonicalized it all again. This module's fixed-width
columnar encoding, in the spirit of tf-Darshan's compact binary trace
records, is the only record encoding written now: one *block* per
:class:`ProfileRecord`, made of a fixed block header plus a columnar
payload, integrity-checked by a CRC-32 over the payload bytes.

On-disk layout of a binary record file (journal or record store)::

    +----------------------------+
    | file magic  "TPUPREC\\x01"  |  8 bytes (version in the last byte)
    +----------------------------+
    | block 0                    |
    | block 1                    |
    | ...                        |
    +----------------------------+

    block := header | payload
    header (36 bytes, little-endian):
        u32  seq             journal sequence number
        i64  index           record index (duplicated from the payload
                             so refusals stay attributable even when
                             the payload is unreadable)
        f64  window_start_us
        f64  window_end_us
        u32  payload_len
        u32  crc32(payload)

    payload (columnar, little-endian):
        i64  index | f64 window_start_us | f64 window_end_us | u8 flags
        u32  n_names, then n_names x (u16 len | utf-8 bytes)  string table
        u32  n_steps
        i64[n_steps]  step numbers           (insertion order)
        u8 [n_steps]  step kinds             (0 = none, else 1 + kind)
        f64[n_steps]  start_us
        f64[n_steps]  end_us
        f64[n_steps]  tpu_idle_us
        f64[n_steps]  mxu_flops
        u32[n_steps]  operators per step
        u32  n_ops
        u32[n_ops]  name index               (insertion order per step)
        u8 [n_ops]  device
        i64[n_ops]  count
        f64[n_ops]  total_duration_us

Steps and operators are laid out in **insertion order**, never sorted:
the JSON checksum (:func:`~repro.core.profiler.serialize.payload_checksum`)
is computed over lists built from dict iteration order, so preserving
that order is what makes a binary round trip checksum-stable against
the JSON path.

Wire frames (the serve ingest hand-off) are a single block prefixed
with a 4-byte frame magic, so fault injection
(:meth:`repro.faults.RecordTransit.apply_frame`) can flip payload bits
or cut the frame short and the CRC/framing check catches it at decode.

Versioning: the device and step-kind code tables are frozen per codec
version — adding an enum member requires bumping ``CODEC_VERSION`` (and
the file magic's version byte), and readers reject files whose version
byte they do not understand. See ``docs/performance.md`` for the
migration notes.
"""

from __future__ import annotations

import struct
import zlib
from dataclasses import dataclass

from repro.core.profiler.record import OperatorStats, ProfileRecord, StepStats
from repro.errors import CodecError
from repro.runtime.events import DeviceKind, StepKind

#: Bumped whenever the block/payload layout or a code table changes.
CODEC_VERSION = 1

#: File magic of a binary record file; the last byte is the codec version.
MAGIC = b"TPUPREC" + bytes([CODEC_VERSION])

#: Every binary record file starts with these bytes regardless of version.
MAGIC_PREFIX = b"TPUPREC"

#: Magic of one wire frame (serve ingest hand-off).
FRAME_MAGIC = b"TPFR"

_BLOCK_HEADER = struct.Struct("<IqddII")  # seq, index, window, payload_len, crc
_PAYLOAD_HEADER = struct.Struct("<qddB")  # index, window_start, window_end, flags
_U16 = struct.Struct("<H")
_U32 = struct.Struct("<I")

BLOCK_HEADER_BYTES = _BLOCK_HEADER.size
FRAME_HEADER_BYTES = len(FRAME_MAGIC) + BLOCK_HEADER_BYTES

_FLAG_TRUNCATED = 1
_FLAG_FINAL = 2

# Code tables are version-gated: the tuple order of the enums at codec
# version 1 is frozen here. Extending either enum must bump CODEC_VERSION.
_DEVICES = tuple(DeviceKind)
_DEVICE_CODE = {device: code for code, device in enumerate(_DEVICES)}
_DEVICE_PAIRS = tuple((device, device.value) for device in _DEVICES)
_KINDS = tuple(StepKind)
_KIND_CODE = {kind: code + 1 for code, kind in enumerate(_KINDS)}
_KIND_BY_CODE = (None,) + _KINDS

#: Upper bound on one block's payload; a larger length field means the
#: framing itself is broken (torn or overwritten), not a huge record.
MAX_PAYLOAD_BYTES = 1 << 30


def encode_payload(record: ProfileRecord) -> bytes:
    """The columnar payload bytes of one record (no header, no CRC)."""
    flags = (_FLAG_TRUNCATED if record.truncated else 0) | (
        _FLAG_FINAL if record.final else 0
    )
    steps = list(record.steps.values())
    try:
        parts = [
            _PAYLOAD_HEADER.pack(
                record.index, record.window_start_us, record.window_end_us, flags
            )
        ]
        # String table in first-appearance order (dedups operator names
        # across steps; a name repeated every step is stored once).
        names: dict[str, int] = {}
        for step in steps:
            for stats in step.operators.values():
                if stats.name not in names:
                    names[stats.name] = len(names)
        parts.append(_U32.pack(len(names)))
        for name in names:
            raw = name.encode("utf-8")
            if len(raw) > 0xFFFF:
                raise CodecError(
                    f"operator name of {len(raw)} bytes overflows the string table"
                )
            parts.append(_U16.pack(len(raw)))
            parts.append(raw)
        n = len(steps)
        parts.append(_U32.pack(n))
        if n:
            parts.append(struct.pack(f"<{n}q", *(step.step for step in steps)))
            parts.append(
                struct.pack(
                    f"<{n}B",
                    *(0 if s.kind is None else _KIND_CODE[s.kind] for s in steps),
                )
            )
            for column in ("start_us", "end_us", "tpu_idle_us", "mxu_flops"):
                parts.append(
                    struct.pack(f"<{n}d", *(getattr(s, column) for s in steps))
                )
            parts.append(struct.pack(f"<{n}I", *(len(s.operators) for s in steps)))
            ops = [stats for step in steps for stats in step.operators.values()]
            m = len(ops)
            parts.append(_U32.pack(m))
            if m:
                parts.append(struct.pack(f"<{m}I", *(names[s.name] for s in ops)))
                parts.append(struct.pack(f"<{m}B", *(_DEVICE_CODE[s.device] for s in ops)))
                parts.append(struct.pack(f"<{m}q", *(s.count for s in ops)))
                parts.append(
                    struct.pack(f"<{m}d", *(s.total_duration_us for s in ops))
                )
    except struct.error as error:
        raise CodecError(f"record {record.index} does not fit the codec: {error}")
    return b"".join(parts)


def decode_payload(buffer) -> ProfileRecord:
    """Rebuild a record from its payload bytes; raises :class:`CodecError`."""
    view = memoryview(buffer)
    size = len(view)
    try:
        index, window_start, window_end, flags = _PAYLOAD_HEADER.unpack_from(view, 0)
        offset = _PAYLOAD_HEADER.size
        (n_names,) = _U32.unpack_from(view, offset)
        offset += 4
        names: list[str] = []
        for _ in range(n_names):
            (length,) = _U16.unpack_from(view, offset)
            offset += 2
            if offset + length > size:
                raise CodecError("string table overruns the payload")
            names.append(bytes(view[offset : offset + length]).decode("utf-8"))
            offset += length
        (n,) = _U32.unpack_from(view, offset)
        offset += 4
        record = ProfileRecord(
            index=index,
            window_start_us=window_start,
            window_end_us=window_end,
            truncated=bool(flags & _FLAG_TRUNCATED),
            final=bool(flags & _FLAG_FINAL),
        )
        if n:
            if n * 8 > size:
                raise CodecError("step columns overrun the payload")
            numbers = struct.unpack_from(f"<{n}q", view, offset)
            offset += 8 * n
            kind_codes = struct.unpack_from(f"<{n}B", view, offset)
            offset += n
            columns = []
            for _ in range(4):
                columns.append(struct.unpack_from(f"<{n}d", view, offset))
                offset += 8 * n
            starts, ends, idles, flops = columns
            per_step = struct.unpack_from(f"<{n}I", view, offset)
            offset += 4 * n
            (m,) = _U32.unpack_from(view, offset)
            offset += 4
            if m != sum(per_step):
                raise CodecError(
                    "operator columns disagree with the per-step counts"
                )
            if m * 8 > size:
                raise CodecError("operator columns overrun the payload")
            name_indices = struct.unpack_from(f"<{m}I", view, offset)
            offset += 4 * m
            device_codes = struct.unpack_from(f"<{m}B", view, offset)
            offset += m
            counts = struct.unpack_from(f"<{m}q", view, offset)
            offset += 8 * m
            durations = struct.unpack_from(f"<{m}d", view, offset)
            offset += 8 * m
            # Validity checks are hoisted out of the per-operator loop:
            # one max() over each code column replaces m branch pairs.
            if max(kind_codes) > len(_KINDS):
                raise CodecError(f"unknown step-kind code {max(kind_codes)}")
            if m:
                if max(name_indices) >= len(names):
                    raise CodecError("operator name index out of range")
                if max(device_codes) >= len(_DEVICES):
                    raise CodecError(f"unknown device code {max(device_codes)}")
            operator_columns = zip(name_indices, device_codes, counts, durations)
            record_steps = record.steps
            for number, code, start, end, idle, mxu, op_count in zip(
                numbers, kind_codes, starts, ends, idles, flops, per_step
            ):
                step = StepStats(
                    step=number,
                    kind=_KIND_BY_CODE[code],
                    start_us=start,
                    end_us=end,
                    tpu_idle_us=idle,
                    mxu_flops=mxu,
                )
                operators = step.operators
                for _ in range(op_count):
                    name_index, device_code, count, duration = next(operator_columns)
                    name = names[name_index]
                    device, device_value = _DEVICE_PAIRS[device_code]
                    operators[(name, device_value)] = OperatorStats(
                        name=name,
                        device=device,
                        count=count,
                        total_duration_us=duration,
                    )
                record_steps[number] = step
        if offset != size:
            raise CodecError("trailing bytes after the record payload")
    except (struct.error, UnicodeDecodeError) as error:
        raise CodecError(f"malformed record payload: {error}") from None
    return record


def encode_block(seq: int, record: ProfileRecord) -> bytes:
    """One journal block: header (seq, index, window, len, CRC) + payload."""
    payload = encode_payload(record)
    try:
        header = _BLOCK_HEADER.pack(
            seq,
            record.index,
            record.window_start_us,
            record.window_end_us,
            len(payload),
            zlib.crc32(payload),
        )
    except struct.error as error:
        raise CodecError(f"record {record.index} does not fit a block header: {error}")
    return header + payload


@dataclass(frozen=True)
class BlockRead:
    """Outcome of parsing one block at a given offset.

    ``status`` is ``"ok"`` (record decoded, CRC verified), ``"corrupt"``
    (framing intact but the CRC or payload decode failed — the reader
    can skip to ``next_offset``), or ``"torn"`` (the framing itself is
    cut or implausible — nothing after this offset is readable).
    """

    status: str
    seq: int = -1
    record: ProfileRecord | None = None
    next_offset: int = -1
    error: str = ""


def read_block(view, offset: int) -> BlockRead:
    """Parse the block starting at ``offset`` of a bytes-like ``view``."""
    size = len(view)
    if offset + BLOCK_HEADER_BYTES > size:
        return BlockRead(status="torn", error="truncated block header")
    seq, _index, _ws, _we, length, crc = _BLOCK_HEADER.unpack_from(view, offset)
    if length > MAX_PAYLOAD_BYTES:
        return BlockRead(
            status="torn", seq=seq, error="implausible payload length (broken framing)"
        )
    start = offset + BLOCK_HEADER_BYTES
    end = start + length
    if end > size:
        return BlockRead(status="torn", seq=seq, error="payload cut mid-block")
    payload = view[start:end]
    if zlib.crc32(payload) != crc:
        return BlockRead(
            status="corrupt",
            seq=seq,
            next_offset=end,
            error=f"CRC-32 mismatch on block {seq}",
        )
    try:
        record = decode_payload(payload)
    except CodecError as error:
        return BlockRead(status="corrupt", seq=seq, next_offset=end, error=str(error))
    return BlockRead(status="ok", seq=seq, record=record, next_offset=end)


def encode_frame(seq: int, record: ProfileRecord) -> bytes:
    """One serve-ingest wire frame: frame magic + block."""
    return FRAME_MAGIC + encode_block(seq, record)


def decode_frame(frame) -> ProfileRecord:
    """Decode and CRC-verify one wire frame; raises :class:`CodecError`."""
    view = memoryview(frame)
    if len(view) < len(FRAME_MAGIC) or bytes(view[: len(FRAME_MAGIC)]) != FRAME_MAGIC:
        raise CodecError("wire frame lacks the frame magic")
    read = read_block(view, len(FRAME_MAGIC))
    if read.status != "ok":
        raise CodecError(read.error or "undecodable wire frame")
    if read.next_offset != len(view):
        raise CodecError("trailing bytes after the wire frame")
    return read.record


def frame_stub(frame) -> ProfileRecord:
    """Best-effort skeleton of a refused frame's record.

    A corrupted frame cannot be decoded, but its block header (sequence,
    record index, window) usually survives bit flips confined to the
    payload — enough to quarantine an attributable placeholder instead
    of losing the refusal entirely.
    """
    view = memoryview(frame)
    offset = 0
    if len(view) >= len(FRAME_MAGIC) and bytes(view[: len(FRAME_MAGIC)]) == FRAME_MAGIC:
        offset = len(FRAME_MAGIC)
    try:
        _seq, index, window_start, window_end, _length, _crc = _BLOCK_HEADER.unpack_from(
            view, offset
        )
    except struct.error:
        return ProfileRecord(index=-1, window_start_us=0.0, window_end_us=0.0)
    return ProfileRecord(
        index=index, window_start_us=window_start, window_end_us=window_end
    )


__all__ = [
    "BLOCK_HEADER_BYTES",
    "BlockRead",
    "CODEC_VERSION",
    "FRAME_HEADER_BYTES",
    "FRAME_MAGIC",
    "MAGIC",
    "MAGIC_PREFIX",
    "MAX_PAYLOAD_BYTES",
    "decode_frame",
    "decode_payload",
    "encode_block",
    "encode_frame",
    "encode_payload",
    "frame_stub",
    "read_block",
]
