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
from functools import lru_cache
from itertools import chain
from operator import attrgetter

from repro.core.profiler.record import OperatorColumns, ProfileRecord, StepStats
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
# A code is a position in its tuple; ``tuple.index`` finds it by identity,
# without hashing an enum member in Python.
_DEVICES = tuple(DeviceKind)
_KINDS = tuple(StepKind)
_KIND_BY_CODE = (None,) + _KINDS

#: Upper bound on one block's payload; a larger length field means the
#: framing itself is broken (torn or overwritten), not a huge record.
MAX_PAYLOAD_BYTES = 1 << 30

_STEP_FIELDS = attrgetter("step", "kind", "start_us", "end_us", "tpu_idle_us", "mxu_flops")


@lru_cache(maxsize=64)
def _step_columns(n: int) -> struct.Struct:
    """The per-step columns of an ``n``-step payload as one struct."""
    return struct.Struct(f"<{n}q{n}B{4 * n}d{n}I")


@lru_cache(maxsize=64)
def _operator_columns(m: int) -> struct.Struct:
    """The operator columns of an ``m``-operator payload as one struct."""
    return struct.Struct(f"<{m}I{m}B{m}q{m}d")


def _string_table(names: dict[str, int]) -> bytes:
    """The encoded string table of ``names``: count, then length-prefixed UTF-8."""
    parts = [_U32.pack(len(names))]
    for name in names:
        raw = name.encode("utf-8")
        if len(raw) > 0xFFFF:
            raise CodecError(
                f"operator name of {len(raw)} bytes overflows the string table"
            )
        parts.append(_U16.pack(len(raw)))
        parts.append(raw)
    return b"".join(parts)


def encode_payload(record: ProfileRecord) -> bytes:
    """The columnar payload bytes of one record (no header, no CRC)."""
    flags = (_FLAG_TRUNCATED if record.truncated else 0) | (
        _FLAG_FINAL if record.final else 0
    )
    steps = list(record.steps.values())
    n = len(steps)
    try:
        header = _PAYLOAD_HEADER.pack(
            record.index, record.window_start_us, record.window_end_us, flags
        )
        if not n:
            return header + _U32.pack(0) + _U32.pack(0)
        # Per-step key, device, count and duration tuples, each column
        # flattened across steps by ``chain`` as it is packed.
        keys, devices, counts, durations = zip(*[step.columns for step in steps])
        op_names = [name for name, _ in chain.from_iterable(keys)]
        # String table in first-appearance order (dedups operator names
        # across steps; a name repeated every step is stored once).
        names = {name: code for code, name in enumerate(dict.fromkeys(op_names))}
        numbers, kinds, starts, ends, idles, flops = zip(*map(_STEP_FIELDS, steps))
        return b"".join(
            (
                header,
                _string_table(names),
                _U32.pack(n),
                _step_columns(n).pack(
                    *numbers,
                    *map(_KIND_BY_CODE.index, kinds),
                    *starts,
                    *ends,
                    *idles,
                    *flops,
                    *map(len, keys),
                ),
                _U32.pack(len(op_names)),
                _operator_columns(len(op_names)).pack(
                    *map(names.__getitem__, op_names),
                    *map(_DEVICES.index, chain.from_iterable(devices)),
                    *chain.from_iterable(counts),
                    *chain.from_iterable(durations),
                ),
            )
        )
    except struct.error as error:
        raise CodecError(f"record {record.index} does not fit the codec: {error}")
    except UnicodeEncodeError as error:
        raise CodecError(
            f"record {record.index} has an operator name UTF-8 cannot encode: "
            f"{error.object!r}"
        ) from None


@lru_cache(maxsize=256)
def _operator_layout(table: bytes, per_step: bytes, codes: bytes) -> tuple:
    """Where each step's operators sit in a payload's operator columns.

    ``table`` is the payload's string table, ``per_step`` its per-step
    operator counts and ``codes`` its name index and device columns, as
    raw bytes; the string table's bounds were checked. Returns, per
    step, its slice bounds in the operator columns, its keys and
    devices, and the positions to read when a key repeats: its first
    position with its last entry's values, as filling a dict entry by
    entry would (None when no key repeats).

    A job's records name the same operators in the same places record
    after record (the share of repeats on each benchmark workload is in
    docs/performance.md), so the layout is looked up by these bytes:
    records that repeat a layout share its key and device tuples, and
    lookups on those keys downstream succeed on identity.
    """
    (n_names,) = _U32.unpack_from(table, 0)
    names = []
    offset = 4
    for _ in range(n_names):
        (length,) = _U16.unpack_from(table, offset)
        offset += 2
        names.append(table[offset : offset + length].decode("utf-8"))
        offset += length
    m = len(codes) // 5
    name_indices = struct.unpack(f"<{m}I", codes[: 4 * m])
    device_codes = codes[4 * m :]
    if m:
        if max(name_indices) >= len(names):
            raise CodecError("operator name index out of range")
        if max(device_codes) >= len(_DEVICES):
            raise CodecError(f"unknown device code {max(device_codes)}")
    keys = tuple(
        (names[name], _DEVICES[device].value)
        for name, device in zip(name_indices, device_codes)
    )
    devices = tuple(_DEVICES[device] for device in device_codes)
    layout = []
    low = 0
    for count in struct.unpack(f"<{len(per_step) // 4}I", per_step):
        high = low + count
        step_keys, step_devices, picks = keys[low:high], devices[low:high], None
        last = {key: low + position for position, key in enumerate(step_keys)}
        if len(last) < count:
            picks = tuple(last.values())
            step_keys = tuple(last)
            step_devices = tuple(devices[at] for at in picks)
        layout.append((low, high, step_keys, step_devices, picks))
        low = high
    return tuple(layout)


def decode_payload(buffer) -> ProfileRecord:
    """Rebuild a record from its payload bytes; raises :class:`CodecError`.

    Each step's operators come back as :class:`OperatorColumns` of plain
    Python values: nothing in the record refers to ``buffer``.
    """
    view = memoryview(buffer)
    size = len(view)
    try:
        index, window_start, window_end, flags = _PAYLOAD_HEADER.unpack_from(view, 0)
        table_start = _PAYLOAD_HEADER.size
        (n_names,) = _U32.unpack_from(view, table_start)
        offset = table_start + 4
        for _ in range(n_names):
            (length,) = _U16.unpack_from(view, offset)
            offset += 2 + length
            if offset > size:
                raise CodecError("string table overruns the payload")
        table_end = offset
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
            step_columns = _step_columns(n)
            steps = step_columns.unpack_from(view, offset)
            per_step_at = offset + step_columns.size - 4 * n
            offset += step_columns.size
            (m,) = _U32.unpack_from(view, offset)
            offset += 4
            if m != sum(steps[6 * n :]):
                raise CodecError(
                    "operator columns disagree with the per-step counts"
                )
            if m * 8 > size:
                raise CodecError("operator columns overrun the payload")
            operator_columns = _operator_columns(m)
            operators = operator_columns.unpack_from(view, offset)
            layout = _operator_layout(
                bytes(view[table_start:table_end]),
                bytes(view[per_step_at : per_step_at + 4 * n]),
                bytes(view[offset : offset + 5 * m]),
            )
            offset += operator_columns.size
            kind_codes = steps[n : 2 * n]
            if max(kind_codes) > len(_KINDS):
                raise CodecError(f"unknown step-kind code {max(kind_codes)}")
            counts, durations = operators[2 * m : 3 * m], operators[3 * m :]
            record_steps = record.steps
            for number, code, start, end, idle, mxu, placed in zip(
                steps[:n],
                kind_codes,
                steps[2 * n : 3 * n],
                steps[3 * n : 4 * n],
                steps[4 * n : 5 * n],
                steps[5 * n : 6 * n],
                layout,
            ):
                low, high, keys, devices, picks = placed
                if picks is None:
                    columns = OperatorColumns(
                        keys, devices, counts[low:high], durations[low:high]
                    )
                else:
                    columns = OperatorColumns(
                        keys,
                        devices,
                        tuple(counts[at] for at in picks),
                        tuple(durations[at] for at in picks),
                    )
                record_steps[number] = StepStats(
                    number, None, _KIND_BY_CODE[code], start, end, idle, mxu, columns
                )
        elif n_names:
            # No step names an operator, but the string table must still decode.
            _operator_layout(bytes(view[table_start:table_end]), b"", b"")
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
