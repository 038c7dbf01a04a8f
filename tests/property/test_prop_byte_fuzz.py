"""Byte fuzz at the wire-frame and journal decoders.

One strategy, :func:`damaged`, edits the bytes of a valid frame or
journal anywhere — file or frame magic, block header, length and CRC
fields included — by flipping, inserting and deleting bytes and by
cutting the tail. In half the cases it then re-stamps every block's
CRC that its (possibly damaged) framing still locates, so the payload
decoder is reached instead of the CRC check refusing the block.

Each decoder must return a result or raise a :mod:`repro.errors` type,
and records recovered from a journal must stay readable after the
journal's memory map is closed.
"""

import struct
import tempfile
import zlib
from pathlib import Path

from hypothesis import given, settings, strategies as st

from repro.core.profiler import codec
from repro.core.profiler.journal import RecordJournal, recover_journal
from repro.core.profiler.serialize import record_checksum
from repro.errors import CodecError, ReproError
from tests.property.test_prop_serialize import profile_records

_LENGTH = codec.BLOCK_HEADER_BYTES - 8  # payload_len, then crc32
_CRC = codec.BLOCK_HEADER_BYTES - 4


def _restamp(data: bytearray, offset: int) -> None:
    """Set the CRC of every block whose framing locates a whole payload."""
    while offset + codec.BLOCK_HEADER_BYTES <= len(data):
        (length,) = struct.unpack_from("<I", data, offset + _LENGTH)
        start = offset + codec.BLOCK_HEADER_BYTES
        if start + length > len(data):
            return
        struct.pack_into("<I", data, offset + _CRC, zlib.crc32(data[start : start + length]))
        offset = start + length


@st.composite
def damaged(draw, data: bytes, first_block: int):
    """``data`` after one to four byte edits, its CRCs re-stamped half the time."""
    data = bytearray(data)
    for _ in range(draw(st.integers(1, 4))):
        edit = draw(st.sampled_from(("flip", "insert", "delete", "truncate")))
        if not data and edit != "insert":
            continue
        at = draw(st.integers(0, max(len(data) - 1, 0)))
        if edit == "flip":
            data[at] ^= draw(st.integers(1, 255))
        elif edit == "insert":
            data[at:at] = draw(st.binary(min_size=1, max_size=8))
        elif edit == "delete":
            del data[at : at + draw(st.integers(1, 8))]
        else:
            del data[at:]
    if draw(st.booleans()):
        _restamp(data, first_block)
    return bytes(data)


def _frames():
    return st.tuples(profile_records(), st.integers(0, 2**32 - 1)).map(
        lambda drawn: codec.encode_frame(drawn[1], drawn[0])
    )


def _journal_bytes(records) -> bytes:
    with tempfile.TemporaryDirectory() as directory:
        path = Path(directory) / "run.journal"
        journal = RecordJournal(path)
        for record in records:
            journal.append(record)
        journal.close()
        return path.read_bytes()


def _journals():
    return st.lists(profile_records(), min_size=1, max_size=4).map(_journal_bytes)


@settings(max_examples=300, deadline=None)
@given(_frames().flatmap(lambda frame: damaged(frame, len(codec.FRAME_MAGIC))))
def test_damaged_frame_decodes_or_raises_codec_error(frame):
    try:
        record = codec.decode_frame(frame)
    except CodecError:
        return
    record_checksum(record)


@settings(max_examples=200, deadline=None)
@given(
    _journals().flatmap(lambda data: damaged(data, len(codec.MAGIC))),
    st.booleans(),
)
def test_damaged_journal_recovers_or_raises_typed(data, strict):
    with tempfile.TemporaryDirectory() as directory:
        path = Path(directory) / "run.journal"
        path.write_bytes(data)
        try:
            recovery = recover_journal(path, strict=strict)
        except ReproError:
            return
    # The map is closed and the file gone: every record must still read.
    for record in recovery.records:
        record_checksum(record)
        codec.encode_block(0, record)
