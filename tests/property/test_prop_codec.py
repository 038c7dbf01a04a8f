"""Property tests: the binary codec round-trips bit-exactly.

Reuses the record strategies of ``test_prop_serialize`` — whatever a
profiler can emit, the codec must carry. Bit-exactness is asserted
through :func:`record_checksum` (the CRC-32 over the canonical JSON
encoding), which also proves the binary path is checksum-*stable*
against the JSON path: a record that went to disk as columnar blocks
still verifies against a checksum stamped before encoding.

The decoders are an external boundary too: a payload whose bytes were
changed under a freshly stamped CRC (the CRC cannot tell) must still
read as a record or as a corrupt block, never as an untyped exception.
"""

import struct
import zlib

from hypothesis import given, settings, strategies as st

from repro.core.profiler import codec
from repro.core.profiler.journal import RecordJournal, recover_journal
from repro.core.profiler.serialize import record_checksum, record_to_dict
from repro.errors import CodecError
from tests.property.test_prop_serialize import profile_records


@settings(max_examples=60, deadline=None)
@given(profile_records())
def test_payload_round_trip_is_bit_exact(record):
    rebuilt = codec.decode_payload(codec.encode_payload(record))
    assert record_checksum(rebuilt) == record_checksum(record)
    # checksum stability is not just value equality: the JSON views —
    # including dict iteration order — must be identical.
    assert record_to_dict(rebuilt) == record_to_dict(record)


@settings(max_examples=40, deadline=None)
@given(profile_records(), st.integers(0, 2**32 - 1))
def test_frame_round_trip_is_bit_exact(record, seq):
    rebuilt = codec.decode_frame(codec.encode_frame(seq, record))
    assert record_checksum(rebuilt) == record_checksum(record)


@settings(max_examples=25, deadline=None)
@given(records=st.lists(profile_records(), min_size=1, max_size=5))
def test_binary_journal_recovers_everything(records, tmp_path_factory):
    path = tmp_path_factory.mktemp("journal") / "run.journal"
    journal = RecordJournal(path)
    for record in records:
        journal.append(record)
    journal.close()
    recovery = recover_journal(path)
    assert recovery.journal_format == "binary"
    assert recovery.lossless
    assert recovery.entries_recovered == len(records)
    recovered = sorted(recovery.records, key=lambda r: (r.index, r.window_start_us))
    originals = sorted(records, key=lambda r: (r.index, r.window_start_us))
    assert [record_checksum(r) for r in recovered] == [
        record_checksum(r) for r in originals
    ]


@settings(max_examples=30, deadline=None)
@given(profile_records(), st.randoms(use_true_random=False))
def test_mutated_payload_under_a_valid_crc_is_ok_or_corrupt(record, rnd):
    original = codec.encode_block(0, record)
    start, end = codec.BLOCK_HEADER_BYTES, len(original) - 1
    for _ in range(8):
        block = bytearray(original)
        for _ in range(rnd.randint(1, 8)):
            # Half the writes land in the payload's first 64 bytes: its
            # counts and the start of its string table.
            high = end if rnd.random() < 0.5 else min(end, start + 64)
            block[rnd.randint(start, high)] = rnd.randrange(256)
        block[start - 4 : start] = struct.pack("<I", zlib.crc32(block[start:]))
        read = codec.read_block(memoryview(bytes(block)), 0)
        assert read.status in ("ok", "corrupt")
        try:
            codec.decode_frame(codec.FRAME_MAGIC + bytes(block))
        except CodecError:
            assert read.status == "corrupt"
        else:
            assert read.status == "ok"
