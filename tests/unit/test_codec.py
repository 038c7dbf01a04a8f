"""The binary record codec: blocks, frames, journals, record stores."""

import hashlib
import mmap
import struct
import zlib
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from repro.core.profiler import codec, journal
from repro.core.profiler.journal import (
    RecordJournal,
    detect_journal_format,
    recover_journal,
)
from repro.core.profiler.record import OperatorStats, ProfileRecord, StepStats
from repro.core.profiler.serialize import (
    load_records,
    record_checksum,
    save_records,
)
from repro.errors import CodecError, JournalError, ProfilerError
from repro.faults.inject import corrupt_frame, truncate_frame
from repro.runtime.events import DeviceKind, StepKind

GOLDEN = Path(__file__).resolve().parents[1] / "data" / "golden"


def _step(number, ops=(), duration_us=100.0, kind=StepKind.TRAIN):
    step = StepStats(step=number, kind=kind)
    step.start_us = number * duration_us
    step.end_us = (number + 1) * duration_us
    step.tpu_idle_us = 12.5
    step.mxu_flops = 3e9
    for name, device, op_duration in ops:
        step.operators[(name, device.value)] = OperatorStats(
            name=name, device=device, count=4, total_duration_us=op_duration
        )
    return step


def _record(index, steps=(), **kwargs):
    record = ProfileRecord(
        index=index,
        window_start_us=index * 1e6,
        window_end_us=(index + 1) * 1e6,
        **kwargs,
    )
    for step in steps:
        record.steps[step.step] = step
    return record


def _typical_record(index=0):
    return _record(
        index,
        [
            _step(
                2 * index,
                [
                    ("MatMul", DeviceKind.TPU, 55.0),
                    ("InfeedDequeueTuple", DeviceKind.TPU, 20.0),
                    ("RunGraph", DeviceKind.HOST, 30.0),
                ],
            ),
            _step(2 * index + 1, [("fusion", DeviceKind.TPU, 80.0)]),
        ],
    )


def _bad_utf8_block(seq: int, record: ProfileRecord) -> bytes:
    """A block whose string table holds invalid UTF-8 under a valid CRC."""
    block = codec.encode_block(seq, record)
    header, payload = block[: codec.BLOCK_HEADER_BYTES], block[codec.BLOCK_HEADER_BYTES :]
    payload = payload.replace(b"MatMul", b"\xffatMul", 1)
    return header[:-4] + struct.pack("<I", zlib.crc32(payload)) + payload


def _assert_identical(left: ProfileRecord, right: ProfileRecord) -> None:
    """Bit-exact equality, proven through the canonical JSON checksum."""
    assert record_checksum(left) == record_checksum(right)
    assert list(left.steps) == list(right.steps)  # insertion order survives
    for number in left.steps:
        assert list(left.steps[number].operators) == list(
            right.steps[number].operators
        )


class TestPayloadRoundTrip:
    def test_typical_record(self):
        record = _typical_record()
        _assert_identical(record, codec.decode_payload(codec.encode_payload(record)))

    def test_empty_step_map(self):
        record = _record(7, [], truncated=True, final=True)
        rebuilt = codec.decode_payload(codec.encode_payload(record))
        assert rebuilt.steps == {}
        assert rebuilt.truncated and rebuilt.final
        _assert_identical(record, rebuilt)

    def test_host_only_operators(self):
        record = _record(
            1, [_step(0, [("SaveV2", DeviceKind.HOST, 11.0)], kind=None)]
        )
        rebuilt = codec.decode_payload(codec.encode_payload(record))
        stats = rebuilt.steps[0].operators[("SaveV2", DeviceKind.HOST.value)]
        assert stats.device is DeviceKind.HOST
        assert rebuilt.steps[0].kind is None
        _assert_identical(record, rebuilt)

    def test_zero_duration_operators(self):
        record = _record(2, [_step(0, [("Noop", DeviceKind.TPU, 0.0)])])
        rebuilt = codec.decode_payload(codec.encode_payload(record))
        assert (
            rebuilt.steps[0].operators[("Noop", DeviceKind.TPU.value)].total_duration_us
            == 0.0
        )
        _assert_identical(record, rebuilt)

    def test_repeated_key_keeps_first_position_and_last_values(self):
        # A CRC-valid payload may name one operator twice in a step; it
        # decodes as filling a dict entry by entry would.
        step = _step(
            0,
            [("A", DeviceKind.TPU, 1.0), ("B", DeviceKind.TPU, 2.0), ("C", DeviceKind.TPU, 3.0)],
        )
        payload = bytearray(codec.encode_payload(_record(0, [step])))
        names_at = len(payload) - 21 * 3  # the last columns: 3 x (u32, u8, i64, f64)
        struct.pack_into("<I", payload, names_at + 8, 0)  # the third op is "A" again
        rebuilt = codec.decode_payload(bytes(payload)).steps[0]
        assert list(rebuilt.operators) == [("A", "tpu"), ("B", "tpu")]
        assert rebuilt.operators[("A", "tpu")].total_duration_us == 3.0

    def test_decoded_steps_share_key_tuples(self):
        first, second = (
            codec.decode_payload(codec.encode_payload(_typical_record(0)))
            for _ in range(2)
        )
        assert first.steps[0].columns.keys is second.steps[0].columns.keys

    def test_trailing_bytes_rejected(self):
        payload = codec.encode_payload(_typical_record())
        with pytest.raises(CodecError):
            codec.decode_payload(payload + b"\x00")


class TestFrames:
    def test_frame_round_trip(self):
        record = _typical_record(3)
        _assert_identical(record, codec.decode_frame(codec.encode_frame(9, record)))

    def test_missing_magic_rejected(self):
        frame = codec.encode_frame(0, _typical_record())
        with pytest.raises(CodecError):
            codec.decode_frame(frame[1:])

    def test_single_bit_corruption_is_always_caught(self):
        frame = codec.encode_frame(0, _typical_record())
        rng = np.random.default_rng(5)
        for _ in range(16):
            mangled = corrupt_frame(frame, rng)
            assert mangled != frame
            with pytest.raises(CodecError):
                codec.decode_frame(mangled)

    def test_truncated_frame_is_caught(self):
        frame = codec.encode_frame(0, _typical_record())
        cut = truncate_frame(frame)
        assert len(cut) < len(frame)
        with pytest.raises(CodecError):
            codec.decode_frame(cut)

    def test_stub_of_refused_frame_keeps_header_fields(self):
        record = _typical_record(11)
        frame = codec.encode_frame(4, record)
        stub = codec.frame_stub(corrupt_frame(frame, np.random.default_rng(0)))
        assert stub.index == record.index
        assert stub.window_start_us == record.window_start_us
        assert stub.window_end_us == record.window_end_us
        assert stub.steps == {}

    def test_stub_of_unreadable_frame_is_unattributable(self):
        assert codec.frame_stub(b"TP").index == -1

    def test_invalid_utf8_name_is_a_codec_error(self):
        frame = codec.FRAME_MAGIC + _bad_utf8_block(0, _typical_record())
        with pytest.raises(CodecError, match="malformed record payload"):
            codec.decode_frame(frame)

    def test_unencodable_name_is_a_codec_error_naming_the_record(self):
        record = _record(7, [_step(14, [("x\udc80", DeviceKind.TPU, 5.0)])])
        with pytest.raises(CodecError, match="record 7 .*UTF-8"):
            codec.encode_frame(0, record)

    def test_unencodable_name_through_the_fleet_sink(self):
        from repro.serve import FleetService

        service = FleetService()
        job = service.register("bert-mrpc").job_id
        record = _record(3, [_step(6, [("x\udc80", DeviceKind.TPU, 5.0)])])
        with pytest.raises(CodecError, match="record 3 "):
            service.sink(job)(record)
        assert service.metrics.records_submitted == 0

    def test_invalid_utf8_name_without_steps_is_a_codec_error(self):
        # The string table is decoded even when no step refers to it.
        header = codec.encode_payload(_record(0, []))[:-8]
        payload = header + struct.pack("<IH", 1, 1) + b"\xff" + struct.pack("<I", 0)
        with pytest.raises(CodecError, match="malformed record payload"):
            codec.decode_payload(payload)


class TestBinaryJournal:
    def _write(self, path, count=4):
        journal = RecordJournal(path)  # binary is the default
        records = [_typical_record(i) for i in range(count)]
        for record in records:
            journal.append(record)
        journal.close()
        return records

    def test_round_trip_and_detection(self, tmp_path):
        path = tmp_path / "run.journal"
        records = self._write(path)
        assert detect_journal_format(path) == "binary"
        recovery = recover_journal(path)
        assert recovery.journal_format == "binary"
        assert recovery.lossless
        assert recovery.bytes_total == path.stat().st_size > 0
        for original, recovered in zip(records, recovery.records):
            _assert_identical(original, recovered)

    def test_unencodable_name_is_refused_before_the_block_is_written(self, tmp_path):
        path = tmp_path / "run.journal"
        journal = RecordJournal(path)
        journal.append(_typical_record(0))
        bad = _record(1, [_step(2, [("x\udc80", DeviceKind.TPU, 5.0)])])
        with pytest.raises(CodecError, match="record 1 "):
            journal.append(bad)
        journal.append(_typical_record(2))
        journal.close()
        recovery = recover_journal(path)
        assert recovery.lossless
        assert [record.index for record in recovery.records] == [0, 2]

    def test_torn_tail_mid_block_keeps_full_blocks(self, tmp_path):
        path = tmp_path / "run.journal"
        self._write(path, count=4)
        raw = path.read_bytes()
        path.write_bytes(raw[: len(raw) - 10])  # cut the last block's payload
        recovery = recover_journal(path)
        assert recovery.torn_tail
        assert recovery.corrupt_entries == 0
        assert [record.index for record in recovery.records] == [0, 1, 2]
        # strict mode tolerates a torn tail — it is the expected crash shape
        assert recover_journal(path, strict=True).torn_tail

    def test_mid_file_corruption_is_skipped_and_counted(self, tmp_path):
        path = tmp_path / "run.journal"
        self._write(path, count=4)
        raw = bytearray(path.read_bytes())
        # Flip one payload bit of block 1 (past its 36-byte header).
        offset = len(codec.MAGIC)
        first = codec.read_block(memoryview(bytes(raw)), offset)
        raw[first.next_offset + codec.BLOCK_HEADER_BYTES + 3] ^= 0x10
        path.write_bytes(bytes(raw))
        recovery = recover_journal(path)
        assert recovery.corrupt_entries == 1
        assert not recovery.torn_tail
        assert [record.index for record in recovery.records] == [0, 2, 3]
        with pytest.raises(JournalError):
            recover_journal(path, strict=True)

    def test_garbage_file_is_a_clean_error(self, tmp_path):
        path = tmp_path / "garbage"
        path.write_bytes(b"\x7fELF\x02\x01\x01\x00 not a journal")
        with pytest.raises(JournalError):
            recover_journal(path)

    def test_unsupported_codec_version_is_named(self, tmp_path):
        path = tmp_path / "future.journal"
        path.write_bytes(codec.MAGIC_PREFIX + bytes([codec.CODEC_VERSION + 1]))
        with pytest.raises(JournalError, match="version"):
            recover_journal(path)

    def test_invalid_utf8_block_is_skipped_and_counted(self, tmp_path):
        path = tmp_path / "run.journal"
        records = self._write(path, count=3)
        raw = path.read_bytes()
        first = codec.read_block(memoryview(raw), len(codec.MAGIC))
        second = codec.read_block(memoryview(raw), first.next_offset)
        path.write_bytes(
            raw[: first.next_offset]
            + _bad_utf8_block(1, records[1])
            + raw[second.next_offset :]
        )
        recovery = recover_journal(path)
        assert recovery.corrupt_entries == 1
        assert not recovery.torn_tail
        assert [record.index for record in recovery.records] == [0, 2]
        with pytest.raises(JournalError, match="malformed record payload"):
            recover_journal(path, strict=True)

    def test_directory_is_a_clean_error(self, tmp_path):
        with pytest.raises(JournalError, match="not a regular file"):
            recover_journal(tmp_path)

    @pytest.fixture
    def maps(self, monkeypatch):
        """Every memory map the journal reader opens, to check it is closed."""
        opened = []

        class Recorded(mmap.mmap):
            def __new__(cls, *args, **kwargs):
                opened.append(super().__new__(cls, *args, **kwargs))
                return opened[-1]

        monkeypatch.setattr(
            journal, "mmap", SimpleNamespace(mmap=Recorded, ACCESS_READ=mmap.ACCESS_READ)
        )
        return opened

    def test_error_escaping_a_block_read_is_not_masked(self, tmp_path, monkeypatch, maps):
        path = tmp_path / "run.journal"
        self._write(path)

        def read_block(view, offset):
            payload = view[offset : offset + 8]  # a live slice in the raising frame
            raise RuntimeError(f"cannot parse {len(payload)} bytes")

        monkeypatch.setattr(codec, "read_block", read_block)
        with pytest.raises(RuntimeError, match="cannot parse"):
            recover_journal(path)
        assert len(maps) == 1 and maps[0].closed

    def test_map_is_closed_after_a_scan_and_a_strict_error(self, tmp_path, maps):
        path = tmp_path / "run.journal"
        self._write(path)
        raw = bytearray(path.read_bytes())
        raw[len(codec.MAGIC) + codec.BLOCK_HEADER_BYTES + 3] ^= 0x10
        path.write_bytes(bytes(raw))
        assert recover_journal(path).corrupt_entries == 1
        with pytest.raises(JournalError):
            recover_journal(path, strict=True)
        assert len(maps) == 2 and all(buffer.closed for buffer in maps)

    def test_json_journals_still_recover(self, legacy_copy):
        path = legacy_copy("run.jsonl")
        assert detect_journal_format(path) == "json"
        recovery = recover_journal(path)
        assert recovery.journal_format == "json"
        assert recovery.lossless
        twin = recover_journal(legacy_copy("run.journal"))
        assert len(recovery.records) == len(twin.records) == 3
        for original, recovered in zip(twin.records, recovery.records):
            _assert_identical(original, recovered)


class TestBinaryRecordStore:
    def test_round_trip(self, tmp_path):
        records = [_typical_record(i) for i in range(3)]
        save_records(records, tmp_path / "store")
        assert (tmp_path / "store" / "records.bin").exists()
        loaded = load_records(tmp_path / "store")
        for original, recovered in zip(records, loaded):
            _assert_identical(original, recovered)

    def test_unencodable_name_is_a_codec_error(self, tmp_path):
        records = [_typical_record(0), _record(1, [_step(2, [("x\udc80", DeviceKind.TPU, 5.0)])])]
        with pytest.raises(CodecError, match="record 1 "):
            save_records(records, tmp_path / "store")

    @pytest.mark.parametrize("damage", ["torn", "corrupt", "missing", "no-magic", "utf8"])
    def test_damaged_store_file_is_named(self, tmp_path, damage):
        records = [_typical_record(i) for i in range(3)]
        path = save_records(records, tmp_path / "store") / "records.bin"
        raw = path.read_bytes()
        if damage == "torn":
            path.write_bytes(raw[:-10])
        elif damage == "corrupt":
            path.write_bytes(raw[:-10] + bytes([raw[-10] ^ 0x10]) + raw[-9:])
        elif damage == "missing":
            path.unlink()
        elif damage == "no-magic":
            path.write_bytes(raw[len(codec.MAGIC) :])
        else:
            path.write_bytes(codec.MAGIC + _bad_utf8_block(0, records[0]))
        with pytest.raises(ProfilerError, match="records.bin"):
            load_records(tmp_path / "store")



def _bad_kind_record(index):
    record = _record(index, [_step(2 * index, [("MatMul", DeviceKind.TPU, 5.0)])])
    record.steps[2 * index].kind = "train"
    return record


def _bad_device_record(index, name="MatMul"):
    step = _step(2 * index)
    step.operators[(name, "tpu")] = OperatorStats(
        name=name, device="tpu", count=1, total_duration_us=5.0
    )
    return _record(index, [step])


#: A step kind or operator device that is not an enum member, and the
#: field each error names.
_NOT_MEMBERS = [
    pytest.param(_bad_kind_record, "step 6 has kind 'train'", id="kind"),
    pytest.param(_bad_device_record, "operator 'MatMul' has device 'tpu'", id="device"),
]


class TestNotEnumMembers:
    """A kind or device outside its enum is a CodecError naming the record and field."""

    @pytest.mark.parametrize(("build", "field"), _NOT_MEMBERS)
    def test_through_the_fleet_sink(self, build, field):
        from repro.serve import FleetService

        service = FleetService()
        job = service.register("bert-mrpc").job_id
        with pytest.raises(CodecError, match=f"record 3: {field}"):
            service.sink(job)(build(3))
        assert service.metrics.records_submitted == 0

    @pytest.mark.parametrize(("build", "field"), _NOT_MEMBERS)
    def test_through_the_journal_which_writes_nothing(self, tmp_path, build, field):
        path = tmp_path / "run.journal"
        journal = RecordJournal(path)
        journal.append(_typical_record(0))
        written = journal.bytes_written
        with pytest.raises(CodecError, match=f"record 3: {field}"):
            journal.append(build(3))
        assert (journal.bytes_written, journal.entries_written) == (written, 1)
        journal.append(_typical_record(2))
        journal.close()
        recovery = recover_journal(path)
        assert recovery.lossless
        assert [record.index for record in recovery.records] == [0, 2]

    @pytest.mark.parametrize(("build", "field"), _NOT_MEMBERS)
    def test_through_save_records(self, tmp_path, build, field):
        with pytest.raises(CodecError, match=f"record 3: {field}"):
            save_records([_typical_record(0), build(3)], tmp_path / "store")

    def test_a_layout_that_fails_to_build_is_not_cached(self):
        record = _bad_device_record(3, name="NeverCompiled")
        keys = (record.steps[6].columns.keys,)
        with pytest.raises(CodecError):
            codec.encode_payload(record)
        assert keys not in codec._encodings

#: Operator mixes of hand-built steps, shaped like the fleet-wide
#: benchmark's: (name, device, mean duration in us).
_MIXES = {
    StepKind.TRAIN: (
        ("MatMul", DeviceKind.TPU, 900.0),
        ("Conv2D", DeviceKind.TPU, 1200.0),
        ("Relu", DeviceKind.TPU, 80.0),
        ("CrossReplicaSum", DeviceKind.TPU, 300.0),
        ("InfeedDequeueTuple", DeviceKind.TPU, 50.0),
        ("IteratorGetNext", DeviceKind.HOST, 400.0),
    ),
    StepKind.EVAL: (
        ("MatMul", DeviceKind.TPU, 700.0),
        ("Softmax", DeviceKind.TPU, 60.0),
        ("OutfeedEnqueueTuple", DeviceKind.TPU, 40.0),
        ("IteratorGetNext", DeviceKind.HOST, 350.0),
    ),
}


def hand_built_stream(seed: int = 0, count: int = 600) -> list[ProfileRecord]:
    """A seeded stream of hand-built records whose steps hold ``OperatorStats`` dicts.

    Train and eval steps draw from fixed mixes, so names repeat across
    steps and records; an operator is left out now and then, so record
    layouts vary. Counts are 1-3. One record has no steps and one step
    has no operators.
    """
    rng = np.random.default_rng(seed)
    records = []
    number = 0
    for index in range(count):
        record = ProfileRecord(
            index=index,
            window_start_us=number * 10_000.0,
            window_end_us=0.0,
            truncated=bool(rng.random() < 0.1),
            final=index == count - 1,
        )
        clock = record.window_start_us
        for _ in range(0 if index == count // 2 else int(rng.integers(1, 5))):
            kind = StepKind.EVAL if number % 6 == 5 else StepKind.TRAIN
            step = StepStats(step=number, kind=kind, start_us=clock)
            busy = 0.0
            for name, device, mean in _MIXES[kind]:
                if rng.random() < 0.08 or number == 7:
                    continue
                duration = float(mean * rng.uniform(0.9, 1.1))
                step.operators[(name, device.value)] = OperatorStats(
                    name=name,
                    device=device,
                    count=int(rng.integers(1, 4)),
                    total_duration_us=duration,
                )
                busy += duration
            step.end_us = clock + busy * 1.25
            step.tpu_idle_us = busy * 0.25
            step.mxu_flops = busy * 4.0e6
            clock = step.end_us
            record.steps[number] = step
            number += 1
        record.window_end_us = clock
        records.append(record)
    return records


class TestFrameGolden:
    """The wire bytes of hand-built records, pinned by a SHA-256.

    The journal golden pins records the profiler built, whose steps hold
    columns; these records hold ``OperatorStats`` dicts, the encoder's
    other input.
    """

    def test_hand_built_frames_match_the_golden(self):
        records = hand_built_stream()
        assert not records[len(records) // 2].steps
        assert any(
            not step.operators for record in records for step in record.steps.values()
        )
        digest = hashlib.sha256()
        for seq, record in enumerate(records):
            digest.update(codec.encode_frame(seq, record))
        line = (GOLDEN / "frames_sha256.txt").read_text(encoding="utf-8").split()
        assert digest.hexdigest() == line[0]
