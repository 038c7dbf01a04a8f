"""Files written in the legacy JSON encodings still read, identically.

Nothing writes JSONL journals or JSON record stores any more; the
committed fixtures under ``tests/data/legacy`` (see its README) were
written by the last writers that did, each next to a binary twin of
the same records.
"""

from repro.cli import main as cli_main
from repro.core.profiler.journal import recover_journal
from repro.core.profiler.serialize import load_records, record_checksum, save_records
from tests.conftest import LEGACY_DATA


def _checksums(records) -> list[int]:
    return [record_checksum(record) for record in records]


class TestLegacyFixtures:
    def test_each_legacy_file_reads_as_its_binary_twin(self):
        jsonl = recover_journal(LEGACY_DATA / "run.jsonl")
        binary = recover_journal(LEGACY_DATA / "run.journal")
        assert (jsonl.journal_format, binary.journal_format) == ("json", "binary")
        assert jsonl.lossless and binary.lossless
        expected = _checksums(binary.records)
        assert [record.index for record in binary.records] == [0, 7, 8]
        assert _checksums(jsonl.records) == expected
        assert _checksums(load_records(LEGACY_DATA / "records-json")) == expected
        assert _checksums(load_records(LEGACY_DATA / "records-binary")) == expected

    def test_save_records_writes_the_binary_twin_byte_for_byte(self, tmp_path):
        records = load_records(LEGACY_DATA / "records-json")
        directory = save_records(records, tmp_path / "store")
        twin = LEGACY_DATA / "records-binary"
        assert sorted(path.name for path in directory.iterdir()) == [
            "manifest.json",
            "records.bin",
        ]
        for name in ("records.bin", "manifest.json"):
            assert (directory / name).read_bytes() == (twin / name).read_bytes()

    def test_recover_prints_the_same_analysis_for_both_journals(self, capsys):
        def recover(name: str) -> list[str]:
            assert cli_main(["recover", str(LEGACY_DATA / name)]) == 0
            return capsys.readouterr().out.splitlines()

        jsonl, binary = recover("run.jsonl"), recover("run.journal")
        assert "format          : json" in jsonl
        assert "format          : binary" in binary

        def analysis(lines: list[str]) -> list[str]:
            skipped = ("== recovery of ", "format ", "throughput ")
            return [line for line in lines if not line.startswith(skipped)]

        assert analysis(jsonl) == analysis(binary)
        assert any(line.startswith("phases (ols") for line in analysis(jsonl))
