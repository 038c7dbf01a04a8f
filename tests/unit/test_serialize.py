"""Profile-record serialization round trips."""

import json

import pytest

from repro.core.analyzer import TPUPointAnalyzer
from repro.core.profiler.serialize import (
    SCHEMA_VERSION,
    load_records,
    record_from_dict,
    record_to_dict,
    save_records,
)
from repro.errors import ProfilerError


def _signatures(records):
    """A deep, order-insensitive view for equality checks."""
    return [
        (
            record.index,
            record.window_start_us,
            record.window_end_us,
            record.truncated,
            record.final,
            {
                step: sorted(
                    (k, s.count, s.total_duration_us)
                    for k, s in stats.operators.items()
                )
                for step, stats in record.steps.items()
            },
            {step: (stats.kind, stats.start_us, stats.end_us) for step, stats in record.steps.items()},
        )
        for record in records
    ]


class TestDictRoundTrip:
    def test_round_trip_preserves_everything(self, tiny_run):
        _, _, records = tiny_run
        rebuilt = [record_from_dict(record_to_dict(r)) for r in records]
        assert _signatures(rebuilt) == _signatures(records)

    def test_dict_is_json_serializable(self, tiny_run):
        _, _, records = tiny_run
        json.dumps(record_to_dict(records[0]))

    def test_schema_version_enforced(self, tiny_run):
        _, _, records = tiny_run
        payload = record_to_dict(records[0])
        payload["schema"] = SCHEMA_VERSION + 1
        with pytest.raises(ProfilerError):
            record_from_dict(payload)


class TestDiskRoundTrip:
    def test_save_and_load(self, tiny_run, tmp_path):
        _, _, records = tiny_run
        directory = save_records(records, tmp_path / "recs")
        assert (directory / "manifest.json").exists()
        loaded = load_records(directory)
        assert _signatures(loaded) == _signatures(records)

    def test_loaded_records_analyze_identically(self, tiny_run, tmp_path):
        _, _, records = tiny_run
        save_records(records, tmp_path / "recs")
        original = TPUPointAnalyzer(records).ols_phases()
        reloaded = TPUPointAnalyzer(load_records(tmp_path / "recs")).ols_phases()
        assert reloaded.num_phases == original.num_phases
        assert reloaded.coverage().top(3) == pytest.approx(original.coverage().top(3))

    def test_missing_manifest(self, tmp_path):
        with pytest.raises(ProfilerError):
            load_records(tmp_path)

    @pytest.mark.parametrize(
        "manifest", ['{"schema": 1', "[1]", '{"schema": 1}', '{"schema": 1, "records": 3}']
    )
    def test_malformed_manifest(self, tmp_path, manifest):
        (tmp_path / "manifest.json").write_text(manifest, encoding="utf-8")
        with pytest.raises(ProfilerError, match="manifest.json"):
            load_records(tmp_path)

    def test_api_save_records(self, tiny_estimator, tmp_path):
        from repro.core.api import TPUPoint

        tpupoint = TPUPoint(tiny_estimator)
        tpupoint.Start()
        tiny_estimator.train()
        tpupoint.Stop()
        directory = tpupoint.save_records(tmp_path / "api-recs")
        assert len(load_records(directory)) == len(tpupoint.records)
