"""The content-hashed analysis memo cache."""

import numpy as np
import pytest

from repro.core.analyzer import TPUPointAnalyzer
from repro.core.analyzer import cache as cache_mod
from repro.core.analyzer.cache import AnalysisCache, matrix_key
from repro.errors import CacheError


@pytest.fixture
def matrix(rng) -> np.ndarray:
    return rng.normal(size=(12, 4))


class TestMatrixKey:
    def test_deterministic(self, matrix):
        assert matrix_key(matrix, "pca", max_dims=10) == matrix_key(
            matrix, "pca", max_dims=10
        )

    def test_sensitive_to_content(self, matrix):
        changed = matrix.copy()
        changed[0, 0] += 1e-9
        assert matrix_key(matrix, "pca") != matrix_key(changed, "pca")

    def test_sensitive_to_stage_params_dtype(self, matrix):
        base = matrix_key(matrix, "pca", max_dims=10)
        assert base != matrix_key(matrix, "kmeans_sweep", max_dims=10)
        assert base != matrix_key(matrix, "pca", max_dims=11)
        assert base != matrix_key(matrix.astype(np.float32), "pca", max_dims=10)

    @pytest.mark.parametrize("salt", ["SCHEMA_VERSION", "CODEC_VERSION", "KERNEL_VERSION"])
    def test_version_bump_changes_key(self, matrix, monkeypatch, salt):
        # Entries written before a format or kernel change must miss after it.
        base = matrix_key(matrix, "kmeans_sweep", seed=0)
        monkeypatch.setattr(cache_mod, salt, getattr(cache_mod, salt) + 1)
        assert matrix_key(matrix, "kmeans_sweep", seed=0) != base


class TestMemoryTier:
    def test_miss_then_hit(self, matrix):
        cache = AnalysisCache()
        key = matrix_key(matrix, "pca")
        assert cache.get_array(key) is None
        assert cache.misses == 1
        cache.put_array(key, matrix)
        got = cache.get_array(key)
        assert np.array_equal(got, matrix)
        assert cache.hits == 1
        assert len(cache) == 1

    def test_tables(self):
        cache = AnalysisCache()
        assert cache.get_table("k") is None
        cache.put_table("k", {"3": 0.5})
        assert cache.get_table("k") == {"3": 0.5}


class TestDiskTier:
    def test_arrays_survive_across_instances(self, matrix, tmp_path):
        key = matrix_key(matrix, "pca")
        AnalysisCache(directory=tmp_path).put_array(key, matrix)
        fresh = AnalysisCache(directory=tmp_path)
        got = fresh.get_array(key)
        assert np.array_equal(got, matrix)
        assert fresh.hits == 1

    def test_tables_survive_across_instances(self, tmp_path):
        AnalysisCache(directory=tmp_path).put_table("sweep", {"5": 0.25})
        assert AnalysisCache(directory=tmp_path).get_table("sweep") == {"5": 0.25}

    def test_unreadable_entry_raises(self, tmp_path):
        (tmp_path / "deadbeef.npz").write_bytes(b"not an npz")
        with pytest.raises(CacheError):
            AnalysisCache(directory=tmp_path).get_array("deadbeef")

    def test_corrupt_table_raises(self, tmp_path):
        (tmp_path / "deadbeef.json").write_text("{broken", encoding="utf-8")
        with pytest.raises(CacheError):
            AnalysisCache(directory=tmp_path).get_table("deadbeef")


class TestAnalyzerIntegration:
    def test_repeat_analysis_hits_cache_and_matches(self, bert_mrpc_run, tmp_path):
        _, _, records = bert_mrpc_run
        first = TPUPointAnalyzer(records, cache=AnalysisCache(directory=tmp_path))
        cold_sweep = first.kmeans_sweep(range(1, 5))
        cold_dbscan = first.dbscan_sweep()
        cold_phases = first.kmeans_phases(k=3)

        # A fresh process over the same records: every stage short-circuits.
        second = TPUPointAnalyzer(records, cache=AnalysisCache(directory=tmp_path))
        assert second.kmeans_sweep(range(1, 5)) == cold_sweep
        assert second.dbscan_sweep() == cold_dbscan
        warm_phases = second.kmeans_phases(k=3)
        assert np.array_equal(warm_phases.labels, cold_phases.labels)
        assert second.cache.hits >= 3

    def test_uncached_analyzer_matches_cached(self, bert_mrpc_run, tmp_path):
        _, _, records = bert_mrpc_run
        plain = TPUPointAnalyzer(records)
        cached = TPUPointAnalyzer(records, cache=AnalysisCache(directory=tmp_path))
        assert plain.kmeans_sweep(range(1, 4)) == cached.kmeans_sweep(range(1, 4))
        # The elbow path, cold (fit taken from the sweep) and warm (sweep
        # and labels tables served from disk), equals the uncached one.
        reference = plain.kmeans_phases()
        warm = TPUPointAnalyzer(records, cache=AnalysisCache(directory=tmp_path))
        for analyzer in (cached, warm):
            phases = analyzer.kmeans_phases()
            assert phases.params == reference.params
            assert np.array_equal(phases.labels, reference.labels)
        assert warm.cache.misses == 0
