"""The tuning knowledge base, its JSON store, and phase fingerprints."""

import json
import os

import pytest

from repro.core.optimizer.detector import CriticalPhaseDetector
from repro.core.optimizer.knowledge import (
    MAX_OBSERVATIONS,
    KnowledgeEntry,
    TuningKnowledgeBase,
)
from repro.core.profiler.record import StepStats
from repro.errors import ConfigurationError, OptimizerError, StorageError
from repro.host.pipeline import PipelineConfig
from repro.runtime.events import DeviceKind
from repro.storage import JsonDocumentStore

_SIG = frozenset({"fusion", "InfeedDequeueTuple", "Reshape"})


def _entry(signature=_SIG, improvement=1.5, **knobs):
    config = {"prefetch_depth": 8, "num_parallel_calls": 16, **knobs}
    return KnowledgeEntry(
        signature=signature, config=config, improvement=improvement, trials=9,
        workload="test-workload",
    )


class TestJsonDocumentStore:
    def test_round_trip(self, tmp_path):
        store = JsonDocumentStore(tmp_path / "kb")
        path = store.save("doc", {"a": 1, "nested": {"b": [1, 2]}})
        assert path.exists()
        assert store.load("doc") == {"a": 1, "nested": {"b": [1, 2]}}
        assert store.names() == ["doc"]
        assert store.exists("doc")

    def test_missing_document_is_none(self, tmp_path):
        assert JsonDocumentStore(tmp_path).load("absent") is None

    def test_corrupt_document_raises(self, tmp_path):
        store = JsonDocumentStore(tmp_path)
        store.path("bad").write_text("{not json", encoding="utf-8")
        with pytest.raises(StorageError, match="unreadable"):
            store.load("bad")

    def test_non_object_document_raises(self, tmp_path):
        store = JsonDocumentStore(tmp_path)
        store.path("list").write_text("[1, 2]", encoding="utf-8")
        with pytest.raises(StorageError, match="not a JSON object"):
            store.load("list")

    def test_invalid_names_rejected(self, tmp_path):
        store = JsonDocumentStore(tmp_path)
        for name in ("", "a/b", ".hidden"):
            with pytest.raises(StorageError):
                store.path(name)

    def test_save_leaves_no_tmp_files(self, tmp_path):
        store = JsonDocumentStore(tmp_path)
        store.save("doc", {"a": 1})
        assert not list(tmp_path.glob("*.tmp"))

    def test_delete(self, tmp_path):
        store = JsonDocumentStore(tmp_path)
        store.save("doc", {})
        assert store.delete("doc") is True
        assert store.delete("doc") is False

    def test_unserializable_document_raises(self, tmp_path):
        with pytest.raises(StorageError, match="JSON-serializable"):
            JsonDocumentStore(tmp_path).save("doc", {"x": object()})


class TestKnowledgeEntry:
    def test_document_round_trip(self):
        entry = _entry()
        again = KnowledgeEntry.from_document(entry.to_document())
        assert again == entry

    def test_validation(self):
        with pytest.raises(OptimizerError):
            _entry(signature=frozenset())
        with pytest.raises(OptimizerError):
            KnowledgeEntry(signature=_SIG, config={}, improvement=1.0, trials=0)

    def test_malformed_document_raises(self):
        with pytest.raises(StorageError):
            KnowledgeEntry.from_document({"signature": ["a"]})

    def test_apply_to_preserves_untouched_knobs(self):
        base = PipelineConfig(jitter=0.0, shuffle_buffer=999)
        applied = _entry().apply_to(base)
        assert applied.prefetch_depth == 8
        assert applied.num_parallel_calls == 16
        assert applied.jitter == 0.0
        assert applied.shuffle_buffer == 999

    def test_unknown_knob_raises_configuration_error(self):
        entry = _entry(warp_factor=9)
        with pytest.raises(ConfigurationError, match="unknown knobs"):
            entry.pipeline_config()

    def test_invalid_value_raises_configuration_error(self):
        entry = _entry(num_parallel_calls=-3)
        with pytest.raises(ConfigurationError):
            entry.pipeline_config()


class TestTuningKnowledgeBase:
    def test_open_empty(self, tmp_path):
        kb = TuningKnowledgeBase.open(tmp_path)
        assert len(kb) == 0

    def test_record_save_reopen(self, tmp_path):
        kb = TuningKnowledgeBase.open(tmp_path)
        kb.record(_entry())
        kb.save()
        again = TuningKnowledgeBase.open(tmp_path)
        assert len(again) == 1
        assert again.entries[0].config["prefetch_depth"] == 8

    def test_lookup_exact_hit(self):
        kb = TuningKnowledgeBase()
        kb.record(_entry())
        match = kb.lookup(_SIG)
        assert match is not None
        assert match.similarity == 1.0
        assert match.config.prefetch_depth == 8

    def test_lookup_below_threshold_misses(self):
        kb = TuningKnowledgeBase()
        kb.record(_entry())
        assert kb.lookup(frozenset({"conv", "pool", "softmax"})) is None

    def test_lookup_partial_overlap(self):
        kb = TuningKnowledgeBase()
        kb.record(_entry())
        # 2 of min(3, 3) shared operators = 0.67 < 0.70 default threshold.
        probe = frozenset({"fusion", "InfeedDequeueTuple", "conv"})
        assert kb.lookup(probe) is None
        assert kb.lookup(probe, threshold=0.5) is not None

    def test_lookup_prefers_higher_similarity(self):
        kb = TuningKnowledgeBase()
        near = frozenset({"fusion", "InfeedDequeueTuple", "conv"})  # 2/3 overlap
        kb.record(_entry(signature=near, prefetch_depth=2))
        kb.record(_entry(signature=_SIG, prefetch_depth=4))
        match = kb.lookup(_SIG, threshold=0.5)
        assert match.similarity == 1.0
        assert match.entry.config["prefetch_depth"] == 4

    def test_lookup_tie_prefers_larger_improvement(self):
        kb = TuningKnowledgeBase()
        kb.record(_entry(signature=frozenset({"a", "b"}), improvement=1.2))
        kb.record(_entry(signature=frozenset({"a", "c"}), improvement=2.0))
        # Probe overlaps both signatures equally.
        match = kb.lookup(frozenset({"a"}), threshold=0.9)
        assert match.entry.improvement == 2.0

    def test_empty_signature_lookup_rejected(self):
        with pytest.raises(OptimizerError):
            TuningKnowledgeBase().lookup(frozenset())

    def test_record_merge_keeps_better_improvement(self):
        kb = TuningKnowledgeBase()
        kb.record(_entry(improvement=1.5, prefetch_depth=4))
        kb.record(_entry(improvement=1.2, prefetch_depth=1))
        assert len(kb) == 1
        assert kb.entries[0].config["prefetch_depth"] == 4
        kb.record(_entry(improvement=2.0, prefetch_depth=16))
        assert len(kb) == 1
        assert kb.entries[0].config["prefetch_depth"] == 16

    def test_corrupt_store_degrades_to_empty(self, tmp_path):
        (tmp_path / "tuning_knowledge.json").write_text("{torn", encoding="utf-8")
        kb = TuningKnowledgeBase.open(tmp_path)
        assert len(kb) == 0
        # And the base remains writable afterwards.
        kb.record(_entry())
        kb.save()
        assert len(TuningKnowledgeBase.open(tmp_path)) == 1

    def test_malformed_entries_skipped_not_fatal(self, tmp_path):
        document = {
            "version": 1,
            "entries": [_entry().to_document(), {"signature": []}],
        }
        (tmp_path / "tuning_knowledge.json").write_text(
            json.dumps(document), encoding="utf-8"
        )
        kb = TuningKnowledgeBase.open(tmp_path)
        assert len(kb) == 1


    @pytest.mark.parametrize(
        "damage",
        [
            {"trials": float("inf")},
            {"trials": float("nan")},
            {"trials": 0},
            {"signature": []},
            {"signature": "fusion"},
            {"signature": [1, 2]},
            {"improvement": float("nan")},
            {"improvement": float("-inf")},
            {"improvement": 10**400},
            {"observations": 5},
        ],
        ids=[
            "trials-inf", "trials-nan", "trials-zero", "signature-empty",
            "signature-a-string", "signature-not-names", "improvement-nan",
            "improvement-minus-inf", "improvement-past-float-range", "observations-not-a-list",
        ],
    )
    def test_each_malformed_entry_is_skipped(self, tmp_path, damage):
        valid = _entry().to_document()
        document = {"version": 1, "entries": [valid, {**valid, **damage}]}
        (tmp_path / "tuning_knowledge.json").write_text(json.dumps(document), encoding="utf-8")
        assert TuningKnowledgeBase.open(tmp_path).entries == (_entry(),)

    @pytest.mark.parametrize("entries", [5, "entries", {"a": 1}, None])
    def test_non_list_entries_open_empty(self, tmp_path, entries):
        document = {"version": 1, "entries": entries}
        (tmp_path / "tuning_knowledge.json").write_text(json.dumps(document), encoding="utf-8")
        assert len(TuningKnowledgeBase.open(tmp_path)) == 0

    def test_non_object_entry_is_a_storage_error(self):
        with pytest.raises(StorageError):
            KnowledgeEntry.from_document("entry")


class TestObservations:
    _ROWS = (
        {"config": {"prefetch_depth": 2}, "throughput": 1.0},
        {"config": {"prefetch_depth": 8}, "throughput": 1.6},
    )

    def test_round_trip(self, tmp_path):
        kb = TuningKnowledgeBase.open(tmp_path)
        kb.record(
            KnowledgeEntry(
                signature=_SIG, config={"prefetch_depth": 8},
                improvement=1.6, trials=2, observations=self._ROWS,
            )
        )
        kb.save()
        again = TuningKnowledgeBase.open(tmp_path)
        assert again.entries[0].observations == self._ROWS

    def test_pre_observation_entries_load_empty(self):
        document = _entry().to_document()
        del document["observations"]
        entry = KnowledgeEntry.from_document(document)
        assert entry.observations == ()

    def test_malformed_rows_dropped_individually(self):
        document = _entry().to_document()
        document["observations"] = [
            dict(self._ROWS[0]),
            {"throughput": 2.0},  # missing config
            {"config": {"prefetch_depth": 4}, "throughput": "fast"},
        ]
        entry = KnowledgeEntry.from_document(document)
        assert entry.observations == (self._ROWS[0],)

    def test_capped_at_max(self):
        rows = tuple(
            {"config": {"prefetch_depth": i}, "throughput": 1.0 + i}
            for i in range(MAX_OBSERVATIONS + 10)
        )
        entry = KnowledgeEntry(
            signature=_SIG, config={}, improvement=1.1, trials=1,
            observations=rows,
        )
        assert len(entry.observations) == MAX_OBSERVATIONS

    def test_merge_pools_observations(self):
        kb = TuningKnowledgeBase()
        kb.record(
            KnowledgeEntry(
                signature=_SIG, config={"prefetch_depth": 2},
                improvement=1.2, trials=1, observations=(self._ROWS[0],),
            )
        )
        kb.record(
            KnowledgeEntry(
                signature=_SIG, config={"prefetch_depth": 8},
                improvement=1.6, trials=1,
                observations=(self._ROWS[0], self._ROWS[1]),
            )
        )
        entry = kb.entries[0]
        assert entry.improvement == 1.6  # winner by improvement
        assert len(entry.observations) == 2  # pooled, deduplicated


_ROOT = hasattr(os, "geteuid") and os.geteuid() == 0
_needs_permissions = pytest.mark.skipif(
    _ROOT, reason="root bypasses file permissions; chmod cannot deny access"
)


class TestReadOnlyDegradation:
    def test_writable_probe(self, tmp_path):
        assert TuningKnowledgeBase.open(tmp_path).writable()
        assert not TuningKnowledgeBase().writable()

    @_needs_permissions
    def test_read_only_directory_not_writable(self, tmp_path):
        kb = TuningKnowledgeBase.open(tmp_path)
        kb.record(_entry())
        kb.save()
        tmp_path.chmod(0o555)
        try:
            again = TuningKnowledgeBase.open(tmp_path)
            assert len(again) == 1  # priors still load
            assert not again.writable()
        finally:
            tmp_path.chmod(0o755)

    @_needs_permissions
    def test_save_failure_degrades_to_persist_error(self, tmp_path):
        kb = TuningKnowledgeBase.open(tmp_path)
        kb.record(_entry())
        tmp_path.chmod(0o555)
        try:
            assert kb.save() is None  # no raise
            assert kb.persist_error is not None
        finally:
            tmp_path.chmod(0o755)
        assert kb.save() is not None
        assert kb.persist_error is None

    @_needs_permissions
    def test_uncreatable_directory_degrades_to_memory(self, tmp_path):
        parent = tmp_path / "ro"
        parent.mkdir()
        parent.chmod(0o555)
        try:
            kb = TuningKnowledgeBase.open(parent / "kb")
            assert kb.store is None
            assert kb.persist_error is not None
            assert not kb.writable()
            kb.record(_entry())  # in-memory base keeps working
            assert kb.save() is None
        finally:
            parent.chmod(0o755)


def _step(number, ops, duration_us=100.0):
    step = StepStats(step=number)
    for rank, name in enumerate(ops):
        step.observe(name, DeviceKind.TPU, duration_us / (rank + 1))
    step.start_us = number * duration_us
    step.end_us = (number + 1) * duration_us
    return step


class TestPhaseSignature:
    def test_no_steps_rejected(self):
        with pytest.raises(OptimizerError):
            CriticalPhaseDetector().phase_signature()
        detector = CriticalPhaseDetector()
        detector.observe(_step(0, ["matmul"]))
        with pytest.raises(OptimizerError):
            detector.phase_signature(top_k=0)

    def test_signature_is_top_operators(self):
        detector = CriticalPhaseDetector()
        for i in range(4):
            detector.observe(_step(i, ["matmul", "fusion", "relu", "softmax"]))
        assert detector.phase_signature(top_k=2) == frozenset({"matmul", "fusion"})

    def test_dominant_phase_wins_when_not_critical(self):
        detector = CriticalPhaseDetector(time_fraction=0.9, pattern_hits_required=5)
        # Phase A holds ~37% of the time, phase B ~63%: neither clears the
        # 90% dominance bar, so execution never reads as critical — the
        # signature must still come from B, the longest-running phase.
        for i in range(3):
            detector.observe(_step(i, ["setup", "init", "alloc"], duration_us=400.0))
        for i in range(3, 7):
            detector.observe(_step(i, ["matmul", "fusion", "relu"], duration_us=500.0))
        assert not detector.critical
        assert "matmul" in detector.phase_signature(top_k=3)
        assert "setup" not in detector.phase_signature(top_k=3)
