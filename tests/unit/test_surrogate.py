"""The learned performance surrogate and its guided search strategy."""

import json
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from repro.core.optimizer.knowledge import KnowledgeEntry, TuningKnowledgeBase
from repro.core.optimizer.parameters import discover_parameters
from repro.core.optimizer.strategies import SurrogateStrategy
from repro.core.optimizer.surrogate import (
    FEATURE_SCHEMA_VERSION,
    MIN_TRAINING_PAIRS,
    SIGNATURE_BUCKETS,
    RidgeModel,
    StumpModel,
    SurrogateModel,
    TrainingPair,
    build_surrogate,
    dedup_pairs,
    feature_vector,
    load_corpus,
    mine_knowledge,
)
from repro.errors import OptimizerError, StorageError
from repro.host.pipeline import PipelineConfig
from repro.models.naive import naive_pipeline_config

from tests.unit.test_strategies import SyntheticEvaluator

_SIG = frozenset({"fusion", "InfeedDequeueTuple", "Reshape"})


def _pair(throughput=2.0, sig=_SIG, **knobs):
    config = {"prefetch_depth": 4, "num_parallel_calls": 8, **knobs}
    return TrainingPair(signature=sig, config=config, throughput=throughput)


def _synthetic_pairs(n=12, sig=_SIG):
    """Deterministic pairs whose throughput grows with the knobs."""
    pairs = []
    for i in range(n):
        calls = 2 ** (i % 5 + 1)
        prefetch = (i % 4) + 1
        pairs.append(
            TrainingPair(
                signature=sig,
                config={"num_parallel_calls": calls, "prefetch_depth": prefetch},
                throughput=1.0 + 0.3 * calls + 0.2 * prefetch,
            )
        )
    return pairs


class TestFeatureVector:
    def test_shape_and_schema(self):
        features = feature_vector(_SIG, PipelineConfig())
        assert features.shape == (6 + SIGNATURE_BUCKETS,)
        assert FEATURE_SCHEMA_VERSION == 1

    def test_accepts_config_and_dict(self):
        config = PipelineConfig(num_parallel_calls=16, prefetch_depth=4)
        as_dict = {"num_parallel_calls": 16, "prefetch_depth": 4}
        np.testing.assert_array_equal(
            feature_vector(_SIG, config), feature_vector(_SIG, as_dict)
        )

    def test_partial_dict_uses_defaults(self):
        defaults = PipelineConfig()
        np.testing.assert_array_equal(
            feature_vector(_SIG, {}), feature_vector(_SIG, defaults)
        )

    def test_knobs_are_log_scaled(self):
        doubled = feature_vector(_SIG, {"num_parallel_calls": 8})
        quadrupled = feature_vector(_SIG, {"num_parallel_calls": 32})
        assert quadrupled[1] - doubled[1] == pytest.approx(2.0)

    def test_signature_sets_presence_buckets(self):
        empty = feature_vector(frozenset({"x"}), {})
        assert empty[6:].sum() == 1.0
        several = feature_vector(_SIG, {})
        assert 1.0 <= several[6:].sum() <= len(_SIG)


class TestTrainingPair:
    def test_validation(self):
        with pytest.raises(OptimizerError):
            TrainingPair(signature=frozenset(), config={}, throughput=1.0)
        with pytest.raises(OptimizerError):
            TrainingPair(signature=_SIG, config={}, throughput=0.0)

    def test_document_round_trip(self):
        pair = _pair(source="kb:test")
        again = TrainingPair.from_document(pair.to_document())
        assert again == pair

    def test_malformed_document_raises(self):
        with pytest.raises(StorageError):
            TrainingPair.from_document({"signature": ["a"]})
        with pytest.raises(StorageError):
            TrainingPair.from_document(
                {"signature": [], "config": {}, "throughput": 2.0}
            )

    def test_dedup_keeps_fastest_collision(self):
        slow, fast = _pair(throughput=1.0), _pair(throughput=3.0)
        kept = dedup_pairs([slow, fast, slow])
        assert kept == [fast]

    def test_dedup_distinguishes_knobs_and_signatures(self):
        pairs = [
            _pair(prefetch_depth=2),
            _pair(prefetch_depth=4),
            _pair(sig=frozenset({"other"})),
        ]
        assert len(dedup_pairs(pairs)) == 3


class TestMining:
    def test_empty_knowledge_base_yields_nothing(self):
        assert mine_knowledge(TuningKnowledgeBase()) == []

    def test_entries_without_observations_yield_nothing(self):
        kb = TuningKnowledgeBase()
        kb.record(
            KnowledgeEntry(
                signature=_SIG, config={"prefetch_depth": 8},
                improvement=1.5, trials=4,
            )
        )
        assert mine_knowledge(kb) == []

    def test_observations_become_pairs(self):
        kb = TuningKnowledgeBase()
        kb.record(
            KnowledgeEntry(
                signature=_SIG,
                config={"prefetch_depth": 8},
                improvement=1.5,
                trials=2,
                workload="resnet",
                observations=(
                    {"config": {"prefetch_depth": 2}, "throughput": 1.0},
                    {"config": {"prefetch_depth": 8}, "throughput": 1.5},
                ),
            )
        )
        pairs = mine_knowledge(kb)
        assert len(pairs) == 2
        assert all(pair.signature == _SIG for pair in pairs)
        assert all(pair.source == "kb:resnet" for pair in pairs)

    def test_corrupt_observations_skipped_not_raised(self):
        kb = TuningKnowledgeBase()
        kb.record(
            KnowledgeEntry(
                signature=_SIG,
                config={"prefetch_depth": 8},
                improvement=1.5,
                trials=2,
                observations=(
                    {"config": {"prefetch_depth": 2}, "throughput": 1.0},
                    {"config": {}, "throughput": -3.0},  # invalid throughput
                    {"throughput": 2.0},  # missing config
                    {"config": {"prefetch_depth": 4}, "throughput": "fast"},
                ),
            )
        )
        pairs = mine_knowledge(kb)
        assert len(pairs) == 1
        assert pairs[0].throughput == 1.0

    def test_corrupt_store_degrades_to_empty(self, tmp_path):
        (tmp_path / "tuning_knowledge.json").write_text(
            "{broken", encoding="utf-8"
        )
        kb = TuningKnowledgeBase.open(tmp_path)
        assert mine_knowledge(kb) == []

    def test_fingerprint_collisions_keep_fastest(self):
        kb = TuningKnowledgeBase()
        kb.record(
            KnowledgeEntry(
                signature=_SIG,
                config={"prefetch_depth": 8},
                improvement=1.5,
                trials=2,
                observations=(
                    {"config": {"prefetch_depth": 8}, "throughput": 1.1},
                    {"config": {"prefetch_depth": 8}, "throughput": 1.9},
                ),
            )
        )
        pairs = mine_knowledge(kb)
        assert len(pairs) == 1
        assert pairs[0].throughput == 1.9


class TestCorpus:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "corpus.json"
        rows = [p.to_document() for p in _synthetic_pairs(4)]
        path.write_text(json.dumps({"pairs": rows}), encoding="utf-8")
        assert len(load_corpus(path)) == 4

    def test_missing_file_degrades_to_empty(self, tmp_path):
        assert load_corpus(tmp_path / "absent.json") == []

    def test_unparsable_file_degrades_to_empty(self, tmp_path):
        path = tmp_path / "corpus.json"
        path.write_text("[1, 2", encoding="utf-8")
        assert load_corpus(path) == []
        path.write_text("[1, 2]", encoding="utf-8")  # parses, wrong shape
        assert load_corpus(path) == []

    def test_malformed_rows_skipped(self, tmp_path):
        path = tmp_path / "corpus.json"
        rows = [_pair().to_document(), {"signature": []}, 7]
        path.write_text(json.dumps({"pairs": rows}), encoding="utf-8")
        assert len(load_corpus(path)) == 1

    @pytest.mark.parametrize("pairs", [5, "pairs", {"a": 1}, None])
    def test_non_list_pairs_load_as_none(self, tmp_path, pairs):
        path = tmp_path / "corpus.json"
        path.write_text(json.dumps({"pairs": pairs}), encoding="utf-8")
        assert load_corpus(path) == []

    @pytest.mark.parametrize(
        "damage",
        [
            {"throughput": float("nan")},
            {"throughput": float("inf")},
            {"throughput": 10**400},
            {"signature": [1, 2]},
            {"config": {"prefetch_depth": [4]}},
            {"config": {"shuffle_buffer": "big"}},
            {"config": {"num_parallel_calls": float("inf")}},
        ],
        ids=[
            "throughput-nan", "throughput-inf", "throughput-past-float-range",
            "signature-not-names", "knob-a-list", "knob-a-word", "knob-inf",
        ],
    )
    def test_rows_that_cannot_be_featurized_are_skipped(self, tmp_path, damage):
        path = tmp_path / "corpus.json"
        rows = [_pair().to_document(), {**_pair(prefetch_depth=6).to_document(), **damage}]
        path.write_text(json.dumps({"pairs": rows}), encoding="utf-8")
        assert load_corpus(path) == [_pair()]


class TestRegressors:
    def _matrix(self, pairs):
        features = np.array(
            [feature_vector(p.signature, p.config) for p in pairs]
        )
        targets = np.log(np.array([p.throughput for p in pairs]))
        return features, targets

    @pytest.mark.parametrize("model_cls", [RidgeModel, StumpModel])
    def test_fit_predict_deterministic(self, model_cls):
        features, targets = self._matrix(_synthetic_pairs())
        a, b = model_cls(), model_cls()
        a.fit(features, targets)
        b.fit(features, targets)
        np.testing.assert_array_equal(a.predict(features), b.predict(features))
        assert a.to_document() == b.to_document()

    @pytest.mark.parametrize("model_cls", [RidgeModel, StumpModel])
    def test_learns_monotone_trend(self, model_cls):
        features, targets = self._matrix(_synthetic_pairs(16))
        model = model_cls()
        model.fit(features, targets)
        slow = feature_vector(_SIG, {"num_parallel_calls": 2, "prefetch_depth": 1})
        fast = feature_vector(_SIG, {"num_parallel_calls": 32, "prefetch_depth": 4})
        predictions = model.predict(np.stack([slow, fast]))
        assert predictions[1] > predictions[0]

    @pytest.mark.parametrize("model_cls", [RidgeModel, StumpModel])
    def test_unfitted_predict_raises(self, model_cls):
        with pytest.raises(OptimizerError):
            model_cls().predict(np.zeros((1, 6 + SIGNATURE_BUCKETS)))


class TestSurrogateModel:
    def test_unknown_kind_rejected(self):
        with pytest.raises(OptimizerError):
            SurrogateModel(kind="forest")

    def test_not_ready_below_min_pairs(self):
        model = SurrogateModel()
        model.add_pairs(_synthetic_pairs(MIN_TRAINING_PAIRS - 1))
        assert model.refit() is False
        assert not model.ready
        # The cold fallback preserves submission order.
        configs = [PipelineConfig(), PipelineConfig(prefetch_depth=8)]
        assert model.rank(_SIG, configs) == [0, 1]

    def test_rank_orders_by_predicted_throughput(self):
        model = build_surrogate(extra_pairs=_synthetic_pairs(16))
        assert model.ready
        slow = PipelineConfig(num_parallel_calls=2, prefetch_depth=1)
        fast = PipelineConfig(num_parallel_calls=32, prefetch_depth=4)
        assert model.rank(_SIG, [slow, fast]) == [1, 0]

    def test_rank_breaks_ties_by_index(self):
        model = build_surrogate(extra_pairs=_synthetic_pairs(16))
        config = PipelineConfig(num_parallel_calls=8)
        assert model.rank(_SIG, [config, config, config]) == [0, 1, 2]

    def test_observe_folds_trial_into_training_set(self):
        model = SurrogateModel()
        model.observe(_SIG, PipelineConfig(), 2.5)
        assert len(model.pairs) == 1
        assert model.pairs[0].source == "trial"

    def test_pair_order_does_not_change_predictions(self):
        pairs = _synthetic_pairs(10)
        forward = build_surrogate(extra_pairs=pairs)
        backward = build_surrogate(extra_pairs=list(reversed(pairs)))
        config = PipelineConfig(num_parallel_calls=16)
        assert forward.predict(_SIG, config) == backward.predict(_SIG, config)
        assert forward.training_digest() == backward.training_digest()

    def test_dump_shape(self):
        model = build_surrogate(extra_pairs=_synthetic_pairs(8))
        document = model.to_document()
        assert document["feature_schema"] == FEATURE_SCHEMA_VERSION
        assert document["ready"] is True
        assert document["model"]["kind"] == "ridge"
        json.dumps(document)  # must be serializable as-is

    def test_stumps_variant(self):
        model = build_surrogate(extra_pairs=_synthetic_pairs(16), kind="stumps")
        assert model.ready
        assert model.to_document()["model"]["kind"] == "stumps"


class TestBuildSurrogate:
    def test_empty_inputs_degrade_to_cold(self, tmp_path):
        model = build_surrogate(
            knowledge=TuningKnowledgeBase(), corpus=tmp_path / "absent.json"
        )
        assert not model.ready
        assert model.rank(_SIG, [PipelineConfig()]) == [0]

    def test_merges_all_sources(self, tmp_path):
        kb = TuningKnowledgeBase()
        kb.record(
            KnowledgeEntry(
                signature=_SIG,
                config={"prefetch_depth": 8},
                improvement=1.5,
                trials=2,
                observations=(
                    {"config": {"prefetch_depth": 2}, "throughput": 1.0},
                ),
            )
        )
        corpus = tmp_path / "corpus.json"
        corpus.write_text(
            json.dumps({"pairs": [p.to_document() for p in _synthetic_pairs(6)]}),
            encoding="utf-8",
        )
        model = build_surrogate(
            knowledge=kb, corpus=corpus, extra_pairs=[_pair(sig=frozenset({"z"}))]
        )
        assert len(model.pairs) == 8
        assert model.ready


class TestSurrogateStrategy:
    def _search(self, strategy, pool=None, seed=11):
        start = naive_pipeline_config()
        evaluator = SyntheticEvaluator(pool=pool)
        outcome = strategy.search(
            discover_parameters(start), start, evaluator, seed
        )
        return outcome, evaluator

    def _warm_model(self):
        # Mirror the synthetic evaluator's cost model so the surrogate's
        # guidance is genuinely informative rather than noise.
        pairs = []
        for calls in (2, 8, 32):
            for prefetch in (1, 4):
                speed = 1.0 + 0.30 * calls + 0.20 * prefetch
                pairs.append(
                    TrainingPair(
                        signature=_SIG,
                        config={
                            "num_parallel_calls": calls,
                            "prefetch_depth": prefetch,
                        },
                        throughput=speed,
                    )
                )
        return build_surrogate(extra_pairs=pairs)

    def test_cold_model_measures_every_survivor(self):
        strategy = SurrogateStrategy(population=4, trial_steps=2)
        outcome, evaluator = self._search(strategy)
        rung0 = [t for t in outcome.trials if t.key.startswith("surrogate:r0:")]
        assert len(rung0) == 4  # nothing pruned without a ready model
        assert outcome.improvement > 1.0

    def test_warm_model_prunes_trials(self):
        cold = SurrogateStrategy(population=8, trial_steps=2)
        cold_outcome, _ = self._search(cold)
        warm = SurrogateStrategy(
            population=8, trial_steps=2, model=self._warm_model(), signature=_SIG
        )
        warm_outcome, _ = self._search(warm)
        assert len(warm_outcome.trials) < len(cold_outcome.trials)
        assert warm_outcome.best_throughput >= cold_outcome.best_throughput * 0.99

    def test_rung0_always_measures_start_config(self):
        start = naive_pipeline_config()
        strategy = SurrogateStrategy(
            population=8, trial_steps=2, model=self._warm_model(), signature=_SIG
        )
        outcome, _ = self._search(strategy)
        assert outcome.trials_to_config(start) is not None
        assert outcome.baseline_throughput > 0.0

    def test_priors_join_population(self):
        prior = {"num_parallel_calls": 32, "prefetch_depth": 4}
        strategy = SurrogateStrategy(
            population=4, trial_steps=2, priors=(tuple(prior.items()),)
        )
        outcome, _ = self._search(strategy)
        expected = naive_pipeline_config().with_updates(**prior)
        assert outcome.trials_to_config(expected) is not None

    def test_invalid_priors_skipped(self):
        strategy = SurrogateStrategy(
            population=4,
            trial_steps=2,
            priors=(
                (("no_such_knob", 3),),
                (("prefetch_depth", -7),),  # fails validation
            ),
        )
        outcome, _ = self._search(strategy)
        assert outcome.improvement > 1.0

    def test_identical_across_worker_counts_with_online_refit(self):
        observed = []
        for workers in (1, 2, 4):
            strategy = SurrogateStrategy(
                population=8,
                trial_steps=2,
                model=self._warm_model(),
                signature=_SIG,
            )
            with ThreadPoolExecutor(max_workers=workers) as pool:
                outcome, _ = self._search(strategy, pool=pool)
            observed.append(
                [(t.key, t.config, t.steps, t.elapsed_us) for t in outcome.trials]
                + [outcome.best_config, outcome.best_throughput]
            )
        assert observed[0] == observed[1] == observed[2]

    def test_repeat_runs_bit_identical(self):
        dumps = []
        for _ in range(2):
            strategy = SurrogateStrategy(
                population=8,
                trial_steps=2,
                model=self._warm_model(),
                signature=_SIG,
            )
            outcome, _ = self._search(strategy)
            dumps.append(
                (json.dumps(strategy.model.to_document(), sort_keys=True),
                 [t.key for t in outcome.trials])
            )
        assert dumps[0] == dumps[1]
