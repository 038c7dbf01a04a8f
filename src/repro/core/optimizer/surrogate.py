"""Learned performance surrogate for the offline autotune engine.

Kaufman et al.'s "A Learned Performance Model for Tensor Processing
Units" (PAPERS.md) shows accelerator runtime can be *predicted* from
program features instead of measured. This module applies that idea to
the tuning search: a small, deterministic, pure-numpy regressor maps
``(phase fingerprint, pipeline configuration)`` to predicted training
throughput, so :class:`~repro.core.optimizer.strategies.SurrogateStrategy`
can rank candidate configurations cheaply and spend *real* (simulated)
trials only on the predicted frontier.

Three sources feed the training set, in all cases as
``(signature, config) -> throughput`` :class:`TrainingPair` rows:

* the tuning knowledge base — every recorded search now carries its
  per-trial observations (:func:`mine_knowledge`);
* the committed bench corpus — a JSON file of pairs mined from the
  benchmark workloads (:func:`load_corpus`), so a cold fleet still has
  a prior;
* live trials — every real measurement the search completes is folded
  straight back in (:meth:`SurrogateModel.observe` + periodic refit).

Determinism contract: both model variants (:class:`RidgeModel`,
:class:`StumpModel`) are pure functions of the training set and their
hyperparameters — fitting draws no randomness, prediction involves no
data-dependent iteration order — so the same pairs always produce
bit-identical predictions, at any worker count, on repeated runs.
Ranking breaks prediction ties by candidate index (submission order),
never by float identity games.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from repro import obs
from repro.errors import OptimizerError, StorageError
from repro.host.pipeline import PipelineConfig

#: Bump when the feature layout changes; dumps and corpora carry it.
FEATURE_SCHEMA_VERSION = 1

#: Operator names are feature-hashed into this many presence buckets.
SIGNATURE_BUCKETS = 16

#: Pipeline knobs the surrogate featurizes (the adjustable-parameter set).
TUNED_KNOBS = (
    "num_parallel_reads",
    "num_parallel_calls",
    "prefetch_depth",
    "shuffle_buffer",
    "infeed_threads",
    "vectorized_preprocess",
)

#: Below this many training pairs the model reports not-ready and the
#: search degrades to the cold (measure-everything) path.
MIN_TRAINING_PAIRS = 6

_SURROGATE_PAIRS = obs.gauge(
    "repro_optimizer_surrogate_pairs",
    "Training pairs held by the most recently fitted surrogate.",
).labels()
_SURROGATE_REFITS = obs.counter(
    "repro_optimizer_surrogate_refits_total",
    "Surrogate refits (initial fit plus online refits from real trials).",
).labels()
_SURROGATE_RANKINGS = obs.counter(
    "repro_optimizer_surrogate_rankings_total",
    "Candidate rankings answered by the surrogate, by model readiness.",
    labels=("outcome",),
)
_SURROGATE_ERROR = obs.histogram(
    "repro_optimizer_surrogate_rel_error",
    "Absolute relative error of surrogate predictions vs real trials.",
    buckets=(0.01, 0.02, 0.05, 0.1, 0.2, 0.5, 1.0, 2.0),
).labels()


def _bucket(name: str) -> int:
    """Stable feature-hash bucket for one operator name."""
    digest = hashlib.sha256(name.encode("utf-8")).digest()
    return int.from_bytes(digest[:4], "little") % SIGNATURE_BUCKETS


def _knob_value(config: PipelineConfig | dict, knob: str) -> float:
    if isinstance(config, dict):
        value = config.get(knob)
        if value is None:
            value = getattr(PipelineConfig(), knob)
    else:
        value = getattr(config, knob)
    return float(value)


def feature_vector(
    signature: frozenset[str], config: PipelineConfig | dict
) -> np.ndarray:
    """Featurize one ``(phase fingerprint, configuration)`` pair.

    Schema v1 (:data:`FEATURE_SCHEMA_VERSION`): six configuration
    features — log2 of the three thread knobs, raw prefetch depth,
    log2(1 + shuffle buffer), and the vectorization bit — followed by
    :data:`SIGNATURE_BUCKETS` hashed operator-presence buckets. The
    hashed signature lets one model serve many workloads: the buckets
    act as a workload indicator the regressor can assign offsets to.
    """
    features = np.zeros(6 + SIGNATURE_BUCKETS, dtype=np.float64)
    features[0] = math.log2(max(_knob_value(config, "num_parallel_reads"), 1.0))
    features[1] = math.log2(max(_knob_value(config, "num_parallel_calls"), 1.0))
    features[2] = _knob_value(config, "prefetch_depth")
    features[3] = math.log2(1.0 + _knob_value(config, "shuffle_buffer"))
    features[4] = math.log2(max(_knob_value(config, "infeed_threads"), 1.0))
    features[5] = _knob_value(config, "vectorized_preprocess")
    for name in signature:
        features[6 + _bucket(name)] = 1.0
    return features


@dataclass(frozen=True)
class TrainingPair:
    """One ``(phase fingerprint, configuration) -> throughput`` example."""

    signature: frozenset[str]
    config: dict
    throughput: float
    source: str = ""

    def __post_init__(self) -> None:
        if not self.signature or not all(isinstance(name, str) for name in self.signature):
            raise OptimizerError("training pair needs a non-empty signature of operator names")
        if not (self.throughput > 0 and math.isfinite(self.throughput)):
            raise OptimizerError("training pair needs a positive finite throughput")
        try:
            knobs = self.key()[1]
        except (TypeError, ValueError, OverflowError) as error:
            raise OptimizerError(f"training pair has a non-numeric knob: {error}") from None
        if not all(math.isfinite(value) for value in knobs):
            raise OptimizerError("training pair has a non-finite knob")

    def key(self) -> tuple:
        """Dedup key: the signature plus the tuned knob values."""
        return (
            tuple(sorted(self.signature)),
            tuple(_knob_value(self.config, knob) for knob in TUNED_KNOBS),
        )

    def to_document(self) -> dict:
        """Serialize for the corpus / model-dump JSON."""
        return {
            "signature": sorted(self.signature),
            "config": dict(self.config),
            "throughput": self.throughput,
            "source": self.source,
        }

    @classmethod
    def from_document(cls, document: dict) -> "TrainingPair":
        """Parse one corpus row; raises StorageError when malformed."""
        try:
            return cls(
                signature=frozenset(document["signature"]),
                config=dict(document["config"]),
                throughput=float(document["throughput"]),
                source=str(document.get("source", "")),
            )
        except (KeyError, TypeError, ValueError, OverflowError, OptimizerError) as error:
            raise StorageError(f"malformed training pair: {error}")


def dedup_pairs(pairs: list[TrainingPair]) -> list[TrainingPair]:
    """Collapse duplicate (signature, knobs) rows, keeping the fastest.

    Fingerprint collisions — two knowledge entries or corpus rows with
    the same signature and knob values but different measured
    throughput — are resolved toward the larger throughput (the less
    interfered measurement), in one deterministic pass.
    """
    best: dict[tuple, TrainingPair] = {}
    for pair in pairs:
        key = pair.key()
        kept = best.get(key)
        if kept is None or pair.throughput > kept.throughput:
            best[key] = pair
    return list(best.values())


def mine_knowledge(knowledge) -> list[TrainingPair]:
    """Harvest training pairs from a :class:`TuningKnowledgeBase`.

    Every entry contributes its per-trial observations (config dict plus
    measured throughput, recorded since the surrogate landed); entries
    written before observations existed contribute nothing. Malformed
    observation rows are skipped — an empty or corrupt base degrades to
    an empty training set, never to an exception, so the search falls
    back to the cold path exactly as if no knowledge existed.
    """
    pairs: list[TrainingPair] = []
    for entry in getattr(knowledge, "entries", ()):
        for raw in getattr(entry, "observations", ()):
            try:
                pairs.append(
                    TrainingPair(
                        signature=entry.signature,
                        config=dict(raw["config"]),
                        throughput=float(raw["throughput"]),
                        source=f"kb:{entry.workload or 'unknown'}",
                    )
                )
            except (KeyError, TypeError, ValueError, OptimizerError):
                continue
    return dedup_pairs(pairs)


def load_corpus(path: str | Path) -> list[TrainingPair]:
    """Load the committed bench corpus of training pairs.

    The corpus is a JSON document (``tools/gen_surrogate_corpus.py``
    writes it, ``benchmarks/corpus/surrogate_corpus.json`` is the
    committed instance). A missing or unparsable file and malformed
    rows all degrade to fewer pairs rather than an error — the corpus,
    like the knowledge base, is an optimization, never a dependency.
    """
    try:
        document = json.loads(Path(path).read_text(encoding="utf-8"))
    except (OSError, ValueError):
        return []
    if not isinstance(document, dict):
        return []
    rows = document.get("pairs", [])
    pairs: list[TrainingPair] = []
    for raw in rows if isinstance(rows, list) else ():
        try:
            pairs.append(TrainingPair.from_document(raw))
        except StorageError:
            continue
    return dedup_pairs(pairs)


@dataclass
class RidgeModel:
    """Closed-form ridge regression over standardized features.

    Fits ``w = argmin ||Zw - y||^2 + l2 ||w||^2`` (bias unpenalized) by
    solving the normal equations — one ``np.linalg.solve`` call, fully
    deterministic. Features are standardized per column so the single
    ``l2`` applies evenly to log-scaled knobs and 0/1 buckets alike.
    """

    l2: float = 1e-2
    _mean: np.ndarray | None = None
    _scale: np.ndarray | None = None
    _weights: np.ndarray | None = None

    def fit(self, features: np.ndarray, targets: np.ndarray) -> None:
        """Fit on an (n, d) feature matrix and length-n target vector."""
        self._mean = features.mean(axis=0)
        scale = features.std(axis=0)
        scale[scale == 0.0] = 1.0
        self._scale = scale
        standardized = (features - self._mean) / self._scale
        n, d = standardized.shape
        design = np.hstack([np.ones((n, 1)), standardized])
        penalty = self.l2 * np.eye(d + 1)
        penalty[0, 0] = 0.0  # never shrink the bias
        gram = design.T @ design + penalty
        self._weights = np.linalg.solve(gram, design.T @ targets)

    def predict(self, features: np.ndarray) -> np.ndarray:
        """Predict targets for an (n, d) feature matrix."""
        if self._weights is None:
            raise OptimizerError("ridge model is not fitted")
        standardized = (features - self._mean) / self._scale
        design = np.hstack([np.ones((len(standardized), 1)), standardized])
        return design @ self._weights

    def to_document(self) -> dict:
        """Serialize the fitted weights (part of the model dump)."""
        if self._weights is None:
            raise OptimizerError("ridge model is not fitted")
        return {
            "kind": "ridge",
            "l2": self.l2,
            "mean": [round(v, 12) for v in self._mean.tolist()],
            "scale": [round(v, 12) for v in self._scale.tolist()],
            "weights": [round(v, 12) for v in self._weights.tolist()],
        }


@dataclass
class StumpModel:
    """Gradient-boosted depth-1 stumps — the optional non-linear variant.

    Each round greedily picks the (feature, threshold) split minimizing
    squared error on the residuals, with thresholds drawn from midpoints
    of consecutive sorted unique feature values. Ties break toward the
    lowest feature index, then the lowest threshold, so fitting is a
    deterministic function of the training set; no sampling is involved.
    """

    rounds: int = 48
    learning_rate: float = 0.3
    _base: float = 0.0
    _stumps: list[tuple[int, float, float, float]] = field(default_factory=list)
    _fitted: bool = False

    def fit(self, features: np.ndarray, targets: np.ndarray) -> None:
        """Boost ``rounds`` stumps against the residual vector."""
        self._base = float(targets.mean())
        self._stumps = []
        residual = targets - self._base
        n, d = features.shape
        for _ in range(self.rounds):
            best: tuple[float, int, float, float, float] | None = None
            for j in range(d):
                column = features[:, j]
                values = np.unique(column)
                if len(values) < 2:
                    continue
                for threshold in (values[:-1] + values[1:]) / 2.0:
                    left = column <= threshold
                    left_mean = float(residual[left].mean())
                    right_mean = float(residual[~left].mean())
                    fit_values = np.where(left, left_mean, right_mean)
                    sse = float(((residual - fit_values) ** 2).sum())
                    if best is None or sse < best[0] - 1e-12:
                        best = (sse, j, float(threshold), left_mean, right_mean)
            if best is None:
                break
            _, j, threshold, left_mean, right_mean = best
            self._stumps.append(
                (j, threshold, self.learning_rate * left_mean,
                 self.learning_rate * right_mean)
            )
            column = features[:, j]
            residual = residual - np.where(
                column <= threshold,
                self.learning_rate * left_mean,
                self.learning_rate * right_mean,
            )
        self._fitted = True

    def predict(self, features: np.ndarray) -> np.ndarray:
        """Predict targets for an (n, d) feature matrix."""
        if not self._fitted:
            raise OptimizerError("stump model is not fitted")
        out = np.full(len(features), self._base, dtype=np.float64)
        for j, threshold, left_value, right_value in self._stumps:
            out += np.where(features[:, j] <= threshold, left_value, right_value)
        return out

    def to_document(self) -> dict:
        """Serialize the boosted stumps (part of the model dump)."""
        if not self._fitted:
            raise OptimizerError("stump model is not fitted")
        return {
            "kind": "stumps",
            "rounds": self.rounds,
            "learning_rate": self.learning_rate,
            "base": round(self._base, 12),
            "stumps": [
                [j, round(t, 12), round(lv, 12), round(rv, 12)]
                for j, t, lv, rv in self._stumps
            ],
        }


@dataclass
class SurrogateModel:
    """The learned performance model the search strategies consult.

    Wraps one regressor (``kind="ridge"`` or ``"stumps"``) over the
    shared feature schema, holds the deduplicated training set, and
    tracks its own accuracy: every real trial folded back in via
    :meth:`observe` first scores the model's prediction into the
    ``repro_optimizer_surrogate_rel_error`` histogram. Targets are
    log-throughput, so multiplicative workload differences become
    additive offsets the regressor can absorb.
    """

    kind: str = "ridge"
    l2: float = 1e-2
    rounds: int = 48
    learning_rate: float = 0.3
    min_pairs: int = MIN_TRAINING_PAIRS
    _pairs: list[TrainingPair] = field(default_factory=list)
    _model: RidgeModel | StumpModel | None = None
    _observations: int = 0
    _refits: int = 0

    def __post_init__(self) -> None:
        if self.kind not in ("ridge", "stumps"):
            raise OptimizerError(
                f"unknown surrogate kind {self.kind!r}; use ridge or stumps"
            )
        if self.min_pairs < 2:
            raise OptimizerError("min_pairs must be at least 2")

    # --- training set ------------------------------------------------------

    @property
    def pairs(self) -> tuple[TrainingPair, ...]:
        """The current deduplicated training set."""
        return tuple(self._pairs)

    @property
    def ready(self) -> bool:
        """Whether the model is fitted and trusted to rank candidates."""
        return self._model is not None

    def add_pairs(self, pairs: list[TrainingPair]) -> int:
        """Merge pairs into the training set; returns pairs now held."""
        self._pairs = dedup_pairs(self._pairs + list(pairs))
        _SURROGATE_PAIRS.set(len(self._pairs))
        return len(self._pairs)

    def observe(
        self,
        signature: frozenset[str],
        config: PipelineConfig | dict,
        throughput: float,
        source: str = "trial",
    ) -> None:
        """Fold one completed real trial back into the training set.

        When the model is already fitted, the trial first grades the
        prediction it would have made (the error histogram), then joins
        the training set for the next refit.
        """
        if self.ready:
            predicted = self.predict(signature, config)
            _SURROGATE_ERROR.observe(abs(predicted - throughput) / throughput)
        knobs = {
            knob: (
                bool(_knob_value(config, knob))
                if knob == "vectorized_preprocess"
                else int(_knob_value(config, knob))
            )
            for knob in TUNED_KNOBS
        }
        self._observations += 1
        self.add_pairs(
            [TrainingPair(signature=signature, config=knobs,
                          throughput=throughput, source=source)]
        )

    # --- fitting and prediction --------------------------------------------

    def refit(self) -> bool:
        """(Re)fit on the current training set; False when too small."""
        if len(self._pairs) < self.min_pairs:
            return False
        features = np.array(
            [feature_vector(pair.signature, pair.config) for pair in self._pairs]
        )
        targets = np.log(np.array([pair.throughput for pair in self._pairs]))
        if self.kind == "ridge":
            model: RidgeModel | StumpModel = RidgeModel(l2=self.l2)
        else:
            model = StumpModel(rounds=self.rounds, learning_rate=self.learning_rate)
        model.fit(features, targets)
        self._model = model
        self._refits += 1
        _SURROGATE_REFITS.inc()
        return True

    def predict(
        self, signature: frozenset[str], config: PipelineConfig | dict
    ) -> float:
        """Predicted throughput (steps/s) for one candidate."""
        if self._model is None:
            raise OptimizerError("surrogate is not fitted; call refit() first")
        features = feature_vector(signature, config)[np.newaxis, :]
        return float(np.exp(self._model.predict(features)[0]))

    def rank(
        self, signature: frozenset[str], configs: list[PipelineConfig]
    ) -> list[int]:
        """Candidate indices ordered fastest-predicted first.

        Ties (and the not-ready fallback, which preserves submission
        order) break by candidate index, keeping the ordering a pure
        function of the inputs.
        """
        if not self.ready:
            _SURROGATE_RANKINGS.labels(outcome="cold").inc()
            return list(range(len(configs)))
        _SURROGATE_RANKINGS.labels(outcome="ranked").inc()
        predictions = [self.predict(signature, config) for config in configs]
        return sorted(range(len(configs)), key=lambda i: (-predictions[i], i))

    # --- reporting ---------------------------------------------------------

    def training_digest(self) -> str:
        """Stable hash of the training set (for dump comparisons)."""
        canonical = json.dumps(
            [pair.to_document() for pair in
             sorted(self._pairs, key=lambda p: p.key())],
            sort_keys=True,
        )
        return hashlib.sha256(canonical.encode("utf-8")).hexdigest()[:16]

    def to_document(self) -> dict:
        """Serialize the model for ``tpupoint tune --surrogate-out``.

        The dump is bit-identical across runs that saw the same training
        pairs in any order — CI's surrogate-smoke job diffs two of them.
        """
        document = {
            "version": 1,
            "feature_schema": FEATURE_SCHEMA_VERSION,
            "kind": self.kind,
            "ready": self.ready,
            "pairs": len(self._pairs),
            "observations": self._observations,
            "refits": self._refits,
            "training_digest": self.training_digest(),
        }
        if self._model is not None:
            document["model"] = self._model.to_document()
        return document


def build_surrogate(
    knowledge=None,
    corpus: str | Path | None = None,
    kind: str = "ridge",
    extra_pairs: list[TrainingPair] | None = None,
) -> SurrogateModel:
    """Assemble and fit a surrogate from every available source.

    Mines the knowledge base (when given), loads the bench corpus (when
    given), merges any extra pairs — e.g. fleet-shared rows from
    :meth:`repro.serve.FleetService.surrogate_pairs` — and fits. With
    too little data the model comes back not-ready and the strategy
    runs its cold path; nothing here raises on empty or corrupt inputs.
    """
    model = SurrogateModel(kind=kind)
    pairs: list[TrainingPair] = []
    if knowledge is not None:
        pairs.extend(mine_knowledge(knowledge))
    if corpus is not None:
        pairs.extend(load_corpus(corpus))
    if extra_pairs:
        pairs.extend(extra_pairs)
    if pairs:
        model.add_pairs(pairs)
    model.refit()
    return model
