"""Pluggable search strategies for the autotuning engine.

The paper's tuner is a single-direction hill climb (Section VII-B);
this module generalizes it into a strategy interface so the engine can
trade trials for coverage:

* :class:`HillClimbStrategy` — the paper's one-parameter-at-a-time
  directional walk. The online optimizer drives it over the live run's
  own steps; the offline engine over independent trial runs.
* :class:`SimulatedAnnealingStrategy` — seeded Metropolis search that
  proposes a *batch* of neighbor configurations per temperature level.
  Proposals and acceptance draws come from one driver-side RNG stream
  consumed in a fixed order, and each measurement draws only from its
  own trial substream — so the search replays bit-for-bit however the
  evaluator schedules a batch.
* :class:`SuccessiveHalvingStrategy` — racing: a seeded population of
  candidate configurations is measured as one batch on a small step
  budget, the top ``1/eta`` survive to a rung with ``eta``× the
  budget, and so on until one remains. Warm starts slot naturally into
  racing: the start configuration always races at index 0, so a good
  prior is confirmed on the very first trial.
* :class:`SurrogateStrategy` — surrogate-guided successive halving: a
  learned performance model (:mod:`repro.core.optimizer.surrogate`)
  ranks every candidate by *predicted* throughput and only the top
  fraction per rung is measured for real; every completed real trial
  is folded back into the model (online refit). Real measurements stay
  the ground truth — survivors are picked from measured throughput,
  and the quality guard runs on every real trial — so a wrong
  prediction costs coverage, never correctness.

Determinism contract (pinned by ``tests/property/test_prop_autotune``):
a strategy may only draw randomness from its driver RNG (sequential,
worker-independent) and from per-trial substreams named by the trial
key — never from completion order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields
from typing import Protocol, Sequence

from repro import obs
from repro.core.optimizer.parameters import AdjustableParameter
from repro.core.optimizer.surrogate import SurrogateModel
from repro.errors import ConfigurationError, OptimizerError, SearchExhausted
from repro.host.pipeline import PipelineConfig
from repro.rng import stream as rng_stream

_STRATEGY_TRIALS = obs.counter(
    "repro_optimizer_strategy_trials_total",
    "Autotune trials measured, by search strategy.",
    labels=("strategy",),
)
_SURROGATE_GUIDANCE = obs.counter(
    "repro_optimizer_surrogate_guidance_total",
    "Surrogate-ranked rungs, by whether the predicted-top candidate "
    "was confirmed fastest by the real measurements (hit) or not (miss).",
    labels=("outcome",),
)
_SURROGATE_PRUNED = obs.counter(
    "repro_optimizer_surrogate_pruned_trials_total",
    "Real trials skipped because the surrogate ranked the candidate "
    "outside the measured frontier.",
).labels()

#: Relative improvement a hill-climb move must clear, so measurement
#: jitter does not walk the configuration randomly.
MIN_IMPROVEMENT = 1.02


@dataclass(frozen=True)
class CandidateTrial:
    """One measured candidate configuration.

    A trial carries the whole configuration — annealing and racing move
    several knobs at once. A trial that trained no step or consumed no
    simulated time is invalid evidence, not an infinitely slow one, so
    it is rejected at construction rather than compared.
    """

    key: str
    config: PipelineConfig
    steps: int
    elapsed_us: float

    def __post_init__(self) -> None:
        if self.steps <= 0 or self.elapsed_us <= 0:
            raise OptimizerError(
                f"degenerate trial {self.key!r}: steps={self.steps}, "
                f"elapsed_us={self.elapsed_us}; invalid measurements must "
                "be rejected, not recorded"
            )

    @property
    def throughput(self) -> float:
        """Training steps per second during the trial."""
        return self.steps / (self.elapsed_us / 1e6)


class TrialEvaluator(Protocol):
    """Measures candidate configurations.

    ``evaluate`` receives ``(key, config, steps)`` requests and returns
    one :class:`CandidateTrial` per request *in request order*. The key
    names the trial's RNG substream, so a given ``(key, config, steps)``
    always measures identically — the property that lets strategies fan
    evaluation out over a worker pool without losing determinism.

    An evaluator with a finite budget raises
    :class:`~repro.errors.SearchExhausted` for a request it cannot
    afford; :class:`HillClimbStrategy` stops there and keeps its best.
    """

    def evaluate(
        self, requests: Sequence[tuple[str, PipelineConfig, int]]
    ) -> list[CandidateTrial]:
        """Measure the requested candidates, in request order."""
        ...


@dataclass
class SearchOutcome:
    """What one strategy run measured and concluded."""

    strategy: str
    initial_config: PipelineConfig
    best_config: PipelineConfig
    baseline_throughput: float
    best_throughput: float
    trials: list[CandidateTrial] = field(default_factory=list)

    @property
    def steps_consumed(self) -> int:
        """Total training steps spent across every trial."""
        return sum(trial.steps for trial in self.trials)

    @property
    def improvement(self) -> float:
        """Best over baseline throughput (>1 means faster)."""
        if self.baseline_throughput <= 0:
            return 1.0
        return self.best_throughput / self.baseline_throughput

    def trials_to_config(self, config: PipelineConfig) -> int | None:
        """1-based index of the first trial that measured ``config``."""
        for index, trial in enumerate(self.trials, start=1):
            if trial.config == config:
                return index
        return None

    @property
    def trials_to_best(self) -> int:
        """Trials spent before the winning configuration was measured."""
        found = self.trials_to_config(self.best_config)
        return found if found is not None else len(self.trials)


def _apply(config: PipelineConfig, name: str, value: int) -> PipelineConfig:
    """Set one knob, preserving bool-typed fields (the map/batch toggle)."""
    current = getattr(config, name)
    return config.with_updates(**{name: bool(value) if isinstance(current, bool) else value})


def _perturb(
    config: PipelineConfig,
    parameters: Sequence[AdjustableParameter],
    rng,
    moves: int = 1,
) -> PipelineConfig:
    """A random neighbor of ``config``: ``moves`` single-knob steps."""
    out = config
    for _ in range(max(moves, 1)):
        parameter = parameters[int(rng.integers(len(parameters)))]
        candidates = parameter.candidate_values(int(getattr(out, parameter.name)))
        if not candidates:
            continue
        out = _apply(out, parameter.name, candidates[int(rng.integers(len(candidates)))])
    return out


class SearchStrategy:
    """Base class: one search over the adjustable-parameter space."""

    name = "abstract"

    def search(
        self,
        parameters: Sequence[AdjustableParameter],
        initial_config: PipelineConfig,
        evaluator: TrialEvaluator,
        seed: int,
    ) -> SearchOutcome:
        """Run one full search and return what it measured and chose."""
        raise NotImplementedError

    # --- shared plumbing ---------------------------------------------------

    def _measure(
        self,
        evaluator: TrialEvaluator,
        requests: Sequence[tuple[str, PipelineConfig, int]],
        log: list[CandidateTrial],
    ) -> list[CandidateTrial]:
        """Evaluate a batch, append to the trial log, count in obs."""
        trials = evaluator.evaluate(list(requests))
        log.extend(trials)
        _STRATEGY_TRIALS.labels(strategy=self.name).inc(len(trials))
        return trials


@dataclass
class HillClimbStrategy(SearchStrategy):
    """The paper's directional hill climb (Section VII-B).

    One parameter at a time: try each neighbor of the current best; on
    an accepted move keep stepping in the same direction until it stops
    helping. Sequential by construction — each trial depends on the
    previous accept — so a concurrent evaluator gains it nothing; it is the
    reference strategy warm starts and the racers are compared against.

    An evaluator that raises :class:`~repro.errors.SearchExhausted` (the
    online optimizer's step budget) ends the walk: the outcome keeps the
    trials measured so far and their best, or the initial configuration
    and an improvement of 1.0 when not even the baseline was measured.
    """

    trial_steps: int = 6
    min_improvement: float = MIN_IMPROVEMENT

    name = "hill-climb"

    def __post_init__(self) -> None:
        if self.trial_steps <= 0:
            raise OptimizerError("trial_steps must be positive")
        if self.min_improvement < 1.0:
            raise OptimizerError("min_improvement must be >= 1.0")

    def search(self, parameters, initial_config, evaluator, seed) -> SearchOutcome:
        """One-parameter-at-a-time directional walk (the paper's tuner)."""
        log: list[CandidateTrial] = []
        serial = 0

        def measure(config: PipelineConfig) -> float:
            nonlocal serial
            serial += 1
            return self._measure(
                evaluator, [(f"hill:{serial}", config, self.trial_steps)], log
            )[0].throughput

        best, baseline_throughput, best_throughput = initial_config, 0.0, 0.0
        try:
            baseline_throughput = best_throughput = measure(initial_config)
            for parameter in parameters:
                start_value = int(getattr(best, parameter.name))
                is_bool = isinstance(getattr(best, parameter.name), bool)
                for first_value in parameter.candidate_values(start_value):
                    value, anchor = first_value, start_value
                    while True:
                        candidate = _apply(best, parameter.name, value)
                        throughput = measure(candidate)
                        if throughput < best_throughput * self.min_improvement:
                            break
                        best, best_throughput = candidate, throughput
                        if is_bool:
                            break
                        direction = 1 if value > anchor else -1
                        onward = [
                            v
                            for v in parameter.candidate_values(value)
                            if (v - value) * direction > 0
                        ]
                        if not onward:
                            break
                        anchor, value = value, onward[0]
        except SearchExhausted:
            pass

        return SearchOutcome(
            strategy=self.name,
            initial_config=initial_config,
            best_config=best,
            baseline_throughput=baseline_throughput,
            best_throughput=best_throughput,
            trials=log,
        )


@dataclass
class SimulatedAnnealingStrategy(SearchStrategy):
    """Seeded batched Metropolis search.

    Each round proposes ``batch`` random neighbors of the current
    configuration (driver RNG), measures them concurrently, then folds
    them back in proposal order: an improvement is always accepted, a
    regression with probability ``exp(relative_loss / temperature)``.
    The temperature cools geometrically per round, narrowing the walk
    from exploration to exploitation.
    """

    rounds: int = 6
    batch: int = 4
    trial_steps: int = 6
    initial_temperature: float = 0.08
    cooling: float = 0.6

    name = "annealing"

    def __post_init__(self) -> None:
        if self.rounds <= 0 or self.batch <= 0 or self.trial_steps <= 0:
            raise OptimizerError("rounds, batch, and trial_steps must be positive")
        if self.initial_temperature <= 0 or not 0.0 < self.cooling < 1.0:
            raise OptimizerError("temperature must be positive and cooling in (0, 1)")

    def search(self, parameters, initial_config, evaluator, seed) -> SearchOutcome:
        """Seeded Metropolis search over batched neighbor proposals."""
        rng = rng_stream("optimizer:strategy:annealing", seed)
        log: list[CandidateTrial] = []
        baseline = self._measure(
            evaluator, [("anneal:baseline", initial_config, self.trial_steps)], log
        )[0]
        current, current_throughput = initial_config, baseline.throughput
        best, best_throughput = current, current_throughput

        temperature = self.initial_temperature
        for round_index in range(self.rounds):
            requests = []
            for slot in range(self.batch):
                proposal = _perturb(current, parameters, rng)
                requests.append(
                    (f"anneal:r{round_index}:c{slot}", proposal, self.trial_steps)
                )
            for trial in self._measure(evaluator, requests, log):
                gain = trial.throughput / current_throughput - 1.0
                accept = gain > 0 or float(rng.random()) < math.exp(gain / temperature)
                if accept:
                    current, current_throughput = trial.config, trial.throughput
                if trial.throughput > best_throughput:
                    best, best_throughput = trial.config, trial.throughput
            temperature *= self.cooling

        return SearchOutcome(
            strategy=self.name,
            initial_config=initial_config,
            best_config=best,
            baseline_throughput=baseline.throughput,
            best_throughput=best_throughput,
            trials=log,
        )


@dataclass
class SuccessiveHalvingStrategy(SearchStrategy):
    """Racing: measure a population cheaply, halve, re-measure deeper.

    Rung ``r`` measures every survivor for ``trial_steps * eta**r``
    steps and keeps the top ``1/eta`` (ties broken by submission order,
    never completion order). The start configuration always occupies
    population slot 0; the remaining slots are seeded perturbations of
    it, so the race explores *around* the start point — which is what
    makes a knowledge-base warm start pay: a near-optimal prior is
    measured first and defended by every later rung.
    """

    population: int = 8
    eta: int = 2
    trial_steps: int = 4
    exploration_moves: int = 2

    name = "racing"

    def __post_init__(self) -> None:
        if self.population < 2:
            raise OptimizerError("racing needs a population of at least 2")
        if self.eta < 2:
            raise OptimizerError("eta must be at least 2")
        if self.trial_steps <= 0 or self.exploration_moves <= 0:
            raise OptimizerError("trial_steps and exploration_moves must be positive")

    def _population(self, parameters, initial_config, seed) -> list[PipelineConfig]:
        rng = rng_stream("optimizer:strategy:racing", seed)
        population = [initial_config]
        attempts = 0
        while len(population) < self.population and attempts < self.population * 20:
            attempts += 1
            moves = 1 + int(rng.integers(self.exploration_moves))
            candidate = _perturb(initial_config, parameters, rng, moves=moves)
            if candidate not in population:
                population.append(candidate)
        return population

    def search(self, parameters, initial_config, evaluator, seed) -> SearchOutcome:
        """Race the population through budget-doubling elimination rungs."""
        log: list[CandidateTrial] = []
        survivors = self._population(parameters, initial_config, seed)
        baseline_throughput = 0.0
        ranked: list[tuple[PipelineConfig, float]] = []

        rung = 0
        while True:
            steps = self.trial_steps * self.eta**rung
            requests = [
                (f"race:r{rung}:c{slot}", config, steps)
                for slot, config in enumerate(survivors)
            ]
            trials = self._measure(evaluator, requests, log)
            if rung == 0:
                baseline_throughput = trials[0].throughput
            ranked = sorted(
                ((trial.config, trial.throughput) for trial in trials),
                key=lambda pair: -pair[1],
            )
            if len(survivors) <= 1:
                break
            keep = max(1, math.ceil(len(survivors) / self.eta))
            survivors = [config for config, _ in ranked[:keep]]
            rung += 1

        best_config, best_throughput = ranked[0]
        return SearchOutcome(
            strategy=self.name,
            initial_config=initial_config,
            best_config=best_config,
            baseline_throughput=baseline_throughput,
            best_throughput=best_throughput,
            trials=log,
        )


@dataclass
class SurrogateStrategy(SearchStrategy):
    """Surrogate-guided successive halving over the predicted frontier.

    The population seeds like racing's (start configuration at slot 0,
    known-good prior configurations next, seeded perturbations filling
    the rest), but each rung first asks the
    :class:`~repro.core.optimizer.surrogate.SurrogateModel` to rank the
    survivors by predicted throughput and measures only the top
    ``measure_fraction`` (at least ``min_measure``) for real — the
    predicted-best candidate is always *trial 1* of the rung. Rung 0
    additionally always measures the start configuration, anchoring the
    outcome's baseline in a real measurement.

    Every real trial is folded back into the model and the model refits
    once per rung (online refit) — fitting happens driver-side on
    submission-ordered results, so any worker count replays the same
    search bit-for-bit. With a not-ready model (empty knowledge base,
    corrupt corpus, too few pairs) every survivor is measured: the
    strategy degrades to plain racing, never to an error.
    """

    population: int = 12
    eta: int = 2
    trial_steps: int = 4
    exploration_moves: int = 2
    measure_fraction: float = 0.5
    min_measure: int = 2
    model: SurrogateModel | None = None
    signature: frozenset = frozenset()
    priors: tuple = ()

    name = "surrogate"

    def __post_init__(self) -> None:
        if self.population < 2:
            raise OptimizerError("surrogate search needs a population of at least 2")
        if self.eta < 2:
            raise OptimizerError("eta must be at least 2")
        if self.trial_steps <= 0 or self.exploration_moves <= 0:
            raise OptimizerError("trial_steps and exploration_moves must be positive")
        if not 0.0 < self.measure_fraction <= 1.0:
            raise OptimizerError("measure_fraction must be in (0, 1]")
        if self.min_measure < 1:
            raise OptimizerError("min_measure must be at least 1")

    def _population(self, parameters, initial_config, seed) -> list[PipelineConfig]:
        """Start config, then valid prior configs, then perturbations."""
        population = [initial_config]
        for prior in self.priors:
            try:
                candidate = initial_config.with_updates(**dict(prior))
            except (ConfigurationError, TypeError):
                continue
            if candidate not in population:
                population.append(candidate)
            if len(population) >= self.population:
                break
        rng = rng_stream("optimizer:strategy:surrogate", seed)
        attempts = 0
        while len(population) < self.population and attempts < self.population * 20:
            attempts += 1
            moves = 1 + int(rng.integers(self.exploration_moves))
            candidate = _perturb(initial_config, parameters, rng, moves=moves)
            if candidate not in population:
                population.append(candidate)
        return population

    def search(self, parameters, initial_config, evaluator, seed) -> SearchOutcome:
        """Racing over the surrogate's predicted frontier, refit per rung."""
        model = self.model if self.model is not None else SurrogateModel()
        # Without a phase fingerprint the search still learns online; the
        # placeholder keeps its trials in one bucket of the feature hash.
        signature = self.signature or frozenset({"<unfingerprinted>"})
        log: list[CandidateTrial] = []
        survivors = self._population(parameters, initial_config, seed)
        baseline_throughput = 0.0
        ranked: list[tuple[PipelineConfig, float]] = []

        rung = 0
        while True:
            steps = self.trial_steps * self.eta**rung
            order = model.rank(signature, survivors)
            if model.ready and len(survivors) > 1:
                frontier = min(
                    len(survivors),
                    max(self.min_measure,
                        math.ceil(len(survivors) * self.measure_fraction)),
                )
            else:
                frontier = len(survivors)
            chosen = order[:frontier]
            if rung == 0 and 0 not in chosen:
                chosen.append(0)  # always ground the baseline in a real trial
            pruned = len(survivors) - len(chosen)
            if pruned > 0:
                _SURROGATE_PRUNED.inc(pruned)
            requests = [
                (f"surrogate:r{rung}:c{slot}", survivors[index], steps)
                for slot, index in enumerate(chosen)
            ]
            trials = self._measure(evaluator, requests, log)
            if rung == 0:
                for index, trial in zip(chosen, trials):
                    if index == 0:
                        baseline_throughput = trial.throughput
            if model.ready and len(trials) > 1:
                fastest = max(range(len(trials)),
                              key=lambda i: (trials[i].throughput, -i))
                outcome = "hit" if fastest == 0 else "miss"
                _SURROGATE_GUIDANCE.labels(outcome=outcome).inc()
            for trial in trials:
                model.observe(signature, trial.config, trial.throughput)
            model.refit()
            ranked = sorted(
                ((trial.config, trial.throughput) for trial in trials),
                key=lambda pair: -pair[1],
            )
            if len(survivors) <= 1:
                break
            keep = max(1, math.ceil(len(trials) / self.eta))
            survivors = [config for config, _ in ranked[:keep]]
            rung += 1

        best_config, best_throughput = ranked[0]
        return SearchOutcome(
            strategy=self.name,
            initial_config=initial_config,
            best_config=best_config,
            baseline_throughput=baseline_throughput,
            best_throughput=best_throughput,
            trials=log,
        )


#: Registry the CLI's ``--strategy`` flag and the engine resolve against.
STRATEGIES: dict[str, type[SearchStrategy]] = {
    HillClimbStrategy.name: HillClimbStrategy,
    SimulatedAnnealingStrategy.name: SimulatedAnnealingStrategy,
    SuccessiveHalvingStrategy.name: SuccessiveHalvingStrategy,
    SurrogateStrategy.name: SurrogateStrategy,
}


def build_strategy(name: str, **options) -> SearchStrategy:
    """Instantiate a registered strategy, validating its options."""
    cls = STRATEGIES.get(name)
    if cls is None:
        known = ", ".join(sorted(STRATEGIES))
        raise OptimizerError(f"unknown search strategy {name!r} (known: {known})")
    allowed = {f.name for f in fields(cls)}
    unknown = set(options) - allowed
    if unknown:
        raise OptimizerError(
            f"strategy {name!r} does not accept options {sorted(unknown)}"
        )
    return cls(**options)
