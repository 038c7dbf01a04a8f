"""Silent-data-corruption (SDC) injection inside the chip model.

`repro.faults` injects misbehaviour at the RPC/wire/recorder boundaries;
this module injects it *inside the chip*, where real fleets suffer the
faults that never raise: a flipped accumulator bit, a stuck lane in the
systolic array, a part that silently degrades to a low-precision
accumulate path. SDC surfaces as wrong numbers and anomalous behaviour,
not errors — so every fault model here perturbs op outputs (step
digests), achieved-utilization figures, and op timings (hence the
downstream operator mix), and **never raises**.

Three fault models:

``bit_flip``
    A transient flip in MXU accumulation or an HBM read. Outputs are
    wrong (a random bit of the step digest is salted) and the poisoned
    partial products are discounted from the achieved-FLOPs counter
    (``severity`` fraction), so utilization sags while timings stay
    bit-identical — the classic "silent" signature.

``stuck_at``
    A persistently stuck lane/column. The compiler routes around the
    dead lanes, so affected ops run at reduced effective efficiency
    (duration scales by ``1/(1-severity)``) and carry a *stable* wrong
    digest. Slower compute shifts the operator mix, which is what the
    ``PHASE_DRIFT`` alarm keys on.

``low_precision``
    A degraded chip whose wide accumulator fell back to
    ``accumulator_bits`` bits ("degraded chip" knob): chunked
    re-accumulation bounds the rounding error at a ``1+severity``
    duration cost, and the rounded outputs perturb the digest.

Schedules mirror :class:`repro.faults.plan.FaultSpec` semantics —
per-step ``nth`` / ``every_nth`` / seeded ``probability`` inside a
``[first_step, last_step]`` window, first matching spec wins — plus two
selectors of their own: ``chips`` (which chips are bad; empty = all)
and ``ops`` (``compute`` = MXU accumulation, ``memory`` = HBM reads,
``all`` = both). Each spec draws from its own named RNG stream
(``sdc:{chip}:{index}``), so the same plan+seed yields the same
injection log on every run and at any worker count.

The module also implements the *scrub* half of the loop: a seeded
checkered self-test (alternating MXU matmul tiles and HBM sweeps, two
tile magnitudes interleaved like a checkerboard memory test) run on
every chip and compared **exactly** — per-step digests, wall time, and
MXU utilization — against a golden clean execution. Clean chips are
bit-identical to golden, so scrub has zero false positives by
construction.
"""

from __future__ import annotations

import enum
import hashlib
import math
from dataclasses import dataclass, field

from repro import rng as rng_mod
from repro.errors import ConfigurationError
from repro.tpu.device import TpuDevice, TpuOpCategory, TpuOpWork
from repro.tpu.specs import TpuChipSpec, chip_spec

#: Steps the scrub self-test executes per chip. Plans calibrated to
#: fire inside this window (e.g. ``examples/faults/sdc_burst.json``)
#: are caught by both the live fleet and the offline scrub.
DEFAULT_SCRUB_STEPS = 96

#: Ops per scrub step: alternating MXU / HBM work items.
SCRUB_OPS_PER_STEP = 8

#: Injection events retained verbatim per injector; totals keep
#: counting past the cap so heavy bursts stay bounded in memory.
MAX_SDC_EVENTS = 512

_OP_SELECTORS = ("compute", "memory", "all")


def chip_name(index: int) -> str:
    """Canonical chip id used by the fleet and the scrubber alike."""
    return f"chip-{index}"


def _stable_salt(*parts) -> int:
    """A process-independent 64-bit salt derived from ``parts``."""
    text = ":".join(str(part) for part in parts)
    return int.from_bytes(hashlib.sha256(text.encode("utf-8")).digest()[:8], "big")


# --- wire-format coercion -------------------------------------------------
#
# Shared by SdcSpec.from_dict and FaultSpec.from_dict: user-supplied JSON
# must fail with a ConfigurationError that names the field, never with a
# bare TypeError/ValueError from deep inside a conversion.


def coerce_float(value, name: str) -> float:
    """``value`` as a finite float, or a :class:`ConfigurationError` naming ``name``."""
    if isinstance(value, bool) or not isinstance(value, (int, float, str)):
        raise ConfigurationError(f"{name!r} must be a number, got {value!r}")
    try:
        result = float(value)
    except (ValueError, OverflowError):
        raise ConfigurationError(f"{name!r} must be a number, got {value!r}") from None
    if not math.isfinite(result):
        raise ConfigurationError(f"{name!r} must be a finite number, got {value!r}")
    return result


def coerce_int(value, name: str) -> int:
    """``value`` as an int when it is integral, or a :class:`ConfigurationError` naming ``name``."""
    if isinstance(value, bool) or not isinstance(value, (int, float, str)):
        raise ConfigurationError(f"{name!r} must be an integer, got {value!r}")
    try:
        result = int(value)
        integral = float(result) == float(value)
    except (ValueError, OverflowError):  # NaN, infinity, or past float range
        raise ConfigurationError(f"{name!r} must be an integer, got {value!r}") from None
    if not integral:
        raise ConfigurationError(f"{name!r} must be an integer, got {value!r}")
    return result


def coerce_optional_int(value, name: str) -> int | None:
    if value is None:
        return None
    return coerce_int(value, name)


def coerce_int_tuple(value, name: str) -> tuple[int, ...]:
    if isinstance(value, (str, bytes)) or not hasattr(value, "__iter__"):
        raise ConfigurationError(f"{name!r} must be a list of integers, got {value!r}")
    return tuple(coerce_int(item, name) for item in value)


def coerce_str_tuple(value, name: str) -> tuple[str, ...]:
    if isinstance(value, (str, bytes)) or not hasattr(value, "__iter__"):
        raise ConfigurationError(f"{name!r} must be a list of strings, got {value!r}")
    items = tuple(value)
    if any(not isinstance(item, str) or not item for item in items):
        raise ConfigurationError(f"{name!r} must be a list of non-empty strings")
    return items


class SdcFaultModel(enum.Enum):
    """What kind of silent corruption a degraded chip exhibits."""

    BIT_FLIP = "bit_flip"  # transient accumulator/read flip
    STUCK_AT = "stuck_at"  # persistent dead lanes, rerouted around
    LOW_PRECISION = "low_precision"  # degraded low-bit accumulate path


@dataclass(frozen=True)
class SdcEffect:
    """How one corrupted op execution is perturbed (never an exception)."""

    model: SdcFaultModel
    duration_scale: float = 1.0
    flops_scale: float = 1.0
    digest_salt: int = 0


@dataclass(frozen=True)
class SdcEvent:
    """One injection, as remembered by the log."""

    chip: str
    step: int
    op: str
    model: str


@dataclass(frozen=True)
class SdcSpec:
    """One chip-level fault model and its schedule.

    A spec fires on a chip's 1-based step index ``i`` when ``i`` is
    inside ``[first_step, last_step]`` and either ``i`` is listed in
    ``nth``, ``i`` is a multiple of ``every_nth``, or a seeded coin with
    ``probability`` comes up — the same grammar as
    :class:`repro.faults.plan.FaultSpec`, counted per chip step instead
    of per request. Within a firing step, every scheduled op the spec
    ``applies_to`` is corrupted; across specs the first match wins.
    """

    model: SdcFaultModel
    chips: tuple[str, ...] = ()  # empty = every chip
    ops: str = "all"  # compute | memory | all
    probability: float = 0.0
    every_nth: int | None = None
    nth: tuple[int, ...] = ()
    first_step: int = 1
    last_step: int | None = None
    severity: float = 0.25
    accumulator_bits: int = 16

    def __post_init__(self) -> None:
        if self.ops not in _OP_SELECTORS:
            raise ConfigurationError(
                f"sdc 'ops' must be one of {', '.join(_OP_SELECTORS)}; got {self.ops!r}"
            )
        if not 0.0 <= self.probability <= 1.0:
            raise ConfigurationError("sdc probability must be in [0, 1]")
        if self.every_nth is not None and self.every_nth <= 0:
            raise ConfigurationError("every_nth must be positive when set")
        if any(n <= 0 for n in self.nth):
            raise ConfigurationError("nth step indices are 1-based and positive")
        if self.first_step <= 0:
            raise ConfigurationError("first_step is 1-based and positive")
        if self.last_step is not None and self.last_step < self.first_step:
            raise ConfigurationError("last_step must be >= first_step")
        if not 0.0 < self.severity <= 0.9:
            raise ConfigurationError("sdc severity must be in (0, 0.9]")
        if not 2 <= self.accumulator_bits <= 32:
            raise ConfigurationError("accumulator_bits must be in [2, 32]")
        if self.probability == 0.0 and self.every_nth is None and not self.nth:
            raise ConfigurationError(
                "sdc spec needs a schedule: probability, every_nth, or nth"
            )

    # --- selection ---------------------------------------------------------

    def applies_to_chip(self, chip_id: str) -> bool:
        return not self.chips or chip_id in self.chips

    def applies_to(self, op: TpuOpWork) -> bool:
        """Whether this fault model can corrupt ``op``.

        SDC lives in the MXU datapath and the HBM read path; infeed,
        outfeed, and sync ops are host/link-bound and never corrupted.
        """
        if self.ops == "compute":
            return op.category is TpuOpCategory.COMPUTE and op.uses_mxu
        if self.ops == "memory":
            return op.category is TpuOpCategory.MEMORY
        return (
            op.category is TpuOpCategory.COMPUTE and op.uses_mxu
        ) or op.category is TpuOpCategory.MEMORY

    def matches(self, step_index: int, rng) -> bool:
        """Whether this spec fires on 1-based chip step ``step_index``."""
        if step_index < self.first_step:
            return False
        if self.last_step is not None and step_index > self.last_step:
            return False
        if step_index in self.nth:
            return True
        if self.every_nth is not None and step_index % self.every_nth == 0:
            return True
        if self.probability > 0.0:
            return float(rng.random()) < self.probability
        return False

    def effect(self, chip_id: str, spec_index: int, rng) -> SdcEffect:
        """The perturbation one corrupted op suffers under this model."""
        if self.model is SdcFaultModel.BIT_FLIP:
            # A transient flip: outputs wrong (random digest bit), the
            # poisoned partial products discounted from achieved FLOPs,
            # timings untouched.
            return SdcEffect(
                model=self.model,
                flops_scale=1.0 - self.severity,
                digest_salt=1 << int(rng.integers(0, 64)),
            )
        if self.model is SdcFaultModel.STUCK_AT:
            # Persistent dead lanes: stable wrong digest, ops rerouted
            # around the stuck region run at reduced efficiency.
            return SdcEffect(
                model=self.model,
                duration_scale=1.0 / (1.0 - self.severity),
                digest_salt=_stable_salt("stuck_at", chip_id, spec_index),
            )
        # LOW_PRECISION: chunked re-accumulation bounds the rounding
        # error at a duration cost; the rounding itself is deterministic.
        return SdcEffect(
            model=self.model,
            duration_scale=1.0 + self.severity,
            digest_salt=_stable_salt("low_precision", self.accumulator_bits),
        )

    # --- wire format -------------------------------------------------------

    def to_dict(self) -> dict:
        payload: dict = {"model": self.model.value}
        if self.chips:
            payload["chips"] = list(self.chips)
        if self.ops != "all":
            payload["ops"] = self.ops
        if self.probability:
            payload["probability"] = self.probability
        if self.every_nth is not None:
            payload["every_nth"] = self.every_nth
        if self.nth:
            payload["nth"] = list(self.nth)
        if self.first_step != 1:
            payload["first_step"] = self.first_step
        if self.last_step is not None:
            payload["last_step"] = self.last_step
        payload["severity"] = self.severity
        if self.model is SdcFaultModel.LOW_PRECISION:
            payload["accumulator_bits"] = self.accumulator_bits
        return payload

    @classmethod
    def from_dict(cls, payload: dict) -> "SdcSpec":
        if not isinstance(payload, dict):
            raise ConfigurationError("each sdc spec must be a JSON object")
        try:
            model = SdcFaultModel(payload["model"])
        except KeyError:
            raise ConfigurationError("sdc spec is missing 'model'") from None
        except (ValueError, TypeError):
            known_models = ", ".join(m.value for m in SdcFaultModel)
            raise ConfigurationError(
                f"unknown sdc model {payload.get('model')!r}; expected one of {known_models}"
            ) from None
        known = {
            "model", "chips", "ops", "probability", "every_nth", "nth",
            "first_step", "last_step", "severity", "accumulator_bits",
        }
        unknown = set(payload) - known
        if unknown:
            raise ConfigurationError(
                f"unknown sdc spec fields: {', '.join(sorted(unknown))}"
            )
        ops = payload.get("ops", "all")
        if not isinstance(ops, str):
            raise ConfigurationError(f"'ops' must be a string, got {ops!r}")
        return cls(
            model=model,
            chips=coerce_str_tuple(payload.get("chips", ()), "chips"),
            ops=ops,
            probability=coerce_float(payload.get("probability", 0.0), "probability"),
            every_nth=coerce_optional_int(payload.get("every_nth"), "every_nth"),
            nth=coerce_int_tuple(payload.get("nth", ()), "nth"),
            first_step=coerce_int(payload.get("first_step", 1), "first_step"),
            last_step=coerce_optional_int(payload.get("last_step"), "last_step"),
            severity=coerce_float(payload.get("severity", 0.25), "severity"),
            accumulator_bits=coerce_int(
                payload.get("accumulator_bits", 16), "accumulator_bits"
            ),
        )


class SdcInjector:
    """Deterministic per-chip corruption decisions.

    One injector serves one chip. Each applicable spec draws from its
    own seeded stream named ``sdc:{chip}:{plan index}``, so adding a
    spec never shifts another's decisions and a chip's injection log
    is identical across repeat runs and worker counts. The injector
    never raises on the corruption path: every decision resolves to an
    :class:`SdcEffect` or ``None``.

    ``digests`` asks the device to fold a per-step output digest while
    this injector is attached. Only the scrubber needs that (exact
    comparison against a golden run); fleet injectors leave it off so
    an armed-but-quiet plan costs the hot loop almost nothing.
    """

    def __init__(self, specs, seed: int, chip_id: str, digests: bool = False):
        self.chip_id = chip_id
        self.seed = int(seed)
        self.digests = bool(digests)
        indexed = [
            (index, spec)
            for index, spec in enumerate(specs)
            if spec.applies_to_chip(chip_id)
        ]
        self._specs = tuple(
            (spec, index, rng_mod.stream(f"sdc:{chip_id}:{index}", self.seed))
            for index, spec in indexed
        )
        self.steps_seen = 0
        self.injected: dict[str, int] = {}
        self.events: list[SdcEvent] = []
        self.events_total = 0
        self._active: list = []
        # No spec can fire before its window opens, and matches() draws
        # no randomness until then — so steps before the earliest window
        # can skip the spec scan without perturbing any seeded stream.
        self._wake_step = min(
            (spec.first_step for spec, _, _ in self._specs), default=0
        )

    def begin_step(self) -> list:
        """Advance the per-chip step counter; returns this step's active specs.

        The device treats the return value as a truthiness fast-path: an
        empty list means the per-op corruption check is a single branch.
        """
        self.steps_seen += 1
        step = self.steps_seen
        if step < self._wake_step:
            if self._active:
                self._active = []
            return self._active
        self._active = [
            entry for entry in self._specs if entry[0].matches(step, entry[2])
        ]
        return self._active

    def corrupt(self, op: TpuOpWork) -> SdcEffect | None:
        """The perturbation (if any) for one op in the current step."""
        for spec, index, rng in self._active:
            if spec.applies_to(op):
                effect = spec.effect(self.chip_id, index, rng)
                model = spec.model.value
                self.injected[model] = self.injected.get(model, 0) + 1
                self.events_total += 1
                if len(self.events) < MAX_SDC_EVENTS:
                    self.events.append(
                        SdcEvent(
                            chip=self.chip_id,
                            step=self.steps_seen,
                            op=op.name,
                            model=model,
                        )
                    )
                return effect
        return None

    @property
    def total_injected(self) -> int:
        return sum(self.injected.values())

    def log(self) -> tuple[SdcEvent, ...]:
        """The retained injection events (determinism witness)."""
        return tuple(self.events)


# --- the checkered scrub self-test ---------------------------------------


def scrub_schedule(spec: TpuChipSpec, seed: int = rng_mod.DEFAULT_SEED) -> list[TpuOpWork]:
    """The seeded checkered self-test schedule for one step.

    Alternates MXU matmul tiles and HBM sweeps of seeded magnitudes —
    the accelerator analogue of a checkerboard memory test: every scrub
    step exercises both corruptible datapaths at varying intensities so
    a fault model gated to either ``ops`` selector still shows up.
    """
    pattern = rng_mod.stream("sdc:scrub-pattern", seed)
    schedule: list[TpuOpWork] = []
    for index in range(SCRUB_OPS_PER_STEP):
        if index % 2 == 0:
            target_us = 40.0 + float(pattern.random()) * 50.0
            schedule.append(
                TpuOpWork(
                    name=f"ScrubMatmul{index}",
                    category=TpuOpCategory.COMPUTE,
                    flops=target_us * 1e-6 * spec.peak_flops * 0.75,
                    efficiency=0.75,
                    uses_mxu=True,
                )
            )
        else:
            target_us = 20.0 + float(pattern.random()) * 30.0
            schedule.append(
                TpuOpWork(
                    name=f"ScrubHbmSweep{index}",
                    category=TpuOpCategory.MEMORY,
                    # transfer_time_us uses streams=2: bytes = t * bw / 2
                    num_bytes=target_us * 1e-6 * spec.hbm_bandwidth / 2.0,
                )
            )
    return schedule


@dataclass(frozen=True)
class ChipScrubResult:
    """One chip's self-test verdict against the golden reference."""

    chip: str
    steps: int
    digest_mismatches: int
    first_bad_step: int  # 0 when every digest matched
    elapsed_us: float
    elapsed_delta_us: float
    mxu_utilization: float
    utilization_drop: float
    injected: dict = field(default_factory=dict)
    suspect: bool = False

    def to_dict(self) -> dict:
        return {
            "chip": self.chip,
            "steps": self.steps,
            "digest_mismatches": self.digest_mismatches,
            "first_bad_step": self.first_bad_step,
            "elapsed_us": self.elapsed_us,
            "elapsed_delta_us": self.elapsed_delta_us,
            "mxu_utilization": self.mxu_utilization,
            "utilization_drop": self.utilization_drop,
            "injected": dict(self.injected),
            "suspect": self.suspect,
        }


@dataclass(frozen=True)
class ScrubReport:
    """Fleet-wide scrub outcome."""

    generation: str
    seed: int
    steps: int
    golden_elapsed_us: float
    golden_utilization: float
    results: tuple[ChipScrubResult, ...] = ()

    def suspects(self) -> list[str]:
        return [result.chip for result in self.results if result.suspect]

    def to_dict(self) -> dict:
        return {
            "version": 1,
            "generation": self.generation,
            "seed": self.seed,
            "steps": self.steps,
            "golden_elapsed_us": self.golden_elapsed_us,
            "golden_utilization": self.golden_utilization,
            "chips": [result.to_dict() for result in self.results],
            "suspects": self.suspects(),
        }

    def format(self) -> list[str]:
        lines = [
            f"chips scanned : {len(self.results)} ({self.generation}, "
            f"{self.steps} steps, seed {self.seed})",
            f"golden run    : {self.golden_elapsed_us:.1f} us, "
            f"mxu {self.golden_utilization:.1%}",
            f"{'chip':<12} {'digests':>10} {'dt(us)':>12} {'mxu':>7} "
            f"{'drop':>7}  verdict",
        ]
        for result in self.results:
            digests = (
                f"{result.digest_mismatches} bad"
                if result.digest_mismatches
                else "ok"
            )
            injected = ""
            if result.injected:
                injected = " (" + ", ".join(
                    f"{model}={count}"
                    for model, count in sorted(result.injected.items())
                ) + ")"
            lines.append(
                f"{result.chip:<12} {digests:>10} {result.elapsed_delta_us:>+12.1f} "
                f"{result.mxu_utilization:>7.1%} {result.utilization_drop:>+7.1%}  "
                f"{'SUSPECT' if result.suspect else 'clean'}{injected}"
            )
        suspects = self.suspects()
        lines.append(
            "suspect chips : " + (", ".join(suspects) if suspects else "none")
        )
        return lines


def _scrub_run(spec, schedule, steps, injector):
    """Run one chip through the self-test; per-step digests + the device."""
    device = TpuDevice(spec)
    device.attach_sdc(injector)
    digests = []
    now = 0.0
    for step in range(1, steps + 1):
        result = device.execute_step(step, schedule, start_us=now)
        digests.append(result.output_digest)
        now = result.end_us
    return digests, device


def run_scrub(
    chips,
    generation="v2",
    plan=None,
    seed: int = rng_mod.DEFAULT_SEED,
    steps: int = DEFAULT_SCRUB_STEPS,
) -> ScrubReport:
    """Self-test ``chips`` against a golden clean run.

    ``chips`` is a chip count or an explicit list of chip ids (ids match
    the fleet's ``chip-<n>`` naming via :func:`chip_name`). ``plan`` is
    anything exposing ``.sdc`` (a tuple of :class:`SdcSpec`) and
    ``.seed`` — normally a :class:`repro.faults.plan.FaultPlan`; ``None``
    scrubs a clean fleet. Comparison against golden is exact, so a clean
    chip can never be flagged.
    """
    if isinstance(chips, int):
        if chips <= 0:
            raise ConfigurationError("chip count must be positive")
        chips = [chip_name(index) for index in range(chips)]
    chips = list(chips)
    if steps <= 0:
        raise ConfigurationError("scrub steps must be positive")
    spec = chip_spec(generation)
    schedule = scrub_schedule(spec, seed)
    sdc_specs = tuple(getattr(plan, "sdc", ()) or ())
    plan_seed = int(getattr(plan, "seed", 0) or 0)

    golden_digests, golden_device = _scrub_run(
        spec, schedule, steps, SdcInjector((), 0, "scrub-golden", digests=True)
    )
    golden_elapsed = golden_device.total_elapsed_us
    golden_util = golden_device.mxu_utilization()

    results = []
    for chip in chips:
        injector = SdcInjector(sdc_specs, plan_seed, chip, digests=True)
        digests, device = _scrub_run(spec, schedule, steps, injector)
        mismatches = sum(
            1 for ours, golden in zip(digests, golden_digests) if ours != golden
        )
        first_bad = next(
            (
                index + 1
                for index, (ours, golden) in enumerate(zip(digests, golden_digests))
                if ours != golden
            ),
            0,
        )
        elapsed = device.total_elapsed_us
        utilization = device.mxu_utilization()
        suspect = (
            mismatches > 0
            or elapsed != golden_elapsed
            or utilization != golden_util
        )
        results.append(
            ChipScrubResult(
                chip=chip,
                steps=steps,
                digest_mismatches=mismatches,
                first_bad_step=first_bad,
                elapsed_us=elapsed,
                elapsed_delta_us=elapsed - golden_elapsed,
                mxu_utilization=utilization,
                utilization_drop=golden_util - utilization,
                injected=dict(injector.injected),
                suspect=suspect,
            )
        )
    return ScrubReport(
        generation=spec.generation.value,
        seed=seed,
        steps=steps,
        golden_elapsed_us=golden_elapsed,
        golden_utilization=golden_util,
        results=tuple(results),
    )


_SCRUB_COST_CACHE: dict[tuple, float] = {}


def scrub_cost_us(
    generation="v2",
    seed: int = rng_mod.DEFAULT_SEED,
    steps: int = DEFAULT_SCRUB_STEPS,
) -> float:
    """Simulated wall time one chip spends in the self-test.

    This is the deterministic loss the goodput ledger charges to the
    ``sdc_scrub`` badput bucket when a chip is quarantined: the fleet
    pays one scrub pass to confirm the suspect.
    """
    spec = chip_spec(generation)
    key = (spec.generation.value, seed, steps)
    cached = _SCRUB_COST_CACHE.get(key)
    if cached is None:
        schedule = scrub_schedule(spec, seed)
        _, device = _scrub_run(spec, schedule, steps, SdcInjector((), 0, "scrub-cost"))
        cached = device.total_elapsed_us
        _SCRUB_COST_CACHE[key] = cached
    return cached
