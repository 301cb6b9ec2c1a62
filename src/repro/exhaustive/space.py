"""The complete injection space of one victim, enumerated as data.

Where :class:`~repro.faultsim.explorer.FaultCampaignSpec` *samples* the
injection space (seeded draws), :class:`ExhaustiveSpec` *enumerates* it:
every instruction step × every register × every bit for the architectural
models, and a deterministic grid over the window for the time-triggered
ones.  Enumeration order is canonical — model order as given, then
ascending (step, target, bit) — because the order of
:class:`~repro.faultsim.report.InjectionRecord` entries is what the map
fingerprint hashes; the reduced and naive mappers must emit records in
exactly this order to be provably bit-identical.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator, List, Optional, Tuple

from ..eval.common import VictimConfig
from ..faultsim.explorer import fault_victim
from ..faultsim.models import (
    CKPT_CORRUPT,
    CKPT_TRUNCATE,
    FAULT_MODELS,
    FaultSimError,
    FaultSpec,
    IMAGE_PREFIX_WORDS,
    INSTR_SKIP,
    REG_FLIP,
    SIGNAL_DROP,
    SIGNAL_SPURIOUS,
    STEP_MODELS,
    image_word_label,
)
from ..isa.operands import NUM_REGS
from ..runtime.golden import GoldenTrace

#: Default snapshot cadence (steps between golden-state captures).
DEFAULT_SNAPSHOT_STRIDE = 64

#: Default checkpoint-window count for the time-triggered image models.
DEFAULT_CKPT_WINDOWS = 1

#: Default monitor-signal slots over the window.
DEFAULT_SIGNAL_SLOTS = 8


@dataclass
class ExhaustiveSpec:
    """One exhaustive mapping job: victim + models + space bounds.

    The step-model space defaults to *every* golden instruction step and
    *every* bit of every register; ``start_step``/``slice_steps``/
    ``step_stride``/``bits`` carve out the sub-slices the differential
    tests and CI smoke use.  Unlike the sampling campaign spec there is
    no RNG anywhere: the space is the plan.
    """

    victim: VictimConfig = field(default_factory=fault_victim)
    models: Tuple[str, ...] = FAULT_MODELS
    #: Step-model slice: first step, step count (None = to the end), and
    #: stride over steps.
    start_step: int = 0
    slice_steps: Optional[int] = None
    step_stride: int = 1
    #: Bit positions flipped per register (reg_flip only).
    bits: Tuple[int, ...] = tuple(range(32))
    #: Golden-state capture cadence for the forking mapper.
    snapshot_stride: int = DEFAULT_SNAPSHOT_STRIDE
    #: Time-model grids: checkpoint windows and monitor-signal slots.
    ckpt_windows: int = DEFAULT_CKPT_WINDOWS
    signal_slots: int = DEFAULT_SIGNAL_SLOTS
    name: str = "exhaustive"

    def __post_init__(self) -> None:
        unknown = [m for m in self.models if m not in FAULT_MODELS]
        if unknown:
            raise FaultSimError(
                f"unknown fault models {unknown} "
                f"(want a subset of {', '.join(FAULT_MODELS)})")
        if not self.models:
            raise FaultSimError("need at least one fault model")
        if self.start_step < 0 or self.step_stride < 1:
            raise FaultSimError("bad step-model slice bounds")
        if self.slice_steps is not None and self.slice_steps < 1:
            raise FaultSimError("slice_steps must be >= 1 (or None)")
        self.bits = tuple(sorted(set(self.bits)))
        if not self.bits or not all(0 <= b < 32 for b in self.bits):
            raise FaultSimError("bits must be a non-empty subset of 0..31")
        if self.snapshot_stride < 1:
            raise FaultSimError("snapshot_stride must be >= 1")
        if self.ckpt_windows < 1 or self.signal_slots < 1:
            raise FaultSimError("time-model grids need >= 1 point")

    # ------------------------------------------------------------------
    def step_range(self, total_steps: int) -> range:
        """The enumerated instruction steps within a golden run."""
        end = total_steps if self.slice_steps is None \
            else min(total_steps, self.start_step + self.slice_steps)
        return range(min(self.start_step, total_steps), end, self.step_stride)

    def step_models(self) -> Tuple[str, ...]:
        return tuple(m for m in self.models if m in STEP_MODELS)

    def time_models(self) -> Tuple[str, ...]:
        return tuple(m for m in self.models if m not in STEP_MODELS)


def enumerate_step_model(spec: ExhaustiveSpec, model: str,
                         trace: GoldenTrace) -> Iterator[FaultSpec]:
    """Every injection of one step-triggered model, in canonical order."""
    steps = spec.step_range(trace.golden_steps)
    if model == REG_FLIP:
        for step in steps:
            region = f"region:{trace.region_at(step)}"
            for target in range(NUM_REGS):
                for bit in spec.bits:
                    yield FaultSpec(model=model, trigger_step=step,
                                    target=target, bit=bit, region=region)
    elif model == INSTR_SKIP:
        for step in steps:
            yield FaultSpec(model=model, trigger_step=step,
                            region=f"region:{trace.region_at(step)}")
    else:  # pragma: no cover - guarded by callers
        raise FaultSimError(f"{model} is not a step-triggered model")


def enumerate_time_model(spec: ExhaustiveSpec, model: str) -> List[FaultSpec]:
    """The deterministic window grid of one time-triggered model.

    Checkpoint-image models place ``ckpt_windows`` trigger times evenly
    inside the window (the same interior spread the sampler uses) and
    cross them with every image-prefix word — and, for corruption, every
    enumerated bit.  Signal models place ``signal_slots`` triggers over
    the first 90% of the window, mirroring the sampler's exclusion of the
    dead tail where a forged event can no longer change anything.
    """
    duration = spec.victim.duration_s
    plan: List[FaultSpec] = []
    if model == CKPT_CORRUPT:
        for index in range(spec.ckpt_windows):
            t = duration * (index + 1) / (spec.ckpt_windows + 1)
            for target in range(IMAGE_PREFIX_WORDS):
                for bit in spec.bits:
                    plan.append(FaultSpec(
                        model=model, trigger_time_s=t, target=target,
                        bit=bit, region=f"img:{image_word_label(target)}"))
    elif model == CKPT_TRUNCATE:
        for index in range(spec.ckpt_windows):
            t = duration * (index + 1) / (spec.ckpt_windows + 1)
            for cut in range(IMAGE_PREFIX_WORDS):
                plan.append(FaultSpec(model=model, trigger_time_s=t,
                                      target=cut, region="img:partial"))
    elif model in (SIGNAL_DROP, SIGNAL_SPURIOUS):
        for index in range(spec.signal_slots):
            t = duration * 0.9 * (index + 0.5) / spec.signal_slots
            plan.append(FaultSpec(model=model, trigger_time_s=t,
                                  region="signal"))
    else:  # pragma: no cover - guarded by callers
        raise FaultSimError(f"{model} is not a time-triggered model")
    return plan
