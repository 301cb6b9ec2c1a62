"""The fault vocabulary: what can go wrong, where, and when.

The models follow Moro et al.'s EMI fault taxonomy (instruction skip,
register corruption) extended with the intermittent-specific faults the
paper's attack actually lands (§IV-B): corrupted and truncated JIT
checkpoint images in NVM, and forged/suppressed voltage-monitor signals.
A :class:`FaultSpec` is one concrete injection: a model, a target, and a
trigger — either an instruction count (architectural faults) or a
simulated time (energy/NVM/signal faults).  Specs are frozen plain data:
picklable, comparable, and usable as campaign sweep-axis values.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Optional

from ..errors import ReproError
from ..isa.operands import NUM_REGS


class FaultSimError(ReproError):
    """An injection plan or classification that cannot be carried out."""


#: Register bit-flip: XOR one bit into one register before an instruction.
REG_FLIP = "reg_flip"
#: Instruction skip: fetch and charge one instruction, execute nothing.
INSTR_SKIP = "instr_skip"
#: In-flight checkpoint corruption: one image word is stored corrupted and
#: the commit markers never land (the ``V_fail`` glitch hits mid-backup).
CKPT_CORRUPT = "ckpt_corrupt"
#: Truncated checkpoint: the image write stops after ``target`` words, as
#: if the buffered energy ran out mid-backup.
CKPT_TRUNCATE = "ckpt_truncate"
#: Dropped monitor signal: the next genuine CHECKPOINT/WAKE event is lost.
SIGNAL_DROP = "signal_drop"
#: Spurious monitor signal: a forged CHECKPOINT (running) or WAKE
#: (sleeping) where the monitor saw nothing.
SIGNAL_SPURIOUS = "signal_spurious"

#: Every model, in canonical (map-row) order.
FAULT_MODELS = (REG_FLIP, INSTR_SKIP, CKPT_CORRUPT, CKPT_TRUNCATE,
                SIGNAL_DROP, SIGNAL_SPURIOUS)
#: Models triggered by an instruction count (machine hook).
STEP_MODELS = frozenset({REG_FLIP, INSTR_SKIP})
#: Models triggered at the next checkpoint after a time (runtime hook).
CKPT_MODELS = frozenset({CKPT_CORRUPT, CKPT_TRUNCATE})
#: Models triggered at the next monitor sample after a time.
SIGNAL_MODELS = frozenset({SIGNAL_DROP, SIGNAL_SPURIOUS})

#: Words of the JIT checkpoint image that exist for every program state:
#: 16 registers, the PC, the sensor cursor, and the output-buffer length.
#: (Buffered OUT words follow but vary per checkpoint, so sweeps target
#: the fixed prefix.)
IMAGE_PREFIX_WORDS = NUM_REGS + 3


def image_word_label(index: int) -> str:
    """Human-readable name of one checkpoint-image word."""
    if index < NUM_REGS:
        return f"reg{index}"
    if index == NUM_REGS:
        return "pc"
    if index == NUM_REGS + 1:
        return "sensor"
    if index == NUM_REGS + 2:
        return "outlen"
    return f"out{index - IMAGE_PREFIX_WORDS}"


@dataclass(frozen=True)
class FaultSpec:
    """One concrete fault injection, as data.

    ``target`` is model-dependent: a register index (``reg_flip``), a
    checkpoint-image word index (``ckpt_corrupt``), or the number of image
    words that land before the cut (``ckpt_truncate``).  ``region`` is a
    plan-time attribution label used as the vulnerability map's row key —
    a program region for step-triggered faults, an image-word or signal
    label for the others (see :mod:`repro.faultsim.explorer`).
    """

    model: str
    target: int = 0
    bit: int = 0
    trigger_step: Optional[int] = None
    trigger_time_s: Optional[float] = None
    region: str = "?"

    def __post_init__(self) -> None:
        if self.model not in FAULT_MODELS:
            raise FaultSimError(f"unknown fault model {self.model!r} "
                                f"(want one of {', '.join(FAULT_MODELS)})")
        if self.model in STEP_MODELS and self.trigger_step is None:
            raise FaultSimError(f"{self.model} needs trigger_step")
        if self.model not in STEP_MODELS and self.trigger_time_s is None:
            raise FaultSimError(f"{self.model} needs trigger_time_s")

    def describe(self) -> str:
        """A one-line label, e.g. for logs and map records."""
        if self.model == REG_FLIP:
            return (f"reg_flip r{self.target % NUM_REGS} bit{self.bit % 32} "
                    f"@step {self.trigger_step}")
        if self.model == INSTR_SKIP:
            return f"instr_skip @step {self.trigger_step}"
        if self.model == CKPT_CORRUPT:
            label = image_word_label(self.target % IMAGE_PREFIX_WORDS)
            return (f"ckpt_corrupt {label} bit{self.bit % 32} "
                    f"@t>={self.trigger_time_s:.4f}s")
        if self.model == CKPT_TRUNCATE:
            return (f"ckpt_truncate after {self.target % IMAGE_PREFIX_WORDS} "
                    f"words @t>={self.trigger_time_s:.4f}s")
        return f"{self.model} @t>={self.trigger_time_s:.4f}s"

    # -- serialization -------------------------------------------------
    def to_dict(self) -> dict:
        # Every field is a scalar: a shallow copy is what asdict returns,
        # without its per-field deepcopy (maps hold ~10^5 specs).
        return {f.name: getattr(self, f.name)
                for f in dataclasses.fields(self)}

    @classmethod
    def from_dict(cls, data: dict) -> "FaultSpec":
        names = {f.name for f in dataclasses.fields(cls)}
        return cls(**{k: v for k, v in data.items() if k in names})
