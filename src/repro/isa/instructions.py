"""Instruction set of the reproduction's target machine.

The machine is a 16-register, word-addressed load/store core with non-volatile
main memory (FRAM-like), modelled on the MSP430FR59xx family used throughout
the paper's evaluation.  The same :class:`Instr` record is used at two levels:

* **IR level** — operands are :class:`~repro.isa.operands.VReg` virtual
  registers; instructions live inside basic blocks of an
  :class:`~repro.ir.cfg.Function`.
* **machine level** — after register allocation operands are
  :class:`~repro.isa.operands.PReg`; instructions live in a flat
  :class:`~repro.isa.program.MachineFunction` body.

Two opcodes exist purely for the paper's crash-consistency runtimes:

* ``CKPT`` — a compiler-assisted checkpoint store: persist one register into
  the double-buffered checkpoint storage (GECKO §VI-D).  Costed as one NVM
  store.
* ``MARK`` — an idempotent-region boundary: persist the region id and re-entry
  PC, and bump the region-completion counter used by GECKO's timer-based
  attack detection (§VI-A).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Callable, Dict, List, NamedTuple, Optional, Tuple, Union

from .operands import (
    MASK32,
    Imm,
    Label,
    PReg,
    Sym,
    VReg,
    trunc_div,
    trunc_rem,
    wrap32,
)

Operand = Union[VReg, PReg, Imm]
RegOperand = Union[VReg, PReg]


class Opcode(enum.Enum):
    """All machine opcodes."""

    # Data movement.
    LI = "li"          # dst <- imm
    MOV = "mov"        # dst <- a
    # Integer ALU (dst <- a op b; b may be an immediate).
    ADD = "add"
    SUB = "sub"
    MUL = "mul"
    DIV = "div"        # signed, trapping on divide-by-zero
    REM = "rem"
    AND = "and"
    OR = "or"
    XOR = "xor"
    SHL = "shl"
    SHR = "shr"        # logical
    SAR = "sar"        # arithmetic
    NEG = "neg"        # dst <- -a
    NOT = "not"        # dst <- ~a
    # Comparisons producing 0/1.
    SLT = "slt"
    SLE = "sle"
    SEQ = "seq"
    SNE = "sne"
    SGT = "sgt"
    SGE = "sge"
    # Memory (word addressed; effective address = base(sym) + off).
    LD = "ld"          # dst <- mem[sym + off]
    ST = "st"          # mem[sym + off] <- a
    # Control flow.
    BNZ = "bnz"        # if a != 0 goto target
    JMP = "jmp"
    CALL = "call"      # callee named by ``callee``
    RET = "ret"
    HALT = "halt"
    # Peripherals / observable effects.
    OUT = "out"        # emit a to the output channel (I/O task)
    SENSE = "sense"    # dst <- next sensor reading
    # Crash-consistency runtime support.
    CKPT = "ckpt"      # checkpoint register a into slot (reg_index, color)
    MARK = "mark"      # idempotent region boundary (region id in ``region``)
    NOP = "nop"


#: Opcodes computing ``dst <- a op b``.
BINOPS = frozenset(
    {
        Opcode.ADD, Opcode.SUB, Opcode.MUL, Opcode.DIV, Opcode.REM,
        Opcode.AND, Opcode.OR, Opcode.XOR, Opcode.SHL, Opcode.SHR, Opcode.SAR,
        Opcode.SLT, Opcode.SLE, Opcode.SEQ, Opcode.SNE, Opcode.SGT, Opcode.SGE,
    }
)

#: Opcodes computing ``dst <- op a``.
UNOPS = frozenset({Opcode.MOV, Opcode.NEG, Opcode.NOT})

#: Opcodes that end a basic block.
TERMINATORS = frozenset({Opcode.BNZ, Opcode.JMP, Opcode.RET, Opcode.HALT})

#: Opcodes after which linear execution cannot simply continue to the next
#: instruction slot of the same block: control transfers away (and, for
#: ``CALL``, comes back to the *following* slot via ``RET``).  Block
#: compilers (:mod:`repro.runtime.threaded`) must end a block here even
#: though ``CALL`` is not an IR-level terminator.
BLOCK_ENDERS = TERMINATORS | {Opcode.CALL}

#: Opcodes with side effects that must not be re-executed speculatively and
#: around which GECKO places region boundaries (§VI-B: I/O, calls, async).
IO_OPS = frozenset({Opcode.OUT, Opcode.SENSE})

#: Opcodes that write non-volatile memory (the FRAM wear/commit surface).
NVM_WRITE_OPS = frozenset({Opcode.ST, Opcode.CKPT, Opcode.MARK})

#: Interruptible points: instructions whose side effects interact with the
#: crash-consistency protocol or the outside world — checkpoint stores,
#: region commits, sensor reads, peripheral output, and NVM stores.
#: Execution backends must keep architectural state exact *at* these
#: instructions (a threaded block may batch pure ALU work between them,
#: but every interruptible effect happens in program order with the same
#: observable values as the reference interpreter).
INTERRUPTIBLE_OPS = NVM_WRITE_OPS | IO_OPS

#: Opcodes that can trap at runtime (division by zero, out-of-bounds
#: memory access).  Block compilers emit inline guards for these so the
#: trap carries the same message and partial-state semantics as
#: :meth:`repro.runtime.machine.Machine.step`.
TRAPPING_OPS = frozenset({Opcode.DIV, Opcode.REM, Opcode.LD, Opcode.ST})

#: Per-opcode cycle costs, calibrated to MSP430FR-class hardware: ordinary
#: two-operand instructions take ~2 cycles with operand fetch; FRAM loads
#: and stores are ~3 cycles; multiplication goes through the MPY32
#: peripheral (operand writes + result reads); division is a software
#: routine; OUT/SENSE talk to peripherals (radio/ADC conversion time); a
#: CKPT is one FRAM store and MARK is the two-store commit record.
CYCLES: Dict[Opcode, int] = {
    Opcode.LI: 2, Opcode.MOV: 2,
    Opcode.ADD: 2, Opcode.SUB: 2, Opcode.AND: 2, Opcode.OR: 2, Opcode.XOR: 2,
    Opcode.SHL: 2, Opcode.SHR: 2, Opcode.SAR: 2, Opcode.NEG: 2, Opcode.NOT: 2,
    Opcode.SLT: 2, Opcode.SLE: 2, Opcode.SEQ: 2, Opcode.SNE: 2,
    Opcode.SGT: 2, Opcode.SGE: 2,
    Opcode.MUL: 12, Opcode.DIV: 80, Opcode.REM: 80,
    Opcode.LD: 3, Opcode.ST: 3,
    Opcode.BNZ: 2, Opcode.JMP: 2, Opcode.CALL: 5, Opcode.RET: 5,
    Opcode.HALT: 2,
    Opcode.OUT: 24, Opcode.SENSE: 24,
    Opcode.CKPT: 3, Opcode.MARK: 6,
    Opcode.NOP: 1,
}


class AluOp(NamedTuple):
    """One ALU opcode's semantics, in the two forms its users need."""

    #: ``fn(a, b)`` (``fn(a)`` for NEG/NOT): the signed-32 result.
    fn: Callable[..., int]
    #: The same result as a Python expression over ``{a}``/``{b}``.
    template: str
    #: Whether ``template`` still needs the signed-32 wrap applied.
    wraps: bool


#: The ALU: every opcode in :data:`BINOPS` plus NEG and NOT.  Threaded
#: code generation, recovery-block execution and both constant folders
#: derive from this table; :meth:`repro.runtime.machine.Machine.step`
#: spells the semantics out independently, as the reference the tests
#: hold this table to.  DIV and REM raise ``ZeroDivisionError`` on a zero
#: divisor: each user keeps its own trap.
ALU: Dict[Opcode, AluOp] = {
    Opcode.ADD: AluOp(lambda a, b: wrap32(a + b), "{a} + {b}", True),
    Opcode.SUB: AluOp(lambda a, b: wrap32(a - b), "{a} - {b}", True),
    Opcode.MUL: AluOp(lambda a, b: wrap32(a * b), "{a} * {b}", True),
    Opcode.DIV: AluOp(trunc_div, "trunc_div({a}, {b})", False),
    Opcode.REM: AluOp(trunc_rem, "trunc_rem({a}, {b})", False),
    Opcode.AND: AluOp(lambda a, b: wrap32(a & b), "{a} & {b}", True),
    Opcode.OR: AluOp(lambda a, b: wrap32(a | b), "{a} | {b}", True),
    Opcode.XOR: AluOp(lambda a, b: wrap32(a ^ b), "{a} ^ {b}", True),
    Opcode.SHL: AluOp(lambda a, b: wrap32(a << (b & 31)),
                      "{a} << ({b} & 31)", True),
    Opcode.SHR: AluOp(lambda a, b: wrap32((a & MASK32) >> (b & 31)),
                      f"(({{a}}) & {MASK32}) >> ({{b}} & 31)", True),
    Opcode.SAR: AluOp(lambda a, b: wrap32(a >> (b & 31)),
                      "{a} >> ({b} & 31)", True),
    Opcode.NEG: AluOp(lambda a: wrap32(-a), "-{a}", True),
    Opcode.NOT: AluOp(lambda a: wrap32(~a), "~{a}", True),
    # ``1 if … else 0`` keeps a comparison an int, not a bool.
    Opcode.SLT: AluOp(lambda a, b: int(a < b), "1 if {a} < {b} else 0", False),
    Opcode.SLE: AluOp(lambda a, b: int(a <= b), "1 if {a} <= {b} else 0",
                      False),
    Opcode.SEQ: AluOp(lambda a, b: int(a == b), "1 if {a} == {b} else 0",
                      False),
    Opcode.SNE: AluOp(lambda a, b: int(a != b), "1 if {a} != {b} else 0",
                      False),
    Opcode.SGT: AluOp(lambda a, b: int(a > b), "1 if {a} > {b} else 0", False),
    Opcode.SGE: AluOp(lambda a, b: int(a >= b), "1 if {a} >= {b} else 0",
                      False),
}


@dataclass
class Instr:
    """One instruction.

    Only the fields relevant to ``op`` are populated; the rest stay ``None``.

    Attributes:
        op: the opcode.
        dst: destination register for value-producing opcodes.
        a: first source operand (register, or immediate for ``LI``).
        b: second source operand of binary ALU ops (register or immediate).
        sym: base symbol of a memory access (``LD``/``ST``).
        off: address offset operand of a memory access (register or immediate).
        target: branch target label (``BNZ``/``JMP``).
        callee: function name (``CALL``).
        reg_index: architectural register number checkpointed by ``CKPT``.
        color: double-buffer storage index (0/1) of a ``CKPT``.
        region: region id of a ``MARK``.
        meta: free-form annotations used by compiler passes (never affects
            execution semantics).
    """

    op: Opcode
    dst: Optional[RegOperand] = None
    a: Optional[Operand] = None
    b: Optional[Operand] = None
    sym: Optional[Sym] = None
    off: Optional[Operand] = None
    target: Optional[Label] = None
    callee: Optional[str] = None
    reg_index: Optional[int] = None
    color: Optional[int] = None
    region: Optional[int] = None
    meta: Dict[str, object] = field(default_factory=dict)

    # ------------------------------------------------------------------
    # Use/def accessors.
    # ------------------------------------------------------------------
    def defs(self) -> List[RegOperand]:
        """Registers written by this instruction."""
        return [self.dst] if self.dst is not None else []

    def uses(self) -> List[RegOperand]:
        """Registers read by this instruction, in operand order."""
        used: List[RegOperand] = []
        for operand in (self.a, self.b, self.off):
            if isinstance(operand, (VReg, PReg)):
                used.append(operand)
        return used

    def operands(self) -> List[Operand]:
        """All source operands including immediates (for rewriting passes)."""
        return [op for op in (self.a, self.b, self.off) if op is not None]

    # ------------------------------------------------------------------
    # Classification helpers.
    # ------------------------------------------------------------------
    @property
    def is_terminator(self) -> bool:
        return self.op in TERMINATORS

    @property
    def is_memory(self) -> bool:
        return self.op in (Opcode.LD, Opcode.ST)

    @property
    def is_io(self) -> bool:
        return self.op in IO_OPS

    @property
    def cycles(self) -> int:
        """Cycle cost of this instruction.

        A checkpoint on the per-register dynamic-index fallback pays for its
        index load and the commit-time index store (§VI-D's naive scheme).
        """
        cost = CYCLES[self.op]
        if self.op is Opcode.CKPT and self.meta.get("per_reg"):
            cost += CYCLES[Opcode.LD] + CYCLES[Opcode.ST]
        return cost

    def replace_regs(self, mapping: Dict[RegOperand, Operand]) -> "Instr":
        """Return a copy with registers substituted per ``mapping``.

        Destination registers are only ever replaced by registers; attempting
        to map a destination to an immediate raises ``ValueError``.
        """

        def sub(operand: Optional[Operand]) -> Optional[Operand]:
            if isinstance(operand, (VReg, PReg)) and operand in mapping:
                return mapping[operand]
            return operand

        new_dst = self.dst
        if isinstance(new_dst, (VReg, PReg)) and new_dst in mapping:
            replacement = mapping[new_dst]
            if not isinstance(replacement, (VReg, PReg)):
                raise ValueError("cannot map a destination register to an immediate")
            new_dst = replacement
        return Instr(
            op=self.op, dst=new_dst, a=sub(self.a), b=sub(self.b),
            sym=self.sym, off=sub(self.off), target=self.target,
            callee=self.callee, reg_index=self.reg_index, color=self.color,
            region=self.region, meta=dict(self.meta),
        )

    def copy(self) -> "Instr":
        """A shallow copy (meta dict is duplicated)."""
        return self.replace_regs({})

    # ------------------------------------------------------------------
    # Rendering.
    # ------------------------------------------------------------------
    def __str__(self) -> str:  # noqa: C901 - straightforward dispatch
        op = self.op
        if op is Opcode.LI:
            return f"li {self.dst}, {self.a}"
        if op in UNOPS:
            return f"{op.value} {self.dst}, {self.a}"
        if op in BINOPS:
            return f"{op.value} {self.dst}, {self.a}, {self.b}"
        if op is Opcode.LD:
            return f"ld {self.dst}, [{self.sym} + {self.off}]"
        if op is Opcode.ST:
            return f"st {self.a}, [{self.sym} + {self.off}]"
        if op is Opcode.BNZ:
            return f"bnz {self.a}, {self.target}"
        if op is Opcode.JMP:
            return f"jmp {self.target}"
        if op is Opcode.CALL:
            return f"call {self.callee}"
        if op is Opcode.OUT:
            return f"out {self.a}"
        if op is Opcode.SENSE:
            return f"sense {self.dst}"
        if op is Opcode.CKPT:
            return f"ckpt {self.a}, slot={self.reg_index}, color={self.color}"
        if op is Opcode.MARK:
            return f"mark region={self.region}"
        return op.value


# ----------------------------------------------------------------------
# Construction helpers (keep call sites terse and validated).
# ----------------------------------------------------------------------
def li(dst: RegOperand, value: int) -> Instr:
    """``dst <- value``."""
    return Instr(Opcode.LI, dst=dst, a=Imm(value))


def mov(dst: RegOperand, src: RegOperand) -> Instr:
    """``dst <- src``."""
    return Instr(Opcode.MOV, dst=dst, a=src)


def binop(op: Opcode, dst: RegOperand, a: RegOperand, b: Operand) -> Instr:
    """``dst <- a op b`` for any opcode in :data:`BINOPS`."""
    if op not in BINOPS:
        raise ValueError(f"{op} is not a binary ALU opcode")
    return Instr(op, dst=dst, a=a, b=b)


def load(dst: RegOperand, sym: Sym, off: Operand) -> Instr:
    """``dst <- mem[sym + off]``."""
    return Instr(Opcode.LD, dst=dst, sym=sym, off=off)


def store(value: RegOperand, sym: Sym, off: Operand) -> Instr:
    """``mem[sym + off] <- value``."""
    return Instr(Opcode.ST, a=value, sym=sym, off=off)


def bnz(cond: RegOperand, target: Label) -> Instr:
    """Branch to ``target`` when ``cond`` is non-zero."""
    return Instr(Opcode.BNZ, a=cond, target=target)


def jmp(target: Label) -> Instr:
    """Unconditional jump."""
    return Instr(Opcode.JMP, target=target)


def call(callee: str) -> Instr:
    """Call a named function (static-frame convention, no recursion)."""
    return Instr(Opcode.CALL, callee=callee)


def ret() -> Instr:
    """Return to the caller."""
    return Instr(Opcode.RET)


def halt() -> Instr:
    """Stop the machine (end of ``main``)."""
    return Instr(Opcode.HALT)


def out(value: RegOperand) -> Instr:
    """Emit ``value`` on the observable output channel."""
    return Instr(Opcode.OUT, a=value)


def sense(dst: RegOperand) -> Instr:
    """Read the next value from the (deterministic) sensor stream."""
    return Instr(Opcode.SENSE, dst=dst)


def ckpt(src: RegOperand, reg_index: int, color: Optional[int] = None) -> Instr:
    """Checkpoint ``src`` into double-buffer slot ``(reg_index, color)``.

    ``color=None`` means the *dynamic* double-buffer convention (Ratchet,
    §VI-D): the store goes to the buffer the runtime is currently filling,
    i.e. the complement of the last committed index.  GECKO's coloring pass
    replaces ``None`` with a static 0/1 assignment.
    """
    if color not in (0, 1, None):
        raise ValueError("checkpoint color must be 0, 1 or None (dynamic)")
    return Instr(Opcode.CKPT, a=src, reg_index=reg_index, color=color)


def mark(region: int) -> Instr:
    """Cross an idempotent region boundary into region ``region``."""
    return Instr(Opcode.MARK, region=region)
