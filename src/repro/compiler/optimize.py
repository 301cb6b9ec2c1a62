"""Classic middle-end optimizations (GECKO pipeline step 1, §VI-B).

The paper's front end runs "traditional compiler optimizations on the IR"
before region formation.  This module supplies the ones that matter for
this IR's code quality and for the later analyses:

* **global constant propagation + folding** — a flow-insensitive lattice
  over virtual registers (a register is constant when *every* definition
  produces the same known value), iterated with instruction folding;
* **branch folding** — ``BNZ`` on a known condition becomes ``JMP``,
  followed by unreachable-block removal;
* **algebraic simplification** — identities like ``x+0``, ``x*1``,
  ``x*0``, ``x&0``, ``x^0``, ``x<<0``;
* **dead-code elimination** — pure instructions whose destination is never
  used are dropped (liveness-based, iterated to a fixpoint).

Everything runs on the virtual-register IR before allocation, so fewer
live ranges also means less spilling and fewer checkpoint inputs.
"""

from __future__ import annotations

from typing import Dict, Optional, Set, Tuple

from ..isa.instructions import ALU, BINOPS, TRAPPING_OPS, Instr, Opcode, UNOPS
from ..isa.operands import Imm, VReg
from ..ir.cfg import Function, Module, remove_unreachable
from ..ir.liveness import liveness

#: Sentinel for "not a constant".
_BOTTOM = object()


def optimize_function(function: Function, max_rounds: int = 8) -> Dict[str, int]:
    """Run the full pass pipeline to a fixpoint; returns change counters."""
    stats = {"folded": 0, "branches": 0, "simplified": 0, "dead": 0}
    for _ in range(max_rounds):
        changed = 0
        changed += _propagate_constants(function, stats)
        changed += _simplify_algebra(function, stats)
        changed += _fold_branches(function, stats)
        changed += _eliminate_dead_code(function, stats)
        if not changed:
            break
    return stats


def optimize_module(module: Module) -> Dict[str, Dict[str, int]]:
    """Optimize every function; returns per-function change counters."""
    return {
        name: optimize_function(fn) for name, fn in module.functions.items()
    }


# ----------------------------------------------------------------------
# Constant propagation.
# ----------------------------------------------------------------------
def _constant_lattice(function: Function) -> Dict[VReg, int]:
    """Registers provably holding one known value on every path."""
    values: Dict[VReg, object] = {}
    for _ in range(64):  # bounded: the lattice has finite height in practice
        changed = False
        produced: Dict[VReg, object] = {}
        for _, _, instr in function.instructions():
            dst = instr.dst
            if not isinstance(dst, VReg):
                continue
            value = _evaluate(instr, values)
            if dst in produced and produced[dst] != value:
                produced[dst] = _BOTTOM
            elif dst not in produced:
                produced[dst] = value
        for reg, value in produced.items():
            old = values.get(reg, None)
            if old is not value and old != value:
                values[reg] = value
                changed = True
        if not changed:
            break
    return {
        reg: value for reg, value in values.items()
        if value is not _BOTTOM and isinstance(value, int)
    }


def _operand_value(operand, values) -> object:
    if isinstance(operand, Imm):
        return operand.value
    if isinstance(operand, VReg):
        value = values.get(operand, None)
        return value if isinstance(value, int) else _BOTTOM
    return _BOTTOM


def _evaluate(instr: Instr, values: Dict[VReg, object]) -> object:
    op = instr.op
    if op is Opcode.LI:
        return instr.a.value
    if op is Opcode.MOV:
        return _operand_value(instr.a, values)
    alu = ALU.get(op)
    if alu is None:
        return _BOTTOM
    a = _operand_value(instr.a, values)
    if not isinstance(a, int):
        return _BOTTOM
    if op not in BINOPS:
        return alu.fn(a)
    b = _operand_value(instr.b, values)
    if not isinstance(b, int) or (b == 0 and op in TRAPPING_OPS):
        return _BOTTOM  # unknown, or a trap to preserve
    return alu.fn(a, b)


def _propagate_constants(function: Function, stats: Dict[str, int]) -> int:
    constants = _constant_lattice(function)
    if not constants:
        return 0
    changed = 0
    for name in function.block_order:
        block = function.blocks[name]
        for index, instr in enumerate(block.instrs):
            # Fold whole value-producing instructions to LI.
            if isinstance(instr.dst, VReg) and instr.dst in constants \
                    and instr.op is not Opcode.LI \
                    and instr.op in BINOPS | UNOPS | {Opcode.NEG, Opcode.NOT}:
                block.instrs[index] = Instr(
                    Opcode.LI, dst=instr.dst,
                    a=Imm(constants[instr.dst]),
                )
                stats["folded"] += 1
                changed += 1
                continue
            # Replace constant registers in immediate-capable positions.
            new_b = instr.b
            if isinstance(instr.b, VReg) and instr.b in constants:
                new_b = Imm(constants[instr.b])
            new_off = instr.off
            if isinstance(instr.off, VReg) and instr.off in constants:
                new_off = Imm(constants[instr.off])
            if new_b is not instr.b or new_off is not instr.off:
                instr.b = new_b
                instr.off = new_off
                stats["folded"] += 1
                changed += 1
    return changed


# ----------------------------------------------------------------------
# Algebraic simplification.
# ----------------------------------------------------------------------
def _simplify_algebra(function: Function, stats: Dict[str, int]) -> int:
    changed = 0
    for name in function.block_order:
        block = function.blocks[name]
        for index, instr in enumerate(block.instrs):
            replacement = _algebraic(instr)
            if replacement is not None:
                block.instrs[index] = replacement
                stats["simplified"] += 1
                changed += 1
    return changed


def _algebraic(instr: Instr) -> Optional[Instr]:
    if instr.op not in BINOPS or not isinstance(instr.b, Imm):
        return None
    a, b, dst = instr.a, instr.b.value, instr.dst
    op = instr.op
    if b == 0 and op in (Opcode.ADD, Opcode.SUB, Opcode.OR, Opcode.XOR,
                         Opcode.SHL, Opcode.SHR, Opcode.SAR):
        return Instr(Opcode.MOV, dst=dst, a=a)
    if b == 0 and op in (Opcode.MUL, Opcode.AND):
        return Instr(Opcode.LI, dst=dst, a=Imm(0))
    if b == 1 and op in (Opcode.MUL, Opcode.DIV):
        return Instr(Opcode.MOV, dst=dst, a=a)
    if b == 1 and op is Opcode.REM:
        return Instr(Opcode.LI, dst=dst, a=Imm(0))
    if b == -1 and op is Opcode.AND:
        return Instr(Opcode.MOV, dst=dst, a=a)
    return None


# ----------------------------------------------------------------------
# Branch folding.
# ----------------------------------------------------------------------
def _fold_branches(function: Function, stats: Dict[str, int]) -> int:
    constants = _constant_lattice(function)
    changed = 0
    for name in function.block_order:
        block = function.blocks[name]
        for index, instr in enumerate(block.instrs):
            if instr.op is not Opcode.BNZ:
                continue
            cond = None
            if isinstance(instr.a, VReg) and instr.a in constants:
                cond = constants[instr.a]
            if cond is None:
                continue
            if cond != 0:
                # Always taken: replace the BNZ/JMP pair by one JMP.
                block.instrs[index] = Instr(Opcode.JMP, target=instr.target)
                del block.instrs[index + 1]
            else:
                del block.instrs[index]  # never taken: fall into the JMP
            stats["branches"] += 1
            changed += 1
            break  # indices shifted: revisit this block next round
    if changed:
        remove_unreachable(function)
    return changed


# ----------------------------------------------------------------------
# Dead-code elimination.
# ----------------------------------------------------------------------
#: Opcodes safe to delete when their destination is dead.
_PURE = BINOPS | UNOPS | {Opcode.LI, Opcode.NEG, Opcode.NOT, Opcode.LD}


def _eliminate_dead_code(function: Function, stats: Dict[str, int]) -> int:
    changed = 0
    while True:
        live = liveness(function)
        removed = 0
        for name in function.block_order:
            block = function.blocks[name]
            keep = []
            live_after = set(live.live_out[name]) \
                if name in live.live_out else set()
            # Walk backwards so "dead after this point" is exact.
            for instr in reversed(block.instrs):
                dst = instr.dst
                if (instr.op in _PURE and isinstance(dst, VReg)
                        and dst not in live_after):
                    removed += 1
                    continue
                keep.append(instr)
                live_after -= set(instr.defs())
                live_after |= set(instr.uses())
            keep.reverse()
            block.instrs = keep
        if not removed:
            break
        stats["dead"] += removed
        changed += removed
    return changed
