"""Instruction set, operands, program containers, linker and assembler."""

from .instructions import (
    ALU,
    AluOp,
    BINOPS,
    CYCLES,
    IO_OPS,
    Instr,
    Opcode,
    TERMINATORS,
    UNOPS,
    binop,
    bnz,
    call,
    ckpt,
    halt,
    jmp,
    li,
    load,
    mark,
    mov,
    out,
    ret,
    sense,
    store,
)
from .operands import (
    ALLOCATABLE,
    Imm,
    Label,
    NUM_REGS,
    PReg,
    SCRATCH,
    Sym,
    VReg,
    ZERO_REG,
    wrap32,
)
from .program import LinkedProgram, MachineFunction, MachineProgram, link
from .assembler import parse_instr, parse_operand, parse_program

__all__ = [
    "ALLOCATABLE", "ALU", "AluOp", "BINOPS", "CYCLES", "IO_OPS", "Imm",
    "Instr", "Label", "LinkedProgram", "MachineFunction", "MachineProgram",
    "NUM_REGS", "Opcode", "PReg", "SCRATCH", "Sym", "TERMINATORS", "UNOPS",
    "VReg", "ZERO_REG", "binop", "bnz", "call", "ckpt", "halt", "jmp", "li",
    "link", "load", "mark", "mov", "out", "parse_instr", "parse_operand",
    "parse_program", "ret", "sense", "store", "wrap32",
]
