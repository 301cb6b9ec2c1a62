"""Threaded-code execution backend: precompiled basic-block closures.

The reference interpreter (:meth:`repro.runtime.machine.Machine.step`)
fetches one :class:`~repro.isa.instructions.Instr` dataclass per cycle and
re-decodes its operands every time.  This backend instead compiles each
machine-level basic block — once, lazily, per :class:`LinkedProgram` —
into a specialized Python function in which every compile-time-known
quantity is already a literal:

* register indices and immediates are inlined (no ``_value`` dispatch),
* symbol base addresses are resolved (a static ``LD``/``ST`` offset
  becomes one constant list index, bounds-checked at compile time),
* ALU expressions come from the :data:`~repro.isa.instructions.ALU`
  table, with 32-bit wrapping inlined as integer arithmetic (the
  interpreter spells the same semantics out independently and stays the
  reference this backend is checked against),
* per-block cycle/instruction costs are pre-summed and flushed in
  batches.

A block ends at a control transfer, at a store to peripheral MMIO,
before a static leader, and before every pc that is a multiple of
:data:`BLOCK_ALIGN` (:func:`_ends_block` is the one definition).  Block
lengths and cycle spans are tabulated per program before any code is
generated, so a block is compiled only when it is about to run.

Equivalence contract (checked byte-for-byte by ``tests/test_backends.py``
and the CI cross-check):

* **State** — registers, memory, wear counters, output buffers, sensor
  cursor, checkpoint/commit bookkeeping, ``pc``, ``cycles``,
  ``instr_count`` all match the interpreter after every
  :meth:`ThreadedBackend.run_slice`, because block code performs the
  same effects in the same order with the same wrapping quirks (e.g.
  ``ST`` stores unwrapped operand values, ``CALL`` return-slot writes
  bump no wear, comparison results are ``int`` not ``bool``).
* **Traps** — division by zero, out-of-bounds accesses and runaway
  program counters raise :class:`~repro.errors.MachineFault` with the
  interpreter's exact message, and with ``pc``/``cycles``/
  ``instr_count`` reflecting only the instructions *before* the faulting
  one (the interpreter charges cost after dispatch).
* **Hooks** — a fault hook registered via :meth:`Machine.attach`
  forces exact per-instruction stepping while it is *armed*: blocks are
  bypassed until the hook's one-shot ``fired`` flag flips, after which
  whole-block execution resumes (``before_step`` of a fired
  :class:`~repro.faultsim.injector.FaultInjector` is a no-op, so
  skipping the call is observationally identical).  A hook without a
  ``fired`` attribute, or an attached profiler (whose per-opcode cycle
  attribution is inherently per-instruction), pins the whole slice to
  :meth:`~repro.runtime.backend.InterpreterBackend.run_slice`.
* **Peripherals** — for programs linked with the :mod:`repro.periph`
  control block, a store to peripheral MMIO ends its block, the hub's
  boundary hook runs after every block, and a block whose cycle span
  contains a device event is demoted to exact single-stepping
  (:meth:`~repro.periph.hub.PeriphHub.event_before`) — interrupt
  delivery, handler returns, device fires, and stale-frame healing all
  land on the interpreter's exact instruction boundaries.
* **Interruptible points** — ``MARK`` region commits and ``SENSE``
  reads call out of the block (observability bus, user sensor streams),
  so generated code synchronizes ``pc``/``cycles``/``instr_count``
  exactly before them.  Power events and monitor sampling only happen
  between slices, and a slice never executes more instructions than its
  budget: when fewer instructions are left than the block at ``pc``
  holds, a truncated block of exactly that many runs instead (compiled
  once per ``(pc, left)``), so slice-boundary timing is identical to the
  interpreter's without single-stepping the slice tail.

Block functions close over nothing picklable-hostile on the program:
every compiled block — full, suffix or truncated — lives in one
module-level cache keyed by ``id(program)`` with a weakref guard, so
:class:`LinkedProgram` instances remain picklable for campaign worker
pools.

Because blocks are compiled lazily *per entry pc*, a ``pc`` that lands
mid-block — a JIT-checkpoint restore, a
:meth:`~repro.runtime.machine.Machine.restore` from a
:class:`~repro.runtime.machine.MachineSnapshot` taken between block
boundaries (how ``repro.exhaustive`` forks injections off the golden
trace), or a single step demoted by a peripheral event — becomes the
leader of a suffix block.  The alignment ends that suffix at the next
aligned pc, where execution rejoins blocks already cached.
"""

from __future__ import annotations

import weakref
from types import CodeType, FunctionType
from typing import Dict, List, Optional, Tuple

from ..errors import MachineFault, SimulationError
from ..isa.instructions import (
    ALU,
    BINOPS,
    BLOCK_ENDERS,
    TRAPPING_OPS,
    Instr,
    Opcode,
)
from ..isa.operands import Imm, PReg, trunc_div, trunc_rem
from ..isa.program import PERIPH_CONTROL_SYMBOLS, LinkedProgram
from .backend import backend_for
from .machine import Machine

#: Block alignment.  Besides the static leaders, every absolute pc that
#: is a multiple of this constant starts a block, so no block is longer
#: than it.  A mid-block entry (a JIT restore, a snapshot fork, a demoted
#: step) therefore compiles at most a short suffix up to the next aligned
#: pc and then rejoins blocks that are already cached, and the truncated
#: blocks that finish a slice exactly on its budget number fewer than
#: ``BLOCK_ALIGN`` per pc.
BLOCK_ALIGN = 8

_MASK = 0xFFFFFFFF
_SIGN = 0x80000000


class CompiledBlock:
    """One compiled straight-line block: a closure plus its static costs."""

    __slots__ = ("fn", "n", "cycles", "start")

    def __init__(self, fn, n: int, cycles: int, start: int) -> None:
        self.fn = fn
        self.n = n
        self.cycles = cycles
        self.start = start


def _wrap(expr: str) -> str:
    """Inline ``wrap32`` (signed 32-bit two's complement) as arithmetic."""
    return f"((({expr}) & {_MASK}) ^ {_SIGN}) - {_SIGN}"


def _operand(operand) -> str:
    """Expression for an operand's value: register read or literal."""
    if isinstance(operand, PReg):
        return f"regs[{operand.index}]"
    if isinstance(operand, Imm):
        return repr(operand.value)
    raise MachineFault(f"bad operand {operand!r}")


def _ends_block(program: LinkedProgram, leaders: frozenset,
                pc: int) -> bool:
    """Does a block that reaches ``pc`` end with that instruction?

    The one definition of block extent; the length table built from it
    is read by both the fit check and code generation.  A block ends at
    a control transfer, at a store
    to peripheral MMIO (it can re-arm a device or unmask an interrupt, so
    the hub must see the interpreter's boundary), before a static leader,
    before an aligned pc, and at the end of the program.
    """
    instr = program.instrs[pc]
    after = pc + 1
    return (instr.op in BLOCK_ENDERS
            or (instr.op is Opcode.ST and instr.sym is not None
                and instr.sym.name in PERIPH_CONTROL_SYMBOLS)
            or after >= len(program.instrs) or after in leaders
            or after % BLOCK_ALIGN == 0)


class _BlockCompiler:
    """Compiles the ``n`` instructions starting at one pc into a closure."""

    def __init__(self, program: LinkedProgram, start: int, n: int,
                 env: Dict[str, object]) -> None:
        self.program = program
        self.start = start
        self.n = n
        self.lines: List[str] = []
        # The globals of every block of the program (one dict, not one
        # per block); MARK instructions are bound into it by name.
        self.env = env
        # Cycles/instructions accumulated since the last flush; traps and
        # out-of-block calls flush so observers see exact interpreter
        # accounting (cost lands *after* an instruction dispatches).
        self.pending_cycles = 0
        self.pending_count = 0

    # -- emission helpers ----------------------------------------------
    def emit(self, line: str, depth: int = 1) -> None:
        self.lines.append("    " * depth + line)

    def flush_stmts(self) -> List[str]:
        stmts = []
        if self.pending_cycles:
            stmts.append(f"m.cycles += {self.pending_cycles}")
        if self.pending_count:
            stmts.append(f"m.instr_count += {self.pending_count}")
        return stmts

    def flush(self, depth: int = 1) -> None:
        for stmt in self.flush_stmts():
            self.emit(stmt, depth)
        self.pending_cycles = 0
        self.pending_count = 0

    def trap(self, pc: int, message_expr: str, depth: int) -> None:
        """Emit a trap path: exact pc/cycle state, interpreter message."""
        self.emit(f"m.pc = {pc}", depth)
        for stmt in self.flush_stmts():
            self.emit(stmt, depth)
        self.emit(f"raise MachineFault({message_expr})", depth)

    def addr_expr(self, pc: int, instr: Instr) -> str:
        """Effective-address expression for LD/ST, guards included."""
        base, size = self.program.symtab[instr.sym.name]
        if isinstance(instr.off, Imm):
            offset = instr.off.value
            if 0 <= offset < size:
                return repr(base + offset)
            # Statically out of bounds: always traps, exact message.
            message = (f"pc={pc}: access {instr.sym.name}[{offset}] out "
                       f"of bounds (size {size})")
            self.emit("if True:")
            self.trap(pc, repr(message), depth=2)
            return repr(base)  # unreachable
        off = _operand(instr.off)
        self.emit(f"_o = {off}")
        self.emit(f"if _o < 0 or _o >= {size}:")
        message = (f'f"pc={pc}: access {instr.sym.name}[{{_o}}] '
                   f'out of bounds (size {size})"')
        self.trap(pc, message, depth=2)
        return f"{base} + _o"

    # -- per-opcode code generation ------------------------------------
    def compile(self) -> CompiledBlock:
        instrs = self.program.instrs
        end = self.start + self.n
        cycles = 0
        for pc in range(self.start, end):
            instr = instrs[pc]
            self.instruction(pc, instr)
            self.pending_cycles += instr.cycles
            self.pending_count += 1
            cycles += instr.cycles
        if instr.op not in BLOCK_ENDERS:
            self.emit(f"m.pc = {end}")
        self.flush()
        body = "\n".join(self.lines)
        source = f"def __tblock(m, regs, mem, wear):\n{body}\n"
        module = compile(source, f"<threaded-block@{self.start}>", "exec")
        (code,) = [const for const in module.co_consts
                   if isinstance(const, CodeType)]
        return CompiledBlock(FunctionType(code, self.env), self.n, cycles,
                             self.start)

    def instruction(self, pc: int, instr: Instr) -> None:  # noqa: C901
        op = instr.op
        emit = self.emit
        if op is Opcode.LI or op is Opcode.MOV:
            emit(f"regs[{instr.dst.index}] = {_operand(instr.a)}")
        elif op in ALU:
            alu = ALU[op]
            a = _operand(instr.a)
            b = _operand(instr.b) if op in BINOPS else None
            if op in TRAPPING_OPS and not (isinstance(instr.b, Imm)
                                           and instr.b.value != 0):
                emit(f"_b = {b}")
                emit("if _b == 0:")
                self.trap(pc, repr(f"pc={pc}: division by zero"), depth=2)
                b = "_b"
            expr = alu.template.format(a=a, b=b)
            emit(f"regs[{instr.dst.index}] = "
                 f"{_wrap(expr) if alu.wraps else expr}")
        elif op is Opcode.LD:
            address = self.addr_expr(pc, instr)
            emit(f"regs[{instr.dst.index}] = mem[{address}]")
        elif op is Opcode.ST:
            address = self.addr_expr(pc, instr)
            if address.isdigit():
                emit(f"mem[{address}] = {_operand(instr.a)}")
                emit(f"wear[{address}] += 1")
            else:
                emit(f"_a = {address}")
                # The interpreter stores the raw operand value (no wrap).
                emit(f"mem[_a] = {_operand(instr.a)}")
                emit("wear[_a] += 1")
        elif op is Opcode.BNZ:
            target = self.program.targets[pc]
            emit(f"m.pc = {target} if {_operand(instr.a)} != 0 else {pc + 1}")
        elif op is Opcode.JMP:
            emit(f"m.pc = {self.program.targets[pc]}")
        elif op is Opcode.CALL:
            slot = self.program.ret_slot[instr.callee]
            # Return-slot write: raw value, no wear bump (interpreter quirk).
            emit(f"mem[{slot}] = {pc + 1}")
            emit(f"m.pc = {self.program.targets[pc]}")
        elif op is Opcode.RET:
            owner = self.program.owner[pc]
            emit(f"m.pc = mem[{self.program.ret_slot[owner]}]")
        elif op is Opcode.HALT:
            emit(f"m.pc = {pc}")
            emit("m.halted = True")
            emit("m._commit_output()")
        elif op is Opcode.OUT:
            emit(f"m.out_buffer.append({_operand(instr.a)})")
        elif op is Opcode.SENSE:
            # The sensor stream is user code: synchronize exact state first.
            self.flush()
            emit(f"m.pc = {pc}")
            value = "m.sensor_stream(m.sensor_cursor)"
            emit(f"regs[{instr.dst.index}] = {_wrap(value)}")
            emit("m.sensor_cursor += 1")
        elif op is Opcode.CKPT:
            self.ckpt(instr)
        elif op is Opcode.MARK:
            # Region commit emits on the observability bus: synchronize
            # exact state, then reuse the interpreter's commit routine
            # verbatim (it reads ``self.pc + 1`` for the re-entry pc).
            self.flush()
            emit(f"m.pc = {pc}")
            name = f"_instr_{pc}"
            self.env[name] = instr
            emit(f"m._commit_region({name})")
        elif op is Opcode.NOP:
            pass
        else:  # pragma: no cover - exhaustive dispatch
            emit(f"m.pc = {pc}")
            self.flush()
            raise MachineFault(f"unimplemented opcode {op}")

    def ckpt(self, instr: Instr) -> None:
        emit = self.emit
        symtab = self.program.symtab
        ckpt0, _ = symtab["__ckpt0"]
        ckpt1, _ = symtab["__ckpt1"]
        source = f"regs[{instr.a.index}]"
        if instr.color is not None:
            address = (ckpt1 if instr.color else ckpt0) + instr.reg_index
            emit(f"mem[{address}] = {_wrap(source)}")
            emit(f"wear[{address}] += 1")
        elif instr.meta.get("per_reg"):
            rcolor, _ = symtab["__rcolor"]
            emit(f"_c = 1 - (mem[{rcolor + instr.reg_index}] & 1)")
            emit(f"m._pending_rcolor.add({instr.reg_index})")
            emit(f"_a = {ckpt1 + instr.reg_index} if _c else "
                 f"{ckpt0 + instr.reg_index}")
            emit(f"mem[_a] = {_wrap(source)}")
            emit("wear[_a] += 1")
        else:
            color, _ = symtab["__color"]
            emit(f"_c = 1 - (mem[{color}] & 1)")
            emit(f"_a = {ckpt1 + instr.reg_index} if _c else "
                 f"{ckpt0 + instr.reg_index}")
            emit(f"mem[_a] = {_wrap(source)}")
            emit("wear[_a] += 1")
        emit("m.ckpt_stores_executed += 1")


class _ProgramBlocks:
    """Everything compiled for one program, plus the static block extents.

    ``spans[pc]`` is the length of the block that starts at ``pc`` and
    ``cum_cycles[pc]`` the cycles of all instructions before ``pc``, both
    known before any code generation, so a block is compiled only once it
    is certain to run.  ``blocks[pc]`` holds the full block at ``pc``;
    ``tails[(pc, n)]`` holds its first ``n < spans[pc]`` instructions, run
    when only ``n`` instructions are left in a slice.
    """

    __slots__ = ("spans", "cum_cycles", "blocks", "tails", "env")

    def __init__(self, program: LinkedProgram) -> None:
        leaders = program.block_leaders()
        size = len(program.instrs)
        spans = [1] * size
        for pc in range(size - 2, -1, -1):
            if not _ends_block(program, leaders, pc):
                spans[pc] = spans[pc + 1] + 1
        cum_cycles = [0]
        for instr in program.instrs:
            cum_cycles.append(cum_cycles[-1] + instr.cycles)
        self.spans = spans
        self.cum_cycles = cum_cycles
        self.blocks: List[Optional[CompiledBlock]] = [None] * size
        self.tails: Dict[Tuple[int, int], CompiledBlock] = {}
        self.env: Dict[str, object] = {
            "MachineFault": MachineFault,
            "trunc_div": trunc_div,
            "trunc_rem": trunc_rem,
        }

    def compile(self, program: LinkedProgram, pc: int,
                n: int) -> CompiledBlock:
        """Compile and cache the first ``n`` instructions of the block at
        ``pc`` (the whole block when ``n == spans[pc]``)."""
        block = _BlockCompiler(program, pc, n, self.env).compile()
        if n == self.spans[pc]:
            self.blocks[pc] = block
        else:
            self.tails[pc, n] = block
        return block


#: Per-program block caches, keyed by ``id(program)``.  Closures are not
#: picklable, so blocks must never live on the ``LinkedProgram`` itself
#: (campaign compile caches are pickled into worker pools); the weakref
#: guards against id reuse and a finalizer drops dead entries.
_CACHES: Dict[int, Tuple["weakref.ref", _ProgramBlocks]] = {}


def _blocks_for(program: LinkedProgram) -> _ProgramBlocks:
    key = id(program)
    entry = _CACHES.get(key)
    if entry is not None and entry[0]() is program:
        return entry[1]
    cache = _ProgramBlocks(program)
    _CACHES[key] = (weakref.ref(program), cache)
    weakref.finalize(program, _CACHES.pop, key, None)
    return cache


def compile_block(program: LinkedProgram, start: int) -> CompiledBlock:
    """Compile (or fetch) the block starting at ``start`` — test hook."""
    cache = _blocks_for(program)
    block = cache.blocks[start]
    if block is None:
        block = cache.compile(program, start, cache.spans[start])
    return block


def compiled_blocks(program: LinkedProgram) -> List[CompiledBlock]:
    """Every block compiled so far for ``program``, full or truncated."""
    cache = _blocks_for(program)
    return ([block for block in cache.blocks if block is not None]
            + list(cache.tails.values()))


class ThreadedBackend:
    """Threaded-code backend: whole-block execution, exact semantics."""

    name = "threaded"

    _shared: Optional["ThreadedBackend"] = None

    @classmethod
    def shared(cls) -> "ThreadedBackend":
        if cls._shared is None:
            cls._shared = cls()
        return cls._shared

    def run_slice(self, machine: Machine,
                  budget: int) -> Tuple[int, Optional[Exception]]:
        cycles_start = machine.cycles
        try:
            hook = machine._fault_hook
            if machine._prof is not None or (
                    hook is not None and not hasattr(hook, "fired")):
                # Profiler attribution is per-instruction, and a hook
                # without a one-shot ``fired`` flag may act on any step:
                # the whole slice runs on the reference path.
                return backend_for("interpreter").run_slice(machine, budget)
            program = machine.program
            cache = _blocks_for(program)
            spans = cache.spans
            cum_cycles = cache.cum_cycles
            blocks = cache.blocks
            tails = cache.tails
            size = len(spans)
            hub = machine._periph
            left = budget
            while left > 0:
                if machine.halted or not machine.powered:
                    break
                if hook is not None and not hook.fired:
                    # Armed fault hook: step exactly until it fires.
                    machine.step()
                    left -= 1
                    continue
                pc = machine.pc
                if not 0 <= pc < size:
                    raise MachineFault(
                        f"program counter out of range: {pc}")
                n = spans[pc]
                if n <= left:
                    block = blocks[pc]
                else:
                    # Never overshoot the slice budget (monitor and power
                    # sampling at slice edges must stay exact): run the
                    # block's first ``left`` instructions instead.
                    n = left
                    block = tails.get((pc, n))
                if hub is not None and hub.event_before(
                        machine, cum_cycles[pc + n] - cum_cycles[pc]):
                    # A device fire, delivery, handler return, or heal
                    # falls inside this block's cycle span: single-step
                    # so it lands at the interpreter's exact boundary.
                    machine.step()
                    left -= 1
                    continue
                if block is None:
                    block = cache.compile(program, pc, n)
                block.fn(machine, machine.regs, machine.mem, machine.wear)
                left -= n
                if hub is not None:
                    hub.on_boundary(machine)
            return machine.cycles - cycles_start, None
        except (MachineFault, SimulationError) as exc:
            return machine.cycles - cycles_start, exc
