"""Property-based tests (hypothesis).

* machine ALU semantics against a Python model of 32-bit C arithmetic;
* the headline invariant: randomly generated MiniC programs produce
  identical committed output with and without injected power failures,
  under both Ratchet and GECKO (JIT and rollback recovery);
* energy-model invariants.
"""

import math
from fractions import Fraction
from typing import List

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.compiler import optimize
from repro.core import compile_gecko, compile_ratchet
from repro.errors import MachineFault, SemanticError, SimulationError
from repro.core.plans import SliceExec
from repro.isa import Instr, Opcode, PReg, VReg, li, link, parse_program
from repro.isa import instructions as isa
from repro.lang import compile_source, lowering
from repro.isa.operands import trunc_div, trunc_rem, wrap32
from repro.runtime import (
    GeckoRuntime,
    Machine,
    RollbackRuntime,
    execute_slice,
    run_to_completion,
)

int32 = st.integers(min_value=-(2**31), max_value=2**31 - 1)


# ----------------------------------------------------------------------
# ALU semantics vs a Python model.
# ----------------------------------------------------------------------
def _c_quotient(a: int, b: int) -> int:
    """C's truncating quotient, exact (no floating point)."""
    return math.trunc(Fraction(a, b))


#: The independent oracle every ALU implementation is held to: the
#: interpreter, the threaded backend, recovery-block execution and both
#: constant folders.  Unary opcodes ignore ``b``.
_ALU_MODEL = {
    "add": lambda a, b: wrap32(a + b),
    "sub": lambda a, b: wrap32(a - b),
    "mul": lambda a, b: wrap32(a * b),
    "div": lambda a, b: wrap32(_c_quotient(a, b)),
    "rem": lambda a, b: wrap32(a - b * _c_quotient(a, b)),
    "and": lambda a, b: wrap32(a & b),
    "or": lambda a, b: wrap32(a | b),
    "xor": lambda a, b: wrap32(a ^ b),
    "shl": lambda a, b: wrap32(a << (b & 31)),
    "shr": lambda a, b: wrap32((a & 0xFFFFFFFF) >> (b & 31)),
    "sar": lambda a, b: wrap32(a >> (b & 31)),
    "neg": lambda a, b: wrap32(-a),
    "not": lambda a, b: wrap32(~a),
    "slt": lambda a, b: int(a < b),
    "sle": lambda a, b: int(a <= b),
    "seq": lambda a, b: int(a == b),
    "sne": lambda a, b: int(a != b),
    "sgt": lambda a, b: int(a > b),
    "sge": lambda a, b: int(a >= b),
}


def _machine_alu(op: str, a: int, b: int, backend: str) -> List[int]:
    """Run ``op`` on the machine with ``b`` as a register and (binary ops)
    as an immediate; returns every result."""
    if Opcode(op) in isa.BINOPS:
        body = (f"{op} R6, R4, R5\n    out R6\n"
                f"    {op} R7, R4, #{b}\n    out R7")
    else:
        body = f"{op} R6, R4\n    out R6"
    asm = f"""
.data
    s 1
.func main
    li R4, #{a}
    li R5, #{b}
    {body}
    halt
"""
    machine = Machine(link(parse_program(asm)))
    machine.run(backend=backend)
    return machine.committed_out


def _run_alu(op: str, a: int, b: int) -> int:
    return _machine_alu(op, a, b, "interpreter")[0]


_HALT_ONLY = ".data\n    s 1\n.func main\n    halt\n"


def _slice_alu(op: Opcode, a: int, b: int) -> int:
    machine = Machine(link(parse_program(_HALT_ONLY)))
    instrs = [li(PReg(4), a), li(PReg(5), b),
              Instr(op, dst=PReg(6), a=PReg(4),
                    b=PReg(5) if op in isa.BINOPS else None)]
    execute_slice(machine, SliceExec(target=6, instrs=instrs))
    return machine.regs[6]


def _ir_fold(op: Opcode, a: int, b: int) -> int:
    instr = Instr(op, dst=VReg(2), a=VReg(0),
                  b=VReg(1) if op in isa.BINOPS else None)
    return optimize._evaluate(instr, {VReg(0): a, VReg(1): b})


#: MiniC spelling of each opcode the front end folds (``>>`` is SAR; MiniC
#: has no logical shift).
_MINIC = {opcode: token for token, opcode in lowering._BINOP_OPCODES.items()}
_MINIC.update({opcode: token
               for token, (opcode, b) in lowering._UNARY_OPCODES.items()
               if b is None})


def _minic_fold(op: Opcode, a: int, b: int) -> int:
    token = _MINIC[op]
    expr = f"({a}) {token} ({b})" if op in isa.BINOPS else f"{token}({a})"
    module = compile_source(f"void main() {{ out({expr}); }}")
    first = next(instr for _, _, instr
                 in module.functions["main"].instructions())
    assert first.op is Opcode.LI, first  # folded at lowering
    return first.a.value


def test_alu_table_covers_binops_neg_not():
    assert set(isa.ALU) == isa.BINOPS | {Opcode.NEG, Opcode.NOT}
    assert set(_ALU_MODEL) == {op.value for op in isa.ALU}


@settings(max_examples=200, deadline=None)
@given(op=st.sampled_from(sorted(_ALU_MODEL)), a=int32, b=int32)
def test_alu_matches_model(op, a, b):
    opcode = Opcode(op)
    if opcode in isa.TRAPPING_OPS and b == 0:
        b = 1  # see test_zero_divisor_traps_in_every_consumer
    want = _ALU_MODEL[op](a, b)
    results = {backend: _machine_alu(op, a, b, backend)
               for backend in ("interpreter", "threaded")}
    expected = [want, want] if opcode in isa.BINOPS else [want]
    assert results == {"interpreter": expected, "threaded": expected}
    assert _slice_alu(opcode, a, b) == want
    assert _ir_fold(opcode, a, b) == want
    if opcode in _MINIC:
        assert _minic_fold(opcode, a, b) == want


@pytest.mark.parametrize("op", ["div", "rem"])
def test_zero_divisor_traps_in_every_consumer(op):
    opcode = Opcode(op)
    for backend in ("interpreter", "threaded"):
        with pytest.raises(MachineFault, match="division by zero"):
            _machine_alu(op, 7, 0, backend)
    with pytest.raises(SimulationError, match="division by zero"):
        _slice_alu(opcode, 7, 0)
    assert not isinstance(_ir_fold(opcode, 7, 0), int)  # left unfolded
    with pytest.raises(SemanticError, match="constant division by zero"):
        _minic_fold(opcode, 7, 0)


@settings(max_examples=60, deadline=None)
@given(a=int32, b=int32.filter(lambda v: v != 0))
def test_division_matches_c_semantics(a, b):
    assert _run_alu("div", a, b) == trunc_div(a, b)
    assert _run_alu("rem", a, b) == trunc_rem(a, b)
    if b != -1 or a != -(2**31):  # the single UB-ish corner: just wraps
        assert wrap32(_ALU_MODEL["mul"](_run_alu("div", a, b), b)
                      + _run_alu("rem", a, b)) == wrap32(a)


@settings(max_examples=80, deadline=None)
@given(value=st.integers(min_value=-(2**40), max_value=2**40))
def test_wrap32_involution(value):
    assert wrap32(wrap32(value)) == wrap32(value)
    assert -(2**31) <= wrap32(value) <= 2**31 - 1


# ----------------------------------------------------------------------
# Random MiniC programs: crash consistency end to end.
# ----------------------------------------------------------------------
VARS = ["a", "b", "c", "d"]
BINOPS = ["+", "-", "*", "&", "|", "^"]


@st.composite
def expressions(draw, depth: int = 0):
    choice = draw(st.integers(0, 5 if depth < 2 else 2))
    if choice == 0:
        return str(draw(st.integers(-1000, 1000)))
    if choice == 1:
        return draw(st.sampled_from(VARS))
    if choice == 2:
        index = draw(expressions(depth=2))
        return f"buf[({index}) & 7]"
    if choice == 3:
        op = draw(st.sampled_from(BINOPS))
        left = draw(expressions(depth=depth + 1))
        right = draw(expressions(depth=depth + 1))
        return f"({left} {op} {right})"
    if choice == 4:
        amount = draw(st.integers(0, 8))
        inner = draw(expressions(depth=depth + 1))
        direction = draw(st.sampled_from([">>", "<<"]))
        return f"(({inner}) {direction} {amount})"
    return f"(({draw(expressions(depth=depth + 1))}) % 1021)"


@st.composite
def statements(draw, depth: int = 0):
    choice = draw(st.integers(0, 5 if depth < 2 else 2))
    if choice == 0:
        var = draw(st.sampled_from(VARS))
        return f"{var} = {draw(expressions())};"
    if choice == 1:
        index = draw(expressions(depth=2))
        return f"buf[({index}) & 7] = {draw(expressions())};"
    if choice == 2:
        return f"out({draw(expressions())});"
    if choice == 3:
        cond = draw(expressions(depth=1))
        then = draw(statements(depth=depth + 1))
        other = draw(statements(depth=depth + 1))
        return f"if (({cond}) & 1) {{ {then} }} else {{ {other} }}"
    if choice == 4:
        bound = draw(st.integers(1, 5))
        var = f"i{depth}"
        body = draw(statements(depth=depth + 1))
        return (f"for (int {var} = 0; {var} < {bound}; "
                f"{var} = {var} + 1) {{ {body} }}")
    return f"{draw(st.sampled_from(VARS))} = sense();"


@st.composite
def programs(draw):
    body = "\n    ".join(
        draw(st.lists(statements(), min_size=3, max_size=10))
    )
    use_helper = draw(st.booleans())
    helper = ""
    helper_call = ""
    if use_helper:
        op1 = draw(st.sampled_from(BINOPS))
        op2 = draw(st.sampled_from(BINOPS))
        shift = draw(st.integers(0, 8))
        constant = draw(st.integers(-50, 50))
        helper = f"""
int mix(int x, int y) {{
    int acc = (x ^ y) + {constant};
    acc = acc {op1} (buf[(x) & 7] {op2} (y >> {shift}));
    return acc;
}}
"""
        helper_call = "a = mix(a, b); c = mix(c, d);"
    return f"""
int buf[8] = {{3, 1, 4, 1, 5, 9, 2, 6}};
{helper}
void main() {{
    int a = 7; int b = -2; int c = 100; int d = 0;
    {body}
    {helper_call}
    out(a); out(b); out(c); out(d);
    for (int k = 0; k < 8; k = k + 1) {{ out(buf[k]); }}
}}
"""


def _crash_everything(compiled, runtime_factory, period, rollback):
    machine = Machine(compiled.linked)
    runtime = runtime_factory(compiled.linked)
    runtime.on_reboot(machine)
    if rollback:
        machine.write_word("__mode", 0, 1)
    since = 0
    guard = 0
    while not machine.halted:
        since += machine.step()
        if since >= period and not machine.halted:
            since = 0
            guard += 1
            assert guard < 50_000, "livelock on generated program"
            if not rollback and isinstance(runtime, GeckoRuntime):
                runtime.on_checkpoint_signal(machine, 1e9)
            machine.power_off()
            runtime.on_reboot(machine)
            if rollback:
                machine.write_word("__mode", 0, 1)
    return machine.committed_out


@settings(max_examples=20, deadline=None,
          suppress_health_check=[HealthCheck.too_slow,
                                 HealthCheck.data_too_large,
                                 HealthCheck.filter_too_much])
@given(src=programs(), period=st.sampled_from([113, 431, 1009]))
def test_random_programs_crash_consistent(src, period):
    gecko = compile_gecko(src, region_budget=2000)
    golden = run_to_completion(gecko.linked).committed_out

    # GECKO pure rollback (recovery blocks + coloring under fire).
    out = _crash_everything(gecko, GeckoRuntime, max(period, 2100), True)
    assert out == golden

    # GECKO hybrid JIT path.
    out = _crash_everything(gecko, GeckoRuntime, max(period, 2100), False)
    assert out == golden

    # Ratchet full-register-file rollback.
    ratchet = compile_ratchet(src)
    golden_r = run_to_completion(ratchet.linked).committed_out
    assert golden_r == golden  # schemes agree on failure-free semantics
    out = _crash_everything(ratchet, RollbackRuntime, 4001, True)
    assert out == golden


@settings(max_examples=20, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(src=programs())
def test_random_programs_restore_plans_exact(src):
    """Invariant 3 on generated programs: plans rebuild boundary state."""
    from repro.isa import Opcode
    compiled = compile_gecko(src, region_budget=2000)
    runtime = RollbackRuntime(compiled.linked)
    golden = Machine(compiled.linked)
    snapshots = []
    while not golden.halted:
        was_mark = compiled.linked.instrs[golden.pc].op is Opcode.MARK
        golden.step()
        if was_mark:
            snapshots.append((golden.read_word("__region_cur"), golden.pc,
                              list(golden.regs), list(golden.mem)))
    for region, pc, regs, mem in snapshots[::3]:
        machine = Machine(compiled.linked)
        machine.mem[:] = mem
        machine.power_off()
        runtime.rollback_restore(machine)
        assert machine.pc == pc
        for reg_index in runtime.table[region].restores:
            assert machine.regs[reg_index] == regs[reg_index]


# ----------------------------------------------------------------------
# Energy-model invariants.
# ----------------------------------------------------------------------
@settings(max_examples=60, deadline=None)
@given(c=st.floats(1e-7, 1e-2), v=st.floats(0.1, 3.3))
def test_capacitor_energy_voltage_roundtrip(c, v):
    from repro.energy import Capacitor
    cap = Capacitor(c)
    cap.reset(v)
    assert cap.voltage == pytest.approx(min(v, cap.v_max), rel=1e-9)


@settings(max_examples=60, deadline=None)
@given(c=st.floats(1e-6, 1e-2), power=st.floats(0, 1e-2),
       dt=st.floats(0, 0.1))
def test_capacitor_charge_bounded(c, power, dt):
    from repro.energy import Capacitor
    cap = Capacitor(c)
    cap.reset(1.0)
    before = cap.energy
    stored = cap.charge(power, dt)
    assert 0 <= stored <= power * dt + 1e-12
    assert cap.energy == pytest.approx(before + stored)
    assert cap.voltage <= cap.v_max + 1e-9
