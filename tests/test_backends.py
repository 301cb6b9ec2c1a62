"""The execution-backend contract: both backends, one observable behavior.

The threaded backend (:mod:`repro.runtime.threaded`) precompiles basic
blocks into specialized closures; its whole claim is *exact* equivalence
with the reference interpreter — same cycles, same traps, same fault
classifications, same telemetry fingerprints.  These tests are that
claim, stated as asserts:

* differential campaigns over every bundled workload × {NVP, GECKO},
  asserting per-run metrics, committed outputs, and campaign-level
  ``metrics_fingerprint()`` are identical across backends;
* a fault-injection slice classified identically by both backends;
* block-compiler edge cases (fallthrough, self-loop, branch-to-entry,
  mid-block resume, budget exactness) on hand-written assembly;
* slice edges: every budget up to twice the block alignment leaves the
  interpreter's exact state after every slice without a single call to
  ``Machine.step``, truncated tail blocks never exceed their budget, and
  mid-block suffixes end at the next aligned pc;
* trap equivalence — message, pc, cycles, instr_count — for division by
  zero and out-of-bounds access;
* the ``Machine.attach`` hook API and its deprecation shims.
"""

import warnings

import pytest

from repro.errors import MachineFault
from repro.eval.campaign import (
    AttackSpec,
    CampaignRunner,
    ExperimentSpec,
    PathSpec,
)
from repro.faultsim.explorer import fault_victim, scheme_comparison
from repro.faultsim.models import CKPT_CORRUPT, REG_FLIP
from repro.isa import link, parse_program
from repro.obs import Observability
from repro.runtime import (
    BACKEND_NAMES,
    ExecutionBackend,
    InterpreterBackend,
    Machine,
    ThreadedBackend,
    backend_for,
)
from repro.runtime.threaded import BLOCK_ALIGN, compile_block, compiled_blocks
from repro.workloads import (
    REACTIVE_WORKLOADS,
    WORKLOAD_NAMES,
    expected_output,
    source,
)

SCHEMES = ("nvp", "gecko")

#: Shared across the module so every (workload, scheme) compiles once —
#: the backend axis is deliberately absent from the compile key.
_RUNNER = CampaignRunner(workers=1)


def _machine(text: str) -> Machine:
    return Machine(link(parse_program(text)))


def _pair(text: str):
    """Two fresh machines over the same program, one per backend."""
    return _machine(text), _machine(text)


def _drain(backend, machine, budget: int = 1_000_000):
    """Run slices until the machine halts; return (cycles, fault)."""
    total = 0
    while not machine.halted:
        cycles, fault = backend.run_slice(machine, budget)
        total += cycles
        if fault is not None:
            return total, fault
    return total, None


# ----------------------------------------------------------------------
# The factory and the protocol.
# ----------------------------------------------------------------------
class TestBackendFactory:
    def test_names(self):
        assert BACKEND_NAMES == ("interpreter", "threaded")

    def test_backend_for_resolves_names(self):
        assert isinstance(backend_for("interpreter"), InterpreterBackend)
        assert isinstance(backend_for("threaded"), ThreadedBackend)

    def test_backends_satisfy_protocol(self):
        for name in BACKEND_NAMES:
            backend = backend_for(name)
            assert isinstance(backend, ExecutionBackend)
            assert backend.name == name

    def test_instances_are_shared(self):
        assert backend_for("threaded") is backend_for("threaded")
        assert backend_for("interpreter") is backend_for("interpreter")

    def test_unknown_name_rejected(self):
        with pytest.raises(ValueError, match="unknown execution backend"):
            backend_for("jit")


# ----------------------------------------------------------------------
# Workload differential: every workload × {NVP, GECKO} × both backends.
# ----------------------------------------------------------------------
@pytest.mark.parametrize("workload", WORKLOAD_NAMES)
def test_workload_differential(workload):
    """Intermittent campaign runs are indistinguishable across backends.

    One two-point campaign per scheme, swept over the ``"backend"``
    axis, on the outage-driven fault-victim rig (so JIT checkpoints,
    shutdowns, and reboots all happen inside the window).  Telemetry
    metrics, committed outputs, and the summary counters must match
    field for field.
    """
    for scheme in SCHEMES:
        spec = ExperimentSpec(
            name=f"diff:{workload}:{scheme}",
            victim=fault_victim(workload=workload, scheme=scheme,
                                duration_s=0.02),
            attack=AttackSpec.silent(),
            path=PathSpec.remote(),
            sweep={"backend": list(BACKEND_NAMES)},
            telemetry=True,
        )
        campaign = _RUNNER.run(spec)
        reference, threaded = campaign.outcomes
        assert reference.params["backend"] == "interpreter"
        assert threaded.params["backend"] == "threaded"
        assert reference.error is None and threaded.error is None
        a, b = reference.result, threaded.result
        assert a.metrics == b.metrics, f"{workload}/{scheme} metrics differ"
        assert a.committed_outputs == b.committed_outputs
        assert (a.executed_cycles, a.completions, a.reboots,
                a.jit_checkpoints, a.final_state) \
            == (b.executed_cycles, b.completions, b.reboots,
                b.jit_checkpoints, b.final_state)


@pytest.mark.parametrize("scheme", SCHEMES)
def test_campaign_fingerprint_identical(scheme):
    """The CI contract: byte-identical ``metrics_fingerprint()``."""
    fingerprints = {}
    for backend in BACKEND_NAMES:
        spec = ExperimentSpec(
            name=f"fp:{scheme}",
            victim=fault_victim(workload="crc16", scheme=scheme,
                                duration_s=0.03),
            attack=AttackSpec.tone(tx_dbm=35.0),
            path=PathSpec.remote(),
            sweep={"attack.freq_mhz": [13.56, 27.0]},
            baseline=True,
            telemetry=True,
            backend=backend,
        )
        fingerprints[backend] = _RUNNER.run(spec).metrics_fingerprint()
    assert fingerprints["interpreter"] == fingerprints["threaded"]


def test_fault_classifications_identical():
    """A fault-plan slice classifies identically under both backends."""
    maps = {}
    for backend in BACKEND_NAMES:
        campaigns = scheme_comparison(
            workload="crc16", schemes=SCHEMES,
            models=(REG_FLIP, CKPT_CORRUPT), points=3, seed=7,
            duration_s=0.1, runner=_RUNNER, backend=backend)
        maps[backend] = {
            scheme: [(record.fault, record.outcome)
                     for record in campaign.map.records]
            for scheme, campaign in campaigns.items()
        }
    assert maps["interpreter"] == maps["threaded"]


@pytest.mark.parametrize("workload", ["crc16", "bitcnt", "fir"])
def test_stable_power_output_matches_golden(workload):
    """On stable power the threaded backend reproduces the golden output."""
    from repro.core import compile_nvp
    from repro.runtime import run_to_completion

    machine = run_to_completion(compile_nvp(source(workload)).linked,
                                backend="threaded")
    assert machine.halted
    assert machine.committed_out == expected_output(workload)


# ----------------------------------------------------------------------
# Block-compiler edge cases on hand-written assembly.
# ----------------------------------------------------------------------
LOOP_TEXT = """
.data
    acc 1
.func main
    li R4, #0
    li R5, #5
loop:
    add R4, R4, #3
    sub R5, R5, #1
    bnz R5, .loop
    st R4, [@acc + #0]
    out R4
    halt
"""


#: Straight-line code long enough for several aligned blocks.
STRAIGHT_TEXT = ".func main\n" + "".join(
    f"    add R4, R4, #{i}\n" for i in range(3 * BLOCK_ALIGN + 3)) \
    + "    out R4\n    halt\n"


def _arch_state(machine):
    return (machine.pc, machine.cycles, machine.instr_count,
            list(machine.regs), list(machine.mem), list(machine.wear))


@pytest.fixture
def steps_of(monkeypatch):
    """``steps_of(machine)``: how often ``Machine.step`` ran on it."""
    calls = {}
    step = Machine.step

    def counted(machine):
        calls.setdefault(id(machine), [machine, 0])[1] += 1
        return step(machine)

    monkeypatch.setattr(Machine, "step", counted)
    return lambda machine: calls.get(id(machine), [machine, 0])[1]


class TestBlockCompiler:
    def test_block_ends_before_leader(self):
        """Fallthrough: a block must stop at the next branch target."""
        program = link(parse_program(LOOP_TEXT))
        block = compile_block(program, 0)
        # The prologue block holds exactly the two LIs; `loop:` is a
        # leader, so instruction 2 starts its own block.
        assert block.start == 0
        assert block.n == 2

    def test_block_cycle_presum(self):
        program = link(parse_program(LOOP_TEXT))
        block = compile_block(program, 0)
        assert block.cycles == sum(program.instrs[pc].cycles
                                   for pc in range(block.n))

    def test_self_loop_block(self):
        """A block whose branch targets its own first instruction."""
        interp, threaded = _pair(LOOP_TEXT)
        interp.run(max_steps=1000)
        threaded.run(max_steps=1000, backend="threaded")
        assert threaded.halted
        assert threaded.regs == interp.regs
        assert threaded.cycles == interp.cycles
        assert threaded.instr_count == interp.instr_count
        assert threaded.committed_out == interp.committed_out == [15]

    def test_branch_to_entry(self):
        """A backward branch to pc 0 re-enters the entry block."""
        text = """
.func main
entry:
    add R4, R4, #1
    slt R5, R4, #4
    bnz R5, .entry
    out R4
    halt
"""
        interp, threaded = _pair(text)
        interp.run(max_steps=100)
        threaded.run(max_steps=100, backend="threaded")
        assert threaded.committed_out == interp.committed_out == [4]
        assert threaded.cycles == interp.cycles

    def test_mid_block_resume(self):
        """Resuming from a non-leader pc (the JIT-restore shape) works.

        A suffix block is compiled lazily for the odd entry point, and
        the result is identical to single-stepping from the same state.
        """
        interp, threaded = _pair(LOOP_TEXT)
        backend = backend_for("threaded")
        for machine in (interp, threaded):
            for _ in range(3):  # land mid-way through the loop body
                machine.step()
        assert interp.pc == threaded.pc
        assert interp.pc not in link(parse_program(LOOP_TEXT)).block_leaders()
        while not interp.halted:
            interp.step()
        _drain(backend, threaded)
        assert threaded.regs == interp.regs
        assert threaded.cycles == interp.cycles

    def test_budget_exactness(self, steps_of):
        """Every budget up to twice the block alignment, on LOOP_TEXT and
        a registry kernel per scheme: a slice never executes more than
        its budget, leaves the interpreter's exact state, and never
        falls back to ``Machine.step``."""
        from repro.core import compile_scheme

        programs = {"loop": link(parse_program(LOOP_TEXT))}
        for scheme in ("nvp", "ratchet", "gecko"):
            programs[scheme] = compile_scheme(source("blink"), scheme).linked
        reference = backend_for("interpreter")
        backend = backend_for("threaded")
        for case, program in programs.items():
            for budget in range(1, 2 * BLOCK_ALIGN + 1):
                interp, threaded = Machine(program), Machine(program)
                while not interp.halted:
                    assert reference.run_slice(interp, budget) \
                        == backend.run_slice(threaded, budget)
                    assert _arch_state(threaded) == _arch_state(interp), \
                        (case, budget)
                assert threaded.halted
                assert steps_of(threaded) == 0, (case, budget)

    def test_mid_block_power_failure(self):
        """Power dying mid-slice stops execution at the block boundary.

        The simulator only drops power between slices, but the backend
        must tolerate ``powered`` going False at any block boundary and
        preserve the machine state for the JIT checkpoint path.
        """
        interp, threaded = _pair(LOOP_TEXT)
        backend = backend_for("threaded")
        for _ in range(4):
            interp.step()
        backend.run_slice(threaded, 4)
        threaded.powered = False
        cycles, fault = backend.run_slice(threaded, 1000)
        assert cycles == 0 and fault is None
        assert threaded.instr_count == interp.instr_count
        threaded.powered = True
        _drain(backend, threaded)
        assert threaded.halted


# ----------------------------------------------------------------------
# Slice edges: truncated tail blocks and aligned block boundaries.
# ----------------------------------------------------------------------
class TestSliceEdges:
    def test_short_budget_compiles_no_longer_block(self):
        """A slice shorter than the block at ``pc`` compiles only a
        truncated block of exactly the budget."""
        for budget in range(1, BLOCK_ALIGN):
            program = link(parse_program(STRAIGHT_TEXT))
            machine = Machine(program)
            backend_for("threaded").run_slice(machine, budget)
            blocks = compiled_blocks(program)
            assert [(b.start, b.n) for b in blocks] == [(0, budget)]
            assert machine.pc == machine.instr_count == budget

    def test_mid_block_suffix_ends_at_aligned_pc(self):
        """A mid-block entry compiles a suffix up to the next aligned pc,
        then reuses the block already cached there."""
        program = link(parse_program(STRAIGHT_TEXT))
        backend = backend_for("threaded")
        _drain(backend, Machine(program))
        cached = {b.start: b for b in compiled_blocks(program)}
        assert sorted(cached) == list(range(0, len(program.instrs),
                                            BLOCK_ALIGN))
        entry = BLOCK_ALIGN + 3
        machine = Machine(program)
        machine.pc = entry
        backend.run_slice(machine, 1_000_000)
        blocks = compiled_blocks(program)
        (suffix,) = [b for b in blocks if b.start not in cached]
        assert (suffix.start, suffix.n) == (entry, BLOCK_ALIGN - 3)
        assert len(blocks) == len(cached) + 1
        after = {b.start: b for b in blocks}
        assert after[2 * BLOCK_ALIGN] is cached[2 * BLOCK_ALIGN]

    def test_block_ends_before_aligned_pc(self):
        program = link(parse_program(STRAIGHT_TEXT))
        for start in range(len(program.instrs)):
            end = start + compile_block(program, start).n
            assert end == min((start // BLOCK_ALIGN + 1) * BLOCK_ALIGN,
                              len(program.instrs))


# ----------------------------------------------------------------------
# Trap equivalence: same message, same partial accounting.
# ----------------------------------------------------------------------
DIV_ZERO_TEXT = """
.func main
    li R4, #6
    li R5, #0
    div R6, R4, R5
    halt
"""

OOB_TEXT = """
.data
    arr 4
.func main
    li R4, #9
    ld R5, [@arr + R4]
    halt
"""


class TestTrapEquivalence:
    @pytest.mark.parametrize("text", [DIV_ZERO_TEXT, OOB_TEXT],
                             ids=["div-zero", "out-of-bounds"])
    def test_same_fault_same_state(self, text):
        interp, threaded = _pair(text)
        _, fault_i = _drain(backend_for("interpreter"), interp)
        _, fault_t = _drain(backend_for("threaded"), threaded)
        assert isinstance(fault_i, MachineFault)
        assert isinstance(fault_t, MachineFault)
        assert str(fault_t) == str(fault_i)
        assert threaded.pc == interp.pc
        assert threaded.cycles == interp.cycles
        assert threaded.instr_count == interp.instr_count

    def test_machine_run_raises_for_both_backends(self):
        for backend in BACKEND_NAMES:
            machine = _machine(DIV_ZERO_TEXT)
            with pytest.raises(MachineFault, match="division by zero"):
                machine.run(max_steps=100, backend=backend)


# ----------------------------------------------------------------------
# The attach() hook API.
# ----------------------------------------------------------------------
class _Hook:
    """Minimal fault-hook shape: fired flag + a no-op before_step."""

    def __init__(self):
        self.fired = True
        self.calls = 0

    def before_step(self, machine):
        self.calls += 1
        return False


class TestAttachAPI:
    def test_attach_sets_hooks(self):
        machine = _machine(LOOP_TEXT)
        hook = _Hook()
        obs = Observability.disabled()
        machine.attach(fault_hook=hook, obs=obs)
        assert machine.fault_hook is hook
        assert machine.obs is obs

    def test_attach_leaves_unmentioned_hooks_alone(self):
        machine = _machine(LOOP_TEXT)
        hook = _Hook()
        machine.attach(fault_hook=hook)
        machine.attach(obs=Observability.disabled())
        assert machine.fault_hook is hook

    def test_attach_detaches_with_none(self):
        machine = _machine(LOOP_TEXT)
        machine.attach(fault_hook=_Hook())
        machine.attach(fault_hook=None)
        assert machine.fault_hook is None

    def test_direct_assignment_raises(self):
        machine = _machine(LOOP_TEXT)
        with pytest.raises(AttributeError):
            machine.fault_hook = _Hook()
        with pytest.raises(AttributeError):
            machine.obs = Observability.disabled()
        assert machine.fault_hook is None and machine.obs is None

    def test_both_backends_honor_attached_hook(self):
        for name in BACKEND_NAMES:
            machine = _machine(LOOP_TEXT)
            hook = _Hook()
            hook.fired = False  # keep the per-step path engaged
            machine.attach(fault_hook=hook)
            machine.run(max_steps=1000, backend=name)
            assert machine.halted
            assert hook.calls == machine.instr_count

    def test_runtime_attach_forwards(self):
        from repro.core import compile_gecko
        from repro.runtime import GeckoRuntime, NVPRuntime
        from repro.workloads import source

        hook = _Hook()
        nvp = NVPRuntime()
        nvp.attach(fault_hook=hook)
        assert nvp.fault_hook is hook

        compiled = compile_gecko(source("blink"))
        gecko = GeckoRuntime(compiled.linked)
        gecko.attach(fault_hook=hook)
        assert gecko.fault_hook is hook


# ----------------------------------------------------------------------
# Interrupt load: the reactive suite must be backend-indistinguishable.
# ----------------------------------------------------------------------
class TestInterruptDifferential:
    """Block-boundary delivery makes the threaded backend's interrupt
    timing *exactly* the interpreter's — under stable power, intermittent
    campaigns, mid-block resume with pending interrupts, and EMI bursts
    phase-locked to interrupt arrival."""

    @staticmethod
    def _full_state(machine):
        return (list(machine.mem), list(machine.regs), machine.pc,
                machine.halted, machine.cycles, machine.instr_count,
                list(machine.committed_out),
                [(s.vector, s.entry_step, s.exit_step)
                 for s in machine._periph.trace])

    @pytest.mark.parametrize("workload", REACTIVE_WORKLOADS)
    @pytest.mark.parametrize("scheme", SCHEMES)
    def test_stable_power_state_identical(self, workload, scheme):
        from repro.core import compile_scheme

        linked = compile_scheme(source(workload), scheme).linked
        states = []
        for backend in BACKEND_NAMES:
            machine = Machine(linked)
            machine.run(max_steps=3_000_000, backend=backend)
            states.append(self._full_state(machine))
        assert states[0] == states[1], f"{workload}/{scheme}"

    @pytest.mark.parametrize("workload", REACTIVE_WORKLOADS)
    def test_campaign_fingerprint_identical(self, workload):
        """The CI contract, restated over the reactive suite."""
        for scheme in SCHEMES:
            fingerprints = {}
            for backend in BACKEND_NAMES:
                spec = ExperimentSpec(
                    name=f"reactive-fp:{workload}:{scheme}",
                    victim=fault_victim(workload=workload, scheme=scheme,
                                        duration_s=0.02),
                    attack=AttackSpec.silent(),
                    path=PathSpec.remote(),
                    baseline=True,
                    telemetry=True,
                    backend=backend,
                )
                fingerprints[backend] = \
                    _RUNNER.run(spec).metrics_fingerprint()
            assert fingerprints["interpreter"] == fingerprints["threaded"], \
                f"{workload}/{scheme}"

    def test_mid_block_resume_with_pending_irq(self):
        """A snapshot cut mid-block while an interrupt is pending (masked
        by a higher-priority live handler) resumes identically: the
        threaded backend must single-step the suffix AND deliver the
        pending vector at the same boundary the interpreter does."""
        from repro.core import compile_scheme

        linked = compile_scheme(source("heartbeat"), "nvp").linked
        leaders = linked.block_leaders()
        probe = Machine(linked)
        cut = None
        while not probe.halted:
            probe.step()
            if probe.read_word("__irq_pend") != 0 \
                    and probe.pc not in leaders:
                cut = probe.snapshot()
                break
        assert cut is not None, "never saw a pending IRQ mid-block"

        resumed = []
        for backend in BACKEND_NAMES:
            machine = Machine(linked)
            machine.restore(cut)
            machine.run(max_steps=3_000_000, backend=backend)
            resumed.append(self._full_state(machine))
        assert resumed[0] == resumed[1]

    def test_phase_locked_attack_fingerprint_identical(self):
        """ISR-phase-locked EMI bursts (the repro.adversary.isrspace
        axis) classify identically under both backends."""
        from repro.adversary import isr_attack_space

        for scheme in SCHEMES:
            victim = fault_victim(workload="glucose", scheme=scheme,
                                  duration_s=0.02)
            compiled = _RUNNER.compile_cache.get(victim.compile_key())
            if compiled is None:
                compiled = victim.compile()
                _RUNNER.compile_cache[victim.compile_key()] = compiled
            candidate = isr_attack_space(
                compiled.linked, duration_s=0.02).aggressive(27.0)
            fingerprints = {}
            for backend in BACKEND_NAMES:
                spec = ExperimentSpec(
                    name=f"isr-phase:{scheme}",
                    victim=victim,
                    attack=candidate.attack_spec(),
                    path=candidate.path_spec(),
                    baseline=True,
                    telemetry=True,
                    backend=backend,
                )
                fingerprints[backend] = \
                    _RUNNER.run(spec).metrics_fingerprint()
            assert fingerprints["interpreter"] == fingerprints["threaded"], \
                scheme
