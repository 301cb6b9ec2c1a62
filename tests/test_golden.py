"""The shared golden run (:mod:`repro.runtime.golden`).

:func:`capture_trace` stores one entry per MARK commit instead of a
region id per step, and closes ISR spans itself.  These tests hold it to
an independent per-step reference loop over every bundled workload and
scheme: the region read at every step, the MARK commit cycles, the hub's
own ISR trace and the run totals must all agree.
"""

import pytest

from repro.core import compile_scheme
from repro.errors import MachineFault
from repro.runtime import Machine, golden
from repro.runtime.golden import capture_trace
from repro.workloads import REGISTRY, source

SCHEMES = ("nvp", "ratchet", "gecko")


def _reference_run(linked):
    """Single-step ``linked`` reading ``__region_cur`` before every step
    and noting the cycle count after every MARK commit."""
    machine = Machine(linked)
    pcs, regions, mark_cycles = [], [], []
    while not machine.halted:
        pcs.append(machine.pc)
        regions.append(machine.read_word("__region_cur"))
        marks = machine.marks_executed
        machine.step()
        if machine.marks_executed != marks:
            mark_cycles.append(machine.cycles)
    return machine, pcs, regions, mark_cycles


@pytest.mark.parametrize("scheme", SCHEMES)
@pytest.mark.parametrize("workload", sorted(REGISTRY))
def test_capture_matches_per_step_reference(workload, scheme):
    linked = compile_scheme(source(workload), scheme).linked
    trace = capture_trace(linked)
    machine, pcs, regions, mark_cycles = _reference_run(linked)

    assert len(trace.pcs) == trace.golden_steps == machine.instr_count
    assert trace.pcs == pcs
    assert [trace.region_at(step) for step in range(len(regions))] \
        == regions
    assert [cycles for _, cycles, _ in trace.marks] == mark_cycles
    assert len(trace.marks) == machine.marks_executed
    assert trace.golden_cycles == machine.cycles
    assert trace.golden_out == tuple(machine.committed_out)
    assert trace.snapshots == []

    hub_spans = machine._periph.trace if machine._periph is not None \
        else []
    assert [(s.vector, s.entry_step, s.entry_cycles)
            for s in trace.isr_spans] \
        == [(s.vector, s.entry_step, s.entry_cycles) for s in hub_spans]
    for span, hub_span in zip(trace.isr_spans, hub_spans):
        if hub_span.closed:
            assert (span.exit_step, span.exit_cycles) \
                == (hub_span.exit_step, hub_span.exit_cycles)
        else:  # still open at HALT: closes at the final step and cycle
            assert (span.exit_step, span.exit_cycles) \
                == (machine.instr_count, machine.cycles)


def test_snapshots_every_stride():
    linked = compile_scheme(source("crc32"), "gecko").linked
    trace = capture_trace(linked, snapshot_stride=64)
    assert len(trace.snapshots) == -(-trace.golden_steps // 64)
    for index, snapshot in enumerate(trace.snapshots):
        assert snapshot.instr_count == index * 64
        assert snapshot.pc == trace.pcs[index * 64]
    assert trace.snapshot_before(130) is trace.snapshots[2]


def test_run_past_the_step_cap_is_a_machine_fault(monkeypatch):
    monkeypatch.setattr(golden, "GOLDEN_STEP_CAP", 100)
    linked = compile_scheme(source("crc32"), "nvp").linked
    with pytest.raises(MachineFault, match="did not halt within 100"):
        capture_trace(linked)
