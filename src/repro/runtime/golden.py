"""The golden run: one stable-power, fault-free reference execution.

Every fault verdict in the repo is judged against this run, and every
planner reads its facts from it: fault plans attribute injections to the
region (or ISR) live at their trigger step, exhaustive maps reason over
its per-step pcs and fork from its snapshots, the ISR attack axis locks
bursts to its interrupt arrivals, and the torture fuzzer biases schedules
towards its MARK commits.  :func:`capture_trace` single-steps the
reference interpreter (the semantics oracle both backends match
byte-for-byte) once and records all of it in one :class:`GoldenTrace`.

Region ids change only at MARK commits, so the trace keeps one
``(step, cycles, region)`` entry per commit and :meth:`GoldenTrace.
region_at` bisects them instead of storing a region id per step.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass, field
from typing import List, Optional, Tuple

from ..errors import MachineFault
from ..periph.hub import IsrSpan
from .machine import Machine, MachineSnapshot

#: Step cap on the golden run; every bundled iteration halts far below.
GOLDEN_STEP_CAP = 3_000_000


@dataclass
class GoldenTrace:
    """One fault-free reference execution, indexed for planning and forks.

    ``pcs[s]`` is the program counter *before* step ``s`` executes.
    ``marks`` holds one ``(step, cycles, region)`` entry per MARK commit:
    the step count and cycle count just after the commit, and the region
    id it committed.  ``isr_spans`` are the run's handler activations,
    entry-ordered and all closed (one still open at HALT closes at the
    final step and cycle).  ``snapshots[k]`` is the machine state before
    step ``k * stride`` (empty when captured without a stride).
    """

    pcs: List[int]
    marks: List[Tuple[int, int, int]]
    isr_spans: List[IsrSpan]
    golden_out: Tuple[int, ...]
    golden_steps: int
    golden_cycles: int
    snapshots: List[MachineSnapshot] = field(default_factory=list)
    stride: Optional[int] = None

    def __post_init__(self) -> None:
        self._mark_steps = [step for step, _, _ in self.marks]

    def region_at(self, step: int) -> int:
        """The last-committed region when instruction ``step`` executes.

        Steps past the end wrap around (the run loops on real hardware);
        before the first commit the region is 0.
        """
        if self.golden_steps:
            step %= self.golden_steps
        index = bisect.bisect_right(self._mark_steps, step)
        return self.marks[index - 1][2] if index else 0

    def isr_at(self, step: int) -> Optional[int]:
        """The vector whose handler is live at ``step``, if any."""
        if self.golden_steps:
            step %= self.golden_steps
        for span in self.isr_spans:
            if span.entry_step <= step < span.exit_step:
                return span.vector
        return None

    def isr_steps(self) -> int:
        """Total steps spent inside ISR activations."""
        return sum(span.exit_step - span.entry_step
                   for span in self.isr_spans)

    def snapshot_before(self, step: int) -> MachineSnapshot:
        """The nearest captured state at or before ``step``."""
        return self.snapshots[min(step // self.stride,
                                  len(self.snapshots) - 1)]


def capture_trace(linked,
                  snapshot_stride: Optional[int] = None) -> GoldenTrace:
    """Run the golden execution of ``linked`` once, recording everything.

    Raises :class:`~repro.errors.MachineFault` when the run traps or does
    not halt within :data:`GOLDEN_STEP_CAP` steps.
    """
    machine = Machine(linked)
    step = machine.step
    pcs: List[int] = []
    marks: List[Tuple[int, int, int]] = []
    snapshots: List[MachineSnapshot] = []
    marks_seen = 0
    steps = 0
    while not machine.halted and steps < GOLDEN_STEP_CAP:
        if snapshot_stride and steps % snapshot_stride == 0:
            snapshots.append(machine.snapshot())
        pcs.append(machine.pc)
        step()
        steps += 1
        if machine.marks_executed != marks_seen:
            marks_seen = machine.marks_executed
            marks.append((steps, machine.cycles,
                          machine.read_word("__region_cur")))
    if not machine.halted:
        raise MachineFault(
            f"golden run did not halt within {GOLDEN_STEP_CAP} steps")
    spans: List[IsrSpan] = []
    if machine._periph is not None:
        for span in machine._periph.trace:
            if not span.closed:
                span = IsrSpan(vector=span.vector,
                               entry_step=span.entry_step,
                               entry_cycles=span.entry_cycles,
                               exit_step=machine.instr_count,
                               exit_cycles=machine.cycles)
            spans.append(span)
    return GoldenTrace(
        pcs=pcs, marks=marks, isr_spans=spans,
        golden_out=tuple(machine.committed_out),
        golden_steps=machine.instr_count, golden_cycles=machine.cycles,
        snapshots=snapshots, stride=snapshot_stride)
