"""Golden-state capture for forking, and the forks' shared step budget.

The exhaustive mapper's cost model hinges on never re-running the golden
prefix: the shared :func:`~repro.runtime.golden.capture_trace`, given a
``snapshot_stride``, records a :class:`~repro.runtime.machine.
MachineSnapshot` every ``stride`` steps next to the per-step pcs and the
MARK-commit region entries the reduction passes reason over.  A fault
triggered at step ``s`` costs ``s mod stride`` catch-up steps plus its
post-injection tail instead of ``s`` steps of golden prefix.
"""

from __future__ import annotations

from ..runtime.golden import GoldenTrace, capture_trace

__all__ = ["GoldenTrace", "HANG_SLACK_STEPS", "capture_trace",
           "fork_budget"]

#: Post-injection step allowance beyond the doubled golden length.  A
#: fork that has not halted after twice the golden run plus this slack
#: has lost forward progress (the stable-power notion of a hang).
HANG_SLACK_STEPS = 256


def fork_budget(trace: GoldenTrace) -> int:
    """The absolute step allowance every injected fork runs under.

    Identical for all forks of one victim, so hang classification cannot
    depend on which snapshot a fork happened to start from.
    """
    return 2 * trace.golden_steps + HANG_SLACK_STEPS
