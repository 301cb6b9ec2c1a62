"""Exhaustive fault maps via snapshot forking and fault-space reduction.

Where :mod:`repro.faultsim` *samples* the injection space (~50 seeded
draws per model), this subsystem enumerates it completely — every
instruction step × every register × every bit, plus deterministic grids
for the time-triggered models — and makes that tractable the way ARMORY
does (PAPERS.md, arXiv 2105.13769): prune what analysis already
classifies, collapse what provably behaves identically, fork the rest
from golden snapshots instead of re-running from reset, and memoize
every classification in the content-addressed result store.

* :mod:`~repro.exhaustive.space`  — :class:`ExhaustiveSpec` and the
  canonical enumeration of the complete space;
* :mod:`~repro.exhaustive.trace`  — the shared golden run
  (:func:`repro.runtime.golden.capture_trace`) with periodic
  :class:`~repro.runtime.machine.MachineSnapshot` captures, and the
  forks' shared step budget;
* :mod:`~repro.exhaustive.reduce` — liveness pruning, dynamic
  next-access analysis, and equivalence-class collapsing;
* :mod:`~repro.exhaustive.mapper` — the forking simulator, resilient
  fan-out, store memoization, and the campaign bridge for time models;
* :mod:`~repro.exhaustive.report` — reduction accounting next to the
  standard fingerprinted :class:`~repro.faultsim.report.VulnerabilityMap`.

The contract that makes the reduction trustworthy: a reduced run and a
naive from-reset run of the same spec produce *byte-identical* map
fingerprints (asserted by the differential tests and the CI smoke job).
"""

from .mapper import (
    classify_fork,
    exhaustive_map,
    injection_digest,
    program_digest,
)
from .reduce import (
    PURE_SKIP_OPS,
    ReducedPlan,
    naive_step_plan,
    reduce_instr_skips,
    reduce_reg_flips,
    reduce_step_model,
)
from .report import ExhaustiveResult, ReductionStats
from .space import (
    DEFAULT_CKPT_WINDOWS,
    DEFAULT_SIGNAL_SLOTS,
    DEFAULT_SNAPSHOT_STRIDE,
    ExhaustiveSpec,
    enumerate_step_model,
    enumerate_time_model,
)
from .trace import GoldenTrace, HANG_SLACK_STEPS, capture_trace

__all__ = [
    "DEFAULT_CKPT_WINDOWS", "DEFAULT_SIGNAL_SLOTS",
    "DEFAULT_SNAPSHOT_STRIDE", "ExhaustiveResult", "ExhaustiveSpec",
    "GoldenTrace", "HANG_SLACK_STEPS", "PURE_SKIP_OPS", "ReducedPlan",
    "ReductionStats", "capture_trace", "classify_fork",
    "enumerate_step_model", "enumerate_time_model", "exhaustive_map",
    "injection_digest", "naive_step_plan", "program_digest",
    "reduce_instr_skips", "reduce_reg_flips", "reduce_step_model",
]
