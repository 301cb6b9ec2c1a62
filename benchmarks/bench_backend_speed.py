"""Execution-backend throughput: interpreter vs. threaded-code blocks.

The threaded backend precompiles every basic block of a LinkedProgram
into a specialized closure — operand indices and symbol addresses bound
at compile time, per-block cycle costs pre-summed, hooks checked only at
block boundaries.  This benchmark measures what that buys: simulated
cycles per wall-clock second on crc16 and dhrystone, in three regimes:

* **raw** — ``run_slice`` with a one-million-instruction budget, the
  upper bound where block dispatch dominates.  One threaded crc16 run
  lasts about 1 ms, too short to time against host noise, so each raw
  sample runs the program ``RAW_RUNS`` times back to back;
* **quantum=128** — simulator-shaped slices, the price actually paid
  inside :class:`~repro.runtime.IntermittentSimulator`;
* **cold quantum=128** — the same slices with the block cache emptied
  before every repeat, so block code generation, which every new process
  pays, is inside the timing instead of hidden by best-of-N.

Next to the times it records counts that do not depend on the machine,
from one run on an empty block cache per regime: instructions compiled
over distinct instructions covered by compiled blocks (codegen
redundancy) and instructions single-stepped through ``Machine.step``.

Gates (enforced here and in CI): a >=10x raw speedup on both workloads,
redundancy <= 3x in every regime, and no single steps on these plain
kernels (no hook, profiler or peripherals).  Equivalence itself is
asserted test-by-test in ``tests/test_backends.py``.
"""

import time

from _util import bar, emit, run_once

from repro.core import compile_nvp
from repro.runtime import Machine, backend_for, threaded
from repro.workloads import source

WORKLOADS = ("crc16", "dhrystone")
REPEATS = 3
RAW_BUDGET = 1_000_000
#: Back-to-back runs per timed raw sample: tens of milliseconds threaded.
RAW_RUNS = 25
QUANTUM = 128
SPEEDUP_FLOOR = 10.0
REDUNDANCY_CEILING = 3.0

#: (name, slice budget, empty the block cache before every repeat,
#: back-to-back runs per timed sample).
REGIMES = (
    ("raw", RAW_BUDGET, False, RAW_RUNS),
    ("quantum=128", QUANTUM, False, 1),
    ("cold quantum=128", QUANTUM, True, 1),
)


def _drop_blocks() -> None:
    threaded._CACHES.clear()


def _run(linked, backend, budget: int) -> int:
    machine = Machine(linked)
    cycles = 0
    while not machine.halted:
        sliced, fault = backend.run_slice(machine, budget)
        cycles += sliced
        assert fault is None
    return cycles


def _throughput(program, backend_name: str, budget: int, cold: bool,
                runs: int) -> float:
    """Best-of-``REPEATS`` simulated cycles per wall second, each sample
    timing ``runs`` back-to-back runs."""
    backend = backend_for(backend_name)
    best = 0.0
    for _ in range(REPEATS):
        if cold:
            _drop_blocks()
        start = time.perf_counter()
        cycles = sum(_run(program.linked, backend, budget)
                     for _ in range(runs))
        best = max(best, cycles / (time.perf_counter() - start))
    return best


def _counts(program, budget: int) -> dict:
    """Codegen and single-step counts of one threaded run from an empty
    block cache."""
    _drop_blocks()
    stepped = 0
    step = Machine.step

    def counted(machine):
        nonlocal stepped
        stepped += 1
        return step(machine)

    Machine.step = counted
    try:
        _run(program.linked, backend_for("threaded"), budget)
    finally:
        Machine.step = step
    blocks = threaded.compiled_blocks(program.linked)
    covered = {pc for block in blocks
               for pc in range(block.start, block.start + block.n)}
    compiled = sum(block.n for block in blocks)
    return {"compiled_instrs": compiled, "covered_instrs": len(covered),
            "redundancy": compiled / len(covered),
            "stepped_instrs": stepped}


def _experiment():
    rows = {}
    for workload in WORKLOADS:
        program = compile_nvp(source(workload))
        regimes = {}
        for regime, budget, cold, runs in REGIMES:
            row = _counts(program, budget)
            speed = {name: _throughput(program, name, budget, cold, runs)
                     for name in ("interpreter", "threaded")}
            row["cycles_per_s"] = speed
            row["speedup"] = speed["threaded"] / speed["interpreter"]
            regimes[regime] = row
        rows[workload] = {"regimes": regimes,
                          "raw_speedup": regimes["raw"]["speedup"]}
    return {"budget": RAW_BUDGET, "raw_runs": RAW_RUNS, "quantum": QUANTUM,
            "best_of": REPEATS,
            "block_align": threaded.BLOCK_ALIGN,
            "speedup_floor": SPEEDUP_FLOOR,
            "redundancy_ceiling": REDUNDANCY_CEILING, "workloads": rows}


def test_backend_speed(benchmark):
    data = run_once(benchmark, _experiment)
    lines = [f"Backend throughput (simulated cycles/s, best of "
             f"{data['best_of']}; raw budget {data['budget']} x "
             f"{data['raw_runs']} runs, quantum {data['quantum']}, "
             f"block alignment {data['block_align']})",
             f"{'workload':<11} {'regime':<17} {'interpreter':>12} "
             f"{'threaded':>12} {'speedup':>8} {'compiled':>9} "
             f"{'covered':>8} {'redund.':>8} {'stepped':>8}"]
    for workload, row in data["workloads"].items():
        for regime, cell in row["regimes"].items():
            speed = cell["cycles_per_s"]
            lines.append(
                f"{workload:<11} {regime:<17} {speed['interpreter']:>12,.0f} "
                f"{speed['threaded']:>12,.0f} {cell['speedup']:>7.1f}x "
                f"{cell['compiled_instrs']:>9} {cell['covered_instrs']:>8} "
                f"{cell['redundancy']:>7.2f}x {cell['stepped_instrs']:>8} "
                f"{bar(cell['speedup'], maximum=20.0)}")
    emit("backend_speed", lines, data)
    for workload, row in data["workloads"].items():
        assert row["raw_speedup"] >= data["speedup_floor"], \
            f"{workload}: raw speedup {row['raw_speedup']:.1f}x < " \
            f"{data['speedup_floor']}x floor"
        for regime, cell in row["regimes"].items():
            assert cell["redundancy"] <= data["redundancy_ceiling"], \
                f"{workload}/{regime}: codegen redundancy " \
                f"{cell['redundancy']:.2f}x > " \
                f"{data['redundancy_ceiling']}x"
            assert cell["stepped_instrs"] == 0, \
                f"{workload}/{regime}: {cell['stepped_instrs']} " \
                f"single-stepped instructions"
