"""The traced run's instrumentation: which layer functions are wrapped,
and how the per-layer metrics are derived from the recorded frames.

Frame names start with the layer they belong to (``core``, ``runtime``,
``energy``, ``analog``, ``emi``, ``eval``, ``exhaustive``, ``faultsim``,
``store``, ``torture``, ``obs``); the benchmark's own root frames start
with ``bench``.  ``README.md`` maps every metric to the end-to-end metric
it should move.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Tuple

from tracing import Patcher, Tracer, counted, framed

#: The layers, in report order.
LAYERS = ("core", "runtime", "energy", "analog", "emi", "eval",
          "exhaustive", "faultsim", "store", "torture", "obs")

#: Per-layer metrics the traced run puts in its result line: every count
#: and ratio, plus the times that every workload exercises.  A layer time
#: that a workload never reaches would read a constant 0.0 there, so those
#: times are printed in the trace report only (:data:`REPORT_ONLY`).
JSON_METRICS: Tuple[Tuple[str, str], ...] = (
    ("core.compile.calls", "count"),
    ("core.compile.s", "s"),
    ("runtime.backend.run_slice.calls", "count"),
    ("runtime.backend.run_slice.s", "s"),
    ("runtime.backend.instrs", "count"),
    ("runtime.machine.step.calls", "count"),
    ("runtime.backend.stepped_frac", "ratio"),
    ("runtime.backend.drain.calls", "count"),
    ("runtime.protocol.checkpoints", "count"),
    ("runtime.protocol.reboots", "count"),
    ("runtime.protocol.s", "s"),
    ("runtime.simulator.runs", "count"),
    ("runtime.simulator.slices", "count"),
    ("energy.calls", "count"),
    ("analog.sample.calls", "count"),
    ("emi.source_at.calls", "count"),
    ("eval.campaign.runs", "count"),
    ("eval.executor.tasks", "count"),
    ("eval.executor.retries", "count"),
    ("eval.executor.dispatch_s", "s"),
    ("eval.executor.worker_init_s", "s"),
    ("exhaustive.golden_steps", "count"),
    ("exhaustive.reduce_frac", "ratio"),
    ("exhaustive.forks", "count"),
    ("exhaustive.fork_instrs", "count"),
    ("exhaustive.machine.restore.calls", "count"),
    ("exhaustive.time_runs", "count"),
    ("store.digest.calls", "count"),
    ("store.get.calls", "count"),
    ("store.put.calls", "count"),
    ("store.hit_frac", "ratio"),
    ("torture.cases", "count"),
    ("torture.run_schedule.calls", "count"),
    ("torture.shrink.runs", "count"),
    ("obs.emit.calls", "count"),
    ("layer.core.self_s", "s"),
    ("layer.runtime.self_s", "s"),
    ("layer.eval.self_s", "s"),
    ("trace.unattributed_s", "s"),
    ("trace.overhead_s", "s"),
)

#: Printed by the traced run, not put in its result line (see above).
REPORT_ONLY: Tuple[Tuple[str, str], ...] = (
    ("runtime.backend.drain.s", "s"),
    ("runtime.simulator.self_s", "s"),
    ("runtime.simulator.host_us_per_slice", "us"),
    ("energy.s", "s"),
    ("analog.sample.s", "s"),
    ("emi.s", "s"),
    ("eval.campaign.self_s", "s"),
    ("exhaustive.trace.s", "s"),
    ("exhaustive.reduce.s", "s"),
    ("exhaustive.fork.s", "s"),
    ("exhaustive.time.s", "s"),
    ("faultsim.report.fingerprint.s", "s"),
    ("store.digest.s", "s"),
    ("store.get.s", "s"),
    ("store.put.s", "s"),
    ("torture.generate.s", "s"),
    ("torture.run_schedule.interpreter.s", "s"),
    ("torture.run_schedule.threaded.s", "s"),
    ("torture.shrink.s", "s"),
    ("torture.repro.s", "s"),
    ("obs.s", "s"),
) + tuple((f"layer.{layer}.self_s", "s") for layer in LAYERS
          if layer not in ("core", "runtime", "eval"))


def install(tracer: Tracer) -> Patcher:
    """Wrap every instrumented layer function; returns the undo handle."""
    from repro.analog.monitor import ADCMonitor, ComparatorMonitor
    from repro.emi import AttackSchedule, DPIPath, RemotePath
    from repro.emi.susceptibility import SusceptibilityCurve
    from repro.energy.power_system import PowerSystem
    from repro.eval.campaign import CampaignRunner
    from repro.eval.resilient import ResilientExecutor
    from repro.faultsim.report import VulnerabilityMap
    from repro.obs import Observability
    from repro.runtime import (GeckoRuntime, IntermittentSimulator,
                               InterpreterBackend, Machine, NVPRuntime,
                               RollbackRuntime, ThreadedBackend)
    from repro.store import ResultStore
    import repro.exhaustive  # noqa: F401  (bind before patching)
    import repro.torture  # noqa: F401

    patch = Patcher()
    counts = tracer.counts
    depth = tracer.depth

    def span(name: str, request: bool = False) -> Callable:
        return framed(tracer, name, record=True, request=request)

    def tally(name: str) -> Callable:
        return framed(tracer, name)

    # core: the whole front end and compiler sit behind compile_scheme.
    patch.function("repro.core.gecko", "compile_scheme", span("core.compile"))

    # runtime: instruction execution.
    def run_slice(fn: Callable) -> Callable:
        def wrapper(self, machine, budget):
            before = machine.instr_count
            tracer.begin("runtime.backend.run_slice")
            try:
                return fn(self, machine, budget)
            finally:
                tracer.end()
                executed = machine.instr_count - before
                counts["runtime.backend.instrs"] = \
                    counts.get("runtime.backend.instrs", 0) + executed
                if depth.get("exhaustive.fork"):
                    counts["exhaustive.fork_instrs"] = \
                        counts.get("exhaustive.fork_instrs", 0) + executed
        return wrapper

    def step(fn: Callable) -> Callable:
        def wrapper(self):
            counts["runtime.machine.step.calls"] = \
                counts.get("runtime.machine.step.calls", 0) + 1
            if depth.get("runtime.backend.run_slice"):
                counts["runtime.backend.stepped"] = \
                    counts.get("runtime.backend.stepped", 0) + 1
            return fn(self)
        return wrapper

    for backend in (InterpreterBackend, ThreadedBackend):
        patch.method(backend, "run_slice", run_slice)
    patch.method(Machine, "step", step)
    patch.method(Machine, "restore",
                 counted(tracer, "exhaustive.machine.restore.calls"))
    patch.function("repro.runtime.backend", "drain",
                   tally("runtime.backend.drain"))

    # runtime: the crash-consistency protocol of each scheme.
    for runtime in (NVPRuntime, GeckoRuntime, RollbackRuntime):
        for attr, name in (("on_checkpoint_signal", "checkpoint"),
                           ("on_reboot", "reboot"),
                           ("on_power_off", "power_off"),
                           ("tick", "tick"),
                           ("monitor_enabled", "monitor_enabled")):
            patch.method(runtime, attr, tally(f"runtime.protocol.{name}"))

    # runtime: the simulator's slice loop, and the physics it calls.
    patch.method(IntermittentSimulator, "run", span("runtime.simulator.run"))
    for attr in ("_slice_running", "_slice_idle"):
        patch.method(IntermittentSimulator, attr,
                     tally("runtime.simulator.slice"))
    for attr in ("harvest", "consume_cycles", "consume_sleep",
                 "checkpoint_budget_cycles"):
        patch.method(PowerSystem, attr, tally(f"energy.{attr}"))
    for monitor in (ADCMonitor, ComparatorMonitor):
        patch.method(monitor, "sample", tally("analog.sample"))
    patch.method(AttackSchedule, "source_at", tally("emi.source_at"))
    for path in (RemotePath, DPIPath):
        patch.method(path, "received_power_w", tally("emi.received_power"))
    patch.method(SusceptibilityCurve, "induced_amplitude",
                 tally("emi.induced_amplitude"))

    # eval: campaign orchestration and the resilient executor.
    patch.method(CampaignRunner, "run", span("eval.campaign.run"))
    patch.function("repro.eval.campaign", "execute_run",
                   span("eval.campaign.execute_run"))

    def executor_run(fn: Callable) -> Callable:
        def wrapper(self, tasks):
            tracer.begin("eval.executor.run", record=True)
            try:
                return fn(self, tasks)
            finally:
                tracer.end()
                tracer.count("eval.executor.retries", self.stats.retries)
        return wrapper

    def worker_install(fn: Callable) -> Callable:
        def wrapper(*args):
            tracer.enter_worker()
            return fn(*args)
        return wrapper

    def worker_task(fn: Callable) -> Callable:
        def wrapper(*args):
            tracer.begin("eval.executor.task", record=True, request=True)
            try:
                return fn(*args)
            finally:
                tracer.end()
                tracer.flush()
        return wrapper

    patch.method(ResilientExecutor, "run", executor_run)
    patch.method(ResilientExecutor, "_serial_task",
                 span("eval.executor.task", request=True))
    patch.function("repro.eval.resilient", "_install_worker", worker_install)
    patch.function("repro.eval.resilient", "_guarded_call", worker_task)
    for module, attr in (("repro.eval.campaign", "_init_worker"),
                         ("repro.exhaustive.mapper", "_fork_init"),
                         ("repro.torture.fuzz", "_init_worker")):
        patch.function(module, attr, span("eval.executor.worker_init"))

    # exhaustive, faultsim: the fault-map pipeline.
    patch.function("repro.exhaustive.mapper", "exhaustive_map",
                   span("exhaustive.map"))
    patch.function("repro.exhaustive.trace", "capture_trace",
                   span("exhaustive.trace"))
    patch.function("repro.exhaustive.reduce", "reduce_step_model",
                   span("exhaustive.reduce"))
    patch.function("repro.exhaustive.mapper", "classify_fork",
                   tally("exhaustive.fork"))
    patch.method(VulnerabilityMap, "fingerprint",
                 span("faultsim.report.fingerprint"))

    # store: content digests and the result store.
    for attr in ("content_digest", "run_digest", "task_digest"):
        patch.function("repro.store.digest", attr, tally("store.digest"))

    def store_get(fn: Callable) -> Callable:
        def wrapper(self, *args, **kwargs):
            tracer.begin("store.get")
            try:
                entry = fn(self, *args, **kwargs)
            finally:
                tracer.end()
            if entry is not None:
                tracer.count("store.get.hits")
            return entry
        return wrapper

    patch.method(ResultStore, "get", store_get)
    patch.method(ResultStore, "put", tally("store.put"))

    # torture: generation, the exact-cycle driver, shrinking.
    def run_schedule(fn: Callable) -> Callable:
        def wrapper(target, schedule, backend="interpreter", *args,
                    **kwargs):
            tracer.begin(f"torture.run_schedule.{backend}")
            try:
                return fn(target, schedule, backend, *args, **kwargs)
            finally:
                tracer.end()
        return wrapper

    patch.function("repro.torture.engine", "build_target",
                   span("torture.build_target"))
    patch.function("repro.torture.engine", "run_schedule", run_schedule)
    patch.function("repro.torture.fuzz", "generate_case",
                   tally("torture.generate"))
    patch.function("repro.torture.shrink", "shrink_schedule",
                   span("torture.shrink"))
    patch.function("repro.torture.fuzz", "make_repro_case",
                   span("torture.repro"))

    # obs: the event bus the time-triggered fault runs feed.
    patch.method(Observability, "emit", tally("obs.emit"))
    patch.method(Observability, "sample", tally("obs.sample"))
    return patch


def _ratio(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


def derive(tracer: Tracer, job: Dict[str, float]) -> Dict[str, float]:
    """Every per-layer metric, from the frames and the job's own counts.

    ``job`` carries what the job reports about itself: ``golden_steps``,
    ``step_enumerated``, ``representatives``, ``time_runs``, ``cases``,
    ``shrink_runs``, and ``wall_s``/``untraced_wall_s``.
    """
    t = tracer
    calls, total, own = t.calls, t.total_s, t.self_s
    counts = t.counts

    def family(prefix: str) -> List[str]:
        return [name for name in t.totals if name.startswith(prefix)]

    energy = family("energy.")
    emi = family("emi.")
    protocol = family("runtime.protocol.")
    schedules = family("torture.run_schedule.")
    instrs = counts.get("runtime.backend.instrs", 0)
    slices = calls("runtime.simulator.slice")
    gets = calls("store.get")
    layer_self = t.layer_self_s()
    out = {
        "core.compile.calls": calls("core.compile"),
        "core.compile.s": total("core.compile"),
        "runtime.backend.run_slice.calls":
            calls("runtime.backend.run_slice"),
        "runtime.backend.run_slice.s": total("runtime.backend.run_slice"),
        "runtime.backend.instrs": instrs,
        "runtime.machine.step.calls":
            counts.get("runtime.machine.step.calls", 0),
        "runtime.backend.stepped_frac":
            _ratio(counts.get("runtime.backend.stepped", 0), instrs),
        "runtime.backend.drain.calls": calls("runtime.backend.drain"),
        "runtime.backend.drain.s": total("runtime.backend.drain"),
        "runtime.protocol.checkpoints":
            calls("runtime.protocol.checkpoint"),
        "runtime.protocol.reboots": calls("runtime.protocol.reboot"),
        "runtime.protocol.s": sum(total(name) for name in protocol),
        "runtime.simulator.runs": calls("runtime.simulator.run"),
        "runtime.simulator.slices": slices,
        "runtime.simulator.self_s": own("runtime.simulator.run")
        + own("runtime.simulator.slice"),
        "runtime.simulator.host_us_per_slice":
            1e6 * _ratio(total("runtime.simulator.run"), slices),
        "energy.calls": sum(calls(name) for name in energy),
        "energy.s": sum(total(name) for name in energy),
        "analog.sample.calls": calls("analog.sample"),
        "analog.sample.s": total("analog.sample"),
        "emi.source_at.calls": calls("emi.source_at"),
        "emi.s": sum(total(name) for name in emi),
        "eval.campaign.runs": calls("eval.campaign.execute_run"),
        "eval.campaign.self_s": own("eval.campaign.run")
        + own("eval.campaign.execute_run"),
        "eval.executor.tasks": calls("eval.executor.task"),
        "eval.executor.retries": counts.get("eval.executor.retries", 0),
        "eval.executor.dispatch_s": own("eval.executor.run"),
        "eval.executor.worker_init_s": total("eval.executor.worker_init"),
        "exhaustive.trace.s": total("exhaustive.trace"),
        "exhaustive.golden_steps": job.get("golden_steps", 0),
        "exhaustive.reduce.s": total("exhaustive.reduce"),
        "exhaustive.reduce_frac": 1.0 - _ratio(
            job.get("representatives", 0), job["step_enumerated"])
        if job.get("step_enumerated") else 0.0,
        "exhaustive.forks": calls("exhaustive.fork"),
        "exhaustive.fork.s": total("exhaustive.fork"),
        "exhaustive.fork_instrs": counts.get("exhaustive.fork_instrs", 0),
        "exhaustive.machine.restore.calls":
            counts.get("exhaustive.machine.restore.calls", 0),
        "exhaustive.time_runs": job.get("time_runs", 0),
        "exhaustive.time.s": t.span_total_s("eval.campaign.run",
                                            within="exhaustive.map"),
        "faultsim.report.fingerprint.s":
            total("faultsim.report.fingerprint"),
        "store.digest.calls": calls("store.digest"),
        "store.digest.s": total("store.digest"),
        "store.get.calls": gets,
        "store.get.s": total("store.get"),
        "store.put.calls": calls("store.put"),
        "store.put.s": total("store.put"),
        "store.hit_frac": _ratio(counts.get("store.get.hits", 0), gets),
        "torture.cases": job.get("cases", 0),
        "torture.generate.s": total("torture.generate"),
        "torture.run_schedule.calls": sum(calls(name) for name in schedules),
        "torture.run_schedule.interpreter.s":
            total("torture.run_schedule.interpreter"),
        "torture.run_schedule.threaded.s":
            total("torture.run_schedule.threaded"),
        "torture.shrink.runs": job.get("shrink_runs", 0),
        "torture.shrink.s": total("torture.shrink"),
        "torture.repro.s": total("torture.repro"),
        "obs.emit.calls": calls("obs.emit"),
        "obs.s": total("obs.emit") + total("obs.sample"),
        "trace.unattributed_s": own("bench.setup") + own("bench.job"),
        "trace.overhead_s": job["wall_s"] - job["untraced_wall_s"],
    }
    for layer in LAYERS:
        out[f"layer.{layer}.self_s"] = layer_self.get(layer, 0.0)
    return out
