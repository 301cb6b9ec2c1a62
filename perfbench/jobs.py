"""The benchmark's three workloads, each a closed-loop batch job.

Every job runs in one process (faultmap adds a two-worker pool), issues
its next unit of work only when the previous one is done, and builds its
inputs from the workload seed alone:

* ``attack-campaign`` -- every registered workload x {nvp, ratchet,
  gecko} on the outage-driven rig, under a silent baseline, a continuous
  tone at the resonant peak and seed-drawn burst windows;
* ``faultmap`` -- an exhaustive crc32/NVP fault map over all six fault
  models with a seed-drawn flipped-bit subset, cold into a fresh result
  store, then re-mapped warm from the same store;
* ``torture`` -- the crash-consistency fuzzer over every scheme contract
  x {crc32, heartbeat}, interpreter primary with the threaded mirror,
  shrinking on.

Program functions are called through their package, as in
``exhaustive.exhaustive_map``, so the traced run's wrappers see them.

A job's ``run`` is the timed part and returns a :class:`Rep`;
``summarize`` digests and checks the rep afterwards, outside any timing
or tracing.  ``setup`` compiles every target; ``reset`` drops the warm
caches a previous repetition left behind.
"""

from __future__ import annotations

import contextlib
import random
import shutil
import tempfile
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Iterator, List, Tuple

from repro.eval.campaign import AttackSpec, CampaignRunner, ExperimentSpec
from repro.eval.campaign import PathSpec
from repro.eval.resilient import ResilientExecutor
from repro import exhaustive, torture
from repro.exhaustive import ExhaustiveSpec
from repro.faultsim import INSTR_SKIP, REG_FLIP, fault_victim
from repro.runtime import SimResult, threaded
from repro.store import ResultStore
from repro.store.digest import content_digest
from repro.torture import TortureSpec, engine
from repro.torture.oracles import BACKEND_EQUIV
from repro.workloads import REGISTRY, expected_output

from stats import geomean, latency_summary

#: A named figure: (value, unit).
Figure = Tuple[float, str]


@dataclass
class Rep:
    """One timed repetition of a job."""

    wall_s: float
    #: Work items attempted and the seconds they took (the throughput
    #: window: the whole job, or faultmap's cold map).
    items: int
    items_s: float
    failed: int
    output: Any
    #: Host latency of every task the program's executor ran.
    latencies_s: List[float] = field(default_factory=list)
    timings: Dict[str, float] = field(default_factory=dict)


@dataclass
class Summary:
    """What a rep produced, checked: digest, named figures, problems."""

    digest: str
    figures: Dict[str, Figure]
    problems: List[str]
    #: Job-reported counts the per-layer metrics need.
    layer_counts: Dict[str, float]
    notes: List[str] = field(default_factory=list)


@contextlib.contextmanager
def task_latencies(keep: Callable[[Any], bool] = lambda result: True
                   ) -> Iterator[List[float]]:
    """Collect the elapsed time the executor records for every task whose
    :class:`~repro.eval.resilient.TaskResult` passes ``keep``."""
    original = ResilientExecutor.run
    samples: List[float] = []

    def run(self, tasks):
        results = original(self, tasks)
        samples.extend(result.elapsed_s for result in results
                       if keep(result))
        return results

    ResilientExecutor.run = run
    try:
        yield samples
    finally:
        ResilientExecutor.run = original


def drop_block_cache() -> None:
    """Forget every compiled threaded block: each process pays codegen."""
    threaded._CACHES.clear()


# ----------------------------------------------------------------------
class AttackCampaign:
    """The experiment behind every paper figure, on every target."""

    name = "attack-campaign"
    SCHEMES = ("nvp", "ratchet", "gecko")
    DURATION_S = 0.05
    BURSTS = 3
    BURST_DUTY = 0.3

    def __init__(self, seed: int, work_dir: str) -> None:
        self.windows = burst_windows(seed, self.BURSTS, self.BURST_DUTY)
        self.victims = [fault_victim(workload, scheme,
                                     duration_s=self.DURATION_S,
                                     backend="threaded")
                        for workload in REGISTRY for scheme in self.SCHEMES]
        self.compiled: Dict[Any, Any] = {}

    def setup(self) -> None:
        self.compiled = {victim.compile_key(): victim.compile()
                         for victim in self.victims}

    def reset(self) -> None:
        drop_block_cache()

    def run(self) -> Rep:
        spec = ExperimentSpec(
            name="perfbench-attack-campaign", victim=self.victims[0],
            attack=AttackSpec.silent(), path=PathSpec.remote(),
            sweep={"victim": self.victims,
                   "attack": [AttackSpec.tone(),
                              AttackSpec.bursts(self.windows)]},
            baseline=True)
        runner = CampaignRunner(workers=1, compile_cache=dict(self.compiled))
        start = time.perf_counter()
        campaign = runner.run(spec)
        wall = time.perf_counter() - start
        runs = campaign.baselines + campaign.outcomes
        return Rep(wall_s=wall, items=len(runs), items_s=wall,
                   failed=sum(1 for run in runs if run.error),
                   output=campaign,
                   latencies_s=[run.elapsed_s for run in runs])

    def summarize(self, rep: Rep) -> Summary:
        campaign = rep.output
        problems = [f"run failed: {run.error}"
                    for run in campaign.failures()]
        digest = content_digest([
            run.result.to_dict() if run.result is not None else run.error
            for run in campaign.baselines + campaign.outcomes])
        baseline: Dict[Tuple[str, str], Any] = {}
        tone_rate: Dict[Tuple[str, str], float] = {}
        for outcome in campaign.outcomes:
            victim = outcome.params["victim"]
            key = (victim.workload, victim.scheme)
            baseline[key] = outcome.baseline
            if outcome.params["attack"].windows is None:
                tone_rate[key] = outcome.progress_rate or 0.0
        for (workload, scheme), result in baseline.items():
            if result is None or result.completions == 0:
                problems.append(f"{workload}/{scheme}: silent baseline "
                                f"completed nothing")
                continue
            golden = expected_output(workload)
            if any(out != golden for out in result.committed_outputs):
                problems.append(f"{workload}/{scheme}: silent baseline "
                                f"committed a wrong output")
        overhead = []
        for workload in REGISTRY:
            nvp, gecko = baseline.get((workload, "nvp")), \
                baseline.get((workload, "gecko"))
            if nvp and gecko and nvp.completions and gecko.completions:
                overhead.append(cycles_per_completion(gecko)
                                / cycles_per_completion(nvp))
        latency = latency_summary(rep.latencies_s)
        return Summary(
            digest=digest,
            figures={
                "runs_per_s": (rep.items / rep.wall_s, "1/s"),
                "run_p50_ms": (latency["p50_ms"], "ms"),
                "run_tail_ms": (latency["tail_ms"], "ms"),
                "failed_frac": (rep.failed / rep.items, "ratio"),
                "gecko_overhead_x": (geomean(overhead), "x"),
                "gecko_attack_progress": (
                    geomean([tone_rate[(w, "gecko")] for w in REGISTRY]),
                    "ratio"),
            },
            problems=problems,
            layer_counts={},
            notes=[latency_line("run", rep.latencies_s),
                   f"burst windows (fractions of the run): "
                   f"{list(self.windows)}"])


def burst_windows(seed: int, count: int,
                  duty: float) -> Tuple[Tuple[float, float], ...]:
    """``count`` equal windows covering ``duty`` of the run, one placed at
    a seed-drawn offset inside each of ``count`` equal slots."""
    rng = random.Random(f"attack-campaign:{seed}")
    slot = 1.0 / count
    length = duty / count
    windows = []
    for index in range(count):
        start = round(index * slot + rng.uniform(0.0, slot - length), 6)
        windows.append((start, round(start + length, 6)))
    return tuple(windows)


def cycles_per_completion(result) -> float:
    """Simulated cycles (application plus runtime overhead) per run."""
    return (result.executed_cycles + result.overhead_cycles) \
        / result.completions


def latency_line(item: str, samples_s: List[float]) -> str:
    summary = latency_summary(samples_s)
    return (f"{item} latency: p50 {summary['p50_ms']:.3f} ms, "
            f"p{summary['tail_pct']} {summary['tail_ms']:.3f} ms "
            f"over {summary['n']} {item}s")


# ----------------------------------------------------------------------
class FaultMap:
    """A complete fault map: forks, reduction, pool and result store."""

    name = "faultmap"
    WORKLOAD = "crc32"
    WORKERS = 2
    BITS = 3
    DURATION_S = 0.05

    def __init__(self, seed: int, work_dir: str) -> None:
        # One bit from each third of the word, so every seed mixes low,
        # middle and high bits alike.
        rng = random.Random(f"faultmap:{seed}")
        bands = [range(32 * band // self.BITS, 32 * (band + 1) // self.BITS)
                 for band in range(self.BITS)]
        self.bits = tuple(rng.choice(band) for band in bands)
        self.spec = ExhaustiveSpec(
            victim=fault_victim(self.WORKLOAD, "nvp",
                                duration_s=self.DURATION_S,
                                backend="threaded"),
            bits=self.bits, ckpt_windows=1, signal_slots=8)
        self.work_dir = work_dir
        self.compiled: Dict[Any, Any] = {}

    def setup(self) -> None:
        victim = self.spec.victim
        self.compiled = {victim.compile_key(): victim.compile()}

    def reset(self) -> None:
        drop_block_cache()

    def _map(self, store: ResultStore):
        runner = CampaignRunner(workers=self.WORKERS, store=store,
                                compile_cache=dict(self.compiled))
        result = exhaustive.exhaustive_map(
            self.spec, workers=self.WORKERS, store=store, runner=runner)
        return result, result.map.fingerprint()

    def run(self) -> Rep:
        root = tempfile.mkdtemp(prefix="store-", dir=self.work_dir)
        try:
            store = ResultStore(root)
            try:
                # Item latency: the time-triggered runs, which re-simulate
                # the window from reset.  Fork chunks are a second, faster
                # population; mixing both would put the median between them.
                with task_latencies(keep=lambda result: isinstance(
                        result.result, SimResult)) as latencies:
                    start = time.perf_counter()
                    cold = self._map(store)
                    middle = time.perf_counter()
                    warm = self._map(store)
                    end = time.perf_counter()
            finally:
                store.close()
        finally:
            shutil.rmtree(root, ignore_errors=True)
        items = cold[0].stats.total_enumerated
        return Rep(wall_s=end - start, items=items, items_s=middle - start,
                   failed=0, output=(cold, warm),
                   latencies_s=list(latencies),
                   timings={"cold_s": middle - start, "warm_s": end - middle})

    def summarize(self, rep: Rep) -> Summary:
        (cold, cold_fp), (warm, warm_fp) = rep.output
        stats = cold.stats
        problems = []
        if warm_fp != cold_fp:
            problems.append("warm re-map fingerprint differs from cold")
        if warm.stats.executed_simulations:
            problems.append(f"warm re-map simulated "
                            f"{warm.stats.executed_simulations} injections")
        if stats.enumerated.get(REG_FLIP) != \
                stats.golden_steps * 16 * len(self.bits):
            problems.append("reg_flip space is incomplete")
        step_enumerated = sum(stats.enumerated.get(model, 0)
                              for model in (REG_FLIP, INSTR_SKIP))
        return Summary(
            digest=cold_fp,
            figures={
                "injections_per_s": (rep.items / rep.items_s, "1/s"),
                "cold_s": (rep.timings["cold_s"], "s"),
                "warm_s": (rep.timings["warm_s"], "s"),
                "failed_frac": (rep.failed / rep.items, "ratio"),
                "simulations": (stats.executed_simulations, "count"),
                "reduction_x": (stats.reduction_factor(), "x"),
            },
            problems=problems,
            layer_counts={
                "golden_steps": stats.golden_steps,
                "step_enumerated": step_enumerated,
                "representatives": stats.representatives,
                "time_runs": stats.campaign_executed
                + warm.stats.campaign_executed,
            },
            notes=[latency_line("time-triggered run", rep.latencies_s),
                   f"flipped bits {list(self.bits)}; {rep.items} "
                   f"injections enumerated, {stats.executed_simulations} "
                   f"simulated cold, {warm.stats.executed_simulations} "
                   f"warm"])


# ----------------------------------------------------------------------
class Torture:
    """The crash-consistency fuzzer over every scheme contract."""

    name = "torture"
    SCHEMES = ("nvp", "ratchet", "gecko-jit", "gecko-rollback")
    #: Cases per scheme.  A few heartbeat cases run to the step watchdog,
    #: so its share of the job swings with the seed; the kernel's steadier
    #: cases carry most of the job.  Heartbeat keeps the 30 cases per
    #: scheme that reach its known golden_output violations on seed 0.
    CASES = {"crc32": 270, "heartbeat": 30}

    def __init__(self, seed: int, work_dir: str) -> None:
        self.specs = [TortureSpec(workload=workload, scheme=scheme,
                                  seed=seed, cases=cases,
                                  backend="interpreter",
                                  check_backends=True, shrink=True)
                      for workload, cases in self.CASES.items()
                      for scheme in self.SCHEMES]
        self.targets: Dict[Any, Any] = {}

    def setup(self) -> None:
        engine._TARGET_CACHE.clear()
        for spec in self.specs:
            torture.build_target(spec.workload, spec.scheme,
                                 region_budget=spec.region_budget)
        self.targets = dict(engine._TARGET_CACHE)

    def reset(self) -> None:
        drop_block_cache()
        engine._TARGET_CACHE.clear()
        engine._TARGET_CACHE.update(self.targets)

    def run(self) -> Rep:
        with task_latencies() as latencies:
            start = time.perf_counter()
            reports = [torture.run_campaign(spec) for spec in self.specs]
            wall = time.perf_counter() - start
        cases = sum(len(report.cases) for report in reports)
        return Rep(wall_s=wall, items=cases, items_s=wall,
                   failed=sum(report.errors for report in reports),
                   output=reports, latencies_s=list(latencies))

    def summarize(self, rep: Rep) -> Summary:
        problems, notes, digest_rows = [], [], []
        violations = 0
        for report in rep.output:
            spec = report.spec
            combo = f"{spec.workload}/{spec.scheme}"
            if report.errors:
                problems.append(f"{combo}: {report.errors} cases hit "
                                f"infrastructure errors")
            for case in report.cases:
                if not case.violating:
                    continue
                violations += 1
                oracles = sorted(case.outcome.oracles())
                if BACKEND_EQUIV in oracles:
                    problems.append(f"{combo} case {case.index}: "
                                    f"interpreter and threaded diverge")
                events = (case.shrunk or case.schedule).to_dicts()
                notes.append(f"violation {combo} case {case.index} "
                             f"{','.join(oracles)}: shrunk to {events}")
            digest_rows.append([
                spec.workload, spec.scheme, report.fingerprint,
                [list(repro.events) for repro in report.repro_cases]])
        return Summary(
            digest=content_digest(digest_rows),
            figures={
                "cases_per_s": (rep.items / rep.wall_s, "1/s"),
                "violations": (violations, "count"),
                "failed_frac": (rep.failed / rep.items, "ratio"),
            },
            problems=problems,
            layer_counts={
                "cases": rep.items,
                "shrink_runs": sum(case.shrink_runs for report in rep.output
                                   for case in report.cases),
            },
            notes=[latency_line("case", rep.latencies_s)] + notes)


JOBS = {job.name: job for job in (AttackCampaign, FaultMap, Torture)}
