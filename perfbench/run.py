"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload attack-campaign --seed 0 \\
        --seconds 30 --trace 0

Run from the repository root.  ``--trace 0`` repeats the workload's job
for about ``--seconds`` seconds and reports the end-to-end metrics as the
medians over the repetitions; ``--trace 1`` runs the job once untraced and
once traced and reports the per-layer metrics.  The last line of standard
output is one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics``.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import sys
import tempfile
import time
from typing import Dict, List, Optional, Tuple

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
#: Scratch space for result stores and trace files, inside the checkout.
WORK_DIR = os.path.join(ROOT, ".bench_work")
DIGESTS = os.path.join(HERE, "digests.json")

#: Set-up is short, so it is repeated until both limits are met and the
#: median is reported.
SETUP_MIN_REPS = 3
SETUP_MIN_S = 1.0

END_TO_END: Tuple[Tuple[str, str], ...] = (
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("items_per_s", "1/s"),
    ("item_p50_ms", "ms"),
    ("peak_rss_mb", "MB"),
)


def check_digest(table: Dict[str, Dict[str, str]], workload: str,
                 seed: int, digest: str) -> Optional[str]:
    """A problem when ``digest`` differs from the one recorded for this
    workload and seed; None when it matches or none is recorded."""
    expected = table.get(workload, {}).get(str(seed))
    if expected is None or expected == digest:
        return None
    return (f"result digest {digest[:16]} differs from the recorded "
            f"{expected[:16]} for seed {seed}")


def time_setup(job) -> float:
    times: List[float] = []
    started = time.perf_counter()
    while len(times) < SETUP_MIN_REPS \
            or time.perf_counter() - started < SETUP_MIN_S:
        start = time.perf_counter()
        job.setup()
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def run_once(job):
    """One repetition without warm caches, and its summary.  The output is
    dropped once summarized, so a repetition's peak memory does not
    include the ones before it."""
    job.reset()
    rep = job.run()
    summary = job.summarize(rep)
    rep.output = None
    return rep, summary


def measure(job, seconds: float):
    """Repeat the job while another repetition fits in ``seconds``."""
    results = []
    started = time.perf_counter()
    while True:
        rep_start = time.perf_counter()
        results.append(run_once(job))
        rep_s = time.perf_counter() - rep_start
        if time.perf_counter() - started + rep_s > seconds:
            return results


def traced(job, workload: str, seed: int):
    """One untraced repetition, then set-up and one repetition traced;
    returns both (repetition, summary) pairs, the tracer, the worker count
    and the path the spans were written to."""
    import layers
    from tracing import Tracer

    untraced = run_once(job)
    worker_dir = tempfile.mkdtemp(prefix="workers-", dir=WORK_DIR)
    tracer = Tracer(worker_dir=worker_dir)
    patch = layers.install(tracer)
    try:
        tracer.begin("bench.setup", record=True, request=True)
        job.setup()
        tracer.end()
        job.reset()
        tracer.begin("bench.job", record=True, request=True)
        rep = job.run()
        tracer.end()
    finally:
        patch.restore()
    traced_result = (rep, job.summarize(rep))
    workers = tracer.merge_workers()
    shutil.rmtree(worker_dir, ignore_errors=True)
    path = os.path.join(WORK_DIR, f"trace-{workload}-{seed}.json")
    tracer.write(path)
    return untraced, traced_result, tracer, workers, path


def report_layers(metrics: Dict[str, float], rep, traced_s: float,
                  workers: int, path: str) -> None:
    import layers

    print(f"traced job: {rep.wall_s:.3f} s; tracing overhead "
          f"{metrics['trace.overhead_s']:+.3f} s (traced minus untraced "
          f"wall_s); spans written to {os.path.relpath(path, ROOT)}")
    print(f"pool worker spans merged from {workers} worker processes"
          if workers else "no pool workers ran")
    print(f"self time by layer over the traced set-up and job "
          f"({traced_s:.3f} s in this process; pool workers add theirs):")
    for layer in layers.LAYERS:
        own = metrics[f"layer.{layer}.self_s"]
        print(f"  {layer:<12} {own:9.4f} s  {100 * own / traced_s:5.1f}%")
    unattributed = metrics["trace.unattributed_s"]
    print(f"  {'unattributed':<12} {unattributed:9.4f} s  "
          f"{100 * unattributed / traced_s:5.1f}%")
    for name, unit in layers.JSON_METRICS + layers.REPORT_ONLY:
        print(f"  {name} = {metrics[name]:.6g} {unit}")


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"error: no program source at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import jobs
    import layers
    from stats import latency_summary, peak_rss_mb

    if args.workload not in jobs.JOBS:
        print(f"error: unknown workload {args.workload!r} (want one of "
              f"{', '.join(jobs.JOBS)})", file=sys.stderr)
        return 2
    os.makedirs(WORK_DIR, exist_ok=True)
    job = jobs.JOBS[args.workload](args.seed, WORK_DIR)
    setup_s = time_setup(job)

    if args.trace:
        untraced, traced_result, tracer, workers, path = traced(
            job, args.workload, args.seed)
        results = [untraced, traced_result]
    else:
        results = measure(job, args.seconds)
    reps = [rep for rep, _ in results]
    summaries = [summary for _, summary in results]

    with open(DIGESTS) as handle:
        table = json.load(handle)
    problems = list(dict.fromkeys(problem for summary in summaries
                                  for problem in summary.problems))
    digests = {summary.digest for summary in summaries}
    if len(digests) > 1:
        problems.append(f"repetitions disagree: digests {sorted(digests)}")
    for digest in digests:
        mismatch = check_digest(table, args.workload, args.seed, digest)
        if mismatch:
            problems.append(mismatch)

    first = summaries[0]
    print(f"{args.workload} seed {args.seed}: {len(reps)} repetitions"
          f"{' (the second traced)' if args.trace else ''}, "
          f"digest {first.digest}")
    untraced_summaries = summaries[:1] if args.trace else summaries
    for name, (value, unit) in first.figures.items():
        if unit in ("s", "1/s", "ms"):
            value = statistics.median(summary.figures[name][0]
                                      for summary in untraced_summaries)
        print(f"  {name} = {value:.6g} {unit}")
    print(f"  wall_s per repetition: "
          f"{[round(rep.wall_s, 3) for rep in reps]}")
    for note in first.notes:
        print(f"  {note}")
    for problem in problems:
        print(f"  PROBLEM: {problem}")

    if args.trace:
        rep = reps[1]
        counts = dict(summaries[1].layer_counts, wall_s=rep.wall_s,
                      untraced_wall_s=reps[0].wall_s)
        per_layer = layers.derive(tracer, counts)
        traced_s = tracer.total_s("bench.setup") + tracer.total_s("bench.job")
        report_layers(per_layer, rep, traced_s, workers, path)
        metrics = {name: {"value": per_layer[name], "unit": unit}
                   for name, unit in layers.JSON_METRICS}
    else:
        latencies = [latency_summary(rep.latencies_s) for rep in reps]
        values = {
            "setup_s": setup_s,
            "wall_s": statistics.median(rep.wall_s for rep in reps),
            "items_per_s": statistics.median(rep.items / rep.items_s
                                             for rep in reps),
            "item_p50_ms": statistics.median(lat["p50_ms"]
                                             for lat in latencies),
            "peak_rss_mb": peak_rss_mb(),
        }
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit in END_TO_END}
    print(json.dumps({
        "correct": not problems,
        "attempted": sum(rep.items for rep in reps),
        "failed": sum(rep.failed for rep in reps),
        "metrics": metrics,
    }))
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main())
