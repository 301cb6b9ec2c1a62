"""Tests for the benchmark's own code: statistics, tracing, checks.

    python3 -m pytest perfbench -q
"""

import io
import json
import os
import sys
from contextlib import redirect_stdout

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import layers  # noqa: E402
import run  # noqa: E402
from stats import latency_summary, nearest_rank, tail_percentile  # noqa
from tracing import Patcher, Tracer, framed  # noqa: E402


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


# -- percentiles ---------------------------------------------------------
@pytest.mark.parametrize("n, pct", [(20, 50), (100, 90), (126, 92),
                                    (179, 94), (240, 95), (1000, 99)])
def test_tail_leaves_ten_samples_beyond(n, pct):
    assert tail_percentile(n) == pct
    rank = -(-pct * n // 100)
    assert n - rank >= 10
    # One percentile higher would leave fewer than ten beyond.
    if pct < 99:
        assert n - -(-(pct + 1) * n // 100) < 10


def test_too_few_samples_have_no_tail():
    assert tail_percentile(19) is None
    with pytest.raises(ValueError):
        latency_summary([0.001] * 19)


def test_latency_summary_reports_percentile_and_count():
    samples = [ms / 1e3 for ms in range(1, 101)]
    summary = latency_summary(list(reversed(samples)))
    assert summary == {"p50_ms": pytest.approx(50.5),
                       "tail_ms": pytest.approx(90.0),
                       "tail_pct": 90, "n": 100}
    assert nearest_rank(list(range(1, 11)), 50) == 5


# -- self time -------------------------------------------------------------
def test_self_time_is_duration_minus_child_coverage():
    clock = FakeClock()
    tracer = Tracer(clock=clock)
    tracer.begin("bench.job", record=True, request=True)   # t=0
    clock.now = 1.0
    tracer.begin("eval.campaign.run", record=True)          # t=1
    clock.now = 2.0
    tracer.begin("runtime.backend.run_slice")               # t=2
    clock.now = 5.0
    tracer.end()                                            # 3 s
    clock.now = 6.0
    tracer.begin("runtime.backend.run_slice")               # t=6
    clock.now = 7.0
    tracer.end()                                            # 1 s
    clock.now = 8.0
    tracer.end()                                            # campaign: 7 s
    clock.now = 10.0
    tracer.end()                                            # job: 10 s
    assert tracer.total_s("runtime.backend.run_slice") == 4.0
    assert tracer.calls("runtime.backend.run_slice") == 2
    assert tracer.self_s("eval.campaign.run") == 3.0
    assert tracer.self_s("bench.job") == 3.0
    assert tracer.layer_self_s() == {"bench": 3.0, "eval": 3.0,
                                     "runtime": 4.0}
    job, campaign = sorted(tracer.spans, key=lambda span: span["start"])
    assert campaign["parent"] == job["id"]
    assert campaign["request"] == job["id"] == job["request"]


def test_nested_same_name_frames_count_once():
    clock = FakeClock()
    tracer = Tracer(clock=clock)
    tracer.begin("store.digest")
    clock.now = 1.0
    tracer.begin("store.digest")
    clock.now = 3.0
    tracer.end()
    clock.now = 4.0
    tracer.end()
    assert tracer.calls("store.digest") == 1
    assert tracer.total_s("store.digest") == 4.0
    assert tracer.self_s("store.digest") == 4.0


def test_span_total_within_an_ancestor():
    clock = FakeClock()
    tracer = Tracer(clock=clock)
    tracer.begin("eval.campaign.run", record=True)
    clock.now = 1.0
    tracer.end()
    tracer.begin("exhaustive.map", record=True)
    tracer.begin("eval.campaign.run", record=True)
    clock.now = 3.0
    tracer.end()
    tracer.end()
    assert tracer.span_total_s("eval.campaign.run",
                               within="exhaustive.map") == 2.0


def test_worker_totals_merge_into_the_parent(tmp_path):
    parent = Tracer(worker_dir=str(tmp_path))
    worker = Tracer(worker_dir=str(tmp_path))
    worker.pid = 4242
    worker.begin("eval.executor.task", record=True, request=True)
    worker.count("runtime.backend.instrs", 7)
    worker.end()
    worker.flush()
    parent.count("runtime.backend.instrs", 3)
    assert parent.merge_workers() == 1
    assert parent.counts["runtime.backend.instrs"] == 10
    assert parent.calls("eval.executor.task") == 1
    assert [span["pid"] for span in parent.spans] == [4242]


def test_reset_keeps_the_dicts_wrappers_hold():
    tracer = Tracer()
    counts, depth = tracer.counts, tracer.depth
    tracer.count("x")
    tracer.enter_worker()
    assert tracer.counts is counts and tracer.depth is depth
    assert counts == {}


# -- patching ----------------------------------------------------------------
def test_patcher_reaches_from_imports_and_restores():
    from repro.exhaustive import mapper, trace

    original = trace.capture_trace
    tracer = Tracer()
    patch = Patcher()
    patch.function("repro.exhaustive.trace", "capture_trace",
                   framed(tracer, "exhaustive.trace"))
    try:
        assert mapper.capture_trace is trace.capture_trace
        assert mapper.capture_trace is not original
        assert mapper.capture_trace.__qualname__ == original.__qualname__
    finally:
        patch.restore()
    assert mapper.capture_trace is original is trace.capture_trace


def test_install_wraps_and_restores_every_layer():
    from repro.runtime import Machine, ThreadedBackend

    step, run_slice = Machine.step, ThreadedBackend.run_slice
    patch = layers.install(Tracer())
    try:
        assert Machine.step is not step
        assert ThreadedBackend.run_slice is not run_slice
    finally:
        patch.restore()
    assert Machine.step is step
    assert ThreadedBackend.run_slice is run_slice


def test_derive_gives_every_listed_metric():
    tracer = Tracer()
    metrics = layers.derive(tracer, {"wall_s": 2.0, "untraced_wall_s": 1.5})
    for name, _ in layers.JSON_METRICS + layers.REPORT_ONLY:
        assert name in metrics
    assert metrics["trace.overhead_s"] == 0.5


# -- correctness checks -------------------------------------------------------
def test_digest_mismatch_is_a_problem():
    table = {"torture": {"0": "a" * 64}}
    assert run.check_digest(table, "torture", 0, "a" * 64) is None
    assert run.check_digest(table, "torture", 5, "b" * 64) is None
    assert "differs" in run.check_digest(table, "torture", 0, "b" * 64)


class _FakeJob:
    """A job whose output digest is fixed, for the end-to-end check."""

    name = "fake"

    def __init__(self, seed, work_dir):
        self.seed = seed

    def setup(self):
        pass

    def reset(self):
        pass

    def run(self):
        from jobs import Rep

        return Rep(wall_s=0.01, items=20, items_s=0.01, failed=0,
                   output=None, latencies_s=[0.001] * 20)

    def summarize(self, rep):
        from jobs import Summary

        return Summary(digest="d" * 64, figures={}, problems=[],
                       layer_counts={})


def _run_fake(monkeypatch, tmp_path, table):
    import jobs

    digests = tmp_path / "digests.json"
    digests.write_text(json.dumps(table))
    monkeypatch.setattr(jobs, "JOBS", {"fake": _FakeJob})
    monkeypatch.setattr(run, "DIGESTS", str(digests))
    monkeypatch.setattr(run, "WORK_DIR", str(tmp_path / "work"))
    monkeypatch.setattr(run, "SETUP_MIN_S", 0.0)
    out = io.StringIO()
    with redirect_stdout(out):
        code = run.main(["--workload", "fake", "--seed", "0",
                         "--seconds", "0"])
    return code, json.loads(out.getvalue().splitlines()[-1])


def test_recorded_digest_passes(monkeypatch, tmp_path):
    code, result = _run_fake(monkeypatch, tmp_path,
                             {"fake": {"0": "d" * 64}})
    assert code == 0 and result["correct"] is True
    assert set(result["metrics"]) == {name for name, _ in run.END_TO_END}


def test_digest_mismatch_fails_the_run(monkeypatch, tmp_path):
    code, result = _run_fake(monkeypatch, tmp_path,
                             {"fake": {"0": "e" * 64}})
    assert code == 1 and result["correct"] is False


# -- the benchmark definition ------------------------------------------------
def test_benchmark_json_matches_the_code():
    import jobs

    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    assert [w["name"] for w in spec["workloads"]] == list(jobs.JOBS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] \
        == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] \
        == list(layers.JSON_METRICS)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    assert bounds["setup_s"] == max(bounds.values()) <= 0.25
