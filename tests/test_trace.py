"""Tracer tests: recording, queries, rendering, simulator integration."""

import pytest

from repro import compile_gecko, compile_nvp
from repro.emi import AttackSchedule, EMISource, device
from repro.energy import Capacitor, PowerSystem, SquareWaveHarvester
from repro.obs import Observability
from repro.runtime import (
    IntermittentSimulator,
    Machine,
    SimConfig,
    Tracer,
    runtime_for,
)

SRC = """
void main() {
    int s = 0;
    for (int i = 0; i < 40; i = i + 1) { s = s + i * i; }
    out(s);
}
"""


class TestTracerUnit:
    def test_sample_rate_limiting(self):
        tracer = Tracer(sample_period_s=0.01)
        for i in range(100):
            tracer.sample(i * 0.001, 3.0, "running")
        assert len(tracer.samples) <= 11

    def test_sample_deadlines_snap_to_the_period_grid(self):
        """Irregular arrivals must not drift the sampling phase: each
        accepted sample schedules the next deadline at the following
        multiple of the period, not at ``t + period``."""
        period = 0.01
        tracer = Tracer(sample_period_s=period)
        # Arrivals land just after each grid line (jitter 40% of a period);
        # the pre-fix ``t + period`` rule would accumulate that jitter and
        # skip grid lines, recording fewer samples over a long trace.
        times = [k * period + 0.004 for k in range(50)]
        for t in times:
            tracer.sample(t, 3.0, "running")
        assert len(tracer.samples) == 50
        for t, _, _ in tracer.samples:
            offset = t % period
            assert min(offset, period - offset) == pytest.approx(
                0.004, abs=1e-9)

    def test_sample_exact_grid_arrivals_all_recorded(self):
        period = 0.01
        tracer = Tracer(sample_period_s=period)
        for k in range(100):
            tracer.sample(k * period, 3.0, "running")
        # Floating-point floor(t/period) landing on t itself must not
        # wedge the deadline: every grid-aligned arrival is recorded.
        assert len(tracer.samples) == 100

    def test_truncation_is_flagged_not_silent(self):
        tracer = Tracer(sample_period_s=0.0, max_samples=5)
        for i in range(10):
            tracer.sample(i * 0.001, 3.0, "running")
        assert len(tracer.samples) == 5
        assert tracer.truncated
        assert "TRUNCATED" in tracer.render()

    def test_no_truncation_flag_under_the_cap(self):
        tracer = Tracer(sample_period_s=0.0, max_samples=5)
        for i in range(5):
            tracer.sample(i * 0.001, 3.0, "running")
        assert not tracer.truncated
        assert "TRUNCATED" not in tracer.render()

    def test_event_queries(self):
        tracer = Tracer()
        tracer.event(0.1, "reboot")
        tracer.event(0.2, "checkpoint")
        tracer.event(0.3, "reboot")
        assert tracer.count("reboot") == 2
        assert tracer.events_of("checkpoint")[0].t == 0.2
        assert tracer.count("nothing") == 0

    def test_voltage_at(self):
        tracer = Tracer(sample_period_s=0.0)
        tracer.sample(0.0, 3.3, "running")
        tracer.sample(1.0, 2.5, "sleeping")
        assert tracer.voltage_at(0.5) == 3.3
        assert tracer.voltage_at(1.5) == 2.5
        assert tracer.voltage_at(-1.0) is None

    def test_state_occupancy(self):
        tracer = Tracer(sample_period_s=0.0)
        tracer.sample(0.0, 3.0, "running")
        tracer.sample(0.1, 3.0, "running")
        tracer.sample(0.2, 3.0, "off")
        occupancy = tracer.state_occupancy()
        assert occupancy["running"] == pytest.approx(2 / 3)
        assert occupancy["off"] == pytest.approx(1 / 3)

    def test_render_empty_and_full(self):
        tracer = Tracer()
        assert "no samples" in tracer.render()
        tracer.sample(0.0, 3.3, "running")
        tracer.event(0.0, "reboot")
        chart = tracer.render(width=40, thresholds=[2.6])
        assert "*" in chart
        assert "^" in chart
        assert "-" in chart  # threshold line

    def test_max_samples_cap(self):
        tracer = Tracer(sample_period_s=0.0, max_samples=10)
        for i in range(100):
            tracer.sample(i * 0.001, 3.0, "running")
        assert len(tracer.samples) == 10


class TestTracerIntegration:
    def _sim(self, program, tracer, attack=None):
        power = PowerSystem(
            capacitor=Capacitor(22e-6),
            harvester=SquareWaveHarvester(on_power_w=6e-3, period_s=0.02,
                                          duty=0.4),
        )
        obs = Observability.for_tracing()
        tracer.subscribe(obs.bus)
        return IntermittentSimulator(
            machine=Machine(program.linked),
            runtime=runtime_for(program),
            power=power,
            attack=attack,
            config=SimConfig(quantum=64, sleep_min_s=1e-3),
            obs=obs,
        )

    def test_benign_run_records_duty_cycle(self):
        tracer = Tracer(sample_period_s=2e-4)
        sim = self._sim(compile_nvp(SRC), tracer)
        result = sim.run(0.15)
        assert tracer.count("completion") == result.completions
        assert tracer.count("reboot") == result.reboots
        occupancy = tracer.state_occupancy()
        assert occupancy.get("running", 0) > 0.2
        # The square-wave outages force non-running time too.
        assert occupancy.get("running", 1.0) < 1.0
        chart = tracer.render(thresholds=[2.6, 3.0])
        assert "o" in chart or "C" in chart

    def test_detection_event_traced(self):
        tracer = Tracer(sample_period_s=2e-4)
        program = compile_gecko(SRC, region_budget=20_000)
        freq = device("TI-MSP430FR5994").adc_curve.peak_frequency()
        sim = self._sim(program, tracer,
                        attack=AttackSchedule.always(EMISource(freq, 35)))
        result = sim.run(0.15)
        assert tracer.count("detection") == result.attacks_detected
        assert result.attacks_detected >= 1
