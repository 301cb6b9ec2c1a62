"""Fault-injection engine tests: specs, injector hooks, classification,
vulnerability maps, deterministic plans, and the NVP-vs-GECKO §VII-B3
checkpoint-corruption claim end to end."""

import json
from types import SimpleNamespace

import pytest

from repro.analog.monitor import MonitorEvent
from repro.eval.campaign import AttackSpec, PathSpec, RunSpec, execute_run
from repro.faultsim import (
    CKPT_CORRUPT,
    CKPT_TRUNCATE,
    CORRUPTION_OUTCOMES,
    FAULT_MODELS,
    FaultCampaignSpec,
    FaultInjector,
    FaultSimError,
    FaultSpec,
    IMAGE_PREFIX_WORDS,
    INSTR_SKIP,
    InjectionRecord,
    Outcome,
    REG_FLIP,
    SIGNAL_DROP,
    SIGNAL_SPURIOUS,
    VulnerabilityMap,
    classify,
    fault_victim,
    golden_pattern,
    image_word_label,
    run_fault_campaign,
)
from repro.runtime import SimResult
from repro.runtime.golden import GoldenTrace


# ----------------------------------------------------------------------
# FaultSpec: validation + serialization.
# ----------------------------------------------------------------------
class TestFaultSpec:
    def test_unknown_model_rejected(self):
        with pytest.raises(FaultSimError):
            FaultSpec(model="cosmic_ray", trigger_step=1)

    def test_step_models_need_trigger_step(self):
        with pytest.raises(FaultSimError):
            FaultSpec(model=REG_FLIP, trigger_time_s=0.1)
        with pytest.raises(FaultSimError):
            FaultSpec(model=INSTR_SKIP)

    def test_time_models_need_trigger_time(self):
        with pytest.raises(FaultSimError):
            FaultSpec(model=CKPT_CORRUPT, trigger_step=10)

    def test_round_trip(self):
        spec = FaultSpec(model=CKPT_CORRUPT, target=16, bit=14,
                         trigger_time_s=0.1, region="img:pc")
        assert FaultSpec.from_dict(spec.to_dict()) == spec

    def test_describe_names_the_image_word(self):
        spec = FaultSpec(model=CKPT_CORRUPT, target=16, bit=3,
                         trigger_time_s=0.1)
        assert "pc" in spec.describe()

    def test_image_word_labels(self):
        assert image_word_label(0) == "reg0"
        assert image_word_label(16) == "pc"
        assert image_word_label(17) == "sensor"
        assert image_word_label(18) == "outlen"
        assert image_word_label(IMAGE_PREFIX_WORDS) == "out0"


# ----------------------------------------------------------------------
# Injector hook mechanics (duck-typed, no simulator).
# ----------------------------------------------------------------------
class TestInjectorHooks:
    def test_reg_flip_fires_once_at_trigger(self):
        injector = FaultInjector(
            FaultSpec(model=REG_FLIP, target=3, bit=5, trigger_step=10))
        machine = SimpleNamespace(regs=[0] * 16, instr_count=9)
        assert injector.before_step(machine) is False
        assert machine.regs[3] == 0          # before the trigger: untouched
        machine.instr_count = 10
        assert injector.before_step(machine) is False
        assert machine.regs[3] == 1 << 5
        machine.instr_count = 11
        assert injector.before_step(machine) is False
        assert machine.regs[3] == 1 << 5     # one-shot: no second flip

    def test_instr_skip_requests_exactly_one_skip(self):
        injector = FaultInjector(
            FaultSpec(model=INSTR_SKIP, trigger_step=4))
        machine = SimpleNamespace(regs=[0] * 16, instr_count=4)
        assert injector.before_step(machine) is True
        assert injector.before_step(machine) is False

    def _writes(self):
        image = [("__jit_regs", i, 100 + i) for i in range(3)]
        return image + [("__jit_valid", 0, 1), ("__jit_ack", 0, 1)]

    def test_ckpt_truncate_cuts_budget_before_commit(self):
        injector = FaultInjector(
            FaultSpec(model=CKPT_TRUNCATE, target=2, trigger_time_s=0.0))
        writes, budget = injector.on_checkpoint(self._writes(), 50)
        assert budget == 2                   # image cut mid-way
        assert writes == self._writes()      # values untouched

    def test_ckpt_corrupt_flips_one_word_and_blocks_commit(self):
        injector = FaultInjector(
            FaultSpec(model=CKPT_CORRUPT, target=1, bit=7, trigger_time_s=0.0))
        writes, budget = injector.on_checkpoint(self._writes(), 50)
        assert writes[1] == ("__jit_regs", 1, 101 ^ (1 << 7))
        assert writes[0] == ("__jit_regs", 0, 100)
        # The whole image lands, but never the two commit markers.
        assert budget == 3
        again, budget2 = injector.on_checkpoint(self._writes(), 50)
        assert again == self._writes() and budget2 == 50   # one-shot

    def test_signal_drop_swallows_next_event(self):
        injector = FaultInjector(
            FaultSpec(model=SIGNAL_DROP, trigger_time_s=0.1))
        keep = injector.filter_monitor_event(
            MonitorEvent.CHECKPOINT, True, 0.05)
        assert keep is MonitorEvent.CHECKPOINT     # before the trigger
        dropped = injector.filter_monitor_event(
            MonitorEvent.CHECKPOINT, True, 0.2)
        assert dropped is MonitorEvent.NONE
        after = injector.filter_monitor_event(
            MonitorEvent.CHECKPOINT, True, 0.3)
        assert after is MonitorEvent.CHECKPOINT    # one-shot

    def test_signal_spurious_forges_state_appropriate_event(self):
        injector = FaultInjector(
            FaultSpec(model=SIGNAL_SPURIOUS, trigger_time_s=0.0))
        forged = injector.filter_monitor_event(MonitorEvent.NONE, True, 0.1)
        assert forged is MonitorEvent.CHECKPOINT
        injector = FaultInjector(
            FaultSpec(model=SIGNAL_SPURIOUS, trigger_time_s=0.0))
        forged = injector.filter_monitor_event(MonitorEvent.NONE, False, 0.1)
        assert forged is MonitorEvent.WAKE


# ----------------------------------------------------------------------
# Outcome classification against a synthetic golden reference.
# ----------------------------------------------------------------------
def _golden(completions=4):
    return SimResult(completions=completions, final_state="sleeping",
                     committed_outputs=[[7, 9]] * completions)


class TestClassifier:
    def test_masked(self):
        assert classify(_golden(), _golden()) is Outcome.MASKED

    def test_detected_on_checkpoint_failure(self):
        run = _golden()
        run.jit_checkpoint_failures = 1
        assert classify(run, _golden()) is Outcome.DETECTED

    def test_detected_on_attack_detection(self):
        run = _golden()
        run.attacks_detected = 2
        assert classify(run, _golden()) is Outcome.DETECTED

    def test_sdc_on_any_wrong_output(self):
        run = _golden()
        run.committed_outputs[2] = [7, 10]
        assert classify(run, _golden()) is Outcome.SDC

    def test_sdc_outranks_detection(self):
        run = _golden()
        run.committed_outputs[0] = [0, 0]
        run.attacks_detected = 5
        assert classify(run, _golden()) is Outcome.SDC

    def test_hang_on_collapsed_progress(self):
        run = _golden(completions=1)
        assert classify(run, _golden(completions=4)) is Outcome.HANG

    def test_brick_on_failed_state_or_fault(self):
        run = _golden()
        run.final_state = "failed"
        assert classify(run, _golden()) is Outcome.BRICK
        run = _golden()
        run.machine_fault = "program counter out of range"
        assert classify(run, _golden()) is Outcome.BRICK

    def test_missing_result_maps_errors(self):
        assert classify(None, _golden(),
                        "max_slices exceeded") is Outcome.HANG
        assert classify(None, _golden(), "KeyError: boom") is Outcome.BRICK

    def test_golden_pattern_rejects_bad_references(self):
        bad = _golden()
        bad.machine_fault = "trap"
        with pytest.raises(FaultSimError):
            golden_pattern(bad)
        with pytest.raises(FaultSimError):
            golden_pattern(SimResult(final_state="sleeping"))
        varying = _golden()
        varying.committed_outputs[1] = [1]
        with pytest.raises(FaultSimError):
            golden_pattern(varying)


# ----------------------------------------------------------------------
# VulnerabilityMap aggregation and serialization.
# ----------------------------------------------------------------------
def _sample_map():
    vmap = VulnerabilityMap(scheme="nvp", workload="crc16", seed=3)
    vmap.add(FaultSpec(model=CKPT_CORRUPT, target=16, trigger_time_s=0.1,
                       region="img:pc"), Outcome.BRICK)
    vmap.add(FaultSpec(model=CKPT_CORRUPT, target=2, trigger_time_s=0.2,
                       region="img:reg2"), Outcome.DETECTED)
    vmap.add(FaultSpec(model=REG_FLIP, target=1, trigger_step=5,
                       region="region:0"), Outcome.MASKED)
    return vmap


class TestVulnerabilityMap:
    def test_histogram_is_zero_filled(self):
        histogram = _sample_map().histogram(model=CKPT_CORRUPT)
        assert histogram["brick"] == 1 and histogram["detected"] == 1
        assert histogram["sdc"] == 0 and histogram["hang"] == 0

    def test_corruption_count_is_sdc_plus_brick(self):
        vmap = _sample_map()
        assert vmap.corruption_count() == 1
        assert vmap.corruption_count(model=REG_FLIP) == 0
        assert CORRUPTION_OUTCOMES == {Outcome.SDC, Outcome.BRICK}

    def test_json_round_trip_preserves_fingerprint(self):
        vmap = _sample_map()
        clone = VulnerabilityMap.from_dict(json.loads(vmap.to_json()))
        assert clone.fingerprint() == vmap.fingerprint()
        assert clone.records == vmap.records

    def test_merge_concatenates_records(self):
        vmap, other = _sample_map(), _sample_map()
        vmap.merge(other)
        assert vmap.total == 6 and vmap.corruption_count() == 2

    def test_render_mentions_scheme_and_rows(self):
        text = _sample_map().render()
        assert "scheme=nvp" in text
        assert "img:pc" in text and "ckpt_corrupt" in text

    def test_records_survive_raw_string_outcomes(self):
        record = InjectionRecord(
            fault=FaultSpec(model=INSTR_SKIP, trigger_step=1),
            outcome="sdc")
        assert InjectionRecord.from_dict(record.to_dict()) == record


# ----------------------------------------------------------------------
# Deterministic planning.
# ----------------------------------------------------------------------
def _golden_trace(steps, marks):
    return GoldenTrace(pcs=[0] * steps, marks=marks, isr_spans=[],
                       golden_out=(), golden_steps=steps,
                       golden_cycles=10 * steps)


class TestPlanning:
    def test_same_seed_same_plan(self):
        spec = FaultCampaignSpec(points=5, models=(CKPT_CORRUPT,
                                                   CKPT_TRUNCATE))
        assert spec.plan() == spec.plan()

    def test_different_seed_different_plan(self):
        base = FaultCampaignSpec(points=5, models=(CKPT_CORRUPT,), seed=0)
        other = FaultCampaignSpec(points=5, models=(CKPT_CORRUPT,), seed=1)
        assert base.plan() != other.plan()

    def test_rejects_unknown_models_and_zero_points(self):
        with pytest.raises(FaultSimError):
            FaultCampaignSpec(models=("gamma_burst",))
        with pytest.raises(FaultSimError):
            FaultCampaignSpec(points=0)

    def test_plan_covers_every_requested_model(self):
        spec = FaultCampaignSpec(points=2, models=(CKPT_CORRUPT,
                                                   SIGNAL_DROP))
        plan = spec.plan()
        assert len(plan) == 4
        assert {fault.model for fault in plan} == {CKPT_CORRUPT, SIGNAL_DROP}

    def test_plan_never_repeats_an_injection(self):
        """The RNG samples with replacement; a repeated draw is the same
        injection and must not be simulated (and counted) twice."""
        spec = FaultCampaignSpec(points=200, models=(INSTR_SKIP,), seed=0)
        plan = spec.plan()
        assert len(plan) == len(set(plan))
        # Collisions over a ~1000-step grid at 200 draws are a statistical
        # certainty: the plan must come back visibly deduplicated.
        assert len(plan) < 200

    def test_region_at_matches_linear_scan(self):
        regions = [0] * 7 + [1] * 3 + [2] * 1 + [1] * 5
        # One entry per MARK commit, including one that re-commits the
        # current region (step 13).
        marks = [(7, 70, 1), (10, 100, 2), (11, 110, 1), (13, 130, 1)]
        trace = _golden_trace(steps=len(regions), marks=marks)
        for step in range(len(regions)):
            assert trace.region_at(step) == regions[step]
        # Steps past the end wrap around (the run loops on real hardware).
        assert trace.region_at(len(regions)) == regions[0]
        assert trace.region_at(len(regions) + 9) == regions[9]

    def test_region_at_empty_profile_is_region_zero(self):
        assert _golden_trace(steps=0, marks=[]).region_at(123) == 0


# ----------------------------------------------------------------------
# End to end: the §VII-B3 claim, and serial/parallel bit-identity.
# ----------------------------------------------------------------------
def _run_with_fault(victim, compiled, fault):
    return execute_run(RunSpec(victim=victim, attack=AttackSpec.silent(),
                               path=PathSpec.remote(), fault=fault),
                       compiled)


class TestEndToEnd:
    def test_nvp_bricks_where_gecko_detects_pc_corruption(self):
        """An interrupted checkpoint that corrupts the saved PC: NVP
        restores it and traps; GECKO's ACK detection rolls back."""
        fault = FaultSpec(model=CKPT_CORRUPT, target=16, bit=14,
                          trigger_time_s=0.1, region="img:pc")
        verdicts = {}
        for scheme in ("nvp", "gecko"):
            victim = fault_victim(scheme=scheme)
            compiled = victim.compile()
            golden = _run_with_fault(victim, compiled, None)
            result = _run_with_fault(victim, compiled, fault)
            verdicts[scheme] = classify(result, golden)
        assert verdicts["nvp"] is Outcome.BRICK
        assert verdicts["gecko"] is Outcome.DETECTED

    def test_truncated_checkpoint_corrupts_nvp_only(self):
        fault = FaultSpec(model=CKPT_TRUNCATE, target=5,
                          trigger_time_s=0.12, region="img:partial")
        for scheme, allowed in (("nvp", None),
                                ("gecko", {Outcome.DETECTED,
                                           Outcome.MASKED})):
            victim = fault_victim(scheme=scheme)
            compiled = victim.compile()
            golden = _run_with_fault(victim, compiled, None)
            verdict = classify(_run_with_fault(victim, compiled, fault),
                               golden)
            if allowed is not None:
                assert verdict in allowed, scheme

    def test_campaign_serial_parallel_and_rerun_identical(self):
        spec = FaultCampaignSpec(
            victim=fault_victim(scheme="gecko", duration_s=0.15),
            models=(CKPT_TRUNCATE,), points=3, seed=7)
        serial = run_fault_campaign(spec, workers=1)
        again = run_fault_campaign(spec, workers=1)
        parallel = run_fault_campaign(spec, workers=2)
        assert serial.map.fingerprint() == again.map.fingerprint()
        assert serial.map.fingerprint() == parallel.map.fingerprint()
        assert serial.map.total == 3
        # The golden baseline is deduplicated, not re-run per injection.
        assert serial.campaign.stats.baseline_runs == 1

    def test_every_model_plans_and_runs_on_gecko(self):
        spec = FaultCampaignSpec(
            victim=fault_victim(scheme="gecko", duration_s=0.15),
            models=FAULT_MODELS, points=1, seed=2)
        campaign = run_fault_campaign(spec)
        assert campaign.map.total == len(FAULT_MODELS)
        # GECKO never corrupts under checkpoint-image or signal faults
        # (§VII-B3); architectural faults in the live core are outside
        # any crash-consistency scheme's defense perimeter.
        for model in (CKPT_CORRUPT, CKPT_TRUNCATE, SIGNAL_DROP,
                      SIGNAL_SPURIOUS):
            assert campaign.map.corruption_count(model=model) == 0
