"""Systematic fault injection with outcome classification (ARMORY-style).

The subsystem answers the question the paper's evaluation answers by
hand in §VII-B3 — *which* induced faults does each crash-consistency
scheme survive? — by sweeping a binary's injection space
(time/step × fault model × target), classifying every injected run
against a golden fault-free reference, and aggregating the verdicts into
per-scheme vulnerability maps:

* :mod:`~repro.faultsim.models`   — the fault vocabulary (Moro-style
  register/skip faults plus checkpoint-image and monitor-signal faults);
* :mod:`~repro.faultsim.injector` — one-shot delivery through the
  runtime layer's explicit hook points;
* :mod:`~repro.faultsim.classify` — {masked, detected, hang, sdc, brick}
  against :attr:`SimResult.committed_outputs` ground truth;
* :mod:`~repro.faultsim.explorer` — deterministic planning and campaign
  fan-out over :class:`~repro.eval.campaign.CampaignRunner`;
* :mod:`~repro.faultsim.report`   — :class:`VulnerabilityMap` with JSON
  serialization, merge, and ASCII rendering.
"""

from .classify import (
    CORRUPTION_OUTCOMES,
    OUTCOME_ORDER,
    Outcome,
    classify,
    detection_signals,
    golden_pattern,
)
from .explorer import (
    DEFAULT_POINTS,
    FaultCampaign,
    FaultCampaignSpec,
    fault_victim,
    run_fault_campaign,
    scheme_comparison,
)
from .injector import FaultInjector
from .models import (
    CKPT_CORRUPT,
    CKPT_MODELS,
    CKPT_TRUNCATE,
    FAULT_MODELS,
    FaultSimError,
    FaultSpec,
    IMAGE_PREFIX_WORDS,
    INSTR_SKIP,
    REG_FLIP,
    SIGNAL_DROP,
    SIGNAL_MODELS,
    SIGNAL_SPURIOUS,
    STEP_MODELS,
    image_word_label,
)
from .report import InjectionRecord, VulnerabilityMap

__all__ = [
    "CKPT_CORRUPT", "CKPT_MODELS", "CKPT_TRUNCATE", "CORRUPTION_OUTCOMES",
    "DEFAULT_POINTS", "FAULT_MODELS", "FaultCampaign",
    "FaultCampaignSpec", "FaultInjector", "FaultSimError", "FaultSpec",
    "IMAGE_PREFIX_WORDS", "INSTR_SKIP", "InjectionRecord", "OUTCOME_ORDER",
    "Outcome", "REG_FLIP", "SIGNAL_DROP", "SIGNAL_MODELS",
    "SIGNAL_SPURIOUS", "STEP_MODELS", "VulnerabilityMap", "classify",
    "detection_signals", "fault_victim", "golden_pattern",
    "image_word_label", "run_fault_campaign",
    "scheme_comparison",
]
