"""Tests for the runtime contract layer (repro.lint.contracts)."""

import numpy as np
import pytest

from repro.core import build_engine
from repro.hardware.timeline import GPU, Timeline
from repro.lint.contracts import (
    ContractViolation,
    EngineContractGuard,
    validate_slot_budget,
    validate_timeline,
)
from repro.memory.placement import ExpertPlacement
from repro.workloads import C4, SequenceGenerator

PROMPT_LEN = 12
DECODE_LEN = 6


@pytest.fixture(scope="module")
def sequence(tiny_bundle):
    gen = SequenceGenerator(C4, tiny_bundle.vocab, seed=11)
    return gen.sample_sequence(PROMPT_LEN, DECODE_LEN, sample_idx=0)


def build(name, tiny_bundle, platform, tiny_calibration, **kwargs):
    return build_engine(name, tiny_bundle, platform,
                        expert_cache_ratio=0.5,
                        calibration_probs=tiny_calibration, **kwargs)


# ---- timeline monotonicity -----------------------------------------------------


def test_validate_timeline_accepts_engine_schedule(
        tiny_bundle, platform, tiny_calibration, sequence):
    engine = build("daop", tiny_bundle, platform, tiny_calibration)
    result = engine.generate(sequence.prompt_tokens, DECODE_LEN)
    validate_timeline(result.timeline)  # must not raise


def test_validate_timeline_rejects_lane_overlap():
    timeline = Timeline()
    first = timeline.add(GPU, 1.0, label="a")
    timeline.add(GPU, 1.0, deps=[first], label="b")
    # Corrupt the lane: second op starts before the first finishes.
    timeline.ops[1].start = 0.25
    timeline.ops[1].end = 1.25
    with pytest.raises(ContractViolation, match="monotonic"):
        validate_timeline(timeline)


def test_validate_timeline_rejects_span_duration_mismatch():
    timeline = Timeline()
    timeline.add(GPU, 1.0, label="a")
    timeline.ops[0].end = 3.0
    with pytest.raises(ContractViolation, match="duration"):
        validate_timeline(timeline)


# ---- slot-budget conservation --------------------------------------------------


def test_validate_slot_budget():
    placement = ExpertPlacement(2, 4)
    placement._on_gpu[0, :2] = True
    validate_slot_budget(placement, 2)  # exactly at budget
    with pytest.raises(ContractViolation, match="budget"):
        validate_slot_budget(placement, 1)


def test_daop_generation_conserves_slot_budget(
        tiny_bundle, platform, tiny_calibration, sequence,
        engine_contracts):
    engine = build("daop", tiny_bundle, platform, tiny_calibration)
    guard = engine_contracts(engine)
    assert guard.prefill_only  # decode_realloc_interval defaults to None
    result = engine.generate(sequence.prompt_tokens, DECODE_LEN)
    # Algorithm 1 swaps happened and never exceeded the budget.
    assert result.stats.counters.prefill_swaps >= 0
    assert result.placement.gpu_count() <= \
        engine.initial_placement.gpu_count()


# ---- prefill-only migration ----------------------------------------------------


def test_paper_daop_never_migrates_during_decode(
        tiny_bundle, platform, tiny_calibration, sequence,
        engine_contracts):
    engine = build("daop", tiny_bundle, platform, tiny_calibration)
    engine_contracts(engine)
    result = engine.generate(sequence.prompt_tokens, DECODE_LEN)
    assert result.stats.counters.decode_swaps == 0


def test_baseline_migrating_during_decode_trips_contract(
        tiny_bundle, platform, tiny_calibration, sequence,
        engine_contracts):
    # MoE-OnDemand uploads every miss during decode; forcing the
    # prefill-only contract onto it must trip at the offending upload.
    engine = build("moe-ondemand", tiny_bundle, platform,
                   tiny_calibration)
    engine_contracts(engine, prefill_only=True, slot_budget=False)
    with pytest.raises(ContractViolation, match="prefill"):
        engine.generate(sequence.prompt_tokens, DECODE_LEN)


def test_decode_realloc_engine_is_not_auto_guarded(
        tiny_bundle, platform, tiny_calibration, sequence,
        engine_contracts):
    # The decode-reallocation extension legitimately migrates during
    # decode, so the auto contract must not fire for it.
    engine = build("daop", tiny_bundle, platform, tiny_calibration,
                   decode_realloc_interval=2,
                   decode_realloc_min_activity=0.0,
                   decode_realloc_threshold=1.01)
    guard = engine_contracts(engine)
    assert not guard.prefill_only
    result = engine.generate(sequence.prompt_tokens, DECODE_LEN)
    assert result.tokens.shape == (DECODE_LEN,)


# ---- guard mechanics -----------------------------------------------------------


def test_guard_detach_restores_engine(
        tiny_bundle, platform, tiny_calibration, sequence):
    engine = build("daop", tiny_bundle, platform, tiny_calibration)
    guard = EngineContractGuard(engine)
    guard.attach()
    assert "generate" in engine.__dict__
    guard.detach()
    assert "generate" not in engine.__dict__
    result = engine.generate(sequence.prompt_tokens, DECODE_LEN)
    assert result.tokens.shape == (DECODE_LEN,)


def test_guard_context_manager(
        tiny_bundle, platform, tiny_calibration, sequence):
    engine = build("fiddler", tiny_bundle, platform, tiny_calibration)
    with EngineContractGuard(engine, prefill_only=True):
        result = engine.generate(sequence.prompt_tokens, DECODE_LEN)
    # Fiddler never migrates, so the strictest contract passes.
    assert result.stats.counters.expert_uploads == 0


def test_upload_checks_the_uploading_sequence_not_the_last_started(
        tiny_bundle, platform, tiny_calibration, sequence,
        engine_contracts):
    # Under a scheduler several sequences are resident at once: the
    # budget check must read the uploading sequence's own placement.
    from repro.core.engine import SequenceRequest

    engine = build("daop", tiny_bundle, platform, tiny_calibration)
    engine_contracts(engine)
    request = SequenceRequest(prompt_tokens=sequence.prompt_tokens,
                              max_new_tokens=DECODE_LEN)
    first = engine.start(request)
    engine.start(request)  # the last-started sequence, left untouched
    first.placement._on_gpu[:] = True
    with pytest.raises(ContractViolation, match="budget"):
        engine._upload_expert(first, 0, 0, deps=[])
