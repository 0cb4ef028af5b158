"""The decode block-work protocol and gathered-batch validation."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import build_engine
from repro.audit.resume import timeline_signature
from repro.core.batching import (
    CPU_LOC,
    GPU_LOC,
    BlockWork,
    ExpertCall,
    GatherStats,
    group_block_work,
)
from repro.core.engine import BaseEngine, SequenceRequest
from repro.hardware.timeline import ResourceClock, Timeline


def _call(expert, location, rows=1):
    return ExpertCall(
        expert=expert, location=location,
        h_att=np.zeros((rows, 4), dtype=np.float32), deps=(),
    )


def _prompt(bundle, seed=0, n=10):
    rng = np.random.default_rng(seed)
    return rng.integers(0, bundle.vocab.vocab_size, size=n, dtype=np.int64)


# ---- data types --------------------------------------------------------------


def test_expert_call_n_rows_counts_selection():
    full = _call(0, GPU_LOC, rows=3)
    assert full.n_rows == 3
    selected = ExpertCall(
        expert=0, location=GPU_LOC,
        h_att=np.zeros((3, 4), dtype=np.float32), deps=(),
        token_idx=np.asarray([0, 2]),
    )
    assert selected.n_rows == 2


def test_gather_stats_amortization():
    stats = GatherStats()
    assert stats.expert_amortization == 1.0
    stats.expert_ops = 8
    stats.expert_kernels = 2
    assert stats.expert_amortization == pytest.approx(4.0)


def test_group_block_work_merges_across_sequences():
    work_a = BlockWork(block_idx=3, calls=(
        _call(1, GPU_LOC), _call(2, CPU_LOC),
    ))
    work_b = BlockWork(block_idx=3, calls=(_call(1, GPU_LOC),))
    groups = group_block_work([work_a, work_b])
    assert groups[(3, 1, GPU_LOC)] == [(0, 0), (1, 0)]
    assert groups[(3, 2, CPU_LOC)] == [(0, 1)]
    # Same expert on another device is a different kernel.
    assert (3, 1, CPU_LOC) not in groups


def test_group_block_work_preserves_admission_order():
    works = [
        BlockWork(block_idx=0, calls=(_call(5, GPU_LOC),))
        for _ in range(4)
    ]
    groups = group_block_work(works)
    assert groups[(0, 5, GPU_LOC)] == [(i, 0) for i in range(4)]


# ---- step_batch validation ---------------------------------------------------


@pytest.fixture()
def daop(tiny_bundle, platform, tiny_calibration):
    return build_engine("daop", tiny_bundle, platform,
                        expert_cache_ratio=0.5,
                        calibration_probs=tiny_calibration)


def test_step_batch_rejects_empty(daop):
    with pytest.raises(ValueError):
        daop.step_batch([])


def test_step_batch_rejects_prefill_phase(daop, tiny_bundle):
    state = daop.start(SequenceRequest(
        prompt_tokens=_prompt(tiny_bundle), max_new_tokens=4,
    ))
    with pytest.raises(RuntimeError, match="prefill"):
        daop.step_batch([state])


def test_step_batch_rejects_done_sequence(daop, tiny_bundle):
    state = daop.start(SequenceRequest(
        prompt_tokens=_prompt(tiny_bundle), max_new_tokens=1,
    ))
    daop.step(state)
    assert state.done
    with pytest.raises(RuntimeError, match="finish"):
        daop.step_batch([state])


def test_step_batch_rejects_mixed_clocks(daop, tiny_bundle):
    states = []
    for seed in (0, 1):
        state = daop.start(
            SequenceRequest(prompt_tokens=_prompt(tiny_bundle, seed),
                            max_new_tokens=4, seq_id=seed),
            timeline=Timeline(clock=ResourceClock()),
        )
        daop.step(state)
        states.append(state)
    with pytest.raises(ValueError, match="ResourceClock"):
        daop.step_batch(states)


def test_step_batch_single_state_matches_step(daop, tiny_bundle):
    """``step()`` on a decode-phase state is ``step_batch([state])``."""
    prompt = _prompt(tiny_bundle)
    solo = daop.start(SequenceRequest(prompt_tokens=prompt,
                                      max_new_tokens=4))
    batched = daop.start(SequenceRequest(prompt_tokens=prompt,
                                         max_new_tokens=4))
    daop.step(solo)
    daop.step(batched)
    while not solo.done:
        daop.step(solo)
        daop.step_batch([batched])
    assert batched.done
    assert solo.generated == batched.generated
    assert timeline_signature(batched.timeline) == \
        timeline_signature(solo.timeline)


def test_step_batch_distinct_sequences_share_kernels(
        daop, tiny_bundle):
    """Two decode-phase sequences on one clock gather same-expert calls."""
    clock = ResourceClock()
    states = []
    for seed in (0, 1):
        state = daop.start(
            SequenceRequest(prompt_tokens=_prompt(tiny_bundle, seed),
                            max_new_tokens=4, seq_id=seed),
            timeline=Timeline(clock=clock),
        )
        daop.step(state)
        states.append(state)
    stats = GatherStats()
    results = daop.step_batch(states, gather_stats=stats)
    assert len(results) == 2
    assert all(r.phase == "decode" for r in results)
    assert stats.expert_ops >= stats.expert_kernels > 0
    assert stats.lm_head_kernels == 1
    assert stats.lm_head_ops == 2


# ---- step_prefill_batch validation and parity --------------------------------


def test_step_prefill_batch_rejects_empty(daop):
    with pytest.raises(ValueError):
        daop.step_prefill_batch([])


def test_step_prefill_batch_rejects_decode_phase(daop, tiny_bundle):
    state = daop.start(SequenceRequest(
        prompt_tokens=_prompt(tiny_bundle), max_new_tokens=4,
    ))
    daop.step(state)
    with pytest.raises(RuntimeError, match="decode"):
        daop.step_prefill_batch([state])


def test_step_prefill_batch_rejects_done_sequence(daop, tiny_bundle):
    state = daop.start(SequenceRequest(
        prompt_tokens=_prompt(tiny_bundle), max_new_tokens=1,
    ))
    daop.step(state)
    assert state.done
    with pytest.raises(RuntimeError, match="finish"):
        daop.step_prefill_batch([state])


def test_step_prefill_batch_rejects_mixed_clocks(daop, tiny_bundle):
    states = [
        daop.start(
            SequenceRequest(prompt_tokens=_prompt(tiny_bundle, seed),
                            max_new_tokens=4, seq_id=seed),
            timeline=Timeline(clock=ResourceClock()),
        )
        for seed in (0, 1)
    ]
    with pytest.raises(ValueError, match="ResourceClock"):
        daop.step_prefill_batch(states)


def test_step_prefill_batch_single_state_matches_step(daop, tiny_bundle):
    """``step()`` on a prefill-phase state is ``step_prefill_batch``."""
    prompt = _prompt(tiny_bundle)
    solo = daop.start(SequenceRequest(prompt_tokens=prompt,
                                      max_new_tokens=4))
    batched = daop.start(SequenceRequest(prompt_tokens=prompt,
                                         max_new_tokens=4))
    daop.step(solo)
    daop.step_prefill_batch([batched])
    assert solo.generated == batched.generated
    assert timeline_signature(batched.timeline) == \
        timeline_signature(solo.timeline)
    # A lone prefill carries no cohort pricing.
    assert "gather_pricing" not in batched.extra


def test_gathered_executor_keeps_first_appearance_order(daop, tiny_bundle):
    """Groups run in the order the policy described its calls, not in
    sorted ``(block, expert, device)`` order."""
    state = daop.start(SequenceRequest(
        prompt_tokens=_prompt(tiny_bundle), max_new_tokens=2,
    ))
    d_model = tiny_bundle.model.profile.sim.d_model
    h_att = np.ones((1, d_model), dtype=np.float32)
    work = BlockWork(block_idx=0, calls=tuple(
        ExpertCall(expert=expert, location=location, h_att=h_att, deps=())
        for expert, location in ((3, GPU_LOC), (0, GPU_LOC), (1, CPU_LOC))
    ))
    results = daop._execute_block_work_gathered([(state, work)])
    labels = [op.label for _, op in results[0]]
    assert labels == ["E3@B0 gpu", "E0@B0 gpu", "act>gpu B0"]
    assert [op.label for op in state.timeline.ops] == [
        "E3@B0 gpu", "E0@B0 gpu", "act>cpu B0", "E1@B0 cpu", "act>gpu B0",
    ]


def test_lone_participant_gets_the_unsliced_duration():
    """``total * n / n`` can miss ``total`` by an ulp; a group of one
    must be charged ``total`` itself."""
    total, rows = 0.1, 3
    assert total * rows / rows != total
    assert BaseEngine._share(total, rows, rows) == total
    assert BaseEngine._share(total, 1, rows) == total * 1 / rows


def test_step_prefill_batch_cohort_counts_and_token_parity(
        daop, tiny_bundle):
    """A two-sequence cohort gathers every stage yet samples solo tokens."""
    prompts = [_prompt(tiny_bundle, seed) for seed in (0, 1)]
    solo_tokens = []
    for prompt in prompts:
        solo = daop.start(SequenceRequest(prompt_tokens=prompt,
                                          max_new_tokens=4))
        daop.step(solo)
        solo_tokens.append(list(solo.generated))

    clock = ResourceClock()
    states = [
        daop.start(
            SequenceRequest(prompt_tokens=prompt, max_new_tokens=4,
                            seq_id=i),
            timeline=Timeline(clock=clock),
        )
        for i, prompt in enumerate(prompts)
    ]
    stats = GatherStats()
    results = daop.step_prefill_batch(states, gather_stats=stats)
    assert all(r.phase == "prefill" for r in results)
    assert [list(s.generated) for s in states] == solo_tokens

    n_blocks = len(tiny_bundle.model.blocks)
    assert stats.attn_kernels == n_blocks
    assert stats.attn_ops == 2 * n_blocks
    assert stats.gate_kernels == n_blocks
    assert stats.gate_ops == 2 * n_blocks
    assert stats.prefill_expert_ops >= stats.prefill_expert_kernels > 0
    assert stats.prefill_lm_head_kernels == 1
    assert stats.prefill_lm_head_ops == 2
    # Totals accrue to the same ledger, so the decode share stays zero.
    assert stats.decode_expert_ops == 0
    assert stats.lm_head_ops == stats.prefill_lm_head_ops
