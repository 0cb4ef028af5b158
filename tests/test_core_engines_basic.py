"""Behavioural tests every engine must satisfy."""

import numpy as np
import pytest

from repro.core import ENGINE_NAMES, build_engine
from repro.workloads import C4, SequenceGenerator

PROMPT_LEN = 12
DECODE_LEN = 6


@pytest.fixture(scope="module")
def sequence(tiny_bundle):
    gen = SequenceGenerator(C4, tiny_bundle.vocab, seed=9)
    return gen.sample_sequence(PROMPT_LEN, DECODE_LEN, sample_idx=0)


def run(name, tiny_bundle, platform, tiny_calibration, sequence, **kw):
    engine = build_engine(name, tiny_bundle, platform,
                          expert_cache_ratio=0.5,
                          calibration_probs=tiny_calibration, **kw)
    return engine.generate(sequence.prompt_tokens, DECODE_LEN)


@pytest.mark.parametrize("name", ENGINE_NAMES)
def test_generates_tokens(name, tiny_bundle, platform, tiny_calibration,
                          sequence):
    result = run(name, tiny_bundle, platform, tiny_calibration, sequence)
    assert result.tokens.shape == (DECODE_LEN,)
    assert np.all(result.tokens >= 0)
    assert np.all(result.tokens < tiny_bundle.vocab.vocab_size)


@pytest.mark.parametrize("name", ENGINE_NAMES)
def test_deterministic(name, tiny_bundle, platform, tiny_calibration,
                       sequence):
    a = run(name, tiny_bundle, platform, tiny_calibration, sequence)
    b = run(name, tiny_bundle, platform, tiny_calibration, sequence)
    np.testing.assert_array_equal(a.tokens, b.tokens)
    assert a.stats.total_time_s == pytest.approx(b.stats.total_time_s)


@pytest.mark.parametrize("name", ENGINE_NAMES)
def test_stats_sane(name, tiny_bundle, platform, tiny_calibration, sequence):
    result = run(name, tiny_bundle, platform, tiny_calibration, sequence)
    stats = result.stats
    assert stats.n_generated == DECODE_LEN
    assert stats.n_prompt_tokens == PROMPT_LEN
    assert 0 < stats.prefill_time_s <= stats.total_time_s
    assert stats.tokens_per_second > 0
    assert stats.tokens_per_kilojoule > 0
    assert stats.energy.total_j > 0
    assert stats.average_power_w > 50.0  # above the idle floor


@pytest.mark.parametrize("name", ENGINE_NAMES)
def test_trace_covers_all_tokens(name, tiny_bundle, platform,
                                 tiny_calibration, sequence):
    result = run(name, tiny_bundle, platform, tiny_calibration, sequence)
    trace = result.trace
    assert trace.token_count("prefill") == PROMPT_LEN
    # The final sampled token is never forwarded, so decode records
    # DECODE_LEN - 1 positions.
    assert trace.token_count("decode") == DECODE_LEN - 1


def test_official_matches_reference_greedy(tiny_bundle, platform, sequence):
    """The official engine must reproduce the raw model's generation."""
    engine = build_engine("official", tiny_bundle, platform)
    result = engine.generate(sequence.prompt_tokens, DECODE_LEN)
    reference = tiny_bundle.model.greedy_generate(
        sequence.prompt_tokens, DECODE_LEN
    )
    np.testing.assert_array_equal(result.tokens, reference)


def test_official_hit_rate_is_one(tiny_bundle, platform, sequence):
    result = build_engine("official", tiny_bundle, platform).generate(
        sequence.prompt_tokens, DECODE_LEN
    )
    assert result.stats.counters.gpu_hit_rate == pytest.approx(1.0)
    assert result.stats.counters.cpu_expert_execs == 0
    assert result.stats.counters.expert_uploads == 0


def test_forced_tokens_steer_decode(tiny_bundle, platform, tiny_calibration,
                                    sequence):
    engine = build_engine("fiddler", tiny_bundle, platform,
                          expert_cache_ratio=0.5,
                          calibration_probs=tiny_calibration)
    free = engine.generate(sequence.prompt_tokens, DECODE_LEN)
    forced = engine.generate(sequence.prompt_tokens, DECODE_LEN,
                             forced_tokens=sequence.continuation_tokens)
    # Same first token (it comes from prefill either way).
    assert free.tokens[0] == forced.tokens[0]
    # Forced inputs generally change subsequent routing/trace.
    assert forced.trace.token_count("decode") == DECODE_LEN - 1


def test_input_validation(tiny_bundle, platform):
    engine = build_engine("official", tiny_bundle, platform)
    with pytest.raises(ValueError):
        engine.generate(np.array([]), 4)
    with pytest.raises(ValueError):
        engine.generate(np.array([1, 2]), 0)
    with pytest.raises(ValueError):
        engine.generate(np.array([1, 2]), 8, forced_tokens=np.array([1]))


def test_unknown_engine_name(tiny_bundle, platform):
    with pytest.raises(KeyError):
        build_engine("vllm", tiny_bundle, platform)


def test_custom_sampler_used(tiny_bundle, platform, sequence):
    engine = build_engine("official", tiny_bundle, platform)
    result = engine.generate(sequence.prompt_tokens, 3,
                             sampler=lambda logits: 42)
    np.testing.assert_array_equal(result.tokens, [42, 42, 42])


def test_duplicate_expert_ids_fill_every_slot(tiny_bundle, platform):
    """A hand-built selection repeating an expert id must honor both
    weight slots (real routers never emit duplicates -- see
    test_model_gating -- but degraded selections may).
    """
    from repro.core.engine import (
        EngineCounters,
        SequenceRequest,
        SequenceState,
    )
    from repro.hardware.timeline import Timeline
    from repro.model.sampling import greedy
    from repro.trace.recorder import ActivationTrace

    def fresh_ctx(engine):
        return SequenceState(
            request=SequenceRequest(
                prompt_tokens=np.array([0]), max_new_tokens=1
            ),
            sampler=greedy,
            placement=engine.initial_placement.copy(),
            caches=engine.model.new_caches(),
            timeline=Timeline(),
            trace=ActivationTrace(engine.model.n_blocks,
                                  engine.model.n_experts),
            counters=EngineCounters(),
        )

    engine = build_engine("official", tiny_bundle, platform,
                          expert_cache_ratio=1.0)
    rng = np.random.default_rng(7)
    h_att = rng.standard_normal(
        (2, tiny_bundle.model.profile.sim.d_model)
    ).astype(np.float32)
    dup_experts = np.array([[1, 1], [1, 1]])

    def run_block(weights):
        """Describe the block, run it through the gathered executor."""
        ctx = fresh_ctx(engine)
        gen = engine._routed_block_work(
            ctx, 0, h_att, dup_experts, weights, []
        )
        work = next(gen)
        results = engine._execute_block_work_gathered([(ctx, work)])
        with pytest.raises(StopIteration) as stop:
            gen.send(results[0])
        return stop.value.value

    h_dup, ops = run_block(np.array([[0.6, 0.4], [0.3, 0.7]]))
    # One op per *unique* expert, matching counter-conservation.
    assert len(ops) == 1

    # Both slots hold the same expert output, so the duplicate pair must
    # combine exactly like the full weight on a single slot.
    h_full, _ = run_block(np.array([[1.0, 0.0], [1.0, 0.0]]))
    np.testing.assert_allclose(h_dup, h_full, rtol=1e-5)
