"""Unit tests for GenerationStats / EngineCounters arithmetic."""

import pytest

from repro.core.engine import EngineCounters, GenerationStats
from repro.hardware.energy import EnergyBreakdown


def make_stats(**kw):
    base = dict(
        n_prompt_tokens=16,
        n_generated=8,
        prefill_time_s=1.0,
        total_time_s=5.0,
        energy=EnergyBreakdown(gpu_j=600.0, cpu_j=300.0, link_j=50.0,
                               base_j=50.0),
        counters=EngineCounters(),
    )
    base.update(kw)
    return GenerationStats(**base)


def test_decode_time():
    assert make_stats().decode_time_s == pytest.approx(4.0)


def test_tokens_per_second():
    stats = make_stats()
    assert stats.tokens_per_second == pytest.approx(8 / 5.0)
    # The first generated token comes from the prefill logits, so only
    # n_generated - 1 tokens are produced by decode steps (matches
    # SequenceRecord.tpot_s).
    assert stats.decode_tokens_per_second == pytest.approx(7 / 4.0)


def test_decode_tps_single_token():
    # One generated token means zero decode steps: rate is defined as 0.
    stats = make_stats(n_generated=1)
    assert stats.decode_tokens_per_second == 0.0


def test_tokens_per_kilojoule():
    stats = make_stats()
    assert stats.energy.total_j == pytest.approx(1000.0)
    assert stats.tokens_per_kilojoule == pytest.approx(8.0)


def test_average_power():
    assert make_stats().average_power_w == pytest.approx(200.0)


def test_zero_guards():
    stats = make_stats(total_time_s=0.0, prefill_time_s=0.0,
                       energy=EnergyBreakdown(0.0, 0.0, 0.0, 0.0))
    assert stats.tokens_per_second == 0.0
    assert stats.decode_tokens_per_second == 0.0
    assert stats.tokens_per_kilojoule == 0.0
    assert stats.average_power_w == 0.0


class TestCounters:
    def test_hit_rate(self):
        counters = EngineCounters(activated_gpu_resident=3,
                                  activated_total=4)
        assert counters.gpu_hit_rate == pytest.approx(0.75)

    def test_hit_rate_empty(self):
        assert EngineCounters().gpu_hit_rate == 0.0

    def test_defaults_zero(self):
        counters = EngineCounters()
        assert counters.cpu_expert_execs == 0
        assert counters.expert_uploads == 0
        assert counters.prefill_swaps == 0
        assert counters.decode_swaps == 0
        assert counters.degraded_swaps == 0
        assert counters.stale_input_execs == 0
