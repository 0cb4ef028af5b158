"""Unit tests for the benchmark regression gate (`repro.perf.perf_delta`).

The committed ``BENCH_*.json`` artifacts double as baselines: the gate
diffs a candidate rerun against them and fails on throughput/speedup
regressions beyond a threshold.  The intentional-regression tests below
degrade the committed artifacts themselves, proving the gate actually
fires on the exact payload shape CI feeds it.
"""

import copy
import json
from pathlib import Path

import pytest

from repro.perf import (
    BATCH_BENCH,
    COMPUTE_BENCH,
    DEFAULT_THRESHOLD,
    MetricDelta,
    detect_kind,
    diff_batch_bench,
    diff_benchmarks,
    diff_compute_bench,
    load_benchmark,
)
from repro.perf.perf_delta import COMPUTE_COUNTER_FIELDS

REPO_ROOT = Path(__file__).resolve().parents[1]


@pytest.fixture(scope="module")
def batch_payload():
    return load_benchmark(str(REPO_ROOT / "BENCH_batch.json"))


@pytest.fixture(scope="module")
def compute_payload():
    return load_benchmark(str(REPO_ROOT / "BENCH_compute.json"))


class TestMetricDelta:
    def test_relative_delta(self):
        delta = MetricDelta(metric="m", baseline=100.0, candidate=85.0)
        assert delta.delta == pytest.approx(-0.15)

    def test_zero_baseline_reports_zero(self):
        assert MetricDelta(metric="m", baseline=0.0,
                           candidate=5.0).delta == 0.0


class TestDetectKind:
    def test_committed_artifacts(self, batch_payload, compute_payload):
        assert detect_kind(batch_payload) == BATCH_BENCH
        assert detect_kind(compute_payload) == COMPUTE_BENCH

    def test_unknown_shape_rejected(self):
        with pytest.raises(ValueError,
                           match="unrecognized benchmark artifact"):
            detect_kind({"something": "else"})


class TestBatchDiff:
    def test_self_diff_is_clean(self, batch_payload):
        report = diff_batch_bench(batch_payload, batch_payload)
        assert report.ok
        assert report.problems == []
        assert len(report.deltas) == len(batch_payload["runs"])
        assert all(d.delta == 0.0 for d in report.deltas)
        assert "-> ok" in report.format()

    def test_intentional_regression_fires(self, batch_payload):
        candidate = copy.deepcopy(batch_payload)
        candidate["runs"][0]["throughput_tokens_per_s"] *= 0.8
        report = diff_batch_bench(batch_payload, candidate)
        assert not report.ok
        assert len(report.regressions) == 1
        regressed = report.regressions[0]
        assert regressed.delta == pytest.approx(-0.2)
        assert "REGRESSION" in report.format()
        assert "FAIL" in report.format()

    def test_improvement_is_not_flagged(self, batch_payload):
        candidate = copy.deepcopy(batch_payload)
        for run in candidate["runs"]:
            run["throughput_tokens_per_s"] *= 1.2
        report = diff_batch_bench(batch_payload, candidate)
        assert report.ok
        assert report.regressions == []

    def test_threshold_is_respected(self, batch_payload):
        candidate = copy.deepcopy(batch_payload)
        candidate["runs"][0]["throughput_tokens_per_s"] *= 0.9
        assert diff_batch_bench(batch_payload, candidate,
                                threshold=DEFAULT_THRESHOLD).ok
        assert not diff_batch_bench(batch_payload, candidate,
                                    threshold=0.05).ok

    def test_missing_run_is_a_structural_problem(self, batch_payload):
        candidate = copy.deepcopy(batch_payload)
        dropped = candidate["runs"].pop(0)
        report = diff_batch_bench(batch_payload, candidate)
        assert not report.ok
        assert any(dropped["engine"] in p for p in report.problems)


class TestComputeDiff:
    def test_self_diff_is_clean(self, compute_payload):
        report = diff_compute_bench(compute_payload, compute_payload)
        assert report.ok
        assert report.deltas  # both speedup sections compared
        assert all(d.delta == 0.0 for d in report.deltas)

    def test_halved_speedup_fires(self, compute_payload):
        candidate = copy.deepcopy(compute_payload)
        candidate["differential_audit"]["speedup"] *= 0.5
        report = diff_compute_bench(compute_payload, candidate)
        assert not report.ok
        assert any("differential_audit" in d.metric
                   for d in report.regressions)

    def test_self_diff_has_no_counter_problems(self, compute_payload):
        report = diff_compute_bench(compute_payload,
                                    copy.deepcopy(compute_payload))
        assert report.problems == []

    @pytest.mark.parametrize("field", COMPUTE_COUNTER_FIELDS)
    def test_perturbed_stage_hit_count_fails(self, compute_payload, field):
        candidate = copy.deepcopy(compute_payload)
        counters = candidate["ecr_sweep"][field]
        stages = counters["stages"] if field == "cache" else counters
        stages["expert"]["hits"] += 1
        report = diff_compute_bench(compute_payload, candidate)
        assert not report.ok
        assert not report.regressions  # speedups untouched
        (problem,) = report.problems
        assert problem.startswith(f"ecr_sweep {field} counters differ")
        assert "expert.hits" in problem

    def test_counter_gate_ignores_threshold(self, compute_payload):
        """Counters are deterministic: no threshold forgives a change."""
        candidate = copy.deepcopy(compute_payload)
        candidate["differential_audit"]["cache"]["evictions"] += 1
        report = diff_compute_bench(compute_payload, candidate,
                                    threshold=10.0)
        assert not report.ok
        assert "evictions 0 -> 1" in report.problems[0]

    def test_missing_counter_block_fails(self, compute_payload):
        candidate = copy.deepcopy(compute_payload)
        del candidate["differential_audit"]["stages_warm"]
        report = diff_compute_bench(compute_payload, candidate)
        assert any("differential_audit stages_warm" in p
                   for p in report.problems)


class TestDiffBenchmarks:
    def test_auto_detects_both_kinds(self, batch_payload,
                                     compute_payload):
        assert diff_benchmarks(batch_payload,
                               batch_payload).kind == BATCH_BENCH
        assert diff_benchmarks(compute_payload,
                               compute_payload).kind == COMPUTE_BENCH

    def test_kind_mismatch_rejected(self, batch_payload,
                                    compute_payload):
        with pytest.raises(ValueError, match="cannot diff"):
            diff_benchmarks(batch_payload, compute_payload)


class TestLoadBenchmark:
    def test_rejects_invalid_json(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{nope")
        with pytest.raises(ValueError, match="not valid JSON"):
            load_benchmark(str(path))

    def test_rejects_non_object(self, tmp_path):
        path = tmp_path / "list.json"
        path.write_text(json.dumps([1, 2, 3]))
        with pytest.raises(ValueError):
            load_benchmark(str(path))
