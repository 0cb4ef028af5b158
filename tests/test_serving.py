"""Unit tests for the serving simulator and arrival processes."""

import importlib

import numpy as np
import pytest

from repro.core import build_engine
from repro.serving import (
    ServingSimulator,
    bursty_arrivals,
    poisson_arrivals,
    uniform_arrivals,
)
from repro.workloads import SHAREGPT, SequenceGenerator


@pytest.fixture(params=["repro.scenarios.arrivals", "repro.serving"])
def arrivals_mod(request):
    """The arrival generators via both of their public import paths.

    The generators live in ``repro.scenarios.arrivals``; the
    ``repro.serving`` package re-exports the classic trio.  Every
    behavioral test below runs against both import paths.
    """
    return importlib.import_module(request.param)


class TestArrivals:
    def test_poisson_mean_rate(self, rng, arrivals_mod):
        times = arrivals_mod.poisson_arrivals(10.0, 2000, rng)
        assert times.shape == (2000,)
        assert np.all(np.diff(times) >= 0)
        mean_gap = times[-1] / 2000
        assert mean_gap == pytest.approx(0.1, rel=0.15)

    def test_uniform_spacing(self, arrivals_mod):
        times = arrivals_mod.uniform_arrivals(4.0, 8)
        np.testing.assert_allclose(np.diff(times), 0.25)

    def test_bursty_clusters(self, rng, arrivals_mod):
        times = arrivals_mod.bursty_arrivals(10.0, 40, rng, burst_size=4,
                                             burst_spread_s=0.01)
        assert times.shape == (40,)
        assert np.all(np.diff(times) >= 0)
        # Most consecutive gaps inside bursts are tiny.
        gaps = np.diff(times)
        assert np.median(gaps) < 0.05

    def test_validation(self, rng, arrivals_mod):
        with pytest.raises(ValueError):
            arrivals_mod.poisson_arrivals(0.0, 5, rng)
        with pytest.raises(ValueError):
            arrivals_mod.poisson_arrivals(1.0, 0, rng)
        with pytest.raises(ValueError):
            arrivals_mod.uniform_arrivals(-1.0, 5)
        with pytest.raises(ValueError):
            arrivals_mod.bursty_arrivals(1.0, 5, rng, burst_size=0)

    def test_bursty_exact_count_non_multiple(self, rng, arrivals_mod):
        """10 requests in bursts of 4: the last burst is truncated."""
        times = arrivals_mod.bursty_arrivals(10.0, 10, rng, burst_size=4)
        assert times.shape == (10,)

    @pytest.mark.parametrize("n_requests", [1, 3, 4, 5, 17])
    def test_bursty_count_and_sortedness(self, rng, arrivals_mod,
                                         n_requests):
        times = arrivals_mod.bursty_arrivals(5.0, n_requests, rng,
                                             burst_size=4)
        assert times.shape == (n_requests,)
        assert np.all(np.diff(times) >= 0)

    def test_bursty_seed_determinism(self, arrivals_mod):
        a = arrivals_mod.bursty_arrivals(10.0, 11,
                                         np.random.default_rng(7),
                                         burst_size=3)
        b = arrivals_mod.bursty_arrivals(10.0, 11,
                                         np.random.default_rng(7),
                                         burst_size=3)
        np.testing.assert_array_equal(a, b)

    def test_reexport_is_same_object(self):
        """``repro.serving`` re-exports the very same functions."""
        import repro.serving as serving
        from repro.scenarios import arrivals as canonical

        assert serving.poisson_arrivals is canonical.poisson_arrivals
        assert serving.bursty_arrivals is canonical.bursty_arrivals
        assert serving.uniform_arrivals is canonical.uniform_arrivals


@pytest.fixture(scope="module")
def served(tiny_bundle, platform, tiny_calibration):
    engine = build_engine("daop", tiny_bundle, platform, 0.5,
                          tiny_calibration)
    generator = SequenceGenerator(SHAREGPT, tiny_bundle.vocab, seed=61)
    simulator = ServingSimulator(engine, generator)
    arrivals = uniform_arrivals(2.0, 6)
    return simulator.run(arrivals, prompt_len=12, output_len=6)


class TestServingSimulator:
    def test_all_requests_served(self, served):
        assert served.n_requests == 6
        assert all(r.n_generated == 6 for r in served.requests)

    def test_fifo_no_overlap(self, served):
        reqs = sorted(served.requests, key=lambda r: r.start_s)
        for a, b in zip(reqs, reqs[1:]):
            assert b.start_s >= a.finish_s - 1e-12

    def test_request_invariants(self, served):
        for r in served.requests:
            assert r.start_s >= r.arrival_s
            assert r.arrival_s <= r.first_token_s <= r.finish_s
            assert r.queue_delay_s >= 0
            assert r.ttft_s >= 0
            assert r.latency_s >= r.ttft_s
            assert r.tpot_s >= 0
            assert r.energy_j > 0

    def test_percentiles_ordered(self, served):
        assert (served.latency_percentile(50)
                <= served.latency_percentile(95)
                <= served.latency_percentile(99))
        assert served.ttft_percentile(50) <= served.ttft_percentile(99)

    def test_throughput_positive(self, served):
        assert served.throughput_tokens_per_s > 0
        assert served.tokens_per_kilojoule > 0

    def test_overload_grows_queue(self, tiny_bundle, platform,
                                  tiny_calibration):
        """Arrivals faster than service accumulate queue delay."""
        engine = build_engine("fiddler", tiny_bundle, platform, 0.25,
                              tiny_calibration)
        generator = SequenceGenerator(SHAREGPT, tiny_bundle.vocab, seed=62)
        simulator = ServingSimulator(engine, generator)
        slow = simulator.run(uniform_arrivals(0.01, 4), 12, 6)
        fast = simulator.run(uniform_arrivals(100.0, 4), 12, 6)
        assert fast.mean_queue_delay_s > slow.mean_queue_delay_s
        # Last request in the overloaded trace waits behind all others.
        assert fast.requests[-1].queue_delay_s > 0

    def test_identical_work_across_engines(self, tiny_bundle, platform,
                                           tiny_calibration):
        """Two engines given the same arrivals serve identical prompts."""
        generator_a = SequenceGenerator(SHAREGPT, tiny_bundle.vocab, seed=63)
        generator_b = SequenceGenerator(SHAREGPT, tiny_bundle.vocab, seed=63)
        a = ServingSimulator(
            build_engine("fiddler", tiny_bundle, platform, 0.5,
                         tiny_calibration), generator_a)
        b = ServingSimulator(
            build_engine("daop", tiny_bundle, platform, 0.5,
                         tiny_calibration), generator_b)
        arrivals = uniform_arrivals(1.0, 3)
        ra = a.run(arrivals, 12, 6)
        rb = b.run(arrivals, 12, 6)
        assert [r.n_prompt_tokens for r in ra.requests] == [
            r.n_prompt_tokens for r in rb.requests
        ]

    def test_concurrency_must_be_positive(self, tiny_bundle, platform,
                                          tiny_calibration):
        engine = build_engine("daop", tiny_bundle, platform, 0.5,
                              tiny_calibration)
        generator = SequenceGenerator(SHAREGPT, tiny_bundle.vocab, seed=64)
        with pytest.raises(ValueError):
            ServingSimulator(engine, generator, concurrency=0)

    def test_only_gathered_mode_accepted(self, tiny_bundle, platform,
                                         tiny_calibration):
        engine = build_engine("daop", tiny_bundle, platform, 0.5,
                              tiny_calibration)
        assert ServingSimulator(engine, mode="gathered").mode == "gathered"
        with pytest.raises(ValueError):
            ServingSimulator(engine, mode="interleaved")

    def test_concurrency_cuts_queue_delay_same_tokens(
            self, tiny_bundle, platform, tiny_calibration):
        """Batched serving admits queued requests early: TTFT drops,
        served tokens stay identical (per-sequence state isolation)."""
        def run(concurrency):
            engine = build_engine("daop", tiny_bundle, platform, 0.5,
                                  tiny_calibration)
            generator = SequenceGenerator(SHAREGPT, tiny_bundle.vocab,
                                          seed=65)
            simulator = ServingSimulator(engine, generator,
                                         concurrency=concurrency)
            return simulator.run(uniform_arrivals(100.0, 4), 12, 6)

        solo = run(1)
        batched = run(4)
        assert batched.mean_queue_delay_s < solo.mean_queue_delay_s
        assert batched.ttft_percentile(95) < solo.ttft_percentile(95)
        assert [r.n_generated for r in batched.requests] == [
            r.n_generated for r in solo.requests
        ]
        # Service spans overlap under concurrency.
        reqs = sorted(batched.requests, key=lambda r: r.start_s)
        assert any(b.start_s < a.finish_s for a, b in zip(reqs, reqs[1:]))

    def test_uniform_run_wrapper_byte_identical(self, tiny_bundle,
                                                platform,
                                                tiny_calibration):
        """run() (now a RequestSpec wrapper) must reproduce the
        pre-wrapper body's report exactly, field for field."""
        from repro.core.engine import SequenceRequest
        from repro.sched.scheduler import ContinuousBatchScheduler
        from repro.serving.simulator import ServedRequest

        arrivals = bursty_arrivals(2.0, 5, np.random.default_rng(17),
                                   burst_size=2)

        engine = build_engine("daop", tiny_bundle, platform, 0.5,
                              tiny_calibration)
        generator = SequenceGenerator(SHAREGPT, tiny_bundle.vocab,
                                      seed=66)
        report = ServingSimulator(engine, generator).run(arrivals, 12, 6)

        # Hand-rolled replica of the historical run() body.
        engine_b = build_engine("daop", tiny_bundle, platform, 0.5,
                                tiny_calibration)
        generator_b = SequenceGenerator(SHAREGPT, tiny_bundle.vocab,
                                        seed=66)
        arrival_times = np.sort(np.asarray(arrivals, dtype=np.float64))
        requests = []
        for i, _ in enumerate(arrival_times):
            sequence = generator_b.sample_sequence(12, 6, sample_idx=i)
            requests.append(SequenceRequest(
                prompt_tokens=sequence.prompt_tokens,
                max_new_tokens=6,
                forced_tokens=sequence.continuation_tokens,
                seq_id=i,
            ))
        batch = ContinuousBatchScheduler(engine_b, max_batch=1).run(
            requests, arrival_times
        )
        expected = [
            ServedRequest(
                request_id=rec.seq_id,
                arrival_s=rec.arrival_s,
                start_s=rec.service_start_s,
                first_token_s=rec.first_token_s,
                finish_s=rec.finish_s,
                n_prompt_tokens=rec.n_prompt_tokens,
                n_generated=rec.n_generated,
                energy_j=rec.result.stats.energy.total_j,
            )
            for rec in batch.records
        ]
        assert repr(report.requests) == repr(expected)

    def test_run_requests_heterogeneous(self, tiny_bundle, platform,
                                        tiny_calibration):
        """Per-request lengths and ids flow through run_requests."""
        from repro.workloads import RequestSpec

        engine = build_engine("daop", tiny_bundle, platform, 0.5,
                              tiny_calibration)
        simulator = ServingSimulator(engine)
        generator = SequenceGenerator(SHAREGPT, tiny_bundle.vocab,
                                      seed=67)
        shapes = [(8, 3), (14, 6), (10, 4)]
        specs = []
        for i, (prompt_len, output_len) in enumerate(shapes):
            sequence = generator.sample_sequence(prompt_len, output_len,
                                                 sample_idx=i)
            specs.append(RequestSpec(
                request_id=10 + i,
                arrival_s=float(i),
                prompt_tokens=sequence.prompt_tokens,
                output_len=output_len,
                forced_tokens=sequence.continuation_tokens,
            ))
        report = simulator.run_requests(specs)
        generated = {r.request_id: r.n_generated for r in report.requests}
        assert generated == {10: 3, 11: 6, 12: 4}
        prompts = {r.request_id: r.n_prompt_tokens
                   for r in report.requests}
        assert prompts == {10: 8, 11: 14, 12: 10}

    def test_run_without_generator_raises(self, tiny_bundle, platform,
                                          tiny_calibration):
        engine = build_engine("daop", tiny_bundle, platform, 0.5,
                              tiny_calibration)
        simulator = ServingSimulator(engine)
        with pytest.raises(ValueError):
            simulator.run(uniform_arrivals(1.0, 2), 8, 4)

    def test_empty_report(self):
        from repro.serving.simulator import ServingReport

        report = ServingReport(engine="x")
        assert report.makespan_s == 0.0
        assert report.throughput_tokens_per_s == 0.0
        assert report.mean_queue_delay_s == 0.0
        assert report.tokens_per_kilojoule == 0.0

    def test_empty_report_percentiles(self):
        """Regression: percentiles of an empty report must not crash."""
        from repro.serving.simulator import ServingReport

        report = ServingReport(engine="x")
        assert report.ttft_percentile(50) == 0.0
        assert report.tpot_percentile(99) == 0.0
        assert report.latency_percentile(95) == 0.0


class TestPercentileOrZero:
    def test_empty_returns_zero(self):
        from repro.serving import percentile_or_zero

        assert percentile_or_zero([], 50) == 0.0
        assert percentile_or_zero((), 99) == 0.0

    def test_one_definition_shared_by_every_report(self):
        import repro.cluster.report as cluster_report
        import repro.serving as serving
        import repro.serving.simulator as serving_simulator
        from repro.scenarios import percentile_or_zero

        assert serving.percentile_or_zero is percentile_or_zero
        assert serving_simulator.percentile_or_zero is percentile_or_zero
        assert cluster_report.percentile_or_zero is percentile_or_zero

    def test_matches_numpy_when_nonempty(self):
        from repro.serving import percentile_or_zero

        values = [3.0, 1.0, 2.0, 10.0]
        for q in (0, 50, 95, 100):
            assert percentile_or_zero(values, q) == pytest.approx(
                float(np.percentile(values, q))
            )
