"""The benchmark's three workloads, driven through the public ``repro`` API.

Each workload class is built once per set-up (model bundle, platform,
calibration, engines, materialized requests -- everything ``setup_s``
times) and then :meth:`Workload.run` is the timed body, repeated as
often as the run length allows.  A run returns an :class:`Outcome`
holding what the metrics and checks need; every ``sim_*`` value in it
is simulated and must repeat bit-exactly.

Inputs come only from the workload seed; the model weights and the
calibration are part of the program under test and use fixed seeds.
"""

from __future__ import annotations

import hashlib
import json
import time
from dataclasses import dataclass, field

import numpy as np

from repro import build_mixtral_8x7b_sim, build_tiny_moe, default_platform
from repro.analysis import attribution_report, critical_path
from repro.audit import (
    audit_generation,
    block_divergence_accounting,
    compare_token_streams,
)
from repro.cluster import AdmissionController, ClusterSimulator, build_policy
from repro.core import (
    ENGINE_NAMES,
    SequenceRequest,
    build_engine,
    calibrate_activation_probs,
)
from repro.perf import TensorCache
from repro.scenarios import (
    ArrivalSpec,
    LengthSpec,
    ScenarioRunner,
    ScenarioSpec,
    TenantSpec,
    classify_slo,
)
from repro.sched import GATHERED, ContinuousBatchScheduler
from repro.workloads import (
    BATCH,
    GSM8K,
    INTERACTIVE,
    LONG_CONTEXT,
    SHAREGPT,
    SequenceGenerator,
)

import ledger
from hostclock import NullClock

now = time.perf_counter

#: The paper's Fig. 9 expert cache ratio and Fig. 10 sweep points.
FIG9_ECR = 0.469
FIG10_ECRS = (0.25, 0.375, 0.50, 0.625)

#: Per-model sizes.  ``tiny`` keeps every workload's shape at a size
#: the smoke test runs in seconds.
SIZES = {
    "mixtral": {
        "n_blocks": 8,
        "batch_requests": 32, "batch_prompt": 16, "batch_output": 32,
        "cluster_requests": (8, 8, 64),
        "sweep_prompts": 12, "sweep_prompt": 24, "sweep_output": 24,
    },
    "tiny": {
        "n_blocks": 4,
        "batch_requests": 12, "batch_prompt": 8, "batch_output": 8,
        "cluster_requests": (4, 4, 16),
        "sweep_prompts": 1, "sweep_prompt": 8, "sweep_output": 8,
    },
}
MODELS = tuple(SIZES)


@dataclass
class Outcome:
    """What one timed run of a workload produced.

    Attributes:
        tokens: generated tokens simulated (the host-throughput count).
        offered: requests offered.
        rejected: offered requests shed or expired.
        sim: simulated end-to-end metrics, by name.
        digest: hash of every report and token stream the run produced.
        results: ``(engine, GenerationResult)`` pairs; the engine is
            what :func:`repro.audit.audit_generation` audits against.
        accounting: one ``(label, offered ids, served ids, rejected
            ids)`` entry per request stream the run served.
        layers: workload-level simulated per-layer metrics.
        details: extra figures printed and written beside the metrics.
    """

    tokens: int
    offered: int
    rejected: int
    sim: dict
    digest: str
    results: list
    accounting: list
    layers: dict = field(default_factory=dict)
    details: dict = field(default_factory=dict)

    def summary(self) -> dict:
        """Everything that must repeat exactly: digest and sim figures."""
        return {"digest": self.digest, "tokens": self.tokens,
                **self.sim, **self.layers}


class _EngineAtFinish:
    """An engine as it stood when one of its sequences finished.

    A cluster replica's ``initial_placement`` moves from gang to gang,
    so the audit needs the placement each sequence started from; every
    other attribute reads through to the live engine.
    """

    def __init__(self, engine, initial_placement) -> None:
        self._engine = engine
        self.initial_placement = initial_placement

    def __getattr__(self, name):
        return getattr(self._engine, name)


def _collect_results(engine, sink: list) -> None:
    """Make ``engine.finish`` also append ``(engine, result)`` to ``sink``.

    The class attribute is looked up on every call, so a traced run's
    wrapper of ``BaseEngine.finish`` still sees the call.
    """
    def finish(state):
        result = type(engine).finish(engine, state)
        sink.append((_EngineAtFinish(engine, engine.initial_placement),
                     result))
        return result

    engine.finish = finish


def _digest(*parts) -> str:
    """sha256 over JSON texts and token arrays."""
    h = hashlib.sha256()
    for part in parts:
        if isinstance(part, np.ndarray):
            h.update(np.ascontiguousarray(part, dtype=np.int64).tobytes())
        else:
            h.update(str(part).encode())
    return h.hexdigest()[:32]


def _latency(ttfts: list, tpots: list) -> tuple:
    """TTFT/TPOT median and tail metrics, plus the tail's rank."""
    ttft_tail, ttft_pct, n_ttft = ledger.tail(ttfts)
    tpot_tail, tpot_pct, n_tpot = ledger.tail(tpots)
    metrics = {
        "sim_ttft_p50_s": ledger.median(ttfts),
        "sim_ttft_tail_s": ttft_tail,
        "sim_tpot_p50_s": ledger.median(tpots),
        "sim_tpot_tail_s": tpot_tail,
    }
    details = {
        "ttft_tail_percentile": ttft_pct, "ttft_samples": n_ttft,
        "tpot_tail_percentile": tpot_pct, "tpot_samples": n_tpot,
    }
    return metrics, details


def _tpot(result) -> float:
    """Per-output-token decode time of a solo generation."""
    stats = result.stats
    if stats.n_generated <= 1:
        return 0.0
    return stats.decode_time_s / (stats.n_generated - 1)


def simulated_layers(results: list) -> dict:
    """Engine counters and timeline attribution summed over results."""
    counters = [result.stats.counters for _, result in results]
    resident = sum(c.activated_gpu_resident for c in counters)
    activated = sum(c.activated_total for c in counters)
    out = {
        "core.gpu_hit_rate": resident / activated if activated else 0.0,
        "core.cpu_expert_execs": sum(c.cpu_expert_execs for c in counters),
        "core.expert_uploads": sum(c.expert_uploads for c in counters),
        "core.prefill_swaps": sum(c.prefill_swaps for c in counters),
        "core.degraded_swaps": sum(c.degraded_swaps for c in counters),
        "core.stale_input_execs": sum(c.stale_input_execs
                                      for c in counters),
    }
    predicted = mispredicted = 0
    busy = dict.fromkeys(ledger.LANES, 0.0)
    stage = dict.fromkeys(ledger.OP_KINDS, 0.0)
    critical = dict.fromkeys(ledger.OP_KINDS, 0.0)
    critical_total = 0.0
    for _, result in results:
        for block in block_divergence_accounting(result):
            predicted += block.predicted_events
            mispredicted += block.mispredicted_events
        for lane in ledger.LANES:
            busy[lane] += result.timeline.busy_time(lane)
        by_kind = attribution_report(result.timeline).by_kind
        for kind, seconds in by_kind.items():
            if kind in stage:
                stage[kind] += seconds
        on_path = critical_path(result.timeline).kind_breakdown()
        critical_total += sum(on_path.values())
        for kind, seconds in on_path.items():
            if kind in critical:
                critical[kind] += seconds
    out["core.prediction_accuracy"] = (
        (predicted - mispredicted) / predicted if predicted else 0.0
    )
    for lane in ledger.LANES:
        out[f"sim.busy.{lane}_s"] = busy[lane]
    for kind in ledger.OP_KINDS:
        out[f"sim.stage.{kind}_s"] = stage[kind]
        out[f"sim.critical.{kind}_share"] = (
            critical[kind] / critical_total if critical_total else 0.0
        )
    return out


def _gather_layers(gather) -> dict:
    """Expert kernels launched per logical expert op, by phase."""
    def ratio(kernels: int, ops: int) -> float:
        return kernels / ops if ops else 0.0

    return {
        "sched.expert_kernels_per_op.decode": ratio(
            gather.decode_expert_kernels, gather.decode_expert_ops),
        "sched.expert_kernels_per_op.prefill": ratio(
            gather.prefill_expert_kernels, gather.prefill_expert_ops),
    }


class Workload:
    """One named workload; construction is its set-up.

    Attributes:
        name: workload name (``--workload``).
        setup_parts: host seconds of the set-up's calibration and
            request materialization.
    """

    name = ""

    def __init__(self, model: str, seed: int) -> None:
        if model not in SIZES:
            raise ValueError(f"unknown model {model!r}; known: {MODELS}")
        self.size = SIZES[model]
        self.seed = seed
        if model == "tiny":
            self.bundle = build_tiny_moe(seed=0,
                                         n_blocks=self.size["n_blocks"])
        else:
            self.bundle = build_mixtral_8x7b_sim(
                seed=0, n_blocks=self.size["n_blocks"])
        self.platform = default_platform()
        start = now()
        self.calibration = calibrate_activation_probs(
            self.bundle, n_sequences=4, prompt_len=24, decode_len=24)
        self.setup_parts = {"calibration_s": now() - start}

    def engine(self, name: str, ecr: float = FIG9_ECR):
        """Build one engine on this set-up's bundle and calibration."""
        return build_engine(name, self.bundle, self.platform,
                            expert_cache_ratio=ecr,
                            calibration_probs=self.calibration)

    def run(self, clock) -> Outcome:
        """The timed body: serve the workload once.

        Args:
            clock: a :class:`hostclock.HostClock` (or ``NullClock``);
                the body calls ``clock.chunk()`` between units of work.
        """
        raise NotImplementedError

    def speedup_vs_fiddler(self, outcome: Outcome) -> float:
        """``sim_speedup_vs_fiddler``; may run a reference, untimed."""
        raise NotImplementedError

    def check(self, outcome: Outcome) -> list:
        """Output checks, run outside the timed body.

        Every offered request must be accounted exactly once as served,
        shed or expired, and every generation must pass
        :func:`repro.audit.audit_generation`.

        Returns:
            ``(request key, problem)`` pairs; a request with several
            problems appears once per problem.
        """
        problems = []
        for label, offered, served, rejected in outcome.accounting:
            seen = list(served) + list(rejected)
            if sorted(seen) != sorted(offered) or len(set(seen)) != len(seen):
                problems.append(((label, "accounting"),
                                 f"{label}: served {sorted(served)} and "
                                 f"rejected {sorted(rejected)} do not "
                                 "cover the offered requests exactly once"))
        for index, (engine, result) in enumerate(outcome.results):
            report = audit_generation(engine, result, self.platform)
            if not report.ok:
                problems.append((("result", index), report.format()))
        return problems

    def perf_layers(self) -> dict:
        """Compute-cache per-layer metrics (zero without a cache)."""
        out = {"perf.evictions": 0}
        for stage in ledger.CACHE_STAGES:
            out[f"perf.{stage}.hit_rate"] = 0.0
        return out


class DecodeBatch(Workload):
    """Offline batch through the continuous-batching scheduler.

    Every request arrives at t=0; DAOP on the Mixtral analogue at ECR
    0.469 serves them gathered, four at a time, teacher-forced on the
    dataset continuation.  SLO figures use the ``batch`` class, the
    class of offline work, and treat the batch's makespan as the span
    over which the requests were served.
    """

    name = "decode-batch"
    max_batch = 4

    def __init__(self, model: str, seed: int) -> None:
        super().__init__(model, seed)
        size = self.size
        start = now()
        generator = SequenceGenerator(SHAREGPT, self.bundle.vocab, seed=seed)
        self.requests = []
        for i in range(size["batch_requests"]):
            sequence = generator.sample_sequence(
                size["batch_prompt"], size["batch_output"], sample_idx=i)
            self.requests.append(SequenceRequest(
                prompt_tokens=sequence.prompt_tokens,
                max_new_tokens=size["batch_output"],
                forced_tokens=sequence.continuation_tokens,
                seq_id=i,
            ))
        self.setup_parts["requests_s"] = now() - start
        self.daop = self.engine("daop")
        self.fiddler = self.engine("fiddler")

    def _serve(self, engine, clock):
        """``ContinuousBatchScheduler.run``, one clock chunk per round."""
        scheduler = ContinuousBatchScheduler(
            engine, max_batch=self.max_batch, mode=GATHERED)
        session = scheduler.begin(self.requests)
        while scheduler.tick(session):
            clock.chunk()
        return scheduler.finish(session)

    def run(self, clock) -> Outcome:
        report = self._serve(self.daop, clock)
        records = report.records
        span = report.makespan_s
        met = [r for r in records if classify_slo(BATCH, r.ttft_s, r.tpot_s)]
        energy_kj = sum(r.result.stats.energy.total_kj for r in records)
        sim = {
            "sim_tokens_per_s": report.throughput_tokens_per_s,
            "sim_tokens_per_kj": report.total_generated / energy_kj,
            "sim_slo_attainment": len(met) / len(self.requests),
            "sim_goodput_tokens_per_s":
                sum(r.n_generated for r in met) / span,
            "sim_max_rate_at_slo_rps": len(met) / span,
        }
        latency, details = _latency([r.ttft_s for r in records],
                                    [r.tpot_s for r in records])
        sim.update(latency)
        layers = _gather_layers(report.gather)
        layers["sched.queue_delay_mean_s"] = float(
            np.mean([r.queue_delay_s for r in records]))
        return Outcome(
            tokens=report.total_generated,
            offered=len(self.requests),
            rejected=0,
            sim=sim,
            digest=_digest(report.to_json(),
                           *[r.result.tokens for r in records]),
            results=[(self.daop, r.result) for r in records],
            accounting=[("batch", [r.seq_id for r in self.requests],
                         [r.seq_id for r in records], [])],
            layers=layers,
            details=details,
        )

    def speedup_vs_fiddler(self, outcome: Outcome) -> float:
        """DAOP over Fiddler throughput on the same batch."""
        reference = self._serve(self.fiddler, NullClock())
        return (outcome.sim["sim_tokens_per_s"]
                / reference.throughput_tokens_per_s)


def cluster_scenario(rate: float, n_requests: int) -> ScenarioSpec:
    """The benchmark's three-tenant traffic at one Poisson rate.

    The tenants are weighted equally and each has a fixed output
    length, so the tenant mix a seed draws moves neither the host work
    per generated token nor the top rung's backlog by much.
    """
    return ScenarioSpec(
        name="perfbench-cluster-slo",
        description="long-context prompts, interactive ShareGPT chat and "
                    "a GSM8K topic-drift tenant",
        arrival=ArrivalSpec(kind="poisson", rate_per_s=rate,
                            n_requests=n_requests),
        tenants=(
            TenantSpec(
                name="long-context", weight=1.0, dataset="c4",
                slo_class=LONG_CONTEXT,
                prompt_len=LengthSpec(kind="uniform", low=160, high=224),
                output_len=LengthSpec(kind="fixed", value=32),
            ),
            TenantSpec(
                name="chat", weight=1.0, dataset=SHAREGPT.name,
                slo_class=INTERACTIVE,
                prompt_len=LengthSpec(kind="uniform", low=32, high=48),
                output_len=LengthSpec(kind="fixed", value=16),
            ),
            TenantSpec(
                name="topic-drift", weight=1.0, dataset=GSM8K.name,
                slo_class=INTERACTIVE,
                prompt_len=LengthSpec(kind="fixed", value=32),
                output_len=LengthSpec(kind="fixed", value=16),
            ),
        ),
    )


class ClusterSLO(Workload):
    """Two DAOP replicas under open-loop Poisson traffic, rung by rung.

    The rate ladder runs from below the fleet's capacity (about 1.3
    req/s) to far above it.  The lower rungs offer 8 requests each; the
    top rung offers 64, so its tail has enough samples and its backlog
    outlasts the interactive TTFT target.  Every ``sim_*`` figure except
    ``sim_max_rate_at_slo_rps`` is read at the top rung; TTFT counts
    from each request's scheduled arrival.
    """

    name = "cluster-slo"
    #: Offered Poisson rates in requests per simulated second.
    rates = (0.25, 1.0, 16.0)
    #: ``sim_slo_attainment`` a rung needs to count as served at SLO.
    attainment_target = 0.9
    replicas = 2
    concurrency = 2

    def __init__(self, model: str, seed: int) -> None:
        super().__init__(model, seed)
        start = now()
        self.runners = [
            ScenarioRunner(cluster_scenario(rate, n_requests),
                           self.bundle.vocab, seed=seed)
            for rate, n_requests
            in zip(self.rates, self.size["cluster_requests"])
        ]
        self.specs = [runner.build_requests() for runner in self.runners]
        self.setup_parts["requests_s"] = now() - start
        self.finished = []
        engines = [self.engine("daop") for _ in range(self.replicas)]
        for engine in engines:
            _collect_results(engine, self.finished)
        self.simulators = [self._simulator(engines) for _ in self.rates]
        self.reference = self._simulator(
            [self.engine("fiddler") for _ in range(self.replicas)])

    def _simulator(self, engines) -> ClusterSimulator:
        crossover = engines[0].cost_model.batch_crossover_tokens(
            self.platform.gpu)
        admission = AdmissionController(
            max_queue_len=self.size["cluster_requests"][-1] * 3 // 4,
            ttft_deadline_s=240.0,
            batch_hold_s=1.0,
            crossover_tokens=crossover,
        )
        return ClusterSimulator(
            engines, None, build_policy("cache-affinity"),
            admission=admission, concurrency=self.concurrency,
            mode=GATHERED,
        )

    @staticmethod
    def _serve(runner, simulator, specs, clock) -> tuple:
        """Drive one rung; returns its cluster and scenario reports.

        ``ScenarioRunner.run`` spelled out, one clock chunk per event,
        so the cluster report is kept beside the scenario report.
        """
        session = runner.begin(simulator, requests=specs)
        clock.chunk()
        while runner.tick(simulator, session):
            clock.chunk()
        cluster = simulator.finish_session(session.backend)
        return cluster, runner.finish(simulator, session)

    @staticmethod
    def _throughput(scenario) -> float:
        return sum(r.n_generated for r in scenario.requests) / \
            scenario.makespan_s

    def run(self, clock) -> Outcome:
        del self.finished[:]
        rungs = [
            self._serve(runner, simulator, specs, clock)
            for runner, simulator, specs
            in zip(self.runners, self.simulators, self.specs)
        ]
        ladder = []
        max_rate = 0.0
        for rate, (_, scenario) in zip(self.rates, rungs):
            attainment = (sum(r.slo_met for r in scenario.requests)
                          / scenario.n_offered)
            ladder.append({"rate_rps": rate, "attainment": attainment,
                           "served": scenario.n_served,
                           "rejected": len(scenario.rejected),
                           "makespan_s": scenario.makespan_s})
            if attainment >= self.attainment_target \
                    and not scenario.rejected:
                max_rate = rate
        top_cluster, top = rungs[-1]
        served = top.requests
        met = [r for r in served if r.slo_met]
        sim = {
            "sim_tokens_per_s": self._throughput(top),
            "sim_tokens_per_kj": sum(r.n_generated for r in served)
            / (sum(r.energy_j for r in served) / 1000.0),
            "sim_slo_attainment": len(met) / top.n_offered,
            "sim_goodput_tokens_per_s":
                sum(r.n_generated for r in met) / top.makespan_s,
            "sim_max_rate_at_slo_rps": max_rate,
        }
        latency, details = _latency([r.ttft_s for r in served],
                                    [r.tpot_s for r in served])
        sim.update(latency)
        details["ladder"] = ladder
        details["attainment_target"] = self.attainment_target
        gather = None
        for cluster, _ in rungs:
            for stats in cluster.replica_gather:
                if gather is None:
                    gather = type(stats)()
                gather.merge(stats)
        layers = _gather_layers(gather)
        layers["sched.queue_delay_mean_s"] = float(np.mean(
            [r.queue_delay_s for _, s in rungs for r in s.requests]))
        layers.update({
            "cluster.shed": sum(c.n_shed for c, _ in rungs),
            "cluster.expired": sum(c.n_expired for c, _ in rungs),
            "cluster.warm_hit_rate": top_cluster.mean_warm_hit_rate,
            "cluster.load_balance": top_cluster.load_balance_index,
            "cluster.queue_delay_mean_s": top_cluster.mean_queue_delay_s,
        })
        return Outcome(
            tokens=sum(r.n_generated for _, s in rungs for r in s.requests),
            offered=sum(s.n_offered for _, s in rungs),
            rejected=sum(len(s.rejected) for _, s in rungs),
            sim=sim,
            digest=_digest(*[s.content_digest() for _, s in rungs]),
            results=list(self.finished),
            accounting=[
                (f"rung {rate}", [spec.request_id for spec in specs],
                 [r.request_id for r in s.requests],
                 [r.request_id for r in s.rejected])
                for rate, specs, (_, s) in zip(self.rates, self.specs, rungs)
            ],
            layers=layers,
            details=details,
        )

    def speedup_vs_fiddler(self, outcome: Outcome) -> float:
        """DAOP over Fiddler fleet throughput at the top rung."""
        _, reference = self._serve(self.runners[-1], self.reference,
                                   self.specs[-1], NullClock())
        return outcome.sim["sim_tokens_per_s"] / self._throughput(reference)


class ECRSweep(Workload):
    """The paper's Fig. 9/10 regime: solo greedy generation, every engine.

    Every engine in ``ENGINE_NAMES`` runs at ECR 0.469, and Fiddler and
    DAOP at each Fig. 10 ECR, on the same prompts, with one
    :class:`~repro.perf.TensorCache` attached across the whole sweep (a
    fresh one per run, so every run starts cold).  Latency and SLO
    figures treat the sweep's generations as served one after another
    under the ``interactive`` class.
    """

    name = "ecr-sweep"

    def __init__(self, model: str, seed: int) -> None:
        super().__init__(model, seed)
        size = self.size
        start = now()
        generator = SequenceGenerator(SHAREGPT, self.bundle.vocab, seed=seed)
        self.prompts = [
            generator.sample_sequence(size["sweep_prompt"], 0,
                                      sample_idx=i).prompt_tokens
            for i in range(size["sweep_prompts"])
        ]
        self.setup_parts["requests_s"] = now() - start
        points = [(name, FIG9_ECR) for name in ENGINE_NAMES]
        points += [(name, ecr) for ecr in FIG10_ECRS
                   for name in ("fiddler", "daop")]
        self.engines = {point: self.engine(*point) for point in points}
        self.cache = None

    def run(self, clock) -> Outcome:
        output_len = self.size["sweep_output"]
        self.cache = TensorCache()
        model = self.bundle.model
        model.attach_compute_cache(self.cache)
        generations = {}
        try:
            for point, engine in self.engines.items():
                generations[point] = []
                for prompt in self.prompts:
                    result = engine.generate(prompt, output_len)
                    clock.chunk()
                    generations[point].append((engine, result))
        finally:
            model.detach_compute_cache()
        results = [pair for pairs in generations.values() for pair in pairs]
        stats = [result.stats for _, result in results]

        def decode_rate(point) -> float:
            runs = [r.stats for _, r in generations[point]]
            return (sum(s.n_generated - 1 for s in runs)
                    / sum(s.decode_time_s for s in runs))

        ttfts = [s.prefill_time_s for s in stats]
        tpots = [_tpot(result) for _, result in results]
        met = [s for s, ttft, tpot in zip(stats, ttfts, tpots)
               if classify_slo(INTERACTIVE, ttft, tpot)]
        served_s = sum(s.total_time_s for s in stats)
        tokens = sum(s.n_generated for s in stats)
        sim = {
            "sim_tokens_per_s": decode_rate(("daop", FIG9_ECR)),
            "sim_speedup_vs_fiddler": ledger.geomean(
                decode_rate(("daop", ecr)) / decode_rate(("fiddler", ecr))
                for ecr in FIG10_ECRS),
            "sim_tokens_per_kj":
                tokens / sum(s.energy.total_kj for s in stats),
            "sim_slo_attainment": len(met) / len(stats),
            "sim_goodput_tokens_per_s":
                sum(s.n_generated for s in met) / served_s,
            "sim_max_rate_at_slo_rps": len(met) / served_s,
        }
        latency, details = _latency(ttfts, tpots)
        sim.update(latency)
        details["fig10_decode_tokens_per_s"] = {
            f"{name}@{ecr}": decode_rate((name, ecr))
            for ecr in FIG10_ECRS for name in ("fiddler", "daop")
        }
        return Outcome(
            tokens=tokens,
            offered=len(results),
            rejected=0,
            sim=sim,
            digest=_digest(*[
                part for _, result in results
                for part in (result.tokens,
                             json.dumps(result.stats.to_state_dict(),
                                        sort_keys=True))
            ]),
            results=results,
            accounting=[],
            details=details,
        )

    def speedup_vs_fiddler(self, outcome: Outcome) -> float:
        """Already measured inside the sweep."""
        return outcome.sim["sim_speedup_vs_fiddler"]

    def check(self, outcome: Outcome) -> list:
        """Audits, plus token parity of every non-predictive engine.

        Engines that never deviate from the true gate must produce the
        ``official`` engine's greedy tokens exactly.
        """
        problems = super().check(outcome)
        n_prompts = len(self.prompts)
        oracle = outcome.results[:n_prompts]
        for index, (engine, result) in enumerate(outcome.results):
            if getattr(engine, "enable_precalc", False):
                continue
            expected = oracle[index % n_prompts][1].tokens
            n_divergent, first = compare_token_streams(expected,
                                                       result.tokens)
            if n_divergent:
                problems.append((
                    ("result", index),
                    f"{engine.name}: {n_divergent} token(s) differ from "
                    f"official, first at position {first}",
                ))
        return problems

    def perf_layers(self) -> dict:
        stats = self.cache.stats()
        out = {"perf.evictions": stats["evictions"]}
        for stage in ledger.CACHE_STAGES:
            counters = self.cache.stage_counters.get(stage)
            out[f"perf.{stage}.hit_rate"] = (
                counters.hit_rate if counters is not None else 0.0)
        return out


#: Workload classes by name.
WORKLOADS = {cls.name: cls for cls in (DecodeBatch, ClusterSLO, ECRSweep)}
