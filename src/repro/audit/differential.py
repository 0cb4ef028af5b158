"""Cross-engine differential audit against the all-on-GPU oracle.

The central correctness invariant of this reproduction (and of the
compute-placement-invariance assumption Fiddler and Pre-gated MoE share
with DAOP) is that expert *placement* may change simulated time and
energy but never values: every non-predictive engine must emit a
byte-identical token stream to the all-on-GPU ``official`` oracle, and
DAOP's prediction path may diverge only through the approximations its
trace marks ``predicted=True`` (predicted expert sets, stale CPU inputs,
graceful degradation).

:func:`run_differential_audit` runs every registered engine against the
oracle over a seeded prompt matrix and asserts exactly that, with
per-block divergence accounting (how many decode events each block
predicted and mispredicted) and a full invariant audit
(:mod:`repro.audit.invariants`) of every generation produced.

:func:`run_step_parity_audit` guards the step-machine refactor itself:
for every engine, one sequence driven through the explicit
``start``/``step``/``finish`` API and one driven through the
batch-1 :class:`~repro.sched.scheduler.ContinuousBatchScheduler` must
reproduce the monolithic ``generate()`` run exactly — same tokens, same
counters, same makespan — and the scheduler-produced result must pass
the full invariant audit.

Both audits accept a shared content-addressed ``compute_cache``
(``repro.perf.TensorCache``): identical forwards are then computed once
across the whole engine matrix.  ``cache_parity=True`` additionally runs
every generation a second time with the cache detached and asserts the
two runs are *bitwise* interchangeable — same tokens, same trace events,
same counters, and a per-op-identical timeline — which is the memoization
layer's own correctness contract.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.audit.invariants import AuditReport, audit_generation
from repro.audit.resume import timeline_signature
from repro.core import ENGINE_NAMES, build_engine
from repro.core.engine import GenerationResult, SequenceRequest
from repro.hardware.platform import Platform
from repro.model.zoo import ModelBundle
from repro.sched.scheduler import GATHERED, ContinuousBatchScheduler
from repro.trace.recorder import DECODE
from repro.workloads import C4, SequenceGenerator

#: The engine whose output defines correctness (ECR 100 %, exact math).
ORACLE_ENGINE = "official"

#: Default seeds for the prompt matrix (acceptance: >= 3).
DEFAULT_SEEDS = (0, 1, 2)


@dataclass(frozen=True)
class BlockDivergence:
    """Per-block accounting of decode-phase prediction divergence."""

    block: int
    decode_events: int
    predicted_events: int
    mispredicted_events: int

    @property
    def prediction_accuracy(self) -> float:
        """Fraction of predicted events whose executed set matched."""
        if self.predicted_events == 0:
            return 1.0
        return 1.0 - self.mispredicted_events / self.predicted_events


@dataclass
class EngineComparison:
    """One engine vs the oracle on one seeded prompt."""

    engine: str
    seed: int
    n_tokens: int
    n_divergent: int
    first_divergence: int | None
    predictive: bool
    problems: list = field(default_factory=list)
    block_divergence: list = field(default_factory=list)
    audit: AuditReport | None = None

    @property
    def ok(self) -> bool:
        """Whether this comparison satisfied its identity contract."""
        return not self.problems and (self.audit is None or self.audit.ok)

    @property
    def identical(self) -> bool:
        """Whether the token stream matched the oracle exactly."""
        return self.n_divergent == 0


@dataclass
class DifferentialReport:
    """Aggregated outcome of a differential audit run."""

    oracle: str
    comparisons: list = field(default_factory=list)
    oracle_audits: list = field(default_factory=list)
    cache_parity_problems: list = field(default_factory=list)

    @property
    def ok(self) -> bool:
        """Whether every comparison and every invariant audit passed."""
        return (all(c.ok for c in self.comparisons)
                and all(a.ok for a in self.oracle_audits)
                and not self.cache_parity_problems)

    @property
    def problems(self) -> list:
        """Every problem string across all comparisons and audits."""
        out = list(self.cache_parity_problems)
        for comparison in self.comparisons:
            prefix = f"{comparison.engine}/seed{comparison.seed}"
            out.extend(f"{prefix}: {p}" for p in comparison.problems)
            if comparison.audit is not None:
                out.extend(f"{prefix}: {v.format()}"
                           for v in comparison.audit.violations)
        for audit in self.oracle_audits:
            out.extend(f"{self.oracle}: {v.format()}"
                       for v in audit.violations)
        return out

    def rows(self) -> list:
        """Tabular summary: one row per (engine, seed) comparison."""
        rows = []
        for c in self.comparisons:
            mispredicted = sum(b.mispredicted_events
                               for b in c.block_divergence)
            rows.append([
                c.engine, c.seed,
                "yes" if c.identical else f"@{c.first_divergence}",
                c.n_divergent, mispredicted,
                "ok" if c.ok else "FAIL",
            ])
        return rows

    def format(self) -> str:
        """Multi-line human-readable summary of the whole run."""
        lines = [
            f"differential audit vs {self.oracle}: "
            f"{len(self.comparisons)} comparison(s), "
            f"{'all ok' if self.ok else 'FAILURES'}"
        ]
        lines.extend(f"  {p}" for p in self.problems)
        return "\n".join(lines)


def compare_token_streams(oracle_tokens: np.ndarray,
                          engine_tokens: np.ndarray):
    """Token-stream difference summary.

    Returns:
        ``(n_divergent, first_divergence)`` where ``first_divergence`` is
        the index of the first differing position (``None`` when the
        streams are identical); a length mismatch counts every position
        past the common prefix as divergent.
    """
    oracle_tokens = np.asarray(oracle_tokens)
    engine_tokens = np.asarray(engine_tokens)
    n = min(oracle_tokens.size, engine_tokens.size)
    diff = oracle_tokens[:n] != engine_tokens[:n]
    tail = max(oracle_tokens.size, engine_tokens.size) - n
    n_divergent = int(np.count_nonzero(diff)) + tail
    if n_divergent == 0:
        return 0, None
    if diff.any():
        return n_divergent, int(np.argmax(diff))
    return n_divergent, n


def block_divergence_accounting(result: GenerationResult) -> list:
    """Per-block decode divergence summary of one generation's trace."""
    per_block: dict = {}
    for event in result.trace.events:
        if event.phase != DECODE:
            continue
        stats = per_block.setdefault(event.block, [0, 0, 0])
        stats[0] += 1
        if event.predicted:
            stats[1] += 1
            executed = (event.executed_experts
                        if event.executed_experts is not None
                        else event.experts)
            if set(executed) != set(event.experts):
                stats[2] += 1
    return [
        BlockDivergence(block=block, decode_events=stats[0],
                        predicted_events=stats[1],
                        mispredicted_events=stats[2])
        for block, stats in sorted(per_block.items())
    ]


def _timeline_signature(result: GenerationResult) -> list:
    """Per-op timeline fingerprint (resource, timing, kind, label)."""
    return [
        (op.resource, op.duration, op.start, op.end, op.kind, op.label)
        for op in result.timeline.ops
    ]


def cache_parity_problems(baseline: GenerationResult,
                          cached: GenerationResult) -> list:
    """Bitwise differences between a cache-off and a cache-on generation.

    The compute cache's contract is invisibility: attaching it may change
    wall-clock time only.  Tokens, trace events, engine counters, stats,
    and the *per-op* simulated timeline must all match exactly.
    """
    problems = []
    if not np.array_equal(baseline.tokens, cached.tokens):
        problems.append("cache parity: token stream differs from cache-off run")
    if baseline.trace.events != cached.trace.events:
        problems.append("cache parity: trace events differ from cache-off run")
    if baseline.stats.counters != cached.stats.counters:
        problems.append("cache parity: EngineCounters differ from cache-off run")
    for attr in ("prefill_time_s", "total_time_s"):
        if getattr(baseline.stats, attr) != getattr(cached.stats, attr):
            problems.append(
                f"cache parity: {attr} differs from cache-off run"
            )
    if baseline.timeline.makespan != cached.timeline.makespan:
        problems.append("cache parity: makespan differs from cache-off run")
    if _timeline_signature(baseline) != _timeline_signature(cached):
        problems.append(
            "cache parity: per-op timeline differs from cache-off run"
        )
    return problems


def _generate_cache_off(model, compute_cache, engine, prompt,
                        max_new_tokens) -> GenerationResult:
    """Run one generation with the compute cache temporarily detached."""
    model.detach_compute_cache()
    try:
        return engine.generate(prompt, max_new_tokens)
    finally:
        model.attach_compute_cache(compute_cache)


def _is_predictive(engine) -> bool:
    """Whether the engine's *math* may deviate from the true gate."""
    return bool(getattr(engine, "enable_precalc", False))


def _compare(engine, name: str, seed: int, oracle: GenerationResult,
             result: GenerationResult,
             audit_invariants: bool) -> EngineComparison:
    n_divergent, first = compare_token_streams(oracle.tokens, result.tokens)
    comparison = EngineComparison(
        engine=name, seed=seed, n_tokens=int(result.tokens.size),
        n_divergent=n_divergent, first_divergence=first,
        predictive=_is_predictive(engine),
        block_divergence=block_divergence_accounting(result),
    )
    if result.tokens.size != oracle.tokens.size:
        comparison.problems.append(
            f"generated {result.tokens.size} tokens but the oracle "
            f"generated {oracle.tokens.size}"
        )
    has_predicted = any(e.predicted for e in result.trace.events)
    if not comparison.predictive:
        if n_divergent:
            comparison.problems.append(
                f"non-predictive engine diverged from the oracle at "
                f"token {first} ({n_divergent} position(s)); placement "
                "must never change values"
            )
        if has_predicted:
            comparison.problems.append(
                "non-predictive engine marked trace events predicted=True"
            )
    else:
        if result.tokens.size and oracle.tokens.size \
                and result.tokens[0] != oracle.tokens[0]:
            comparison.problems.append(
                "first token diverged from the oracle; DAOP prefill is "
                "exact so divergence may only start in decode"
            )
        if n_divergent and not has_predicted:
            comparison.problems.append(
                f"diverged from the oracle at token {first} without a "
                "single predicted=True trace event to attribute it to"
            )
    if audit_invariants:
        comparison.audit = audit_generation(engine, result)
    return comparison


def run_differential_audit(
    bundle: ModelBundle,
    platform: Platform,
    engine_names=None,
    seeds=DEFAULT_SEEDS,
    prompt_len: int = 16,
    max_new_tokens: int = 12,
    expert_cache_ratio: float = 0.5,
    calibration_probs: np.ndarray | None = None,
    dataset=C4,
    audit_invariants: bool = True,
    compute_cache=None,
    cache_parity: bool = False,
) -> DifferentialReport:
    """Run every engine against the oracle over a seeded prompt matrix.

    Args:
        bundle: the model to drive every engine with.
        platform: simulated hardware platform.
        engine_names: engines to audit (default: every registered
            engine except the oracle itself).
        seeds: one prompt is drawn per seed (>= 3 for the acceptance
            criterion).
        prompt_len: prompt length in tokens.
        max_new_tokens: decode steps per generation.
        expert_cache_ratio: ECR for the cached engines.
        calibration_probs: calibrated activation probabilities (optional).
        dataset: workload dataset the prompt matrix is drawn from.
        audit_invariants: also run the full invariant audit on every
            generation (including the oracle's).
        compute_cache: optional shared ``repro.perf.TensorCache``
            attached to the model for the whole run, so identical
            forwards are computed once across engines and seeds.
        cache_parity: with a ``compute_cache``, additionally re-run
            every generation cache-off and assert the cache-on run is
            bitwise interchangeable (tokens, trace events, counters,
            per-op timeline).  Failures land in ``report.problems``.

    Returns:
        A :class:`DifferentialReport`; ``report.ok`` is the audited
        invariant of the whole reproduction.
    """
    if cache_parity and compute_cache is None:
        raise ValueError("cache_parity=True requires a compute_cache")
    if engine_names is None:
        engine_names = tuple(n for n in ENGINE_NAMES if n != ORACLE_ENGINE)
    oracle_engine = build_engine(ORACLE_ENGINE, bundle, platform,
                                 expert_cache_ratio, calibration_probs)
    engines = {
        name: build_engine(name, bundle, platform, expert_cache_ratio,
                           calibration_probs)
        for name in engine_names
    }
    report = DifferentialReport(oracle=ORACLE_ENGINE)
    model = bundle.model
    if compute_cache is not None:
        model.attach_compute_cache(compute_cache)
    try:
        for seed in seeds:
            generator = SequenceGenerator(dataset, bundle.vocab,
                                          seed=int(seed))
            prompt = generator.sample_sequence(
                prompt_len, 0, sample_idx=0
            ).prompt_tokens
            oracle_result = oracle_engine.generate(prompt, max_new_tokens)
            if cache_parity:
                baseline = _generate_cache_off(
                    model, compute_cache, oracle_engine, prompt,
                    max_new_tokens,
                )
                report.cache_parity_problems.extend(
                    f"{ORACLE_ENGINE}/seed{seed}: {p}"
                    for p in cache_parity_problems(baseline, oracle_result)
                )
            if audit_invariants:
                report.oracle_audits.append(
                    audit_generation(oracle_engine, oracle_result)
                )
            for name, engine in engines.items():
                result = engine.generate(prompt, max_new_tokens)
                comparison = _compare(engine, name, int(seed),
                                      oracle_result, result,
                                      audit_invariants)
                if cache_parity:
                    baseline = _generate_cache_off(
                        model, compute_cache, engine, prompt, max_new_tokens
                    )
                    comparison.problems.extend(
                        cache_parity_problems(baseline, result)
                    )
                report.comparisons.append(comparison)
    finally:
        if compute_cache is not None:
            model.detach_compute_cache()
    return report


@dataclass
class StepParityComparison:
    """One engine's step-path runs vs its monolithic ``generate()``."""

    engine: str
    seed: int
    problems: list = field(default_factory=list)
    audit: AuditReport | None = None
    batch_audits: list = field(default_factory=list)

    @property
    def ok(self) -> bool:
        """Whether every step path reproduced ``generate()`` exactly."""
        return (not self.problems
                and (self.audit is None or self.audit.ok)
                and all(a.ok for a in self.batch_audits))


@dataclass
class StepParityReport:
    """Aggregated outcome of a step-parity audit run."""

    comparisons: list = field(default_factory=list)

    @property
    def ok(self) -> bool:
        """Whether every engine passed on every seed."""
        return all(c.ok for c in self.comparisons)

    @property
    def problems(self) -> list:
        """Every problem string, prefixed with engine/seed."""
        out = []
        for c in self.comparisons:
            prefix = f"{c.engine}/seed{c.seed}"
            out.extend(f"{prefix}: {p}" for p in c.problems)
            if c.audit is not None:
                out.extend(f"{prefix}: {v.format()}"
                           for v in c.audit.violations)
            for i, audit in enumerate(c.batch_audits):
                out.extend(f"{prefix}/gathered seq{i}: {v.format()}"
                           for v in audit.violations)
        return out

    def format(self) -> str:
        """Multi-line human-readable summary of the whole run."""
        lines = [
            f"step-parity audit: {len(self.comparisons)} comparison(s), "
            f"{'all ok' if self.ok else 'FAILURES'}"
        ]
        lines.extend(f"  {p}" for p in self.problems)
        return "\n".join(lines)


def _check_parity(comparison: StepParityComparison, path: str,
                  reference: GenerationResult,
                  candidate: GenerationResult) -> None:
    """Assert one step-path result reproduces ``generate()`` exactly."""
    if not np.array_equal(reference.tokens, candidate.tokens):
        comparison.problems.append(
            f"{path}: token stream differs from generate()"
        )
    if reference.stats.counters != candidate.stats.counters:
        comparison.problems.append(
            f"{path}: EngineCounters differ from generate()"
        )
    for attr in ("prefill_time_s", "total_time_s"):
        ref = getattr(reference.stats, attr)
        got = getattr(candidate.stats, attr)
        if ref != got:
            comparison.problems.append(
                f"{path}: {attr} {got!r} != generate()'s {ref!r}"
            )
    want_ops = timeline_signature(reference.timeline)
    got_ops = timeline_signature(candidate.timeline)
    if got_ops != want_ops:
        where = next(
            (i for i, (g, w) in enumerate(zip(got_ops, want_ops)) if g != w),
            min(len(got_ops), len(want_ops)),
        )
        comparison.problems.append(
            f"{path}: per-op timeline differs from generate() at op "
            f"{where} ({len(got_ops)} vs {len(want_ops)} ops)"
        )


def run_step_parity_audit(
    bundle: ModelBundle,
    platform: Platform,
    engine_names=None,
    seeds=(0,),
    prompt_len: int = 16,
    max_new_tokens: int = 8,
    expert_cache_ratio: float = 0.5,
    calibration_probs: np.ndarray | None = None,
    dataset=C4,
    audit_invariants: bool = True,
    compute_cache=None,
) -> StepParityReport:
    """Audit start/step/finish parity with ``generate()`` per engine.

    For every engine and seed, the same request is run three ways: the
    monolithic ``generate()``, an explicit ``start``/``step``/``finish``
    loop, and a batch-1 :class:`ContinuousBatchScheduler`.  All three
    must agree bitwise on tokens, counters, and the full per-op
    timeline signature (resource, duration, start, end, kind, label of
    every op, :func:`~repro.audit.resume.timeline_signature`); the
    scheduler-produced result additionally passes the full invariant
    audit (so scheduler output is interchangeable with ``generate()``
    output everywhere downstream).

    A fourth path audits gathered cross-sequence execution: four
    distinct prompts run through a batch-4 gathered scheduler, and every
    sequence's tokens and counters must match its own solo
    ``generate()`` token for token (the ``step_batch`` contract — only
    the simulated schedule may change), with each batched result passing
    the invariant audit on its rebased timeline.  The four prompts share
    one length, so the scheduler's prompt-length bucketing forms a
    prefill cohort and the same parity check covers gathered *prefill*
    too; the audit additionally asserts that prefill kernels really were
    gathered, so this coverage cannot silently degrade to solo prefill.

    An optional shared ``compute_cache`` is attached for the whole run —
    the paths then also exercise the memoization layer under the step
    machine and the scheduler.
    """
    if engine_names is None:
        engine_names = ENGINE_NAMES
    report = StepParityReport()
    model = bundle.model
    if compute_cache is not None:
        model.attach_compute_cache(compute_cache)
    try:
        for seed in seeds:
            generator = SequenceGenerator(dataset, bundle.vocab,
                                          seed=int(seed))
            prompts = [
                generator.sample_sequence(
                    prompt_len, 0, sample_idx=i
                ).prompt_tokens
                for i in range(4)
            ]
            prompt = prompts[0]
            for name in engine_names:
                engine = build_engine(name, bundle, platform,
                                      expert_cache_ratio, calibration_probs)
                comparison = StepParityComparison(engine=name, seed=int(seed))
                reference = engine.generate(prompt, max_new_tokens)

                state = engine.start(SequenceRequest(
                    prompt_tokens=prompt, max_new_tokens=max_new_tokens,
                ))
                while not state.done:
                    engine.step(state)
                _check_parity(comparison, "start/step/finish",
                              reference, engine.finish(state))

                scheduler = ContinuousBatchScheduler(engine, max_batch=1)
                batch = scheduler.run([SequenceRequest(
                    prompt_tokens=prompt, max_new_tokens=max_new_tokens,
                )])
                scheduled = batch.records[0].result
                _check_parity(comparison, "scheduler@1", reference, scheduled)
                if audit_invariants:
                    comparison.audit = audit_generation(engine, scheduled)

                solo_refs = [reference] + [
                    engine.generate(p, max_new_tokens) for p in prompts[1:]
                ]
                gathered = ContinuousBatchScheduler(
                    engine, max_batch=len(prompts), mode=GATHERED
                )
                batch4 = gathered.run([
                    SequenceRequest(prompt_tokens=p,
                                    max_new_tokens=max_new_tokens, seq_id=i)
                    for i, p in enumerate(prompts)
                ])
                gather = batch4.gather
                if gather is None or gather.prefill_expert_kernels == 0:
                    comparison.problems.append(
                        "gathered@4: prefill kernels were not gathered "
                        "(bucketing did not form a cohort)"
                    )
                elif not (gather.prefill_expert_kernels
                          < gather.prefill_expert_ops):
                    comparison.problems.append(
                        "gathered@4: prefill expert calls were not "
                        "amortized across the cohort"
                    )
                records = sorted(batch4.records, key=lambda r: r.seq_id)
                for i, (record, solo) in enumerate(zip(records, solo_refs)):
                    batched = record.result
                    if not np.array_equal(solo.tokens, batched.tokens):
                        comparison.problems.append(
                            f"gathered@4 seq{i}: token stream differs "
                            "from solo generate()"
                        )
                    if solo.stats.counters != batched.stats.counters:
                        comparison.problems.append(
                            f"gathered@4 seq{i}: EngineCounters differ "
                            "from solo generate()"
                        )
                    if audit_invariants:
                        comparison.batch_audits.append(
                            audit_generation(engine, batched)
                        )
                report.comparisons.append(comparison)
    finally:
        if compute_cache is not None:
            model.detach_compute_cache()
    return report
