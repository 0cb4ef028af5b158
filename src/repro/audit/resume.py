"""Resume-parity audit: checkpoint/restore must be invisible.

The lifecycle stack's core invariant (see ``docs/lifecycle.md``) is that
pausing is free: a run checkpointed at step *k*, serialized through JSON
bytes, restored into a *freshly built* engine, and driven to completion
must be bitwise identical to a run that never paused — same tokens,
same counters, same activation trace, same per-op timeline.  This
module audits that invariant for every engine, at both lifecycle
layers:

- **sequence layer** — ``start``/``step`` to a cut point, freeze via
  :meth:`~repro.core.engine.BaseEngine.checkpoint_sequence`, restore
  into a fresh engine with
  :meth:`~repro.core.engine.BaseEngine.restore_sequence`, finish, and
  compare against an uninterrupted ``generate()``;
- **scheduler layer** — a multi-request continuous-batch session is cut
  mid-flight via
  :meth:`~repro.sched.scheduler.ContinuousBatchScheduler.
  checkpoint_session` and resumed on a fresh engine + scheduler; the
  finished :class:`~repro.sched.scheduler.BatchReport` must serialize
  byte-identically to the uninterrupted session's.

Every checkpoint crosses a real ``json.dumps``/``json.loads`` boundary,
so the audit exercises the exact bytes a fresh process would read.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from repro.core import ENGINE_NAMES, build_engine
from repro.core.engine import GenerationResult, SequenceRequest
from repro.hardware.platform import Platform
from repro.model.zoo import ModelBundle
from repro.sched.scheduler import ContinuousBatchScheduler
from repro.workloads.datasets import C4
from repro.workloads.generator import SequenceGenerator

#: Decode-step counts at which the audit cuts and resumes each run.
DEFAULT_CUTS = (1, 4)


def _json_round_trip(payload: dict) -> dict:
    """Force a checkpoint through the bytes a fresh process would read."""
    return json.loads(json.dumps(payload, sort_keys=True))


def timeline_signature(timeline) -> list:
    """Per-op tuple view of a timeline for bitwise comparison."""
    return [
        (op.resource, op.duration, op.start, op.end, op.kind, op.label)
        for op in timeline.ops
    ]


@dataclass
class ResumeParityComparison:
    """One engine/seed/cut: resumed run vs the uninterrupted run."""

    engine: str
    seed: int
    cut: int
    problems: list = field(default_factory=list)

    @property
    def ok(self) -> bool:
        """Whether the resumed run matched bitwise."""
        return not self.problems


@dataclass
class ResumeParityReport:
    """Aggregated outcome of a resume-parity audit run."""

    comparisons: list = field(default_factory=list)

    @property
    def ok(self) -> bool:
        """Whether every engine passed at every seed and cut."""
        return all(c.ok for c in self.comparisons)

    @property
    def problems(self) -> list:
        """Every problem string, prefixed with engine/seed/cut."""
        out = []
        for c in self.comparisons:
            prefix = f"{c.engine}/seed{c.seed}/cut{c.cut}"
            out.extend(f"{prefix}: {p}" for p in c.problems)
        return out

    def format(self) -> str:
        """Multi-line human-readable summary of the whole run."""
        lines = [
            f"resume-parity audit: {len(self.comparisons)} "
            f"comparison(s), {'all ok' if self.ok else 'FAILURES'}"
        ]
        lines.extend(f"  {p}" for p in self.problems)
        return "\n".join(lines)


def _check_result(comparison: ResumeParityComparison, path: str,
                  reference: GenerationResult,
                  resumed: GenerationResult) -> None:
    """Assert a resumed result matches the uninterrupted one bitwise."""
    if not np.array_equal(reference.tokens, resumed.tokens):
        comparison.problems.append(
            f"{path}: token stream differs after resume"
        )
    if reference.stats.counters != resumed.stats.counters:
        comparison.problems.append(
            f"{path}: EngineCounters differ after resume"
        )
    if reference.trace.to_state_dict() != resumed.trace.to_state_dict():
        comparison.problems.append(
            f"{path}: activation trace differs after resume"
        )
    for attr in ("prefill_time_s", "total_time_s"):
        ref = getattr(reference.stats, attr)
        got = getattr(resumed.stats, attr)
        if ref != got:
            comparison.problems.append(
                f"{path}: {attr} {got!r} != uninterrupted {ref!r}"
            )
    ref_sig = timeline_signature(reference.timeline)
    got_sig = timeline_signature(resumed.timeline)
    if ref_sig != got_sig:
        comparison.problems.append(
            f"{path}: per-op timeline differs after resume "
            f"({len(got_sig)} vs {len(ref_sig)} ops)"
        )


def run_resume_parity_audit(
    bundle: ModelBundle,
    platform: Platform,
    engine_names=None,
    seeds=(0,),
    prompt_len: int = 16,
    max_new_tokens: int = 8,
    expert_cache_ratio: float = 0.5,
    calibration_probs: np.ndarray | None = None,
    dataset=C4,
    cuts=DEFAULT_CUTS,
    max_batch: int = 3,
) -> ResumeParityReport:
    """Audit checkpoint-at-*k* + resume parity for every engine.

    For each engine, seed, and cut point *k*, two paths are compared
    against uninterrupted references:

    1. *sequence*: ``start``/``step`` ``k`` times, checkpoint, restore
       into a freshly built engine, finish — compared against an
       uninterrupted ``generate()``.
    2. *scheduler*: a ``max_batch``-wide session over three staggered
       requests is ticked ``k`` times, checkpointed, restored onto a
       fresh engine + scheduler, and drained — its report must
       serialize byte-identically to an uninterrupted session's.

    Every checkpoint passes through canonical JSON bytes, so restoring
    in a fresh *process* reads exactly what this audit validates.
    """
    if engine_names is None:
        engine_names = ENGINE_NAMES
    report = ResumeParityReport()

    def fresh(name):
        return build_engine(name, bundle, platform, expert_cache_ratio,
                            calibration_probs)

    for seed in seeds:
        generator = SequenceGenerator(dataset, bundle.vocab, seed=int(seed))
        prompts = [
            generator.sample_sequence(
                prompt_len, 0, sample_idx=i
            ).prompt_tokens
            for i in range(3)
        ]
        arrivals = [0.0, 0.0, float(max_new_tokens)]
        requests = [
            SequenceRequest(prompt_tokens=p, max_new_tokens=max_new_tokens,
                            seq_id=i)
            for i, p in enumerate(prompts)
        ]
        for name in engine_names:
            reference = fresh(name).generate(prompts[0], max_new_tokens)
            ref_sched = ContinuousBatchScheduler(
                fresh(name), max_batch=max_batch
            ).run(requests, arrival_times=arrivals).to_json()

            for cut in cuts:
                comparison = ResumeParityComparison(
                    engine=name, seed=int(seed), cut=int(cut)
                )

                engine = fresh(name)
                state = engine.start(SequenceRequest(
                    prompt_tokens=prompts[0],
                    max_new_tokens=max_new_tokens,
                ))
                steps = 0
                while not state.done and steps < cut:
                    engine.step(state)
                    steps += 1
                payload = _json_round_trip(engine.checkpoint_sequence(state))
                resumed_engine = fresh(name)
                resumed = resumed_engine.restore_sequence(payload)
                while not resumed.done:
                    resumed_engine.step(resumed)
                _check_result(comparison, "sequence", reference,
                              resumed_engine.finish(resumed))

                scheduler = ContinuousBatchScheduler(
                    fresh(name), max_batch=max_batch
                )
                session = scheduler.begin(requests, arrival_times=arrivals)
                for _ in range(cut):
                    if not scheduler.tick(session):
                        break
                payload = _json_round_trip(
                    scheduler.checkpoint_session(session)
                )
                resumed_sched = ContinuousBatchScheduler(
                    fresh(name), max_batch=max_batch
                )
                resumed_session = resumed_sched.restore_session(payload)
                while resumed_sched.tick(resumed_session):
                    pass
                got = resumed_sched.finish(resumed_session).to_json()
                if got != ref_sched:
                    comparison.problems.append(
                        "scheduler: resumed session report differs from "
                        "uninterrupted run"
                    )
                report.comparisons.append(comparison)
    return report
