"""Post-hoc runtime invariant audit for engine generations.

Every engine in this reproduction is compared on the same substrate, and
the paper's headline numbers are only meaningful if that substrate obeys
the contracts it states in prose.  This module audits a finished
:class:`repro.core.engine.GenerationResult` (the *artifact*, not the live
engine) against those contracts:

- **Timeline causality** -- every op starts at or after the end of every
  dependency it declared, and each resource lane executes its ops in
  submission order without overlap (deterministic list scheduling).
- **Counter conservation** -- the engine counters, the scheduled timeline
  ops, and the recorded routing trace are three views of the same
  execution: ``gpu_expert_execs + cpu_expert_execs`` must equal both the
  number of expert ops on the timeline and the exec count implied by the
  trace, ``expert_uploads`` must equal the upload ops, and
  ``activated_total`` must equal the trace's activation count.
- **Upload/placement consistency** -- any expert that ended GPU-resident
  without starting there must have an upload op on the timeline.
- **Energy/makespan consistency** -- the stats' total time is the
  timeline makespan, the energy breakdown sums to its total, and (when a
  platform is supplied) re-integrating the timeline reproduces it.
- **Prefill-only migration** (paper SS IV-B) -- engines that restrict
  migration to prefill (``decode_realloc_interval is None`` for DAOP)
  schedule no expert upload after prefill completes.
- **Divergence provenance** -- an executed expert set may deviate from
  the gate's selection only on trace events marked ``predicted=True``
  (DAOP's approximation); predictions only ever happen during decode.

The checks are pure functions over the result object so they can audit
any engine -- including future baselines -- without cooperation from the
engine class.  :func:`audit_generation` is the convenience entry point
used by the test fixture and the differential harness.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, field

from repro.core.engine import GenerationResult
from repro.hardware.energy import EnergyModel
from repro.hardware.platform import Platform
from repro.hardware.timeline import RESOURCES
from repro.memory.placement import ExpertPlacement
from repro.trace.recorder import DECODE, PREFILL

#: Op kinds that execute one expert FFN.
EXPERT_OP_KINDS = ("expert_gpu", "expert_cpu")

#: Label pattern shared by every engine's expert-upload ops.
_UPLOAD_LABEL = re.compile(r"E(\d+)@B(\d+)")

#: Absolute slack for simulated-time comparisons (seconds).
TIME_TOLERANCE_S = 1e-9


@dataclass(frozen=True)
class Violation:
    """One broken invariant found by the auditor."""

    check: str
    message: str

    def format(self) -> str:
        """Render as ``check: message``."""
        return f"{self.check}: {self.message}"


@dataclass
class AuditReport:
    """Outcome of auditing one generation."""

    engine: str
    violations: list = field(default_factory=list)
    checks_run: list = field(default_factory=list)

    @property
    def ok(self) -> bool:
        """Whether every audited invariant held."""
        return not self.violations

    def add(self, check: str, message: str) -> None:
        """Record one violation."""
        self.violations.append(Violation(check=check, message=message))

    def format(self) -> str:
        """Multi-line human-readable summary."""
        head = (f"audit[{self.engine}]: "
                f"{len(self.checks_run)} checks, "
                f"{len(self.violations)} violation(s)")
        lines = [head] + [f"  {v.format()}" for v in self.violations]
        return "\n".join(lines)


def _isclose(a: float, b: float) -> bool:
    return math.isclose(a, b, rel_tol=1e-9, abs_tol=TIME_TOLERANCE_S)


# ---- individual checks -----------------------------------------------------


def check_timeline_causality(result: GenerationResult,
                             report: AuditReport) -> None:
    """Dependencies end before dependents start; lanes never overlap."""
    report.checks_run.append("timeline-causality")
    ops = result.timeline.ops
    for i, op in enumerate(ops):
        if op.index != i:
            report.add("timeline-causality",
                       f"op at position {i} carries index {op.index}")
        if op.duration < 0:
            report.add("timeline-causality",
                       f"op {op.index} ({op.label!r}) has negative "
                       f"duration {op.duration}")
        if not _isclose(op.end, op.start + op.duration):
            report.add("timeline-causality",
                       f"op {op.index} ({op.label!r}) spans "
                       f"[{op.start}, {op.end}] which disagrees with "
                       f"duration {op.duration}")
        for dep_index in op.dep_indices:
            if not 0 <= dep_index < op.index:
                report.add("timeline-causality",
                           f"op {op.index} ({op.label!r}) depends on "
                           f"op {dep_index}, which is not an earlier op")
                continue
            dep = ops[dep_index]
            if dep.end > op.start + TIME_TOLERANCE_S:
                report.add("timeline-causality",
                           f"op {op.index} ({op.label!r}) starts at "
                           f"{op.start} before its dependency "
                           f"{dep.index} ({dep.label!r}) ends at "
                           f"{dep.end}")
    for resource in RESOURCES:
        previous = None
        for op in result.timeline.ops_on(resource):
            if previous is not None and \
                    op.start + TIME_TOLERANCE_S < previous.end:
                report.add("timeline-causality",
                           f"ops {previous.index} and {op.index} overlap "
                           f"on {resource}: [{previous.start}, "
                           f"{previous.end}] vs [{op.start}, {op.end}]")
            previous = op


def _expected_exec_count(result: GenerationResult) -> int:
    """Expert executions implied by the routing trace.

    Prefill processes all tokens of a block in one batched call, so it
    executes each *distinct* activated expert of the block once; each
    decode event executes its (executed) expert set for one token.
    """
    prefill_experts: dict = {}
    decode_execs = 0
    for event in result.trace.events:
        if event.phase == PREFILL:
            prefill_experts.setdefault(event.block, set()).update(
                event.experts
            )
        else:
            executed = (event.executed_experts
                        if event.executed_experts is not None
                        else event.experts)
            decode_execs += len(set(executed))
    prefill_execs = sum(len(s) for s in prefill_experts.values())
    return prefill_execs + decode_execs


def check_counter_conservation(result: GenerationResult,
                               report: AuditReport) -> None:
    """Counters, timeline ops, and trace events must agree."""
    report.checks_run.append("counter-conservation")
    counters = result.stats.counters
    ops_by_kind: dict = {}
    for op in result.timeline.ops:
        ops_by_kind[op.kind] = ops_by_kind.get(op.kind, 0) + 1

    pairs = (
        ("gpu_expert_execs", counters.gpu_expert_execs,
         ops_by_kind.get("expert_gpu", 0)),
        ("cpu_expert_execs", counters.cpu_expert_execs,
         ops_by_kind.get("expert_cpu", 0)),
        ("expert_uploads", counters.expert_uploads,
         ops_by_kind.get("expert_upload", 0)),
    )
    for name, counted, scheduled in pairs:
        if counted != scheduled:
            report.add("counter-conservation",
                       f"counters.{name} = {counted} but the timeline "
                       f"holds {scheduled} matching op(s)")

    total_execs = counters.gpu_expert_execs + counters.cpu_expert_execs
    expected = _expected_exec_count(result)
    if total_execs != expected:
        report.add("counter-conservation",
                   f"{total_execs} expert execs counted but the trace "
                   f"implies {expected}")

    activated = sum(
        len(event.executed_experts
            if event.executed_experts is not None else event.experts)
        for event in result.trace.events
    )
    if counters.activated_total != activated:
        report.add("counter-conservation",
                   f"counters.activated_total = "
                   f"{counters.activated_total} but the trace records "
                   f"{activated} activations")
    if counters.activated_gpu_resident > counters.activated_total:
        report.add("counter-conservation",
                   "activated_gpu_resident exceeds activated_total")
    if counters.stale_input_execs > counters.cpu_expert_execs:
        report.add("counter-conservation",
                   "stale_input_execs exceeds cpu_expert_execs")


def check_upload_placement(result: GenerationResult,
                           report: AuditReport,
                           initial_placement: ExpertPlacement) -> None:
    """Experts that became GPU-resident must have been uploaded."""
    report.checks_run.append("upload-placement")
    uploaded = set()
    for op in result.timeline.ops:
        if op.kind != "expert_upload":
            continue
        match = _UPLOAD_LABEL.search(op.label)
        if match is None:
            report.add("upload-placement",
                       f"upload op {op.index} has unparseable label "
                       f"{op.label!r}")
            continue
        uploaded.add((int(match.group(2)), int(match.group(1))))
    final = result.placement.as_matrix()
    initial = initial_placement.as_matrix()
    if final.shape != initial.shape:
        report.add("upload-placement",
                   f"placement shape {final.shape} differs from initial "
                   f"{initial.shape}")
        return
    n_blocks, n_experts = final.shape
    for block in range(n_blocks):
        for expert in range(n_experts):
            if final[block, expert] and not initial[block, expert] \
                    and (block, expert) not in uploaded:
                report.add("upload-placement",
                           f"E{expert}@B{block} is GPU-resident at the "
                           "end but was never uploaded")


def check_energy_consistency(result: GenerationResult,
                             report: AuditReport,
                             platform: Platform | None = None) -> None:
    """Stats times/energy agree with the timeline they summarize."""
    report.checks_run.append("energy-consistency")
    stats = result.stats
    makespan = result.timeline.makespan
    if not _isclose(stats.total_time_s, makespan):
        report.add("energy-consistency",
                   f"total_time_s = {stats.total_time_s} but the "
                   f"timeline makespan is {makespan}")
    if stats.prefill_time_s > stats.total_time_s + TIME_TOLERANCE_S:
        report.add("energy-consistency",
                   f"prefill_time_s = {stats.prefill_time_s} exceeds "
                   f"total_time_s = {stats.total_time_s}")
    energy = stats.energy
    parts = energy.gpu_j + energy.cpu_j + energy.link_j + energy.base_j
    if not _isclose(energy.total_j, parts):
        report.add("energy-consistency",
                   f"energy total {energy.total_j} J != sum of parts "
                   f"{parts} J")
    if min(energy.gpu_j, energy.cpu_j, energy.link_j, energy.base_j) < 0:
        report.add("energy-consistency",
                   "negative component in the energy breakdown")
    if platform is not None:
        recomputed = EnergyModel(platform).energy(result.timeline)
        if not _isclose(recomputed.total_j, energy.total_j):
            report.add("energy-consistency",
                       f"re-integrating the timeline gives "
                       f"{recomputed.total_j} J but the stats carry "
                       f"{energy.total_j} J")


def check_prefill_only_migration(result: GenerationResult,
                                 report: AuditReport) -> None:
    """No expert upload may start after prefill completes (SS IV-B)."""
    report.checks_run.append("prefill-only-migration")
    cutoff = result.stats.prefill_time_s + TIME_TOLERANCE_S
    for op in result.timeline.ops:
        if op.kind == "expert_upload" and op.start > cutoff:
            report.add("prefill-only-migration",
                       f"upload op {op.index} ({op.label!r}) starts at "
                       f"{op.start}, after prefill ended at "
                       f"{result.stats.prefill_time_s}")


def check_divergence_provenance(result: GenerationResult,
                                report: AuditReport) -> None:
    """Executed experts may deviate from the gate only when predicted."""
    report.checks_run.append("divergence-provenance")
    for event in result.trace.events:
        if event.predicted and event.phase != DECODE:
            report.add("divergence-provenance",
                       f"predicted event at block {event.block}, token "
                       f"{event.token_pos} is in phase {event.phase!r}; "
                       "prediction only happens during decode")
        if event.executed_experts is None:
            continue
        if set(event.executed_experts) != set(event.experts) \
                and not event.predicted:
            report.add("divergence-provenance",
                       f"block {event.block}, token {event.token_pos}: "
                       f"executed {event.executed_experts} != selected "
                       f"{event.experts} on an event not marked "
                       "predicted")


# ---- entry points ----------------------------------------------------------


def audit_result(
    result: GenerationResult,
    engine_name: str = "",
    initial_placement: ExpertPlacement | None = None,
    platform: Platform | None = None,
    prefill_only_uploads: bool = False,
) -> AuditReport:
    """Audit one :class:`GenerationResult` against the substrate contracts.

    Args:
        result: the finished generation to audit.
        engine_name: label used in the report.
        initial_placement: when given, enables the upload/placement
            transition check (needs the pre-generation placement).
        platform: when given, the energy breakdown is re-integrated from
            the timeline and compared.
        prefill_only_uploads: assert no upload op starts after prefill
            (the paper's DAOP configuration and all never-migrating
            engines; caching baselines legitimately upload in decode).

    Returns:
        An :class:`AuditReport`; ``report.ok`` is True iff every audited
        invariant held.
    """
    report = AuditReport(engine=engine_name or "engine")
    check_timeline_causality(result, report)
    check_counter_conservation(result, report)
    check_energy_consistency(result, report, platform)
    check_divergence_provenance(result, report)
    if initial_placement is not None:
        check_upload_placement(result, report, initial_placement)
    if prefill_only_uploads:
        check_prefill_only_migration(result, report)
    return report


def expects_prefill_only_uploads(engine) -> bool:
    """Whether an engine promises to migrate experts only during prefill.

    DAOP promises it exactly when the decode re-allocation extension is
    off (``decode_realloc_interval is None``); the official and Fiddler
    engines never move experts at all.  Caching/prefetching baselines
    upload during decode as their published behavior.
    """
    if hasattr(engine, "decode_realloc_interval"):
        return engine.decode_realloc_interval is None
    return getattr(engine, "name", "") in ("official", "fiddler")


def audit_generation(engine, result: GenerationResult,
                     platform: Platform | None = None) -> AuditReport:
    """Audit a generation with everything the live engine can tell us.

    Adds the engine-derived context :func:`audit_result` cannot infer
    from the artifact alone: the initial placement and the prefill-only
    promise.  Both are engine configuration, not sequence state, so the
    audit of one result never reads another sequence's state -- which
    matters on batched and cluster runs, where one engine serves many
    sequences.  (DAOP's pending-upload residency is enforced by the
    engine itself, at the end of each decode re-allocation round.)
    """
    return audit_result(
        result,
        engine_name=getattr(engine, "name", type(engine).__name__),
        initial_placement=getattr(engine, "initial_placement", None),
        platform=platform or getattr(engine, "platform", None),
        prefill_only_uploads=expects_prefill_only_uploads(engine),
    )
