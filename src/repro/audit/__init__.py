"""Runtime invariant auditor and cross-engine differential harness.

``repro.audit`` is the safety net under every engine in the repo: the
invariant auditor (:mod:`repro.audit.invariants`) checks any finished
generation against the substrate contracts (timeline causality, counter
conservation, energy/makespan consistency, prefill-only migration,
divergence provenance), and the differential harness
(:mod:`repro.audit.differential`) asserts that expert placement never
changes *values* -- every non-predictive engine is token-identical to
the all-on-GPU oracle, and DAOP diverges only through trace events
marked ``predicted=True``.  The resume-parity audit
(:mod:`repro.audit.resume`) asserts the lifecycle invariant on top:
checkpointing any run mid-decode and restoring it — through JSON bytes,
into a fresh engine — is bitwise invisible.  See ``docs/auditing.md``
and ``docs/lifecycle.md``.
"""

from repro.audit.differential import (
    DEFAULT_SEEDS,
    ORACLE_ENGINE,
    BlockDivergence,
    DifferentialReport,
    EngineComparison,
    StepParityComparison,
    StepParityReport,
    block_divergence_accounting,
    cache_parity_problems,
    compare_token_streams,
    run_differential_audit,
    run_step_parity_audit,
)
from repro.audit.invariants import (
    EXPERT_OP_KINDS,
    TIME_TOLERANCE_S,
    AuditReport,
    Violation,
    audit_generation,
    audit_result,
    check_counter_conservation,
    check_divergence_provenance,
    check_energy_consistency,
    check_prefill_only_migration,
    check_timeline_causality,
    check_upload_placement,
    expects_prefill_only_uploads,
)
from repro.audit.resume import (
    DEFAULT_CUTS,
    ResumeParityComparison,
    ResumeParityReport,
    run_resume_parity_audit,
    timeline_signature,
)

__all__ = [
    "DEFAULT_SEEDS",
    "ORACLE_ENGINE",
    "BlockDivergence",
    "DifferentialReport",
    "EngineComparison",
    "StepParityComparison",
    "StepParityReport",
    "block_divergence_accounting",
    "cache_parity_problems",
    "compare_token_streams",
    "run_differential_audit",
    "run_step_parity_audit",
    "DEFAULT_CUTS",
    "ResumeParityComparison",
    "ResumeParityReport",
    "run_resume_parity_audit",
    "timeline_signature",
    "EXPERT_OP_KINDS",
    "TIME_TOLERANCE_S",
    "AuditReport",
    "Violation",
    "audit_generation",
    "audit_result",
    "check_counter_conservation",
    "check_divergence_provenance",
    "check_energy_consistency",
    "check_prefill_only_migration",
    "check_timeline_causality",
    "check_upload_placement",
    "expects_prefill_only_uploads",
]
