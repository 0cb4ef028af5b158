"""Scenario run artifacts: joined serving records plus a content digest.

A :class:`ScenarioReport` is the JSON artifact a scenario run produces:
every served request annotated with its scenario metadata (tenant, SLO
class, dataset, session), aggregate metrics overall and broken out per
tenant and per SLO class, and a deterministic
:meth:`~ScenarioReport.content_digest` over the canonical rendering —
two runs of the same scenario are byte-diffable, and replaying a pinned
workload must reproduce the digest exactly.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field

import numpy as np

from repro.workloads.requests import slo_targets


def percentile_or_zero(values, q: float) -> float:
    """``np.percentile`` that returns 0.0 for an empty value list.

    ``np.percentile`` raises on empty input; serving, cluster and
    scenario reports regularly aggregate zero requests (overloaded
    replicas that shed everything, empty tenant groups), and a 0.0
    keeps those reports renderable.
    """
    arr = np.asarray(list(values), dtype=np.float64)
    if arr.size == 0:
        return 0.0
    return float(np.percentile(arr, q))


@dataclass(frozen=True)
class ScenarioRequestRecord:
    """One served request joined with its scenario metadata.

    Attributes:
        request_id: scenario-level request identifier.
        tenant: tenant the request belongs to.
        slo_class: the request's SLO class.
        dataset: dataset its tokens were drawn from.
        session: session id for prefix-reuse tenants, or None.
        arrival_s: arrival time in simulated seconds.
        queue_delay_s: seconds spent waiting for an engine.
        ttft_s: time to first token in seconds, from arrival.
        tpot_s: time per output token in seconds during decode.
        latency_s: end-to-end seconds from arrival to last token.
        n_prompt_tokens: prompt length.
        n_generated: generated-token count.
        energy_j: generation energy in joules.
        slo_met: whether the request met its class's latency targets.
    """

    request_id: int
    tenant: str
    slo_class: str
    dataset: str
    session: int | None
    arrival_s: float
    queue_delay_s: float
    ttft_s: float
    tpot_s: float
    latency_s: float
    n_prompt_tokens: int
    n_generated: int
    energy_j: float
    slo_met: bool


@dataclass(frozen=True)
class ScenarioRejection:
    """One request dropped before service (cluster admission control).

    Attributes:
        request_id: scenario-level request identifier.
        tenant: tenant the request belonged to.
        slo_class: the request's SLO class.
        arrival_s: arrival time in simulated seconds.
        reason: admission-control verdict (``shed`` / ``expired``).
    """

    request_id: int
    tenant: str
    slo_class: str
    arrival_s: float
    reason: str


def classify_slo(slo_class: str, ttft_s: float, tpot_s: float) -> bool:
    """Whether one request's latencies meet its SLO class's targets."""
    ttft_target, tpot_target = slo_targets(slo_class)
    return ttft_s <= ttft_target and tpot_s <= tpot_target


@dataclass
class ScenarioReport:
    """Aggregate artifact of one scenario run."""

    scenario: str
    engine: str
    mode: str
    seed: int
    backend_mode: str = ""
    concurrency: int = 1
    requests: list = field(default_factory=list)
    rejected: list = field(default_factory=list)

    @property
    def n_served(self) -> int:
        """Requests that completed service."""
        return len(self.requests)

    @property
    def n_offered(self) -> int:
        """Every request the scenario offered, served or not."""
        return len(self.requests) + len(self.rejected)

    @property
    def makespan_s(self) -> float:
        """Simulated seconds from first arrival to last completion."""
        arrivals = [r.arrival_s for r in self.requests]
        arrivals += [r.arrival_s for r in self.rejected]
        if not arrivals or not self.requests:
            return 0.0
        finishes = [r.arrival_s + r.latency_s for r in self.requests]
        return max(finishes) - min(arrivals)

    def _group_summary(self, served, dropped) -> dict:
        """Aggregate metrics of one request subset (stable key order)."""
        offered = len(served) + len(dropped)
        met = sum(1 for r in served if r.slo_met)
        span = self.makespan_s
        generated = sum(r.n_generated for r in served)
        return {
            "offered": offered,
            "served": len(served),
            "rejected": len(dropped),
            "slo_attainment": (met / offered) if offered else 0.0,
            "generated_tokens": generated,
            "throughput_tokens_per_s": (generated / span) if span > 0
            else 0.0,
            "ttft_p50_s": percentile_or_zero([r.ttft_s for r in served], 50),
            "ttft_p95_s": percentile_or_zero([r.ttft_s for r in served], 95),
            "tpot_p50_s": percentile_or_zero([r.tpot_s for r in served], 50),
            "latency_p95_s": percentile_or_zero(
                [r.latency_s for r in served], 95
            ),
            "mean_queue_delay_s": (
                float(np.mean([r.queue_delay_s for r in served]))
                if served else 0.0
            ),
        }

    def _breakdown(self, key) -> dict:
        """Per-group summaries keyed by ``key(record)`` (sorted keys)."""
        groups = sorted(
            {key(r) for r in self.requests}
            | {key(r) for r in self.rejected}
        )
        return {
            name: self._group_summary(
                [r for r in self.requests if key(r) == name],
                [r for r in self.rejected if key(r) == name],
            )
            for name in groups
        }

    def per_tenant(self) -> dict:
        """Aggregate metrics broken out per tenant."""
        return self._breakdown(lambda r: r.tenant)

    def per_slo_class(self) -> dict:
        """Aggregate metrics broken out per SLO class."""
        return self._breakdown(lambda r: r.slo_class)

    def to_dict(self) -> dict:
        """Plain-data view of the report (stable field ordering)."""
        return {
            "scenario": self.scenario,
            "engine": self.engine,
            "mode": self.mode,
            "seed": self.seed,
            # Backend execution knobs are part of the report identity:
            # two runs that schedule differently (different execution
            # mode or admission width) must never alias to one digest
            # even when their metrics happen to tie.
            "backend": {
                "mode": self.backend_mode,
                "concurrency": self.concurrency,
            },
            "summary": {
                "makespan_s": self.makespan_s,
                **self._group_summary(self.requests, self.rejected),
            },
            "per_tenant": self.per_tenant(),
            "per_slo_class": self.per_slo_class(),
            "requests": [
                {
                    "request_id": r.request_id,
                    "tenant": r.tenant,
                    "slo_class": r.slo_class,
                    "dataset": r.dataset,
                    "session": r.session,
                    "arrival_s": r.arrival_s,
                    "queue_delay_s": r.queue_delay_s,
                    "ttft_s": r.ttft_s,
                    "tpot_s": r.tpot_s,
                    "latency_s": r.latency_s,
                    "n_prompt_tokens": r.n_prompt_tokens,
                    "n_generated": r.n_generated,
                    "energy_j": r.energy_j,
                    "slo_met": r.slo_met,
                }
                for r in self.requests
            ],
            "rejected": [
                {
                    "request_id": r.request_id,
                    "tenant": r.tenant,
                    "slo_class": r.slo_class,
                    "arrival_s": r.arrival_s,
                    "reason": r.reason,
                }
                for r in self.rejected
            ],
        }

    def content_digest(self) -> str:
        """Hex digest of the canonical report rendering.

        Two scenario runs are equivalent iff their digests match: the
        digest covers every request record and aggregate, so it detects
        any drift in tokens served, scheduling, or metric computation.
        """
        canonical = json.dumps(self.to_dict(), sort_keys=True,
                               separators=(",", ":"))
        return hashlib.sha256(canonical.encode("utf-8")).hexdigest()[:32]

    def to_json(self, indent: int = 2) -> str:
        """Deterministic JSON rendering, digest included."""
        payload = self.to_dict()
        payload["digest"] = self.content_digest()
        return json.dumps(payload, indent=indent, sort_keys=True)


def diff_reports(a: ScenarioReport, b: ScenarioReport) -> list:
    """Human-readable differences between two scenario reports.

    Returns an empty list when the reports' content digests match;
    otherwise one line per differing top-level summary metric plus a
    per-request token/latency mismatch count — the ``repro scenarios
    compare`` primitive.
    """
    if a.content_digest() == b.content_digest():
        return []
    lines = [f"digest: {a.content_digest()} != {b.content_digest()}"]
    summary_a = a.to_dict()["summary"]
    summary_b = b.to_dict()["summary"]
    for key in summary_a:
        if summary_a[key] != summary_b[key]:
            lines.append(f"summary.{key}: {summary_a[key]!r} != "
                         f"{summary_b[key]!r}")
    ids_a = {r.request_id: r for r in a.requests}
    ids_b = {r.request_id: r for r in b.requests}
    only_a = sorted(set(ids_a) - set(ids_b))
    only_b = sorted(set(ids_b) - set(ids_a))
    if only_a:
        lines.append(f"requests only in first: {only_a}")
    if only_b:
        lines.append(f"requests only in second: {only_b}")
    mismatched = [
        rid for rid in sorted(set(ids_a) & set(ids_b))
        if (ids_a[rid].latency_s, ids_a[rid].n_generated)
        != (ids_b[rid].latency_s, ids_b[rid].n_generated)
    ]
    if mismatched:
        lines.append(
            f"{len(mismatched)} shared request(s) differ in "
            f"latency/tokens: {mismatched[:8]}"
        )
    return lines
