"""Fleet-level serving metrics: the ``ServingReport`` vocabulary scaled up.

A :class:`ClusterReport` keeps the single-engine vocabulary (TTFT / TPOT
/ latency percentiles, throughput, queue delay) and adds what only
exists at fleet scope:

- **goodput** — generated-token throughput counting only requests that
  met their :class:`~repro.cluster.admission.SLOTarget`;
- **SLO attainment** — fraction of *offered* requests served within
  target (shed and expired requests count against it);
- **per-replica utilization** and **Jain's load-balance index** over
  replica busy time;
- **expert-cache warmth** — the mean fraction of each request's prompt
  expert activations that were already GPU-resident on its replica when
  service started, the cache-hit-rate term the routing policies compete
  on; and
- **shed / expired counts** from admission control.

``to_json()`` is deterministic: identical simulations serialize to
byte-identical JSON, which is what lets CI archive cluster reports and
diff serving trajectories across PRs.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

from repro.cluster.admission import EXPIRED, SHED, SLOTarget
from repro.core.batching import GatherStats
from repro.scenarios import percentile_or_zero
from repro.serving.simulator import ServedRequest


@dataclass(frozen=True)
class ClusterRequest(ServedRequest):
    """One served request, annotated with its replica and cache warmth.

    Attributes (beyond :class:`~repro.serving.simulator.ServedRequest`):
        replica: index of the replica that served the request.
        warm_hit_rate: fraction of the request's prompt expert
            activations (count-weighted) GPU-resident on the replica at
            service start — cache warmth *before* any per-sequence
            re-allocation the engine performs.
        engine_hit_rate: the engine's own GPU-residency hit rate over
            the whole generation (post-adaptation).
        prefill_swaps: expert swaps the engine performed during prefill
            (Algorithm 1 churn; warm replicas need fewer).
    """

    replica: int = -1
    warm_hit_rate: float = 0.0
    engine_hit_rate: float = 0.0
    prefill_swaps: int = 0

    def to_state_dict(self) -> dict:
        """Serialize the record for a checkpoint."""
        return {
            "request_id": self.request_id,
            "arrival_s": self.arrival_s,
            "start_s": self.start_s,
            "first_token_s": self.first_token_s,
            "finish_s": self.finish_s,
            "n_prompt_tokens": self.n_prompt_tokens,
            "n_generated": self.n_generated,
            "energy_j": self.energy_j,
            "replica": self.replica,
            "warm_hit_rate": self.warm_hit_rate,
            "engine_hit_rate": self.engine_hit_rate,
            "prefill_swaps": self.prefill_swaps,
        }

    @classmethod
    def from_state_dict(cls, payload: dict) -> "ClusterRequest":
        """Rebuild the record captured by :meth:`to_state_dict`."""
        return cls(
            request_id=int(payload["request_id"]),
            arrival_s=float(payload["arrival_s"]),
            start_s=float(payload["start_s"]),
            first_token_s=float(payload["first_token_s"]),
            finish_s=float(payload["finish_s"]),
            n_prompt_tokens=int(payload["n_prompt_tokens"]),
            n_generated=int(payload["n_generated"]),
            energy_j=float(payload["energy_j"]),
            replica=int(payload["replica"]),
            warm_hit_rate=float(payload["warm_hit_rate"]),
            engine_hit_rate=float(payload["engine_hit_rate"]),
            prefill_swaps=int(payload["prefill_swaps"]),
        )


@dataclass(frozen=True)
class RejectedRequest:
    """A request dropped by admission control.

    Attributes:
        request_id: arrival-order identifier.
        arrival_s: arrival time in simulated seconds.
        replica: replica the router targeted.
        reason: ``shed`` (queue full at arrival) or ``expired`` (TTFT
            deadline blown before service could start).
    """

    request_id: int
    arrival_s: float
    replica: int
    reason: str

    def to_state_dict(self) -> dict:
        """Serialize the rejection for a checkpoint."""
        return {
            "request_id": self.request_id,
            "arrival_s": self.arrival_s,
            "replica": self.replica,
            "reason": self.reason,
        }

    @classmethod
    def from_state_dict(cls, payload: dict) -> "RejectedRequest":
        """Rebuild the rejection captured by :meth:`to_state_dict`."""
        return cls(
            request_id=int(payload["request_id"]),
            arrival_s=float(payload["arrival_s"]),
            replica=int(payload["replica"]),
            reason=payload["reason"],
        )


@dataclass
class ClusterReport:
    """Aggregate metrics of one multi-replica serving simulation."""

    engine: str
    policy: str
    n_replicas: int
    slo: SLOTarget = field(default_factory=SLOTarget)
    requests: list[ClusterRequest] = field(default_factory=list)
    rejected: list[RejectedRequest] = field(default_factory=list)
    replica_busy_s: list[float] = field(default_factory=list)
    replica_gather: list[GatherStats] = field(default_factory=list)

    # ---- counts ---------------------------------------------------------------

    @property
    def n_served(self) -> int:
        """Requests that completed service."""
        return len(self.requests)

    @property
    def n_shed(self) -> int:
        """Requests rejected at arrival (queue full)."""
        return sum(1 for r in self.rejected if r.reason == SHED)

    @property
    def n_expired(self) -> int:
        """Requests dropped at dispatch (TTFT deadline blown)."""
        return sum(1 for r in self.rejected if r.reason == EXPIRED)

    @property
    def n_offered(self) -> int:
        """Every request that arrived, served or not."""
        return self.n_served + len(self.rejected)

    # ---- time base ------------------------------------------------------------

    @property
    def makespan_s(self) -> float:
        """Simulated seconds from first arrival to last completion."""
        arrivals = [r.arrival_s for r in self.requests]
        arrivals += [r.arrival_s for r in self.rejected]
        finishes = [r.finish_s for r in self.requests]
        if not arrivals or not finishes:
            return 0.0
        return max(finishes) - min(arrivals)

    # ---- SLO accounting -------------------------------------------------------

    def meets_slo(self, request: ClusterRequest) -> bool:
        """Whether one served request met both TTFT and TPOT targets."""
        return (request.ttft_s <= self.slo.ttft_s
                and request.tpot_s <= self.slo.tpot_s)

    @property
    def throughput_tokens_per_s(self) -> float:
        """Generated-token throughput over all served requests."""
        span = self.makespan_s
        if span <= 0:
            return 0.0
        return sum(r.n_generated for r in self.requests) / span

    @property
    def goodput_tokens_per_s(self) -> float:
        """Generated-token throughput counting only SLO-met requests."""
        span = self.makespan_s
        if span <= 0:
            return 0.0
        good = sum(r.n_generated for r in self.requests
                   if self.meets_slo(r))
        return good / span

    @property
    def slo_attainment(self) -> float:
        """Fraction of offered requests served within SLO targets."""
        if self.n_offered == 0:
            return 0.0
        met = sum(1 for r in self.requests if self.meets_slo(r))
        return met / self.n_offered

    def ttft_percentile(self, q: float) -> float:
        """TTFT percentile (seconds) over served requests."""
        return percentile_or_zero([r.ttft_s for r in self.requests], q)

    def tpot_percentile(self, q: float) -> float:
        """TPOT percentile (seconds) over served requests."""
        return percentile_or_zero([r.tpot_s for r in self.requests], q)

    def latency_percentile(self, q: float) -> float:
        """End-to-end latency percentile (seconds) over served requests."""
        return percentile_or_zero([r.latency_s for r in self.requests], q)

    @property
    def mean_queue_delay_s(self) -> float:
        """Mean time served requests waited for a replica."""
        if not self.requests:
            return 0.0
        return sum(r.queue_delay_s for r in self.requests) / self.n_served

    # ---- fleet health ---------------------------------------------------------

    def replica_utilization(self) -> list[float]:
        """Busy fraction of each replica over the makespan."""
        span = self.makespan_s
        if span <= 0:
            return [0.0] * len(self.replica_busy_s)
        return [busy / span for busy in self.replica_busy_s]

    @property
    def load_balance_index(self) -> float:
        """Jain's fairness index over replica busy time (1.0 = even)."""
        busy = self.replica_busy_s
        if not busy:
            return 1.0
        total = sum(busy)
        if total <= 0:
            return 1.0
        squares = sum(b * b for b in busy)
        return (total * total) / (len(busy) * squares)

    @property
    def mean_warm_hit_rate(self) -> float:
        """Mean start-of-service expert-cache hit rate over requests."""
        if not self.requests:
            return 0.0
        return sum(r.warm_hit_rate for r in self.requests) / self.n_served

    def replica_warm_hit_rate(self, replica: int) -> float:
        """Mean start-of-service cache hit rate of one replica."""
        rates = [r.warm_hit_rate for r in self.requests
                 if r.replica == replica]
        if not rates:
            return 0.0
        return sum(rates) / len(rates)

    def replica_gather_stats(self, replica: int) -> GatherStats:
        """Cumulative kernel-amortization stats of one replica.

        Populated by the cluster simulator from every gang's scheduler
        run; a replica that never gathered (or a report built without
        the per-replica list) reads the all-zero accumulator, whose
        amortization is 1.0.
        """
        if replica < len(self.replica_gather):
            return self.replica_gather[replica]
        return GatherStats()

    def replica_phase_stats(self, replica: int) -> dict:
        """Per-phase (prefill/decode) gathered kernel counts of one
        replica, so the two regimes' amortization is separable."""
        gather = self.replica_gather_stats(replica)
        return {
            "prefill": {
                "expert_ops": gather.prefill_expert_ops,
                "expert_kernels": gather.prefill_expert_kernels,
                "expert_amortization": gather.prefill_expert_amortization,
                "lm_head_ops": gather.prefill_lm_head_ops,
                "lm_head_kernels": gather.prefill_lm_head_kernels,
                "attn_ops": gather.attn_ops,
                "attn_kernels": gather.attn_kernels,
                "gate_ops": gather.gate_ops,
                "gate_kernels": gather.gate_kernels,
            },
            "decode": {
                "expert_ops": gather.decode_expert_ops,
                "expert_kernels": gather.decode_expert_kernels,
                "expert_amortization": gather.decode_expert_amortization,
                "lm_head_ops": (
                    gather.lm_head_ops - gather.prefill_lm_head_ops
                ),
                "lm_head_kernels": (
                    gather.lm_head_kernels - gather.prefill_lm_head_kernels
                ),
            },
        }

    # ---- serialization --------------------------------------------------------

    def to_dict(self) -> dict:
        """Plain-data view of the report (stable field ordering)."""
        return {
            "engine": self.engine,
            "policy": self.policy,
            "n_replicas": self.n_replicas,
            "slo": {"ttft_s": self.slo.ttft_s, "tpot_s": self.slo.tpot_s},
            "summary": {
                "offered": self.n_offered,
                "served": self.n_served,
                "shed": self.n_shed,
                "expired": self.n_expired,
                "makespan_s": self.makespan_s,
                "throughput_tokens_per_s": self.throughput_tokens_per_s,
                "goodput_tokens_per_s": self.goodput_tokens_per_s,
                "slo_attainment": self.slo_attainment,
                "ttft_p50_s": self.ttft_percentile(50),
                "ttft_p99_s": self.ttft_percentile(99),
                "tpot_p50_s": self.tpot_percentile(50),
                "tpot_p99_s": self.tpot_percentile(99),
                "mean_queue_delay_s": self.mean_queue_delay_s,
                "load_balance_index": self.load_balance_index,
                "mean_warm_hit_rate": self.mean_warm_hit_rate,
            },
            "replicas": [
                {
                    "replica": i,
                    "busy_s": busy,
                    "utilization": util,
                    "warm_hit_rate": self.replica_warm_hit_rate(i),
                    "served": sum(1 for r in self.requests
                                  if r.replica == i),
                    "expert_ops": self.replica_gather_stats(i).expert_ops,
                    "expert_kernels":
                        self.replica_gather_stats(i).expert_kernels,
                    "expert_amortization":
                        self.replica_gather_stats(i).expert_amortization,
                    "gathered_rows":
                        self.replica_gather_stats(i).gathered_rows,
                    "max_group_size":
                        self.replica_gather_stats(i).max_group_size,
                    "phases": self.replica_phase_stats(i),
                }
                for i, (busy, util) in enumerate(
                    zip(self.replica_busy_s, self.replica_utilization())
                )
            ],
            "requests": [
                {
                    "request_id": r.request_id,
                    "replica": r.replica,
                    "arrival_s": r.arrival_s,
                    "start_s": r.start_s,
                    "first_token_s": r.first_token_s,
                    "finish_s": r.finish_s,
                    "n_generated": r.n_generated,
                    "warm_hit_rate": r.warm_hit_rate,
                    "engine_hit_rate": r.engine_hit_rate,
                    "prefill_swaps": r.prefill_swaps,
                    "meets_slo": self.meets_slo(r),
                }
                for r in self.requests
            ],
            "rejected": [
                {
                    "request_id": r.request_id,
                    "replica": r.replica,
                    "arrival_s": r.arrival_s,
                    "reason": r.reason,
                }
                for r in self.rejected
            ],
        }

    def to_json(self, indent: int = 2) -> str:
        """Deterministic JSON rendering (byte-identical across replays)."""
        return json.dumps(self.to_dict(), indent=indent, sort_keys=True)

    def to_state_dict(self) -> dict:
        """Serialize the (possibly partial) report for a checkpoint."""
        return {
            "engine": self.engine,
            "policy": self.policy,
            "n_replicas": self.n_replicas,
            "slo": {"ttft_s": self.slo.ttft_s, "tpot_s": self.slo.tpot_s},
            "requests": [r.to_state_dict() for r in self.requests],
            "rejected": [r.to_state_dict() for r in self.rejected],
            "replica_busy_s": list(self.replica_busy_s),
            "replica_gather": [g.to_state_dict()
                               for g in self.replica_gather],
        }

    @classmethod
    def from_state_dict(cls, payload: dict) -> "ClusterReport":
        """Rebuild the report captured by :meth:`to_state_dict`."""
        return cls(
            engine=payload["engine"],
            policy=payload["policy"],
            n_replicas=int(payload["n_replicas"]),
            slo=SLOTarget(ttft_s=float(payload["slo"]["ttft_s"]),
                          tpot_s=float(payload["slo"]["tpot_s"])),
            requests=[ClusterRequest.from_state_dict(r)
                      for r in payload["requests"]],
            rejected=[RejectedRequest.from_state_dict(r)
                      for r in payload["rejected"]],
            replica_busy_s=[float(b) for b in payload["replica_busy_s"]],
            replica_gather=[GatherStats.from_state_dict(g)
                            for g in payload["replica_gather"]],
        )
