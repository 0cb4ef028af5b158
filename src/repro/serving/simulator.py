"""Request-level serving simulation on top of the inference engines.

The paper evaluates single-request latency ("our experiments simulate
real-time inference scenarios by setting the batch size to one"); this
module extends the reproduction to the obvious deployment question: what
do queueing and sustained load do to each engine's user-visible latency?
Requests arrive by an arrival process and are served FIFO through the
engine's resumable step machine via
:class:`~repro.sched.scheduler.ContinuousBatchScheduler`: at the default
``concurrency=1`` this is exactly the paper's batch-size-one regime,
while higher concurrencies let the decode of one request overlap the
prefill of the next on the shared resource clock.  Every service time is
the engine's *simulated* generation time, so the whole serving trace
stays in simulated time.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.core.engine import BaseEngine, SequenceRequest
from repro.events import CHECKPOINT_RESTORE, CHECKPOINT_SAVE, EventBus
from repro.hardware.timeline import GPU
from repro.scenarios import percentile_or_zero
from repro.sched.scheduler import (
    GATHERED,
    BatchSession,
    ContinuousBatchScheduler,
    check_mode,
)
from repro.serving.checkpoint import (
    SERVING_KIND,
    CheckpointError,
    SimCheckpoint,
)
from repro.workloads.generator import SequenceGenerator
from repro.workloads.requests import RequestSpec


@dataclass(frozen=True)
class ServedRequest:
    """Per-request timing record (all times in simulated seconds)."""

    request_id: int
    arrival_s: float
    start_s: float
    first_token_s: float
    finish_s: float
    n_prompt_tokens: int
    n_generated: int
    energy_j: float

    @property
    def queue_delay_s(self) -> float:
        """Time spent waiting for the engine."""
        return self.start_s - self.arrival_s

    @property
    def ttft_s(self) -> float:
        """Time to first token, from arrival."""
        return self.first_token_s - self.arrival_s

    @property
    def latency_s(self) -> float:
        """End-to-end latency, from arrival to last token."""
        return self.finish_s - self.arrival_s

    @property
    def tpot_s(self) -> float:
        """Time per output token during decode."""
        decode = self.finish_s - self.first_token_s
        if self.n_generated <= 1:
            return 0.0
        return decode / (self.n_generated - 1)


@dataclass
class ServingReport:
    """Aggregate serving metrics over a request trace."""

    engine: str
    requests: list[ServedRequest] = field(default_factory=list)

    @property
    def n_requests(self) -> int:
        """Number of served requests."""
        return len(self.requests)

    @property
    def makespan_s(self) -> float:
        """Simulated time from first arrival to last completion."""
        if not self.requests:
            return 0.0
        start = min(r.arrival_s for r in self.requests)
        end = max(r.finish_s for r in self.requests)
        return end - start

    @property
    def throughput_tokens_per_s(self) -> float:
        """Sustained generated-token throughput."""
        span = self.makespan_s
        if span <= 0:
            return 0.0
        return sum(r.n_generated for r in self.requests) / span

    def ttft_percentile(self, q: float) -> float:
        """TTFT percentile in seconds."""
        return percentile_or_zero([r.ttft_s for r in self.requests], q)

    def latency_percentile(self, q: float) -> float:
        """End-to-end latency percentile in seconds."""
        return percentile_or_zero([r.latency_s for r in self.requests], q)

    def tpot_percentile(self, q: float) -> float:
        """Time-per-output-token percentile in seconds."""
        return percentile_or_zero([r.tpot_s for r in self.requests], q)

    @property
    def mean_queue_delay_s(self) -> float:
        """Mean time requests spent queued."""
        if not self.requests:
            return 0.0
        return float(np.mean([r.queue_delay_s for r in self.requests]))

    @property
    def total_energy_kj(self) -> float:
        """Total serving energy in kilojoules."""
        return sum(r.energy_j for r in self.requests) / 1e3

    @property
    def tokens_per_kilojoule(self) -> float:
        """Serving-level energy efficiency."""
        kj = self.total_energy_kj
        if kj <= 0:
            return 0.0
        return sum(r.n_generated for r in self.requests) / kj


@dataclass
class ServingSession:
    """Resumable state of one serving run (scheduler plus its session)."""

    scheduler: ContinuousBatchScheduler
    batch: BatchSession


class ServingSimulator:
    """FIFO serving of one engine through the continuous-batch scheduler.

    Args:
        engine: the engine under load.
        generator: deterministic workload source.
        concurrency: maximum concurrently resident sequences.  The
            default of 1 reproduces the paper's batch-size-one FIFO
            regime; larger values interleave requests on the engine's
            step machine.
        mode: scheduler execution mode; only
            :data:`~repro.sched.scheduler.GATHERED`, which merges
            same-expert work across resident sequences into shared
            kernels.
    """

    def __init__(self, engine: BaseEngine,
                 generator: SequenceGenerator | None = None,
                 concurrency: int = 1, mode: str = GATHERED) -> None:
        if concurrency < 1:
            raise ValueError("concurrency must be positive")
        check_mode(mode)
        self.engine = engine
        self.generator = generator
        self.concurrency = concurrency
        self.mode = mode
        #: Instance-scoped event bus; when anything subscribes, engine
        #: and scheduler events are forwarded here for live observation.
        self.events = EventBus()

    def _forward_event(self, event) -> None:
        """Re-emit an engine/scheduler event on the simulator's bus."""
        self.events.emit(event.kind, event.time_s, **event.payload)

    def _build_scheduler(self) -> ContinuousBatchScheduler:
        """Per-session scheduler, bridged onto the simulator's bus."""
        scheduler = ContinuousBatchScheduler(
            self.engine, max_batch=self.concurrency, mode=self.mode,
        )
        if self.events.active:
            scheduler.events.subscribe(self._forward_event)
            # Re-subscribing after an unsubscribe keeps the forwarder
            # single even when one simulator runs several sessions.
            self.engine.events.unsubscribe(self._forward_event)
            self.engine.events.subscribe(self._forward_event)
        return scheduler

    def run(self, arrival_times: np.ndarray, prompt_len: int,
            output_len: int) -> ServingReport:
        """Serve one uniform-length request per arrival time.

        Requests are generated deterministically from the simulator's
        workload generator (request ``i`` uses ``sample_idx=i``), so two
        engines given the same arrival trace serve identical work.  This
        is a thin wrapper over :meth:`run_requests` and is byte-identical
        to the historical uniform-length behavior.
        """
        if self.generator is None:
            raise ValueError(
                "run() needs a workload generator; construct the "
                "simulator with one or call run_requests() directly"
            )
        arrival_times = np.sort(np.asarray(arrival_times, dtype=np.float64))
        specs = []
        for i, arrival in enumerate(arrival_times):
            sequence = self.generator.sample_sequence(
                prompt_len, output_len, sample_idx=i
            )
            specs.append(
                RequestSpec(
                    request_id=i,
                    arrival_s=float(arrival),
                    prompt_tokens=sequence.prompt_tokens,
                    output_len=output_len,
                    forced_tokens=sequence.continuation_tokens,
                    dataset=self.generator.spec.name,
                    sample_idx=i,
                )
            )
        return self.run_requests(specs)

    def run_requests(self, specs: list[RequestSpec]) -> ServingReport:
        """Serve fully-materialized requests; returns the report.

        Each :class:`~repro.workloads.requests.RequestSpec` carries its
        own arrival time, tokens, and decode length, so heterogeneous
        scenario traffic (mixed tenants, varying lengths) flows through
        the same FIFO/continuous-batching machinery as the uniform
        regime.  Requests are served in ``(arrival_s, request_id)``
        order; the spec's ``request_id`` is carried through as the
        report's ``request_id``.
        """
        session = self.begin_session(specs)
        while self.tick(session):
            pass
        return self.finish_session(session)

    # ---- resumable lifecycle ---------------------------------------------------

    def begin_session(self, specs: list[RequestSpec]) -> ServingSession:
        """Queue fully-materialized requests into a resumable session."""
        ordered = sorted(specs,
                         key=lambda spec: (spec.arrival_s,
                                           spec.request_id))
        requests = [
            SequenceRequest(
                prompt_tokens=spec.prompt_tokens,
                max_new_tokens=spec.output_len,
                forced_tokens=spec.forced_tokens,
                seq_id=spec.request_id,
            )
            for spec in ordered
        ]
        arrivals = np.asarray([spec.arrival_s for spec in ordered],
                              dtype=np.float64)
        scheduler = self._build_scheduler()
        return ServingSession(
            scheduler=scheduler,
            batch=scheduler.begin(requests, arrivals),
        )

    def tick(self, session: ServingSession) -> bool:
        """Advance the session one scheduler round; ``False`` when done."""
        return session.scheduler.tick(session.batch)

    def finish_session(self, session: ServingSession) -> ServingReport:
        """Summarize a drained session into a :class:`ServingReport`."""
        batch = session.scheduler.finish(session.batch)
        report = ServingReport(engine=self.engine.name)
        for rec in batch.records:
            report.requests.append(
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
            )
        return report

    # ---- checkpoint / restore --------------------------------------------------

    def checkpoint(self, session: ServingSession) -> SimCheckpoint:
        """Capture a between-ticks session as a :class:`SimCheckpoint`."""
        checkpoint = SimCheckpoint(
            kind=SERVING_KIND,
            engine=self.engine.name,
            payload={
                "concurrency": self.concurrency,
                "mode": self.mode,
                "scheduler": session.scheduler.checkpoint_session(
                    session.batch
                ),
            },
        )
        if self.events.active:
            self.events.emit(
                CHECKPOINT_SAVE, session.batch.clock.free[GPU],
                sim_kind=SERVING_KIND, engine=self.engine.name,
                n_active=len(session.batch.active),
                n_queued=len(session.batch.queue),
                n_completed=len(session.batch.report.records),
            )
        return checkpoint

    def restore(self, checkpoint: SimCheckpoint) -> ServingSession:
        """Rebuild a session captured by :meth:`checkpoint`.

        Raises:
            CheckpointError: if the checkpoint belongs to a different
                simulator kind or configuration.
        """
        if checkpoint.kind != SERVING_KIND:
            raise CheckpointError(
                f"checkpoint kind {checkpoint.kind!r} cannot resume on a "
                "serving simulator"
            )
        payload = checkpoint.payload
        if (payload["concurrency"] != self.concurrency
                or payload["mode"] != self.mode):
            raise CheckpointError(
                "serving configuration mismatch: checkpoint was taken "
                f"with concurrency={payload['concurrency']} "
                f"mode={payload['mode']!r}, this simulator runs "
                f"concurrency={self.concurrency} mode={self.mode!r}"
            )
        scheduler = self._build_scheduler()
        try:
            batch = scheduler.restore_session(payload["scheduler"])
        except ValueError as exc:
            raise CheckpointError(str(exc)) from exc
        if self.events.active:
            self.events.emit(
                CHECKPOINT_RESTORE, batch.clock.free[GPU],
                sim_kind=SERVING_KIND, engine=self.engine.name,
                n_active=len(batch.active),
                n_queued=len(batch.queue),
                n_completed=len(batch.report.records),
            )
        return ServingSession(scheduler=scheduler, batch=batch)
