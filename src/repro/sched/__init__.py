"""Continuous batching of resumable sequences on one engine."""

from repro.sched.scheduler import (
    GATHERED,
    BatchReport,
    ContinuousBatchScheduler,
    SequenceRecord,
)

__all__ = [
    "BatchReport",
    "ContinuousBatchScheduler",
    "GATHERED",
    "SequenceRecord",
]
