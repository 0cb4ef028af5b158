"""Request-level serving simulation (queueing on top of the engines)."""

from repro.scenarios import percentile_or_zero
from repro.scenarios.arrivals import (
    bursty_arrivals,
    poisson_arrivals,
    uniform_arrivals,
)
from repro.serving.checkpoint import (
    CHECKPOINT_KINDS,
    CLUSTER_KIND,
    SERVING_KIND,
    SIM_CHECKPOINT_VERSION,
    CheckpointError,
    SimCheckpoint,
    load_checkpoint,
    save_checkpoint,
)
from repro.serving.simulator import (
    ServedRequest,
    ServingReport,
    ServingSession,
    ServingSimulator,
)

__all__ = [
    "bursty_arrivals",
    "poisson_arrivals",
    "uniform_arrivals",
    "percentile_or_zero",
    "CHECKPOINT_KINDS",
    "CLUSTER_KIND",
    "SERVING_KIND",
    "SIM_CHECKPOINT_VERSION",
    "CheckpointError",
    "SimCheckpoint",
    "load_checkpoint",
    "save_checkpoint",
    "ServedRequest",
    "ServingReport",
    "ServingSession",
    "ServingSimulator",
]
