"""Metric tables and statistics shared by the benchmark's files.

``END_TO_END`` and ``PER_LAYER`` are the metric contract: ``run.py``
emits exactly these names and units (the end-to-end set with tracing
off, the per-layer set with tracing on), and ``BENCHMARK.json`` at the
repository root lists the same names and units; ``test_smoke.py``
checks that the three agree.

Names starting with ``sim`` are simulated quantities: they come from
the simulator's cost model and timeline, repeat bit-exactly for a given
seed, and are compared exactly across repeats and between the traced
and untraced runs.  Every other timing is host time, in seconds at a
reference machine speed (``hostclock.py``).
"""

from __future__ import annotations

import math
import statistics

#: The seed tuned against, and one held back so a later claim can be
#: re-checked on inputs it was not tuned on.
DEFAULT_SEED = 0
HELD_OUT_SEED = 7919

#: End-to-end metrics: name -> (unit, better, bound).  ``bound`` is the
#: share of the parent's median by which the metric may worsen.
END_TO_END = {
    "setup_s": ("s", "lower", 0.25),
    "host_tokens_per_s": ("tok/s", "higher", 0.25),
    "peak_rss_mb": ("MB", "lower", 0.15),
    "ok_frac": ("ratio", "higher", 0.05),
    "sim_tokens_per_s": ("tok/s", "higher", 0.25),
    "sim_speedup_vs_fiddler": ("ratio", "higher", 0.2),
    "sim_ttft_p50_s": ("s", "lower", 0.25),
    "sim_ttft_tail_s": ("s", "lower", 0.25),
    "sim_tpot_p50_s": ("s", "lower", 0.25),
    "sim_tpot_tail_s": ("s", "lower", 0.25),
    "sim_tokens_per_kj": ("tok/kJ", "higher", 0.2),
    "sim_slo_attainment": ("ratio", "higher", 0.25),
    "sim_goodput_tokens_per_s": ("tok/s", "higher", 0.25),
    "sim_max_rate_at_slo_rps": ("req/s", "higher", 0.2),
}

#: Op kinds the simulated timeline attributes time to.
OP_KINDS = ("non_moe", "gate", "expert_gpu", "expert_cpu", "expert_upload",
            "act_h2d", "act_d2h", "lm_head", "sync", "dequant")

#: Host lanes of the simulated platform.
LANES = ("gpu", "cpu", "h2d", "d2h")

#: Compute stages the forward-compute cache keeps hit rates for.
CACHE_STAGES = ("attn", "gate", "route", "expert", "ffn_norm", "lm_head")

#: Layer span groups, each a ``repro`` package's public functions
#: wrapped by the traced run (see ``tracer.py``).
SPAN_GROUPS = (
    "model.attn", "model.gate", "model.ffn_norm", "model.expert",
    "model.lm_head", "perf.lookup", "core.engine", "memory.placement",
    "trace.record", "hardware.timeline", "hardware.cost_model",
    "sched.tick", "cluster.tick", "cluster.route", "cluster.fingerprint",
    "events.emit",
)


def _per_layer() -> dict:
    """Per-layer metrics: name -> (unit, better)."""
    table = {}
    for group in SPAN_GROUPS:
        table[f"{group}.calls"] = ("count", "lower")
        table[f"{group}.self_s"] = ("s", "lower")
    table["model.expert.rows_per_call"] = ("rows", "higher")
    table["perf.evictions"] = ("count", "lower")
    for stage in CACHE_STAGES:
        table[f"perf.{stage}.hit_rate"] = ("ratio", "higher")
    table["core.gpu_hit_rate"] = ("ratio", "higher")
    for counter in ("cpu_expert_execs", "expert_uploads", "prefill_swaps",
                    "degraded_swaps", "stale_input_execs"):
        table[f"core.{counter}"] = ("count", "lower")
    table["core.prediction_accuracy"] = ("ratio", "higher")
    for lane in LANES:
        table[f"sim.busy.{lane}_s"] = ("s", "lower")
    for kind in OP_KINDS:
        table[f"sim.stage.{kind}_s"] = ("s", "lower")
    for kind in OP_KINDS:
        table[f"sim.critical.{kind}_share"] = ("ratio", "lower")
    table["sched.expert_kernels_per_op.decode"] = ("ratio", "lower")
    table["sched.expert_kernels_per_op.prefill"] = ("ratio", "lower")
    table["sched.queue_delay_mean_s"] = ("s", "lower")
    table["cluster.shed"] = ("count", "lower")
    table["cluster.expired"] = ("count", "lower")
    table["cluster.warm_hit_rate"] = ("ratio", "higher")
    table["cluster.load_balance"] = ("ratio", "higher")
    table["cluster.queue_delay_mean_s"] = ("s", "lower")
    table["setup.calibration_s"] = ("s", "lower")
    table["setup.requests_s"] = ("s", "lower")
    table["tracing.overhead"] = ("ratio", "lower")
    table["tracing.coverage"] = ("ratio", "higher")
    return table


#: Per-layer metrics (traced run): name -> (unit, better).
PER_LAYER = _per_layer()

def median(values) -> float:
    """Median of a non-empty sequence."""
    return float(statistics.median(values))


def tail(values) -> tuple:
    """Highest percentile with at least ten samples beyond it.

    Nearest-rank on the sorted samples: the ``k``-th smallest value with
    ``k = n - 10`` has exactly ten samples above it, and stands at
    percentile ``100 * k / n``.  Below 20 samples that rank would sit
    under the median, so the maximum is returned at percentile 100.

    Returns:
        ``(value, percentile, n_samples)``.
    """
    ordered = sorted(values)
    n = len(ordered)
    if n == 0:
        raise ValueError("tail() needs at least one sample")
    k = n - 10
    if 2 * k < n:
        return float(ordered[-1]), 100.0, n
    return float(ordered[k - 1]), 100.0 * k / n, n


def geomean(values) -> float:
    """Geometric mean of positive values."""
    values = list(values)
    return math.exp(sum(math.log(v) for v in values) / len(values))
