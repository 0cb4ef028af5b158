"""Benchmark regression gate: diff two BENCH_*.json artifacts.

The repository commits its benchmark artifacts (``BENCH_batch.json``,
``BENCH_compute.json``) so every change's performance effect is
reviewable.  This module turns those artifacts into a *gate*: given a
baseline and a candidate rendering of the same benchmark, it computes
per-configuration relative deltas on the throughput-class metrics and
fails when any regresses by more than a threshold (15% by default —
wide enough to absorb the simulator's scheduling jitter across refactors
while catching real cost-model or batching regressions).

Two artifact kinds are understood, auto-detected by shape:

- **batch** (``repro bench-batch --json``): runs are keyed by
  ``(engine, max_batch, mode)`` and compared on
  ``throughput_tokens_per_s`` — the decode-throughput surface the
  continuous-batch scheduler owns;
- **compute** (``repro bench-compute --json``): the warm-cache speedups
  (``differential_audit.speedup``, ``ecr_sweep.speedup``) — the
  simulator's own wall-clock win from the tensor cache — gated at the
  threshold, plus each section's cache counters (``cache``,
  ``stages_cold``, ``stages_warm``), gated for exact equality: hits,
  misses, memo hits, entries and bytes are deterministic functions of
  the workload, so any difference means the cache keys or the stage
  calls changed.

A configuration present in the baseline but missing from the candidate
is a structural failure, not a skip: a dropped run could hide exactly
the regression the gate exists to catch.  The gate is wired into
``repro perf-delta`` and the CI lifecycle job (see docs/lifecycle.md).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

#: Default maximum tolerated relative regression (15%).
DEFAULT_THRESHOLD = 0.15

#: Deterministic counter blocks of a bench-compute section, which
#: :func:`diff_compute_bench` requires to match exactly.
COMPUTE_COUNTER_FIELDS = ("cache", "stages_cold", "stages_warm")

#: Artifact kinds :func:`detect_kind` can name.
BATCH_BENCH = "batch"
COMPUTE_BENCH = "compute"


@dataclass(frozen=True)
class MetricDelta:
    """One compared metric: baseline vs candidate value.

    Attributes:
        metric: human-readable metric path, e.g.
            ``"daop/max_batch=4/gathered throughput_tokens_per_s"``.
        baseline: the baseline artifact's value.
        candidate: the candidate artifact's value.
    """

    metric: str
    baseline: float
    candidate: float

    @property
    def delta(self) -> float:
        """Relative change; negative means the candidate is slower."""
        if self.baseline == 0:
            return 0.0
        return (self.candidate - self.baseline) / self.baseline


@dataclass
class PerfDeltaReport:
    """Outcome of one baseline-vs-candidate benchmark diff."""

    kind: str
    threshold: float = DEFAULT_THRESHOLD
    deltas: list = field(default_factory=list)
    problems: list = field(default_factory=list)

    @property
    def regressions(self) -> list:
        """Deltas whose relative drop exceeds the threshold."""
        return [d for d in self.deltas if d.delta < -self.threshold]

    @property
    def ok(self) -> bool:
        """Whether the candidate passes the gate."""
        return not self.regressions and not self.problems

    def format(self) -> str:
        """Multi-line human-readable report, worst deltas first."""
        verdict = "ok" if self.ok else "FAIL"
        lines = [
            f"perf-delta [{self.kind}]: {len(self.deltas)} metric(s) "
            f"compared, threshold {self.threshold:.0%} -> {verdict}"
        ]
        for problem in self.problems:
            lines.append(f"  PROBLEM: {problem}")
        for d in sorted(self.deltas, key=lambda d: d.delta):
            mark = "  REGRESSION" if d.delta < -self.threshold else ""
            lines.append(
                f"  {d.metric}: {d.baseline:.4g} -> {d.candidate:.4g} "
                f"({d.delta:+.1%}){mark}"
            )
        return "\n".join(lines)


def detect_kind(payload: dict) -> str:
    """Name the benchmark artifact kind by its shape.

    Raises:
        ValueError: if the payload matches neither known artifact.
    """
    if "runs" in payload and "comparison" in payload:
        return BATCH_BENCH
    if "ecr_sweep" in payload or "differential_audit" in payload:
        return COMPUTE_BENCH
    raise ValueError(
        "unrecognized benchmark artifact: expected a bench-batch payload "
        "(with 'runs'/'comparison') or a bench-compute payload (with "
        "'ecr_sweep'/'differential_audit')"
    )


def _run_lengths(run: dict, payload: dict) -> tuple:
    """``(input_len, output_len)`` of one run, oldest artifacts included.

    Sweep-era artifacts stamp the pair on every run; earlier single-pair
    artifacts only carried it at the payload top level, so fall back
    there (``0`` when even that is absent) to keep old baselines
    diffable against new candidates.
    """
    def pick(field: str) -> int:
        value = run.get(field, payload.get(field, 0))
        # A top-level sweep list cannot identify a single run.
        return int(value) if not isinstance(value, list) else 0

    return pick("input_len"), pick("output_len")


def _batch_throughputs(payload: dict) -> dict:
    """Throughput keyed by ``(engine, input_len, output_len, max_batch,
    mode)``."""
    return {
        (run["engine"],) + _run_lengths(run, payload)
        + (int(run["max_batch"]), run["mode"]):
        float(run["throughput_tokens_per_s"])
        for run in payload.get("runs", [])
    }


def _batch_key_label(key: tuple) -> str:
    engine, input_len, output_len, max_batch, mode = key
    return (f"{engine}/in={input_len}/out={output_len}"
            f"/max_batch={max_batch}/{mode}")


def diff_batch_bench(baseline: dict, candidate: dict,
                     threshold: float = DEFAULT_THRESHOLD) -> PerfDeltaReport:
    """Gate a bench-batch candidate against its baseline artifact."""
    report = PerfDeltaReport(kind=BATCH_BENCH, threshold=threshold)
    base = _batch_throughputs(baseline)
    cand = _batch_throughputs(candidate)
    for key in sorted(set(base) - set(cand)):
        report.problems.append(
            f"baseline run {_batch_key_label(key)} is missing from the "
            "candidate"
        )
    for key in sorted(set(base) & set(cand)):
        report.deltas.append(MetricDelta(
            metric=f"{_batch_key_label(key)} throughput_tokens_per_s",
            baseline=base[key],
            candidate=cand[key],
        ))
    return report


def _leaves(value, prefix: str = "") -> dict:
    """Flatten nested dicts to ``{"a.b.c": leaf}``."""
    if not isinstance(value, dict):
        return {prefix: value}
    out = {}
    for key, item in value.items():
        out.update(_leaves(item, f"{prefix}.{key}" if prefix else str(key)))
    return out


def _counter_mismatches(base: dict, cand: dict) -> list:
    """``"path base -> cand"`` for every differing counter leaf."""
    base_leaves, cand_leaves = _leaves(base), _leaves(cand)
    return [
        f"{path} {base_leaves.get(path)} -> {cand_leaves.get(path)}"
        for path in sorted(set(base_leaves) | set(cand_leaves))
        if base_leaves.get(path) != cand_leaves.get(path)
    ]


def diff_compute_bench(baseline: dict, candidate: dict,
                       threshold: float = DEFAULT_THRESHOLD,
                       ) -> PerfDeltaReport:
    """Gate a bench-compute candidate against its baseline artifact.

    Speedups are gated at ``threshold``; the counter blocks named by
    :data:`COMPUTE_COUNTER_FIELDS` must match exactly.
    """
    report = PerfDeltaReport(kind=COMPUTE_BENCH, threshold=threshold)
    for section in ("differential_audit", "ecr_sweep"):
        in_base = section in baseline
        in_cand = section in candidate
        if in_base and not in_cand:
            report.problems.append(
                f"baseline section {section!r} is missing from the "
                "candidate"
            )
            continue
        if not in_base:
            continue
        report.deltas.append(MetricDelta(
            metric=f"{section} warm-cache speedup",
            baseline=float(baseline[section]["speedup"]),
            candidate=float(candidate[section]["speedup"]),
        ))
        for field_name in COMPUTE_COUNTER_FIELDS:
            mismatches = _counter_mismatches(
                baseline[section].get(field_name, {}),
                candidate[section].get(field_name, {}),
            )
            if mismatches:
                report.problems.append(
                    f"{section} {field_name} counters differ from the "
                    "baseline: " + "; ".join(mismatches)
                )
    return report


def diff_benchmarks(baseline: dict, candidate: dict,
                    threshold: float = DEFAULT_THRESHOLD) -> PerfDeltaReport:
    """Diff two benchmark payloads, auto-detecting the artifact kind.

    Raises:
        ValueError: if the two payloads are different artifact kinds or
            neither kind is recognized.
    """
    kind = detect_kind(baseline)
    candidate_kind = detect_kind(candidate)
    if kind != candidate_kind:
        raise ValueError(
            f"cannot diff a {kind!r} baseline against a "
            f"{candidate_kind!r} candidate"
        )
    if kind == BATCH_BENCH:
        return diff_batch_bench(baseline, candidate, threshold)
    return diff_compute_bench(baseline, candidate, threshold)


def load_benchmark(path: str) -> dict:
    """Read one benchmark JSON artifact from disk.

    Raises:
        ValueError: if the file is not valid JSON or not an object.
    """
    with open(path, "r", encoding="utf-8") as handle:
        try:
            payload = json.load(handle)
        except json.JSONDecodeError as exc:
            raise ValueError(
                f"benchmark artifact {path} is not valid JSON: {exc}"
            ) from exc
    if not isinstance(payload, dict):
        raise ValueError(f"benchmark artifact {path} is not a JSON object")
    return payload
