"""The repository benchmark: one workload, end-to-end or per-layer metrics.

Run from the repository root::

    python3 perfbench/run.py --workload decode-batch --seed 0 \\
        --seconds 15 --trace 0

``--trace 0`` sets the workload up several times (``setup_s`` is their
median), repeats the timed body while the run length allows, checks the
outputs outside the timed body and prints every end-to-end metric.
``--trace 1`` runs the body once untraced and once with every layer's
public functions wrapped in spans (``tracer.py``), prints every
per-layer metric and writes the spans as a Chrome trace.

Every ``sim_*`` metric and the workload's output digest must be
identical across repeats and between the traced and untraced runs; a
mismatch, a failed output check or a shed request marks the run
incorrect.  Host times are in seconds at a reference machine speed
(``hostclock.py``).  The last line of standard output is one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``;
details go to ``perfbench/out/``.  The exit code is 0 only for a
correct run.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import pathlib
import platform
import resource
import sys
import time

#: BLAS/OpenMP thread count the benchmark pins (no larger than nproc).
BLAS_THREADS = 1
_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS")

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent

#: Set-ups per ``--trace 0`` run; ``setup_s`` is their median.
SETUPS = 3

now = time.perf_counter


def parse_args(argv, workload_names, seed_default, models):
    parser = argparse.ArgumentParser(
        description="Run one benchmark workload and print its metrics.")
    parser.add_argument("--workload", required=True, choices=workload_names)
    parser.add_argument("--seed", type=int, default=seed_default,
                        help="workload seed: the same seed gives the "
                             "same inputs")
    parser.add_argument("--seconds", type=float, default=15.0,
                        help="host seconds the timed body may take")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1 runs the traced per-layer measurement")
    parser.add_argument("--model", choices=models, default="mixtral",
                        help="model analogue (tiny for smoke runs)")
    parser.add_argument("--out", default=str(HERE / "out"),
                        help="directory for results and the Chrome trace")
    return parser.parse_args(argv)


def environment(np, hostclock) -> dict:
    """Host facts recorded with every run.

    ``calibration_kernel_s`` is the median of nine samples of the fixed
    kernel host times are normalized by; ``reference_kernel_s`` is its
    time at the reference speed.
    """
    samples = sorted(hostclock.kernel_s() for _ in range(9))
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas_threads": BLAS_THREADS,
        "calibration_kernel_s": samples[4],
        "reference_kernel_s": hostclock.REFERENCE_KERNEL_S,
    }


def timed_repeats(workload, seconds: float) -> tuple:
    """Repeat the timed body while another repeat fits in ``seconds``.

    At least two repeats run, so the determinism guard always has a
    pair to compare.  Each repeat starts from a collected heap with no
    earlier outcome alive: every outcome is compared with the first
    (see :func:`determinism_problems`) and dropped before the next
    repeat, and only the last one is returned for the output checks.

    Returns:
        ``(last outcome, clocks, determinism problems)`` with one
        stopped :class:`hostclock.HostClock` per repeat.
    """
    from hostclock import HostClock

    first = outcome = None
    clocks, problems = [], []
    elapsed = 0.0
    while len(clocks) < 2 or elapsed * (1 + 1 / len(clocks)) <= seconds:
        outcome = None
        gc.collect()
        start = now()
        clock = HostClock().start()
        outcome = workload.run(clock)
        clocks.append(clock.stop())
        elapsed += now() - start
        summary = outcome.summary()
        if first is None:
            first = summary
        else:
            problems += determinism_problems(first, summary,
                                             f"repeat {len(clocks) - 1}")
    return outcome, clocks, problems


def determinism_problems(reference: dict, other: dict, label: str) -> list:
    """Where ``other``'s :meth:`Outcome.summary` differs from ``reference``."""
    return [
        f"{label}: {name} = {other.get(name)!r} != {value!r}"
        for name, value in reference.items()
        if other.get(name) != value
    ]


def end_to_end(workload, args, setup_times) -> tuple:
    """The ``--trace 0`` measurement; returns (metrics, outcome, info)."""
    import ledger

    outcome, clocks, problems = timed_repeats(workload, args.seconds)
    metrics = dict(outcome.sim)
    start = now()
    metrics["sim_speedup_vs_fiddler"] = workload.speedup_vs_fiddler(outcome)
    reference_wall_s = now() - start
    metrics["setup_s"] = ledger.median(setup_times)
    metrics["host_tokens_per_s"] = ledger.median(
        [outcome.tokens / c.reference_s for c in clocks])
    info = {
        "repeat_reference_s": [c.reference_s for c in clocks],
        "repeat_raw_s": [c.raw_s for c in clocks],
        "raw_host_tokens_per_s": ledger.median(
            [outcome.tokens / c.raw_s for c in clocks]),
        "setup_reference_s": setup_times,
        "fiddler_reference_wall_s": reference_wall_s,
        "determinism_problems": problems,
    }
    return metrics, outcome, info


def per_layer(workload, args, setup_factor: float) -> tuple:
    """The ``--trace 1`` measurement; returns (metrics, outcome, info).

    Self times are scaled to the reference speed by the traced run's
    own speed factor, the set-up parts by the set-up's.
    """
    import ledger
    from hostclock import HostClock
    from tracer import Tracer
    from workloads import simulated_layers

    gc.collect()
    untraced_clock = HostClock().start()
    untraced = workload.run(untraced_clock)
    untraced_clock.stop()
    untraced = untraced.summary()
    gc.collect()
    tracer = Tracer()
    clock = HostClock()
    with tracer:
        clock.start()
        start = now()
        traced = workload.run(clock)
        clock.stop()
    problems = determinism_problems(untraced, traced.summary(),
                                    "traced run")
    factor = clock.reference_s / clock.raw_s
    metrics = {}
    for group in ledger.SPAN_GROUPS:
        metrics[f"{group}.calls"] = tracer.calls[group]
        metrics[f"{group}.self_s"] = tracer.self_s[group] * factor
    metrics["model.expert.rows_per_call"] = (
        tracer.expert_rows / tracer.expert_calls
        if tracer.expert_calls else 0.0)
    metrics.update(workload.perf_layers())
    metrics.update(simulated_layers(traced.results))
    # Scheduler and cluster figures a workload does not produce read 0.
    for name in ledger.PER_LAYER:
        if name.startswith(("sched.", "cluster.")) and name not in metrics:
            metrics[name] = traced.layers.get(name, 0.0)
    for part in ("calibration_s", "requests_s"):
        metrics[f"setup.{part}"] = workload.setup_parts[part] * setup_factor
    metrics["tracing.overhead"] = (
        clock.reference_s / untraced_clock.reference_s - 1.0)
    metrics["tracing.coverage"] = tracer.covered_s() / clock.raw_s
    out_dir = pathlib.Path(args.out)
    trace_path = out_dir / f"{args.workload}-seed{args.seed}.trace.json.gz"
    tracer.write_chrome_trace(trace_path, start)
    info = {"untraced_reference_s": untraced_clock.reference_s,
            "traced_reference_s": clock.reference_s,
            "traced_raw_s": clock.raw_s,
            "spans": len(tracer.spans), "chrome_trace": str(trace_path),
            "determinism_problems": problems}
    return metrics, traced, info


def main(argv=None) -> int:
    for var in _THREAD_VARS:
        os.environ[var] = str(BLAS_THREADS)
    sys.path.insert(0, str(ROOT / "src"))
    try:
        import numpy as np

        import hostclock
        import ledger
        from workloads import MODELS, WORKLOADS
    except ImportError as exc:
        print(f"perfbench: cannot import the program under test: {exc}",
              file=sys.stderr)
        return 2
    args = parse_args(argv, tuple(WORKLOADS), ledger.DEFAULT_SEED, MODELS)
    out_dir = pathlib.Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    env = environment(np, hostclock)
    cls = WORKLOADS[args.workload]

    setup_times = []
    for _ in range(SETUPS if args.trace == 0 else 1):
        before = hostclock.kernel_s()
        start = now()
        workload = cls(args.model, args.seed)
        raw = now() - start
        setup_factor = hostclock.speed_factor(before, hostclock.kernel_s())
        setup_times.append(raw * setup_factor)

    if args.trace == 0:
        metrics, outcome, info = end_to_end(workload, args, setup_times)
    else:
        metrics, outcome, info = per_layer(workload, args, setup_factor)

    start = now()
    problems = workload.check(outcome)
    info["check_wall_s"] = now() - start
    failed_keys = {key for key, _ in problems}
    failed = min(outcome.offered, outcome.rejected + len(failed_keys))
    correct = not problems and not info["determinism_problems"] \
        and outcome.rejected == 0
    if args.trace == 0:
        metrics["peak_rss_mb"] = (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0)
        metrics["ok_frac"] = 1.0 - failed / outcome.offered
        table = ledger.END_TO_END
    else:
        table = ledger.PER_LAYER
    units = {name: spec[0] for name, spec in table.items()}
    missing = sorted(set(units) - set(metrics))
    if missing:
        raise RuntimeError(f"metrics not produced: {missing}")

    print(f"perfbench {args.workload} seed={args.seed} model={args.model} "
          f"trace={args.trace}")
    print(f"env: {json.dumps(env, sort_keys=True)}")
    for key, value in sorted(outcome.details.items()):
        print(f"  {key}: {json.dumps(value)}")
    for key, value in sorted(info.items()):
        print(f"  {key}: {json.dumps(value)}")
    for _, problem in problems:
        print(f"CHECK FAILED: {problem}")
    for name in units:
        print(f"  {name:40s} {metrics[name]:>16.6g} {units[name]}")

    result = {
        "correct": bool(correct),
        "attempted": int(outcome.offered),
        "failed": int(failed),
        "metrics": {name: {"value": float(metrics[name]),
                           "unit": units[name]}
                    for name in units},
    }
    record = {"args": vars(args), "env": env, "details": outcome.details,
              "info": info, "problems": [p for _, p in problems],
              "result": result}
    record_path = out_dir / (f"{args.workload}-seed{args.seed}"
                             f"-trace{args.trace}.json")
    record_path.write_text(json.dumps(record, indent=2, sort_keys=True))
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
