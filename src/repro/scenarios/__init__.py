"""Scenario library and trace-driven workload replay for serving sims.

This package turns the serving stack from a single synthetic regime
into a reproducible scenario -> report pipeline: declarative
:class:`~repro.scenarios.spec.ScenarioSpec` entries (arrival process,
weighted tenant mix with per-tenant SLO classes and length
distributions, session prefix reuse) in a named registry, arrival
generators beyond Poisson (diurnal sinusoid, flash crowd, Markov
on/off), a :class:`~repro.scenarios.runner.ScenarioRunner` that drives
any ``run_requests``-capable simulator, and a
:class:`~repro.scenarios.report.ScenarioReport` JSON artifact with
per-tenant / per-SLO-class breakdowns and a deterministic content
digest.  See docs/scenarios.md.
"""

from repro.scenarios.arrivals import (
    bursty_arrivals,
    diurnal_arrivals,
    flash_crowd_arrivals,
    onoff_arrivals,
    poisson_arrivals,
    uniform_arrivals,
)
from repro.scenarios.registry import (
    SCENARIO_NAMES,
    SCENARIOS,
    get_scenario,
    register_scenario,
)
from repro.scenarios.report import (
    ScenarioRejection,
    ScenarioReport,
    ScenarioRequestRecord,
    classify_slo,
    diff_reports,
    percentile_or_zero,
)
from repro.scenarios.runner import ScenarioRunner, ScenarioSession
from repro.scenarios.spec import (
    ARRIVAL_KINDS,
    LENGTH_KINDS,
    ArrivalSpec,
    LengthSpec,
    ScenarioSpec,
    SessionSpec,
    TenantSpec,
)

__all__ = [
    "bursty_arrivals",
    "diurnal_arrivals",
    "flash_crowd_arrivals",
    "onoff_arrivals",
    "poisson_arrivals",
    "uniform_arrivals",
    "SCENARIO_NAMES",
    "SCENARIOS",
    "get_scenario",
    "register_scenario",
    "ScenarioRejection",
    "ScenarioReport",
    "ScenarioRequestRecord",
    "classify_slo",
    "diff_reports",
    "percentile_or_zero",
    "ScenarioRunner",
    "ScenarioSession",
    "ARRIVAL_KINDS",
    "LENGTH_KINDS",
    "ArrivalSpec",
    "LengthSpec",
    "ScenarioSpec",
    "SessionSpec",
    "TenantSpec",
]
