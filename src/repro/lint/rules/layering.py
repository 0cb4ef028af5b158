"""Import-layering rule: keep the package dependency graph a DAG.

The substrate layers (``model``/``hardware``/``memory``/``trace``/
``workloads``) must stay importable without the engines, the engines
(``core``) without the evaluation stack, and everything without the CLI.
This is what lets every engine be compared on an identical substrate: a
lower layer can never grow a hidden dependency on engine policy code.

Layer ranks (a package may import strictly lower ranks, plus itself)::

    0  model
    1  events, hardware, workloads
    2  memory, scenarios, trace
    3  core, lint
    4  sched
    5  analysis, audit, eval, metrics, serving
    6  cluster, perf
    7  cli

``events`` (the typed simulation event bus) sits at rank 1 with the
substrate: every emitting layer above it (engines, scheduler, the
simulators) must be able to import it, while the bus itself depends on
nothing — subscribers receive plain-data events.

``scenarios`` (the scenario library) sits with the substrate at rank
2: it materializes workloads from ``model``'s vocabulary and
``workloads``' generators, while the serving tiers *above* it consume
its ``RequestSpec`` lists and re-export its arrival generators — the
``ScenarioRunner`` drives ``ServingSimulator``/``ClusterSimulator``
purely by duck typing (``run_requests``), so the scenario layer never
imports an engine.  ``sched`` sits between the engines and the
evaluation stack: the
continuous-batching scheduler drives the engine step machine directly
(rank 3) and is itself consumed by ``serving``.  ``cluster`` sits in
the serving tier but one rank above ``serving``: the fleet simulator
extends the scheduler's request record (``ClusterRequest`` subclasses
``SequenceRecord``) and imports ``serving.checkpoint`` for its
checkpoint envelope, while ``serving`` must stay importable without
any fleet machinery.  ``perf`` (the forward-compute
cache + its cold/warm benchmark harness) also ranks 6: its benchmark
drives the differential audit (rank 5), while the model consumes the
cache purely by duck typing — ``repro.model`` never imports ``perf``.
``repro/__init__.py`` is the public facade and is exempt.  LAY001
skips packages missing from ``LAYERS`` rather than guessing a rank —
but that would silently exempt any new subpackage from the DAG, so
LAY002 closes the escape hatch: every package under ``repro/`` must be
registered here.  (``lint/semantics`` is not a new top-level package;
it rides on ``lint`` at rank 3.)
"""

from __future__ import annotations

import ast

from repro.lint.registry import LintContext, Rule, register

LAYERS = {
    "model": 0,
    "events": 1,
    "hardware": 1,
    "workloads": 1,
    "memory": 2,
    "scenarios": 2,
    "trace": 2,
    "core": 3,
    "lint": 3,
    "sched": 4,
    "analysis": 5,
    "audit": 5,
    "eval": 5,
    "metrics": 5,
    "serving": 5,
    "cluster": 6,
    "perf": 6,
    "cli": 7,
}


def _dep_package(module: str):
    """Top-level repro subpackage of a dotted import target, or None."""
    parts = module.split(".")
    if parts[0] != "repro" or len(parts) < 2:
        return None
    return parts[1]


@register
class ImportLayeringRule(Rule):
    """Enforce the package DAG (e.g. repro.model never imports repro.core)."""

    name = "import-layering"
    code = "LAY001"
    description = ("package imports must follow the layer DAG "
                   "model/hardware/memory/trace -> core -> sched -> "
                   "serving/eval/analysis/audit/metrics -> cluster -> cli")

    def check(self, ctx: LintContext):
        """Flag imports of a same-or-higher-layer repro package."""
        own = ctx.package
        if own == "__init__" or own not in LAYERS:
            return
        own_rank = LAYERS[own]
        for node in ast.walk(ctx.tree):
            targets = []
            if isinstance(node, ast.Import):
                targets = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.module \
                    and node.level == 0:
                targets = [node.module]
            for target in targets:
                dep = _dep_package(target)
                if dep is None or dep == own or dep not in LAYERS:
                    continue
                if LAYERS[dep] >= own_rank:
                    yield self.diag(
                        ctx, node,
                        f"layering violation: repro.{own} (layer "
                        f"{own_rank}) may not import repro.{dep} (layer "
                        f"{LAYERS[dep]})",
                    )


@register
class PackageRegistrationRule(Rule):
    """Every subpackage under repro/ must be registered in LAYERS."""

    name = "package-registration"
    code = "LAY002"
    description = ("every package under src/repro/ must have a layer "
                   "rank in LAYERS; unregistered packages silently "
                   "escape the import DAG")

    def check(self, ctx: LintContext):
        """Flag files in subpackages whose top package lacks a rank.

        Only files nested under a subpackage count (``len(rel) > 1``):
        modules sitting directly in the package root (``cli.py``,
        ``__init__.py``) and virtual single-segment fixture paths have
        no package to register.
        """
        if len(ctx.rel) < 2:
            return
        package = ctx.rel[0]
        if package in LAYERS:
            return
        yield self.diag(
            ctx, (1, 1),
            f"package 'repro.{package}' is not registered in LAYERS "
            "(src/repro/lint/rules/layering.py); assign it a layer "
            "rank so LAY001 can enforce the import DAG",
        )
