"""Span tracer that wraps the public functions of each ``repro`` layer.

The traced run installs a :class:`Tracer`, which replaces each listed
public function with a wrapper recording one span per call: its group
(the layer metric it feeds), the function name, host start and end
times, the enclosing span and, for engine calls, the sequence id.
Nothing under ``src/`` changes; the wrappers live only in the
benchmark process and :meth:`Tracer.uninstall` restores the originals.

A span's self time is its duration minus the time its direct child
spans cover; each group accumulates call counts and self time.  The
spans themselves stay in memory until :meth:`Tracer.write_chrome_trace`
renders them as Chrome-trace JSON that Perfetto opens.
"""

from __future__ import annotations

import gzip
import inspect
import json
import time

import repro.cluster.simulator as cluster_simulator
from repro.cluster import POLICIES, ClusterSimulator
from repro.core import BaseEngine
from repro.events import EventBus
from repro.hardware import CostModel, Timeline
from repro.hardware.timeline import ResourceClock
from repro.memory import ExpertPlacement
from repro.model import MoEBlock, MoETransformer
from repro.perf import TensorCache
from repro.sched import ContinuousBatchScheduler
from repro.trace import ActivationTrace

now = time.perf_counter


def _public_functions(cls) -> tuple:
    """Names of the plain public functions a class itself defines."""
    return tuple(
        name for name, value in vars(cls).items()
        if not name.startswith("_") and inspect.isfunction(value)
    )


def _targets() -> list:
    """``(group, owner, attribute names)`` for every wrapped function."""
    targets = [
        ("model.attn", MoEBlock, ("attention_part",)),
        ("model.ffn_norm", MoEBlock, ("ffn_normed",)),
        ("model.gate", MoEBlock, ("gate_logits", "route_from_logits")),
        ("model.expert", MoEBlock,
         ("expert_forward", "expert_forward_rows", "combine")),
        ("model.lm_head", MoETransformer,
         ("embed", "lm_logits", "lm_logits_rows")),
        ("perf.lookup", TensorCache, ("get", "put")),
        ("core.engine", BaseEngine,
         ("start", "step", "step_batch", "step_prefill_batch", "finish",
          "generate")),
        ("memory.placement", ExpertPlacement,
         _public_functions(ExpertPlacement)),
        ("trace.record", ActivationTrace, ("record",)),
        ("hardware.timeline", Timeline, ("add", "barrier")),
        ("hardware.timeline", ResourceClock, ("hold",)),
        ("hardware.cost_model", CostModel, _public_functions(CostModel)),
        ("sched.tick", ContinuousBatchScheduler, ("tick",)),
        ("cluster.tick", ClusterSimulator, ("tick",)),
        ("cluster.fingerprint", cluster_simulator, ("prefill_fingerprint",)),
        ("events.emit", EventBus, ("emit",)),
    ]
    for policy in POLICIES.values():
        names = tuple(n for n in ("select", "observe") if n in vars(policy))
        if names:
            targets.append(("cluster.route", policy, names))
    return targets


def _expert_rows(args, kwargs) -> int:
    """Rows one ``MoEBlock.expert_forward(expert, h_att, token_idx)`` runs."""
    token_idx = args[3] if len(args) > 3 else kwargs.get("token_idx")
    if token_idx is not None:
        return len(token_idx)
    h_att = args[2] if len(args) > 2 else kwargs["h_att"]
    return len(h_att) if getattr(h_att, "ndim", 1) > 1 else 1


class Tracer:
    """In-memory span recorder over the wrapped layer functions.

    Attributes:
        spans: one ``(group, name, start, end, parent, seq, ordinal)``
            tuple per finished call, in completion order;
            ``ordinal`` numbers calls in the order they began, ``parent``
            is the enclosing span's ordinal (``-1`` at top level) and
            ``start``/``end`` are host seconds.
        calls: group -> number of calls.
        self_s: group -> summed self time in host seconds.
        expert_rows: rows passed through ``MoEBlock.expert_forward``.
        expert_calls: number of ``MoEBlock.expert_forward`` calls.
    """

    def __init__(self) -> None:
        self.spans = []
        self.calls = {}
        self.self_s = {}
        self.expert_rows = 0
        self.expert_calls = 0
        self._stack = []
        self._child = []
        self._ordinal = 0
        self._saved = []

    # ---- installation ------------------------------------------------------

    def install(self) -> None:
        """Wrap every target function in place."""
        if self._saved:
            raise RuntimeError("tracer already installed")
        for group, owner, names in _targets():
            self.calls.setdefault(group, 0)
            self.self_s.setdefault(group, 0.0)
            for name in names:
                original = vars(owner)[name]
                self._saved.append((owner, name, original))
                setattr(owner, name, self._wrap(group, name, original))

    def uninstall(self) -> None:
        """Restore the original functions."""
        for owner, name, original in reversed(self._saved):
            setattr(owner, name, original)
        self._saved = []

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    def _wrap(self, group: str, name: str, fn):
        """One recording wrapper around ``fn``."""
        stack = self._stack
        child = self._child
        spans = self.spans
        calls = self.calls
        self_s = self.self_s
        with_seq = group == "core.engine"
        is_expert = name == "expert_forward"

        def wrapper(*args, **kwargs):
            ordinal = self._ordinal
            self._ordinal = ordinal + 1
            parent = stack[-1] if stack else -1
            stack.append(ordinal)
            child.append(0.0)
            start = now()
            try:
                return fn(*args, **kwargs)
            finally:
                end = now()
                stack.pop()
                covered = child.pop()
                duration = end - start
                if child:
                    child[-1] += duration
                calls[group] += 1
                self_s[group] += duration - covered
                seq = None
                if with_seq and len(args) > 1:
                    seq = getattr(args[1], "seq_id", None)
                if is_expert:
                    self.expert_calls += 1
                    self.expert_rows += _expert_rows(args, kwargs)
                spans.append((group, name, start, end, parent, seq,
                              ordinal))

        return wrapper

    # ---- summaries ---------------------------------------------------------

    def covered_s(self) -> float:
        """Host seconds inside some top-level span."""
        return sum(end - start for _, _, start, end, parent, _, _
                   in self.spans if parent == -1)

    def write_chrome_trace(self, path, t0: float) -> None:
        """Write every span as gzip-compressed Chrome-trace JSON.

        Perfetto (ui.perfetto.dev) and ``chrome://tracing`` open the
        file as is; nesting shows the parent of each span, and engine
        spans carry their sequence id.

        Args:
            path: output file, conventionally ``*.json.gz``.
            t0: host time mapped to timestamp zero.
        """
        events = []
        for group, name, start, end, _, seq, _ in self.spans:
            event = {"name": name, "cat": group, "ph": "X", "pid": 1,
                     "tid": 1, "ts": round((start - t0) * 1e6, 2),
                     "dur": round((end - start) * 1e6, 2)}
            if seq is not None:
                event["args"] = {"seq": seq}
            events.append(event)
        events.sort(key=lambda e: e["ts"])
        payload = json.dumps({"traceEvents": events,
                              "displayTimeUnit": "ms"},
                             separators=(",", ":"))
        with gzip.open(path, "wt", compresslevel=1) as handle:
            handle.write(payload)
