"""Spans around the calls into each ``votectrl`` module, for the traced run.

Each traced function is replaced, in the namespace where its caller looks
it up, by a wrapper that records a span: its name, start, end and parent.
The tracer keeps per-group totals as spans close (call count and self
time, which is a span's duration minus the time its child spans cover),
so a long run needs no memory per span; the spans of the first few
operations are also kept whole, for the trace file.  Nothing under
``src/`` is edited.
"""

from __future__ import annotations

import time
from collections import Counter, defaultdict
from itertools import count

from votectrl import cli, control, harness, reductions, solvers, systems

# (holder, attribute, span group).  A function imported into several
# modules is wrapped in each, since each looks up its own global.
TRACE_POINTS = (
    (solvers, "brute_force_decide", "solvers.decide"),
    (solvers.CachedEvaluator, "__call__", "solvers.cache"),
    (solvers, "goal_met", "solvers.goal_met"),
    (solvers, "raw_winners", "systems.winners"),
    (solvers, "restrict", "core.restrict"),
    (control, "outcome", "control.outcome"),
    (control, "raw_winners", "systems.winners"),
    (control, "restrict", "core.restrict"),
    (control, "parse_instance", "control.text"),
    (control, "format_instance", "control.text"),
    (systems.NotAllOneCounted, "codes", "systems.counted"),
    (cli, "poly_decide", "solvers.poly"),
    (reductions, "reduce_x3c", "reductions.reduce"),
    (reductions, "reduce_vc_to_ccdc", "reductions.reduce"),
    (reductions, "reduce_half_vc", "reductions.reduce"),
    (harness, "embed_rename", "harness.embed"),
)

# per-layer metric -> span groups whose call counts it sums
COUNTS = {
    "systems.winners_calls": ("systems.winners",),
    "solvers.actions_tried": ("solvers.goal_met",),
    "solvers.cache_lookups": ("solvers.cache",),
    "solvers.poly_calls": ("solvers.poly",),
    "control.outcome_calls": ("control.outcome",),
    "core.restrict_calls": ("core.restrict",),
}
# per-layer metric -> span groups whose self time it sums
SELF_TIMES = {
    "systems.winners_s": ("systems.winners",),
    "systems.counted_s": ("systems.counted",),
    "solvers.decide_s": ("solvers.decide", "solvers.cache"),
    "solvers.poly_s": ("solvers.poly",),
    "control.outcome_s": ("control.outcome", "solvers.goal_met"),
    "control.text_s": ("control.text",),
    "core.restrict_s": ("core.restrict",),
    "reductions.reduce_s": ("reductions.reduce",),
    "harness.embed_s": ("harness.embed",),
}


class Tracer:
    """Install with ``install()``, remove with ``uninstall()``; set ``op`` to
    the index of the operation about to run."""

    def __init__(self, record_ops: int):
        self.calls: Counter = Counter()
        self.self_s: defaultdict = defaultdict(float)
        self.misses = 0        # cache lookups that had to evaluate
        self.classes = 0       # count vectors evaluated by a counted kernel
        self.op = 0
        self.record_ops = record_ops
        self.spans: list = []  # (id, parent id, op, name, start, end)
        self._stack: list = []
        self._ids = count(1)
        self._saved = [(holder, attr, getattr(holder, attr), group)
                       for holder, attr, group in TRACE_POINTS]
        self._wrapped = [(holder, attr, self._wrap(holder, attr, fn, group))
                         for holder, attr, fn, group in self._saved]

    def install(self) -> None:
        for holder, attr, wrapper in self._wrapped:
            setattr(holder, attr, wrapper)

    def uninstall(self) -> None:
        for holder, attr, fn, _ in self._saved:
            setattr(holder, attr, fn)

    def _wrap(self, holder, attr, fn, group):
        name = f"{getattr(holder, '__name__', '?').rpartition('.')[2]}.{attr}"
        stack, clock, ids = self._stack, time.perf_counter, self._ids
        counts_classes = group == "systems.counted"
        after_cache = group == "systems.winners"

        def traced(*args, **kwargs):
            parent = stack[-1] if stack else None
            frame = [group, 0.0, next(ids)]   # group, child time, span id
            stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                duration = t1 - t0
                self.self_s[group] += duration - frame[1]
                self.calls[group] += 1
                if parent is not None:
                    parent[1] += duration
                    if after_cache and parent[0] == "solvers.cache":
                        self.misses += 1
                if self.op < self.record_ops:
                    self.spans.append((frame[2], parent[2] if parent else None,
                                       self.op, name, t0, t1))
            if counts_classes:
                self.classes += len(result[0])
            return result

        return traced

    def metrics(self, ops: int) -> dict:
        """Per-layer metrics, each a mean per operation over ``ops`` operations."""
        out = {}
        for metric, groups in COUNTS.items():
            out[metric] = (sum(self.calls[g] for g in groups) / ops, "count/op")
        for metric, groups in SELF_TIMES.items():
            out[metric] = (sum(self.self_s[g] for g in groups) / ops, "s/op")
        out["systems.counted_classes"] = (self.classes / ops, "count/op")
        lookups = self.calls["solvers.cache"]
        out["solvers.cache_hit_ratio"] = (
            (lookups - self.misses) / lookups if lookups else 0.0, "hits/lookups")
        return out
