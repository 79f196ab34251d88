"""Spans and counts at omlab's layer boundaries, recorded from outside ``src/``.

A traced pass swaps the public functions listed in ``LAYER_CALLS`` for
wrappers that open a span around the call, so nested calls (the broadcast
check inside ``check_consensus``, the convexity test it runs) get their
own spans too.  Spans are kept in memory as (name, start, end, parent,
instance) and written out when the run ends.  A layer's self time is its
spans' duration minus the part covered by their child spans.  The oracle's
per-horizon search is wrapped too, to count the executions it enumerates.
"""
from __future__ import annotations

import functools
from collections import defaultdict
from contextlib import contextmanager, nullcontext
from time import perf_counter_ns

from omlab import equivalence, events, oracle, simulator, solvability
from omlab.budget import effective_budget

# (owner, attribute, span name) for every call the pipelines make or reach.
LAYER_CALLS = [
    (events, "generate_bounded_omissions", "events.generate"),
    (events, "family_from_json_dict", "events.parse"),
    (solvability, "is_convex", "events.convexity"),
    (equivalence, "beta_partition", "equivalence.beta_partition"),
    (solvability, "beta_partition", "equivalence.beta_partition"),
    (equivalence.BetaPartition, "to_json_dict", "equivalence.json"),
    (solvability, "check_broadcastable", "solvability.broadcast"),
    (solvability, "check_consensus", "solvability.consensus"),
    (solvability, "optimal_broadcast_rounds", "solvability.rounds"),
    (solvability, "verdict_to_json_dict", "solvability.json"),
    (oracle, "min_consensus_rounds", "oracle.search"),
    (oracle, "verify_chain", "oracle.verify_chain"),
    (oracle.OracleResult, "to_json_dict", "oracle.json"),
    (simulator, "exhaustive_check", "simulator.exhaustive_check"),
]

# Span names whose self time is reported, in report order; "events.source_masks"
# is opened by the pipelines around the first touch of the cached masks.
LAYERS = [
    "events.generate", "events.parse", "events.source_masks", "events.convexity",
    "equivalence.beta_partition", "equivalence.json",
    "solvability.broadcast", "solvability.consensus", "solvability.rounds", "solvability.json",
    "oracle.search", "oracle.verify_chain", "oracle.json", "simulator.exhaustive_check",
]

# Counts reported per traced pass (the two source-mask counts become a ratio).
COUNTS = [
    "events.generated_events", "equivalence.iterations", "equivalence.classes",
    "oracle.executions", "oracle.decision_views", "simulator.runs",
]


class NullTracer:
    """Stands in for the tracer in untraced passes: records nothing."""

    instance: str | None = None
    active = False

    def span(self, name: str):
        return nullcontext()

    def count(self, name: str, n: int) -> None:
        pass


class Tracer(NullTracer):
    active = True

    def __init__(self) -> None:
        self.spans: list[list] = []  # [name, start_ns, end_ns, parent index, instance]
        self.counts: dict[str, float] = defaultdict(int)
        self._open: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    @contextmanager
    def span(self, name: str):
        record = [name, perf_counter_ns(), 0, self._open[-1] if self._open else -1, self.instance]
        self._open.append(len(self.spans))
        self.spans.append(record)
        try:
            yield
        finally:
            record[2] = perf_counter_ns()
            self._open.pop()

    def count(self, name: str, n: int) -> None:
        self.counts[name] += n

    def high(self, name: str, value: float) -> None:
        self.counts[name] = max(self.counts[name], value)

    def _wrap(self, fn, name: str):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name):
                return fn(*args, **kwargs)
        return traced

    def _count_search(self, search_class):
        # The cap the oracle checks its cost against, as it resolves it.
        cap = effective_budget(None).max_executions

        def counted(*args, **kwargs):
            search = search_class(*args, **kwargs)
            self.count("oracle.executions", len(search.executions))
            self.high("oracle.budget_used_frac", len(search.executions) / cap)
            return search
        return counted

    def _replace(self, owner, attr: str, replacement) -> None:
        self._saved.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, replacement)

    def install(self) -> None:
        for owner, attr, name in LAYER_CALLS:
            self._replace(owner, attr, self._wrap(getattr(owner, attr), name))
        self._replace(oracle, "_Search", self._count_search(oracle._Search))

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def self_times(self, first: int = 0) -> dict[str, float]:
        """Seconds of self time per span name, over spans from index ``first`` on."""
        child = defaultdict(int)
        for _name, start, end, parent, _inst in self.spans[first:]:
            if parent >= first:
                child[parent] += end - start
        totals: dict[str, float] = defaultdict(float)
        for i, (name, start, end, _parent, _inst) in enumerate(self.spans[first:], first):
            totals[name] += (end - start - child[i]) / 1e9
        return dict(totals)

    def pass_report(self, first: int = 0) -> dict:
        """Per-layer self times and counts of the spans recorded since ``first``."""
        times = self.self_times(first)
        report = {f"{layer}_s": times.get(layer, 0.0) for layer in LAYERS}
        report.update({name: self.counts.get(name, 0) for name in COUNTS})
        events_seen = self.counts.get("events.source_mask_events", 0)
        report["events.distinct_source_mask_ratio"] = (
            self.counts.get("events.distinct_source_masks", 0) / events_seen if events_seen else 0.0
        )
        report["oracle.budget_used_frac"] = self.counts.get("oracle.budget_used_frac", 0.0)
        self.counts.clear()
        return report
