"""Brute-force decision procedure for bounded-round consensus solvability.

The state of any deterministic algorithm after r rounds is a function of
the node's full-information view: everything it could possibly have
learned.  So r-round consensus exists if and only if the full-information
views admit a consistent decision labelling.  Concretely: enumerate every
execution (binary input vector x scenario word of length r), link two
executions whenever some node ends with the same view in both (that node,
hence by agreement everyone, must decide the same value in both), and
check that no connected component contains both an all-zeros-input and an
all-ones-input execution.

On success the component labelling *is* a protocol: run full-information
exchange for r rounds, then decide by looking the final view up in the
component's decision.  On failure at the horizon, the offending component
yields a replayable chain of executions from an all-0 input to an all-1
input, adjacent executions sharing one node's view: no algorithm can
decide by round r without breaking agreement or validity somewhere along
the chain.

Because a mobile scheme branches finitely, solvable consensus always has
some uniform round bound, so "unsolvable up to horizon h" is meaningful
evidence but never a claim beyond h; the report records h explicitly.
"""
from __future__ import annotations

from dataclasses import dataclass
from itertools import product
from typing import Any

from .budget import Budget, BudgetExceededError, effective_budget
from .equivalence import _UnionFind
from .events import EventFamily, is_convex
from .graphs import mask_nodes
from .simulator import ProtocolSpec, ProtocolError
from .solvability import optimal_broadcast_rounds

ViewContent = Any  # nested tuples; (node, value) at depth 0


@dataclass(frozen=True)
class Execution:
    init: tuple[int, ...]
    word: tuple[int, ...]


def execution_views(
    family: EventFamily, word: tuple[int, ...], init: tuple[int, ...]
) -> tuple[ViewContent, ...]:
    """Final view content of every node for one execution.

    Depth-0 views are ``(node, value)``; the view after a round pairs the
    previous view with the (sorted) delivering in-neighbours' views.
    """
    n = family.base.node_count
    views: list[ViewContent] = [(v, init[v]) for v in range(n)]
    for letter in word:
        event = family.events[letter]
        views = [
            (
                views[v],
                tuple((u, views[u]) for u in mask_nodes(event.in_masks[v])),
            )
            for v in range(n)
        ]
    return tuple(views)


# ---- full-information protocol ----------------------------------------------

def full_information_protocol(
    family: EventFamily,
    rounds: int,
    decision_table: dict[ViewContent, int],
    name: str = "oracle-protocol",
) -> ProtocolSpec:
    """Exchange entire views for ``rounds`` rounds, then decide by table lookup."""

    def init(v: int, value: int):
        return (0, (v, value))

    def message(v: int, state, neighbor: int):
        return state[1]

    def transition(v: int, state, delivered):
        depth, content = state
        inbound = tuple(sorted(delivered.items()))
        return (depth + 1, (content, inbound))

    def decision(v: int, state):
        depth, content = state
        if depth < rounds:
            return None
        try:
            return decision_table[content]
        except KeyError:
            raise ProtocolError(
                f"node {v} reached a view outside the decision table; "
                "was the protocol run against the family it was built for?"
            ) from None

    return ProtocolSpec(
        name=name,
        state_space=f"(depth, full-information view), decide at depth {rounds}",
        init=init,
        message=message,
        transition=transition,
        decision=decision,
        halting_round=rounds,
    )


# ---- the component search -----------------------------------------------------

@dataclass(frozen=True)
class IndistinguishabilityChain:
    """Executions from an all-0 input to an all-1 input, each adjacent pair
    indistinguishable to ``shared_nodes[i]`` after ``depth`` rounds."""

    executions: tuple[Execution, ...]
    shared_nodes: tuple[int, ...]
    depth: int


def verify_chain(chain: IndistinguishabilityChain, family: EventFamily) -> bool:
    """Re-simulate the chain and confirm every claimed coincidence."""
    execs = chain.executions
    if len(execs) < 2 or len(chain.shared_nodes) != len(execs) - 1:
        return False
    n = family.base.node_count
    for ex in execs:
        if len(ex.init) != n or any(v not in (0, 1) for v in ex.init):
            return False
        if len(ex.word) != chain.depth:
            return False
        if any(not 0 <= i < len(family) for i in ex.word):
            return False
    if set(execs[0].init) != {0} or set(execs[-1].init) != {1}:
        return False
    for i, node in enumerate(chain.shared_nodes):
        if not 0 <= node < n:
            return False
        left = execution_views(family, execs[i].word, execs[i].init)
        right = execution_views(family, execs[i + 1].word, execs[i + 1].init)
        if left[node] != right[node]:
            return False
    return True


@dataclass(frozen=True)
class OracleResult:
    """Outcome of the bounded-horizon consensus search."""

    max_horizon: int
    horizon_table: tuple[tuple[int, bool], ...]  # (r, solvable at r)
    rounds: int | None
    protocol: ProtocolSpec | None
    decision_table: dict[ViewContent, int] | None
    witness: IndistinguishabilityChain | None

    @property
    def solvable(self) -> bool:
        return self.rounds is not None

    def to_json_dict(self, family: EventFamily) -> dict:
        data: dict[str, Any] = {
            "max_horizon": self.max_horizon,
            "horizon_table": [
                {"rounds": r, "solvable": ok} for r, ok in self.horizon_table
            ],
            "rounds": self.rounds,
        }
        if self.decision_table is not None:
            # Distinct views have distinct reprs, so sorting the pairs orders by view.
            data["decision_table"] = [
                {"view": view, "decision": value}
                for view, value in sorted(
                    (repr(view), value) for view, value in self.decision_table.items()
                )
            ]
        if self.witness is not None:
            data["witness"] = {
                "depth": self.witness.depth,
                "executions": [
                    {
                        "init": list(ex.init),
                        "scenario": [family.name(i) for i in ex.word],
                    }
                    for ex in self.witness.executions
                ],
                "shared_nodes": [
                    family.base.label(v) for v in self.witness.shared_nodes
                ],
            }
        return data


def min_consensus_rounds(
    family: EventFamily, max_horizon: int, budget: Budget | None = None
) -> OracleResult:
    """Least r <= max_horizon with an r-round consensus protocol, with proof.

    Returns the protocol and its decision table on success; on failure at
    ``max_horizon``, returns the mixing chain showing why that horizon is
    not enough.
    """
    if max_horizon < 0:
        raise ValueError("horizon must be non-negative")
    budget = effective_budget(budget)
    n = family.base.node_count
    k = len(family)
    table: list[tuple[int, bool]] = []
    last_search: _Search | None = None
    for r in range(max_horizon + 1):
        cost = (1 << n) * k**r
        if cost > budget.max_executions:
            raise BudgetExceededError(
                f"{cost} executions at horizon {r} exceed the cap "
                f"{budget.max_executions}"
            )
        search = _Search(family, r)
        last_search = search
        if search.solvable:
            table.append((r, True))
            decision_table = search.decision_table()
            protocol = full_information_protocol(
                family, r, decision_table, name=f"oracle-protocol[r={r}]"
            )
            return OracleResult(
                max_horizon, tuple(table), r, protocol, decision_table, None
            )
        table.append((r, False))
    assert last_search is not None
    return OracleResult(
        max_horizon, tuple(table), None, None, None, last_search.mixing_chain()
    )


class _Search:
    """One-horizon component search over all executions."""

    def __init__(self, family: EventFamily, rounds: int) -> None:
        self.family = family
        self.rounds = rounds
        n = family.base.node_count
        inits = list(product((0, 1), repeat=n))
        words = list(product(range(len(family)), repeat=rounds))
        self.executions = [Execution(i, w) for i in inits for w in words]
        self.exec_views = [
            execution_views(family, ex.word, ex.init) for ex in self.executions
        ]
        uf = _UnionFind(len(self.executions))
        self.view_groups: dict[ViewContent, list[int]] = {}
        for idx, views in enumerate(self.exec_views):
            for content in views:
                group = self.view_groups.setdefault(content, [])
                if group:
                    uf.union(group[0], idx)
                group.append(idx)
        self.root = [uf.find(i) for i in range(len(self.executions))]
        self.has_uniform: dict[int, set[int]] = {}
        for idx, ex in enumerate(self.executions):
            uniform = ex.init[0] if len(set(ex.init)) == 1 else None
            if uniform is not None:
                self.has_uniform.setdefault(self.root[idx], set()).add(uniform)
        self.solvable = not any(
            values >= {0, 1} for values in self.has_uniform.values()
        )

    def decision_table(self) -> dict[ViewContent, int]:
        decide_of_root = {
            root: min(values) for root, values in self.has_uniform.items()
        }
        table: dict[ViewContent, int] = {}
        for idx, views in enumerate(self.exec_views):
            value = decide_of_root.get(self.root[idx], 0)
            for content in views:
                table[content] = value
        return table

    def mixing_chain(self) -> IndistinguishabilityChain:
        mixed_root = next(
            root for root, values in self.has_uniform.items() if values >= {0, 1}
        )
        start = next(
            i for i, ex in enumerate(self.executions)
            if self.root[i] == mixed_root and set(ex.init) == {0}
        )
        prev: dict[int, tuple[int, int]] = {start: (start, -1)}
        frontier = [start]
        goal = None
        while frontier and goal is None:
            next_frontier: list[int] = []
            for idx in frontier:
                if goal is not None:
                    break
                for owner, content in enumerate(self.exec_views[idx]):
                    for other in self.view_groups[content]:
                        if other not in prev:
                            prev[other] = (idx, owner)
                            if set(self.executions[other].init) == {1}:
                                goal = other
                                break
                            next_frontier.append(other)
                    if goal is not None:
                        break
            frontier = next_frontier
        assert goal is not None, "mixed component must join both uniform inputs"
        path = [goal]
        nodes = []
        idx = goal
        while idx != start:
            idx, node = prev[idx]
            path.append(idx)
            nodes.append(node)
        path.reverse()
        nodes.reverse()
        return IndistinguishabilityChain(
            tuple(self.executions[i] for i in path), tuple(nodes), self.rounds
        )


# ---- equal-rounds audit ----------------------------------------------------------

@dataclass(frozen=True)
class EqualRoundsReport:
    broadcast_source: int | None
    broadcast_rounds: int | None
    consensus_rounds: int | None
    horizon: int

    @property
    def equal(self) -> bool:
        return self.broadcast_rounds == self.consensus_rounds

    def to_json_dict(self, family: EventFamily) -> dict:
        return {
            "broadcast_rounds": self.broadcast_rounds,
            "broadcast_source": (
                None if self.broadcast_source is None
                else family.base.label(self.broadcast_source)
            ),
            "consensus_rounds": self.consensus_rounds,
            "horizon": self.horizon,
            "equal": self.equal,
        }


def equal_rounds_audit(
    family: EventFamily, budget: Budget | None = None
) -> EqualRoundsReport:
    """Compare optimal broadcast rounds with the oracle's consensus rounds.

    Only convex families are accepted.  For broadcastable input the oracle
    searches up to the broadcast round count; matching values confirm the
    instance, a smaller consensus count is a genuine divergence worth
    reporting.  Non-broadcastable convex input is reported with both
    sides unsolvable (the oracle searches up to |V| rounds).
    """
    if not is_convex(family):
        raise ValueError("the equal-rounds audit applies to convex families only")
    budget = effective_budget(budget)
    best = optimal_broadcast_rounds(family, budget)
    if best is None:
        horizon = family.base.node_count
        oracle = min_consensus_rounds(family, horizon, budget)
        return EqualRoundsReport(None, None, oracle.rounds, horizon)
    source, rounds = best
    oracle = min_consensus_rounds(family, rounds, budget)
    return EqualRoundsReport(source, rounds, oracle.rounds, rounds)
