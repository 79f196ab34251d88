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

The search works on interned integer view ids, one level per round,
each level built once from the one before for the whole horizon loop.
Executions are numbered input-major, then by word in lexicographic
order, so execution s*k + e of depth r is execution s of depth r - 1
followed by letter e.  At depth 0 node v's id is 2v + x_v.  At depth r
its id interns the tuple (v's id at depth r - 1, then the depth r - 1
ids of v's in-neighbours under the letter, in node order), in one table
per depth shared by all nodes.  Equal ids mean equal views, by induction
on depth: a view holds its owner from depth 0, so an id fixes the node
that holds it, the in-neighbour ids fix who delivered, and their order
pairs each sender with its view.  So executions that share an id are
exactly those that share a view, and no nested view is built or hashed
during the search.  One breadth-first pass over the groups of executions
that share an id labels every component by its lowest execution; while
a component starts at an all-0 execution it also records how it reached
each execution, so the first all-1 execution it reaches ends the mixing
chain.  The decision table maps each final view's ``repr``, rendered once
per id from the strings of the depth before, to its decision.

On success the component labelling *is* a protocol on the same ids: a
node starts from its depth-0 id, each round sends its id and looks (its
own id, the delivered ids in sender order) up in the next depth's table,
and after r rounds decides its final id's label.  The certificate stays
independent of the search: ``exhaustive_check`` runs this protocol in the
generic engine on every word and input, and since the tables are
read-only, a node's state is a function of its own input and the
messages it received, not of which execution the search saw.  On failure
at the horizon, the offending component yields a replayable chain of
executions from an all-0 input to an all-1 input, adjacent executions
sharing one node's view: no algorithm can decide by round r without
breaking agreement or validity somewhere along the chain.
``verify_chain`` replays it with ``execution_views``, which builds the
nested views directly and shares no code with the search.

Because a mobile scheme branches finitely, solvable consensus always has
some uniform round bound, so "unsolvable up to horizon h" is meaningful
evidence but never a claim beyond h; the report records h explicitly.
"""
from __future__ import annotations

from dataclasses import dataclass
from itertools import product
from typing import Any

from .budget import Budget, effective_budget
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
    views: _Views, decisions: list[int], name: str = "oracle-protocol"
) -> ProtocolSpec:
    """Exchange view ids as deep as ``views`` goes, then decide ``decisions[id]``.

    A view the tables lack gets id -1, which no key holds, so every view
    built on it is missing too, as the nested view holding it would be.
    """
    tables = views.tables
    rounds = len(tables) - 1

    def init(v: int, value: int):
        return (0, tables[0].get((v, value), -1))

    def transition(v: int, state, delivered):
        depth, own = state
        # The engine delivers in sender order, the order the keys list senders in.
        return (depth + 1, tables[depth + 1].get((own, *delivered.values()), -1))

    def decision(v: int, state):
        depth, own = state
        if depth < rounds:
            return None
        if own < 0:
            raise ProtocolError(
                f"node {v} reached a view outside the decision table; "
                "was the protocol run against the family it was built for?"
            )
        return decisions[own]

    return ProtocolSpec(
        name=name,
        init=init,
        message=lambda v, state: state[1],
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
    """Outcome of the bounded-horizon consensus search.

    On success ``decision_table`` maps the ``repr`` of every final view, as
    ``execution_views`` builds it, to the protocol's decision on that view.
    """

    max_horizon: int
    horizon_table: tuple[tuple[int, bool], ...]  # (r, solvable at r)
    rounds: int | None
    protocol: ProtocolSpec | None
    decision_table: dict[str, int] | None
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
            data["decision_table"] = [
                {"view": view, "decision": value}
                for view, value in sorted(self.decision_table.items())
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

    Returns the protocol and its decision table, ``repr`` of each final view
    to its decision, on success; on failure at ``max_horizon``, returns the
    mixing chain showing why that horizon is not enough.
    """
    if max_horizon < 0:
        raise ValueError("horizon must be non-negative")
    budget = effective_budget(budget)
    n = family.base.node_count
    k = len(family)
    table: list[tuple[int, bool]] = []
    views = _Views(family)
    search: _Search | None = None
    for r in range(max_horizon + 1):
        budget.check("max_executions", (1 << n) * k**r)
        if r:
            views.extend()
        search = _Search(family, r, views)
        if search.solvable:
            table.append((r, True))
            decisions = search.decisions()
            views.ids = []  # the result keeps the tables, not every execution's ids
            protocol = full_information_protocol(views, decisions, f"oracle-protocol[r={r}]")
            return OracleResult(
                max_horizon, tuple(table), r, protocol, dict(zip(views.reprs(), decisions)), None
            )
        table.append((r, False))
    assert search is not None
    return OracleResult(
        max_horizon, tuple(table), None, None, None, search.mixing_chain()
    )


class _Views:
    """Interned view ids of every execution, one level per round.

    ``ids[v][s]`` is node v's view id in execution s of the current depth,
    and ``tables[d]`` maps what each id of depth d interns to the id, in
    id order.  The depth-0 keys are the views ``(v, x)``; a deeper key
    starts from its owner's id of the depth before.
    """

    def __init__(self, family: EventFamily) -> None:
        n = family.base.node_count
        self.k = len(family)
        self.in_nodes = [
            [mask_nodes(event.in_masks[v]) for v in range(n)] for event in family.events
        ]
        inits = list(product((0, 1), repeat=n))
        self.ids = [[2 * v + x[v] for x in inits] for v in range(n)]
        self.tables: list[dict[tuple[int, ...], int]] = [
            {(v, x): 2 * v + x for v in range(n) for x in (0, 1)}
        ]

    def extend(self) -> None:
        """Go one round deeper: state s*k + e is state s under letter e."""
        k = self.k
        old = self.ids
        intern: dict[tuple[int, ...], int] = {}
        ids = []
        for v, own in enumerate(old):
            col = [0] * (len(own) * k)
            for e, in_nodes in enumerate(self.in_nodes):
                keys = zip(own, *(old[u] for u in in_nodes[v]))
                col[e::k] = [intern.setdefault(key, len(intern)) for key in keys]
            ids.append(col)
        self.ids = ids
        self.tables.append(intern)

    def reprs(self) -> list[str]:
        """``repr`` of the nested view of every id at the current depth, each
        rendered once from the strings of the depth before."""
        views = list(map(repr, self.tables[0]))
        owners = [v for v, _x in self.tables[0]]
        for table in self.tables[1:]:
            # What a view adds to the views that hear it: (owner, view).
            heard = list(map("({}, {})".format, owners, views))
            views = [
                # A one-item tuple prints a trailing comma.
                f"({views[own]}, ({', '.join(heard[u] for u in senders)}"
                f"{',' if len(senders) == 1 else ''}))"
                for own, *senders in table
            ]
            # An id belongs to the owner of the id its key starts from.
            owners = [owners[key[0]] for key in table]
        return views


class _Search:
    """One-horizon component search: executions sharing a view id are joined.

    One breadth-first pass takes components in execution order and labels
    each by its lowest execution.  Until a chain is found, a component that
    starts at an all-0 execution records each execution's (parent execution,
    owner of the shared view); the first all-1 execution it reaches ends
    the chain.
    """

    def __init__(self, family: EventFamily, rounds: int, views: _Views) -> None:
        self.rounds = rounds
        self.views = views
        self.n = n = family.base.node_count
        self.k = k = len(family)
        # Execution i runs input vector i // k^r under word i % k^r.
        self.executions = range((1 << n) * k**rounds)
        size = len(self.executions)
        # The all-0 input comes first and the all-1 input last.
        block = k**rounds if n else 0
        members: list = [[] for _ in views.tables[-1]]
        for col in views.ids:
            for s, i in enumerate(col):
                members[i].append(s)
        self.root = root = [-1] * size
        self.parent: dict[int, tuple[int, int]] = {}
        self.goal: int | None = None
        for start in self.executions:
            if root[start] >= 0:
                continue
            root[start] = start
            record = start < block and self.goal is None
            if record:
                self.parent.clear()
            queue = [start]
            for idx in queue:
                for owner, col in enumerate(views.ids):
                    group, members[col[idx]] = members[col[idx]], ()
                    # A group scanned once holds no unlabelled execution.
                    for other in group:
                        if root[other] < 0:
                            root[other] = start
                            queue.append(other)
                            if record:
                                self.parent[other] = (idx, owner)
                                if other >= size - block:
                                    self.goal = other
                                    record = False
        self.ones = set(root[size - block:])
        self.solvable = self.goal is None

    def decisions(self) -> list[int]:
        """The decision of every view id at this depth, by id."""
        decision = [int(root in self.ones) for root in self.root]
        by_id: dict[int, int] = {}
        for col in self.views.ids:
            by_id.update(zip(col, decision))
        return [by_id[i] for i in range(len(by_id))]

    def mixing_chain(self) -> IndistinguishabilityChain:
        """The recorded chain: the parents walked back from the first all-1
        execution reached, owner by owner and then by execution index."""
        assert self.goal is not None, "only an unsolvable search records a chain"
        path, nodes = [self.goal], []
        while path[-1] in self.parent:
            idx, node = self.parent[path[-1]]
            path.append(idx)
            nodes.append(node)
        return IndistinguishabilityChain(
            tuple(map(self.execution, reversed(path))), tuple(reversed(nodes)), self.rounds
        )

    def execution(self, idx: int) -> Execution:
        init, word = divmod(idx, self.k**self.rounds)
        return Execution(
            tuple(init >> (self.n - 1 - v) & 1 for v in range(self.n)),
            tuple(word // self.k**i % self.k for i in reversed(range(self.rounds))),
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

    Only convex families are accepted.  A family broadcastable in b rounds
    solves consensus in b rounds by flooding the source's value
    (``broadcast_consensus``), so the oracle searches only up to b - 1
    rounds: the count it finds there, or else b.  Matching values confirm
    the instance, a smaller consensus count is a genuine divergence worth
    reporting; the report's horizon is b.  Non-broadcastable convex input
    is reported with broadcast unsolvable and the oracle's answer up to
    the largest horizon h <= |V| whose 2^|V| * k^h executions fit the
    budget's execution cap; the report's horizon is that h.
    """
    if not is_convex(family):
        raise ValueError("the equal-rounds audit applies to convex families only")
    budget = effective_budget(budget)
    best = optimal_broadcast_rounds(family, budget)
    if best is None:
        n, k = family.base.node_count, len(family)
        horizon = n
        while horizon and (1 << n) * k**horizon > budget.max_executions:
            horizon -= 1
        oracle = min_consensus_rounds(family, horizon, budget)
        return EqualRoundsReport(None, None, oracle.rounds, horizon)
    source, rounds = best
    fewer = min_consensus_rounds(family, rounds - 1, budget).rounds if rounds else None
    return EqualRoundsReport(source, rounds, rounds if fewer is None else fewer, rounds)
