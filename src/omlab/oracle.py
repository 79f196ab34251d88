"""Brute-force decision procedure for bounded-round consensus solvability.

The state of any deterministic algorithm after r rounds is a function of
the node's full-information view: everything it could possibly have
learned.  So r-round consensus exists if and only if the full-information
views admit a consistent decision labelling.  Concretely: take every
execution (binary input vector x scenario word of length r), link two
executions whenever some node ends with the same view in both (that node,
hence by agreement everyone, must decide the same value in both), and
check that no connected component contains both an all-zeros-input and an
all-ones-input execution.

The words alone decide the components.  Node v's view is its input-free
*structure*, which the word fixes, with the inputs of the nodes it heard
at the leaves, so (x, w) and (x', w') share it exactly when v has the
same structure under w and w' and x = x' on the nodes v heard.  Link two
words when some node has the same structure under both; in the *word
component* C of w an execution moves to any word of C with its input
fixed, and flips node u's input at any word where some node did not
hear u, but never changes it on B(C), the nodes every node heard in
every word of C.  So the component of (x, w) is C(w) x {x' : x' = x on
B(C(w))}: r rounds suffice iff every B(C) is non-empty, and the
decision "1 iff x is all 1 on B(C(w))" labels every component.

The search interns integer structure ids, one level per round, each
level built once from the one before for the whole horizon loop.  Words
are numbered in lexicographic order, so word w*k + e of depth r is word
w of depth r - 1 followed by letter e.  At depth 0 node v's id is v.  At
depth r an id interns the tuple (v's id at depth r - 1, then the depth
r - 1 ids of v's in-neighbours under the letter, in node order), in one
table per depth shared by all nodes, and it heard what its key's ids
heard.  Equal ids mean equal structures, by induction on depth: an id
fixes the node that holds it, the in-neighbour ids fix who delivered,
and their order pairs each sender with its structure.  So a view is the
pair (structure id, inputs heard), and no nested view is built or
hashed.  One breadth-first pass over the groups of words sharing an id
labels the word components.

The protocol, the decision table and the chain read structures too,
those of the final search, and each is built when first read.  On
success the decision labelling *is* a protocol: a node starts from its
depth-0 structure and its input, and each round sends that structure
with the heard inputs that are 1.  A structure holds a trie of the next
depth's keys that start with its id; the node walks it one delivered
sender id at a time, in sender order, ORs in the delivered inputs, and
takes the structure at the end.  After r rounds it decides 1 iff those
inputs cover B(C) of its final id's component.  The decision table
renders each final structure once, as ASCII bytes with a slot for each
heard input, and fills it with every input the structure can hear.  The
certificate stays independent of the search: ``exhaustive_check`` runs
the protocol in the generic engine on every word and input, and since
the tries are read-only, a node's state is a function of its own input
and the messages it received, not of which execution the search saw.
On failure at the horizon, a breadth-first pass over executions sharing
a view, from the all-0 input at the least word w* whose component has
B(C) empty to the first all-1 execution it reaches, yields a replayable
chain of executions, adjacent executions sharing one node's view: no
algorithm can decide by round r without breaking agreement or validity
somewhere along the chain.  ``verify_chain`` replays it with
``execution_views``, which builds the nested views directly and shares
no code with the search.

Because a mobile scheme branches finitely, solvable consensus always has
some uniform round bound, so "unsolvable up to horizon h" is meaningful
evidence but never a claim beyond h; the report records h explicitly.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, reduce
from itertools import product
from operator import or_
from typing import Any

from .budget import DEFAULT_BUDGET, Budget, InputError
from .events import EventFamily, is_convex
from .graphs import mask_nodes
from .simulator import ProtocolSpec, ProtocolError
from .solvability import optimal_broadcast_rounds


def execution_views(
    family: EventFamily, word: tuple[int, ...], init: tuple[int, ...]
) -> tuple[Any, ...]:
    """Final view content of every node for one execution.

    Depth-0 views are ``(node, value)``; the view after a round pairs the
    previous view with the (sorted) delivering in-neighbours' views.
    """
    n = family.base.node_count
    views: list[Any] = [(v, init[v]) for v in range(n)]
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

def full_information_protocol(views: _Views, needs: list[int]) -> ProtocolSpec:
    """Exchange structures as deep as ``views`` goes, with the heard inputs
    that are 1 (node v at bit n - 1 - v), then decide 1 iff those cover
    ``needs[id]``; the protocol is named ``oracle-protocol[r=R]``.

    A state, which is also the message, is (structure, ones).  A structure
    of depth d is (id, d, trie, need): the trie holds the depth d + 1 keys
    that start with id, as dicts nested by sender id with the key's
    structure under ``None``, and ``need`` is B(C) at depth R.  A
    structure the tables lack is lost, id -1 with an empty trie, so every
    structure built on it is lost too, as the nested view would be.
    """
    tables = views.tables
    rounds = len(tables) - 1
    n = len(tables[0])
    levels = [[(i, d, {}, 0) for i in range(len(table))] for d, table in enumerate(tables)]
    levels[rounds] = [(i, rounds, {}, need) for i, need in enumerate(needs)]
    for below, level, table in zip(levels, levels[1:], tables[1:]):
        for key, structure in zip(table, level):
            node = below[key[0]][2]
            for sender in key[1:]:
                node = node.setdefault(sender, {})
            node[None] = structure
    lost = [(-1, d, {}, 0) for d in range(rounds + 1)]

    def init(v: int, value: int):
        return (levels[0][v], value << n - 1 - v) if v < n else (lost[0], 0)

    def transition(v: int, state, delivered):
        structure, ones = state
        node = structure[2]
        try:
            # The engine delivers in sender order, the order the keys list senders in.
            for (sender, _depth, _trie, _need), bits in delivered.values():
                node = node[sender]
                ones |= bits
            return node[None], ones
        except KeyError:
            return lost[structure[1] + 1], ones

    def decision(v: int, state):
        (own, depth, _trie, need), ones = state
        if depth < rounds:
            return None
        if own < 0:
            raise ProtocolError(
                f"node {v} reached a view outside the decision table; "
                "was the protocol run against the family it was built for?"
            )
        return int(ones & need == need)

    return ProtocolSpec(
        name=f"oracle-protocol[r={rounds}]",
        init=init,
        message=lambda v, state: state,
        transition=transition,
        decision=decision,
        halting_round=rounds,
    )


def _decision_table(views: _Views, needs: list[int]) -> dict[str, int]:
    """``repr`` of every final view to its decision.  Each structure is
    rendered once, as ASCII bytes from the texts of the depth before, with
    the letter ``65 + v``, which no rendered view holds, where node v's
    input goes; it must fit in a byte, so v <= 190, far past what the
    execution cap allows.  One ``bytes.maketrans`` table per input fills
    every letter, and each entry is decoded as it is made."""
    owners = list(views.tables[0])
    letters = bytes(65 + v for v in owners)
    texts = [b"(%d, %c)" % (v, letter) for v, letter in zip(owners, letters)]
    for table in views.tables[1:]:
        # What a structure adds to those that hear it: (owner, structure).
        heard = [b"(%d, %s)" % pair for pair in zip(owners, texts)]
        texts = [
            # A one-item tuple prints a trailing comma.
            b"(%s, (%s%s))"
            % (texts[key[0]], b", ".join([heard[u] for u in key[1:]]), b"," * (len(key) == 2))
            for key in table
        ]
        owners = [owners[key[0]] for key in table]
    inputs = enumerate(product(b"01", repeat=len(letters)))
    fills = [(i, bytes.maketrans(letters, bytes(x))) for i, x in inputs]
    return {
        text.translate(fill).decode(): int(i & need == need)
        for text, heard_mask, need in zip(texts, views.heard, needs)
        # Each input the structure can hear: 0 on the nodes it did not.
        for i, fill in fills if i | heard_mask == heard_mask
    }


# ---- the component search -----------------------------------------------------

@dataclass(frozen=True)
class IndistinguishabilityChain:
    """(init, word) executions from an all-0 input to an all-1 input, each
    adjacent pair indistinguishable to ``shared_nodes[i]`` after ``depth`` rounds."""

    executions: tuple[tuple[tuple[int, ...], tuple[int, ...]], ...]
    shared_nodes: tuple[int, ...]
    depth: int


def verify_chain(chain: IndistinguishabilityChain, family: EventFamily) -> bool:
    """Re-simulate the chain and confirm every claimed coincidence."""
    execs = chain.executions
    if len(execs) < 2 or len(chain.shared_nodes) != len(execs) - 1:
        return False
    n = family.base.node_count
    for ex in execs:
        if not isinstance(ex, tuple) or len(ex) != 2:
            return False
        init, word = ex
        if len(init) != n or any(v not in (0, 1) for v in init):
            return False
        if len(word) != chain.depth:
            return False
        if any(not 0 <= i < len(family) for i in word):
            return False
    if set(execs[0][0]) != {0} or set(execs[-1][0]) != {1}:
        return False
    views = [execution_views(family, word, init) for init, word in execs]
    for node, left, right in zip(chain.shared_nodes, views, views[1:]):
        if not 0 <= node < n or left[node] != right[node]:
            return False
    return True


@dataclass(frozen=True)
class OracleResult:
    """Outcome of the bounded-horizon consensus search, and its final search.

    The proofs are built from ``search`` on first read: on success
    ``protocol`` and ``decision_table``, the ``repr`` of every final view,
    as ``execution_views`` builds it, to its decision; on failure ``witness``.
    """

    max_horizon: int
    rounds: int | None
    search: _Search

    @property
    def solvable(self) -> bool:
        return self.rounds is not None

    @cached_property
    def protocol(self) -> ProtocolSpec | None:
        search = self.search
        return full_information_protocol(search.views, search.needs) if self.solvable else None

    @cached_property
    def decision_table(self) -> dict[str, int] | None:
        search = self.search
        return _decision_table(search.views, search.needs) if self.solvable else None

    @cached_property
    def witness(self) -> IndistinguishabilityChain | None:
        return None if self.solvable else self.search.mixing_chain()

    @property
    def horizon_table(self) -> tuple[tuple[int, bool], ...]:
        """(r, solvable at r) for every horizon searched, up to ``rounds``."""
        last = self.max_horizon if self.rounds is None else self.rounds
        return tuple((r, r == self.rounds) for r in range(last + 1))

    def to_json_dict(self, family: EventFamily) -> dict:
        data: dict[str, Any] = {
            "max_horizon": self.max_horizon,
            "horizon_table": [
                {"rounds": r, "solvable": ok} for r, ok in self.horizon_table
            ],
            "rounds": self.rounds,
        }
        table = self.decision_table
        if table is not None:
            data["decision_table"] = [
                {"view": view, "decision": table[view]} for view in sorted(table)
            ]
        if self.witness is not None:
            data["witness"] = {
                "depth": self.witness.depth,
                "executions": [
                    {"init": list(init), "scenario": family.names_of(word)}
                    for init, word in self.witness.executions
                ],
                "shared_nodes": [
                    family.base.label(v) for v in self.witness.shared_nodes
                ],
            }
        return data


def min_consensus_rounds(
    family: EventFamily, max_horizon: int, budget: Budget = DEFAULT_BUDGET
) -> OracleResult:
    """Least r <= max_horizon with an r-round consensus protocol, with proof.

    The result keeps the search at r, or else at ``max_horizon``, and
    builds from it, on first read, the protocol and its decision table on
    success or the mixing chain showing why ``max_horizon`` is not enough.
    """
    if max_horizon < 0:
        raise InputError("horizon must be non-negative")
    views = _Views(family)
    for r in range(max_horizon + 1):
        budget.check("max_executions", (1 << family.base.node_count) * len(family)**r)
        if r:
            views.extend()
        search = _Search(family, r, views)
        if search.solvable:
            break
    return OracleResult(max_horizon, r if search.solvable else None, search)


class _Views:
    """Interned structure ids of every word, one level per round.

    ``structures[v][w]`` is node v's structure id under word w of the
    current depth, and ``tables[d]`` lists what each id of depth d
    interns, in id order: ``tables[0]`` the depth-0 owners, id v for node
    v, and a deeper table maps each key, its owner's id of the depth
    before and then its in-neighbours' ids, to the id.  ``heard[i]`` is
    the mask of the nodes whose inputs structure id i holds, node v at
    bit n - 1 - v as in an input's index.  A view is a structure id with
    the inputs on its heard nodes.
    """

    def __init__(self, family: EventFamily) -> None:
        n = family.base.node_count
        self.k = len(family)
        self.in_nodes = [
            [mask_nodes(event.in_masks[v]) for v in range(n)] for event in family.events
        ]
        self.tables: list[Any] = [range(n)]
        self.structures = [[v] for v in range(n)]
        self.heard = [1 << n - 1 - v for v in range(n)]

    def extend(self) -> None:
        """Go one round deeper: column v's entry w*k + e keys (v's id at w,
        then the ids at w of v's in-neighbours under letter e), in node order."""
        cols, k = self.structures, self.k
        table: dict[tuple[int, ...], int] = {}
        self.structures = []
        for v, own in enumerate(cols):
            col = [0] * (len(own) * k)
            for e, nodes in enumerate(self.in_nodes):
                keys = zip(own, *(cols[u] for u in nodes[v]))
                col[e::k] = [table.setdefault(key, len(table)) for key in keys]
            self.structures.append(col)
        self.tables.append(table)
        heard = self.heard
        self.heard = [reduce(or_, map(heard.__getitem__, key)) for key in table]


class _Search:
    """One-horizon search: words sharing a structure id are joined.

    One breadth-first pass takes word components in word order and ANDs
    the heard masks of each into B(C).  It stops at the first component
    with B(C) empty; ``start`` is that component's lowest word w*, and
    the all-0 execution the chain starts from.  ``executions`` ranges over
    the 2^n * k^r executions the chain walks.
    """

    def __init__(self, family: EventFamily, rounds: int, views: _Views) -> None:
        self.rounds = rounds
        self.views = views
        self.n = n = family.base.node_count
        self.k = k = len(family)
        # Execution i runs input vector i // k^r under word i % k^r.
        self.executions = range((1 << n) * k**rounds)
        words = k**rounds
        # words_of[i]: the words under which structure id i's node has it.
        self.words_of = words_of = [[] for _ in views.heard]
        for col in views.structures:
            for w, i in enumerate(col):
                words_of[i].append(w)
        heard, scanned = views.heard, bytearray(len(words_of))
        # common[w]: B(C(w)) as a mask of input bits; -1 until labelled.
        self.common = common = [-1] * words
        self.start: int | None = None
        for start in range(words):
            if common[start] >= 0:
                continue
            common[start] = 0
            mask = (1 << n) - 1
            queue = [start]
            for w in queue:
                for col in views.structures:
                    # A group scanned once holds no unlabelled word.
                    if not scanned[col[w]]:
                        scanned[col[w]] = 1
                        mask &= heard[col[w]]
                        for other in words_of[col[w]]:
                            if common[other] < 0:
                                common[other] = 0
                                queue.append(other)
            if not mask and n:
                self.start = start
                break
            for w in queue:
                common[w] = mask
        self.solvable = self.start is None

    @cached_property
    def needs(self) -> list[int]:
        """B(C) of every structure id's word component, by id: the inputs
        a node with that id must see all 1 to decide 1."""
        common = self.common
        return [common[words[0]] for words in self.words_of]

    def mixing_chain(self) -> IndistinguishabilityChain:
        """A chain from execution (all-0, w*) to the first all-1 execution
        that a breadth-first pass over executions sharing a view reaches,
        taking groups owner by owner and each group by execution index.

        Node v's view at (x, w) is shared by exactly the executions (x', w')
        where v has w's structure and x' = x on what v heard, so each group
        is listed from the structure's words when it is first reached.
        """
        assert self.start is not None, "only an unsolvable search has a chain"
        n, words = self.n, self.k**self.rounds
        views, words_of = self.views, self.words_of
        scanned: set[tuple[int, int]] = set()
        full = (1 << n) - 1
        # The all-1 input comes last.
        ones = len(self.executions) - words
        parent: list = [None] * len(self.executions)
        parent[self.start] = (-1, -1)
        queue = [self.start]
        for idx in queue:
            x, w = divmod(idx, words)
            for owner, col in enumerate(views.structures):
                sid = col[w]
                fixed = views.heard[sid]
                # The view is the structure with the inputs it heard.
                y = x & fixed
                if (sid, y) in scanned:
                    continue
                scanned.add((sid, y))
                # Every input that agrees with x on ``fixed``, in increasing order.
                while True:
                    for other in words_of[sid]:
                        other += y * words
                        if parent[other] is None:
                            parent[other] = (idx, owner)
                            queue.append(other)
                            if other >= ones:
                                return self._chain(parent, other)
                    if y | fixed == full:
                        break
                    y = ((y | fixed) + 1) & ~fixed | x & fixed
        raise AssertionError("a component with B(C) empty holds an all-1 execution")

    def _chain(self, parent: list, goal: int) -> IndistinguishabilityChain:
        """The parents walked back from ``goal`` to the start."""
        path, nodes = [goal], []
        while path[-1] != self.start:
            idx, node = parent[path[-1]]
            path.append(idx)
            nodes.append(node)
        return IndistinguishabilityChain(
            tuple(map(self.execution, reversed(path))), tuple(reversed(nodes)), self.rounds
        )

    def execution(self, idx: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
        init, word = divmod(idx, self.k**self.rounds)
        return (
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
    family: EventFamily, budget: Budget = DEFAULT_BUDGET
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
    budget's execution cap; the report's horizon is that h.  Only round
    counts are read, so no protocol, decision table or chain is built.
    """
    if not is_convex(family):
        raise InputError("the equal-rounds audit applies to convex families only")
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
