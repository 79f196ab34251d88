"""Broadcastability and consensus solvability verdicts with witnesses.

Broadcast over a mobile scheme is solvable exactly when one node is a
source of every member event, so the check is an intersection of source
sets; the negative witness is a no-source event or a minimum subset of
events whose source sets do not intersect.

For consensus the decision procedure is:

1. an event without sources makes consensus unsolvable outright;
2. for convex families, consensus is equivalent to broadcast;
3. a broadcastable family always admits consensus (flood the common
   source's value, everyone decides it);
4. otherwise the class partition decides: a class without a common
   source proves unsolvability, and if every class is broadcastable the
   necessary condition holds but sufficiency is open, reported as an
   explicit third verdict.

Round counts come from an adversarial flooding game over informed sets:
each round the adversary picks the member event that slows flooding the
most.  Flooding dominates every algorithm under the round semantics, so
the game value is the optimal broadcast time from a given originator.
The best originator is the common source of least value; each source
is searched with its value capped at the best count so far
(``BroadcastGame.value(state, cap)``), so a search stops as soon as it
shows that source cannot do better.
Both the source sets and the game read ``EventFamily.carriers``, the
bitset of events delivering each base arc: source sets as closures over
all events at once (``EventFamily.source_columns``), the game as
per-node feeds, each arc into a node paired with its tail's bit, to find
all successors of an informed set by splitting the events by the nodes
they starve.  The verdicts read the columns too: the events with no
source are those outside the OR of every column, and a common source
is a column that holds every event.  Only the incompatible-subset search
and the class rule read the per-event ``EventFamily.source_masks``.
Rule 2 asks ``is_convex``, which reads the family's cached answer; a
family from ``generate_bounded_omissions`` carries ``True`` and is never
scanned.
"""
from __future__ import annotations

import math
from enum import Enum
from functools import reduce
from operator import or_
from typing import Iterable, NamedTuple, Union

from .budget import DEFAULT_BUDGET, Budget, BudgetExceededError, InputError
from .equivalence import BetaPartition, beta_partition
from .events import Event, EventFamily, generate_bounded_omissions, is_convex
from .graphs import Digraph, arc_connectivity, mask_nodes

UNBOUNDED = math.inf

Rounds = Union[int, float]


class Answer(str, Enum):
    SOLVABLE = "solvable"
    UNSOLVABLE = "unsolvable"
    NECESSARY_CONDITION_HOLDS = "necessary-condition-holds"


EXIT_CODES = {
    Answer.SOLVABLE: 0,
    Answer.UNSOLVABLE: 2,
    Answer.NECESSARY_CONDITION_HOLDS: 3,
}


class CommonSourceWitness(NamedTuple):
    """Nodes that are sources of every event in the family."""

    nodes_mask: int


class NoSourceEventWitness(NamedTuple):
    """Index of an event from which no node reaches everyone."""

    event: int


class IncompatibilityWitness(NamedTuple):
    """Events that each have sources but share none."""

    events: tuple[int, ...]
    source_masks: tuple[int, ...]

    def holds(self, family: EventFamily) -> bool:
        """Replay against each event's own source set, not the family kernel.

        Masks that do not pair off with the events, or an index outside the family, refute it.
        """
        inside = range(len(family))
        if len(self.events) != len(self.source_masks) or not all(i in inside for i in self.events):
            return False
        inter = family.base.full_mask
        for idx, mask in zip(self.events, self.source_masks):
            if Event(family.base, family.masks[idx]).sources_mask != mask or mask == 0:
                return False
            inter &= mask
        return inter == 0


class BetaClassWitness(NamedTuple):
    """A class of the partition together with its incompatibility witness.

    ``partition`` is the class partition the class was taken from, kept so
    that callers can report it without computing it again.  Like every
    field, it takes part in ``==`` and ``repr``.
    """

    class_events: tuple[int, ...]
    incompatibility: IncompatibilityWitness
    partition: BetaPartition


Witness = Union[
    CommonSourceWitness, NoSourceEventWitness, IncompatibilityWitness, BetaClassWitness
]


class Verdict(NamedTuple):
    problem: str  # "broadcast" | "consensus"
    answer: Answer
    rule: str
    witness: Witness | None

    @property
    def exit_code(self) -> int:
        return EXIT_CODES[self.answer]


# ---- broadcastability --------------------------------------------------------

def check_broadcastable(family: EventFamily, budget: Budget = DEFAULT_BUDGET) -> Verdict:
    """Solvable iff some node is a source for every member event.

    ``budget`` caps the incompatible-subset search.
    """
    unsourced = _first_unsourced_event(family)
    if unsourced is not None:
        return Verdict(
            "broadcast", Answer.UNSOLVABLE, "no-source-event", NoSourceEventWitness(unsourced),
        )
    common = family.common_sources_mask()
    if common:
        return Verdict("broadcast", Answer.SOLVABLE, "common-source", CommonSourceWitness(common))
    witness = _minimum_incompatible_subset(family, range(len(family)), budget)
    return Verdict("broadcast", Answer.UNSOLVABLE, "source-incompatible", witness)


def _first_unsourced_event(family: EventFamily) -> int | None:
    """The lowest index of an event with no source, from an OR of the source columns."""
    unsourced = (1 << len(family)) - 1 & ~reduce(or_, family.source_columns, 0)
    return (unsourced & -unsourced).bit_length() - 1 if unsourced else None


def _minimum_incompatible_subset(
    family: EventFamily, members: Iterable[int], budget: Budget
) -> IncompatibilityWitness:
    """Smallest subset of ``members`` with nonempty sources and empty intersection.

    The search is breadth-first over intersections of the distinct
    inclusion-minimal source sets, sorted (a source set that contains
    another is never needed).  Level 1 maps each set to its index tuple
    ``(j,)``; level k extends each tuple of level k - 1, in stored order,
    only with sets of a higher index, and keeps the first tuple for each
    intersection no earlier level reached.  So the first empty intersection
    is on the lowest level, a minimum subset, and it is the lexicographically
    first combination of that size: that combination's prefix is the
    lex-first combination for its own intersection, kept one level down.
    The intersections are distinct node sets, so the search raises
    ``BudgetExceededError`` naming ``max_game_nodes`` once it holds more
    than 2^``budget.max_game_nodes`` of them; the caller passes ``budget``.
    """
    representative: dict[int, int] = {}
    for idx in members:
        representative.setdefault(family.source_masks[idx], idx)
    masks = sorted(representative)
    minimal = [m for m in masks if not any(o != m and o & m == o for o in masks)]
    limit = 1 << budget.max_game_nodes
    level = {m: (j,) for j, m in enumerate(minimal)}
    reached = set(level)
    while level and 0 not in level:
        below, level = level, {}
        for inter, chosen in below.items():
            if len(reached) > limit:
                raise BudgetExceededError(f"max_game_nodes: over {limit:,} intersections held")
            for j in range(chosen[-1] + 1, len(minimal)):
                meet = inter & minimal[j]
                if meet not in reached:
                    reached.add(meet)
                    level[meet] = chosen + (j,)
            if 0 in level:
                break
    events = tuple(sorted(representative[minimal[j]] for j in level[0]))
    return IncompatibilityWitness(events, tuple(family.source_masks[i] for i in events))


# ---- consensus -----------------------------------------------------------------

def check_consensus(
    family: EventFamily, partition: BetaPartition | None = None, budget: Budget = DEFAULT_BUDGET
) -> Verdict:
    """Decide consensus solvability, or report the inconclusive middle ground.

    The rules are tried in the module's order: an event without sources,
    convexity, a common source, the classes.  Only the first two build
    the broadcast verdict, so only a convex family searches all of its
    events for an incompatible subset; otherwise only the reported class
    is searched.  ``partition`` may be supplied to reuse the class
    partition of ``family``; it is only consulted on the non-convex path.
    """
    if partition is not None and partition.family is not family and partition.family != family:
        raise InputError("the class partition is of another family")
    unsourced = _first_unsourced_event(family)
    if unsourced is not None:
        return Verdict(
            "consensus", Answer.UNSOLVABLE, "no-source-event", NoSourceEventWitness(unsourced),
        )
    if is_convex(family):
        verdict = check_broadcastable(family, budget)
        return verdict._replace(problem="consensus", rule="convex-broadcast-equivalence")
    common = family.common_sources_mask()
    if common:
        # Flooding the common source's value and deciding it solves
        # consensus whenever broadcast is solvable, convex or not.
        return Verdict(
            "consensus", Answer.SOLVABLE, "broadcast-reduction", CommonSourceWitness(common)
        )
    bp = partition if partition is not None else beta_partition(family)
    source_masks = family.source_masks
    for members in bp.classes:
        inter = family.base.full_mask
        for i in members:
            inter &= source_masks[i]
        if inter == 0:
            witness = _minimum_incompatible_subset(family, members, budget)
            return Verdict(
                "consensus", Answer.UNSOLVABLE,
                "indistinguishable-class-unbroadcastable",
                BetaClassWitness(members, witness, bp),
            )
    return Verdict(
        "consensus", Answer.NECESSARY_CONDITION_HOLDS, "necessary-condition-only",
        None,
    )


# ---- adversarial flooding rounds ------------------------------------------------

class BroadcastGame:
    """Worst-case flooding time over informed sets, memoized.

    State is the bitmask of informed nodes.  Each round the adversary
    picks a member event; the state grows by the heads of that event's
    arcs leaving the informed set.  The game value is the number of
    rounds to reach the full node set against optimal adversary play, or
    ``UNBOUNDED`` when some event makes no progress (the adversary can
    repeat it forever).

    Events are bits of an int; ``EventFamily.carriers[b]`` is the set of
    events that deliver base arc ``b``.  ``_feeds[v]`` holds, for each
    base arc into v, the pair (its tail's bit, its carriers), built once
    per game.  From a state S, an uninformed node v is fed by the OR of
    the carriers of its feeds whose tail is in S; a node fed by no event
    cannot grow and is skipped.  Any other is starved by
    ``all & ~fed``.
    Splitting all events by each nonzero starve column leaves groups that
    starve the same nodes; each gives one distinct successor, S plus its
    fed nodes minus the group's starved nodes: O(arcs + columns * groups).
    ``value`` is the one search: exact values are kept in ``_memo``, and a
    state whose search stopped at a cap is kept in ``_atleast`` with that
    cap, which answers every query capped at or below it.
    """

    def __init__(self, family: EventFamily, budget: Budget = DEFAULT_BUDGET) -> None:
        budget.check("max_game_nodes", family.base.node_count)
        self._all = (1 << len(family)) - 1
        self._full = family.base.full_mask
        self._memo: dict[int, Rounds] = {self._full: 0}
        self._atleast: dict[int, Rounds] = {}
        # Per node v, (tail bit, carriers) for each base arc into v.
        self._feeds: list[list[tuple[int, int]]] = [[] for _ in range(family.base.node_count)]
        for (tail, head), events in zip(family.base.sorted_arcs, family.carriers):
            self._feeds[head].append((1 << tail, events))

    def _successors(self, state: int) -> list[int]:
        """The distinct successors of ``state``, fewest informed nodes first."""
        everything = self._all
        grown = state
        groups = [(everything, 0)]  # (events, nodes they starve)
        for v in mask_nodes(self._full & ~state):
            fed = 0
            for tail, events in self._feeds[v]:
                if state & tail:
                    fed |= events
            if not fed:
                continue
            grown |= 1 << v
            starve = everything & ~fed
            if starve:
                groups = [
                    part for events, starved in groups
                    for part in ((events & starve, starved | 1 << v), (events & ~starve, starved))
                    if part[0]
                ]
        return sorted({grown & ~starved for _events, starved in groups}, key=int.bit_count)

    def value(self, state: int, cap: Rounds = UNBOUNDED) -> Rounds:
        """``min(game value of state, cap)``, searched fewer than ``cap`` rounds deep.

        Successors with the fewest informed nodes are tried first, and the
        search stops at the first one whose value reaches ``cap - 1``.
        """
        if state in self._memo:
            return min(self._memo[state], cap)
        # Every value is at least 0, so a cap of 0 or less is answered here.
        if self._atleast.get(state, 0) >= cap:
            return cap
        succs = self._successors(state)
        if state in succs:
            self._memo[state] = UNBOUNDED
            return cap
        result = 0
        for s in succs:
            result = max(result, 1 + self.value(s, cap - 1))
            if result >= cap:
                self._atleast[state] = cap
                return cap
        self._memo[state] = result
        return result


def optimal_broadcast_rounds(
    family: EventFamily, budget: Budget = DEFAULT_BUDGET
) -> tuple[int, int] | None:
    """Best originator and its worst-case round count; None if unsolvable.

    Only common sources are candidates (any other originator can be
    starved forever), so the minimum is taken over those, the lowest
    node winning ties.  Each source is played capped at the best count
    so far, so a source that cannot beat it is given up early.
    """
    common = family.common_sources_mask()
    if common == 0:
        return None
    game = BroadcastGame(family, budget)
    best: tuple[int, int] | None = None
    for u in mask_nodes(common):
        value = game.value(1 << u, best[1] if best else UNBOUNDED)
        if best is None or value < best[1]:
            best = (u, int(value))
    return best


# ---- connectivity threshold sweep ------------------------------------------------

class ThresholdRow(NamedTuple):
    f: int
    answer: Answer
    expected_solvable: bool
    agrees: bool


def connectivity_threshold_check(
    g: Digraph, f_max: int, budget: Budget = DEFAULT_BUDGET
) -> tuple[ThresholdRow, ...]:
    """Consensus verdicts for omission bounds 0..f_max vs the connectivity cut.

    For each global bound f the family of events with at most f missing
    arcs is checked, and the verdict is compared against the prediction
    that consensus is solvable exactly when f is below the arc
    connectivity of the symmetric graph.  The family is convex, so
    consensus holds exactly when some node stays a source after any f
    arc omissions, that is, when f arcs cannot cut the graph.
    """
    connectivity = arc_connectivity(g)
    rows = []
    for f in range(f_max + 1):
        family = generate_bounded_omissions(g, f, "global", budget)
        verdict = check_consensus(family, budget=budget)
        expected = f < connectivity
        rows.append(
            ThresholdRow(
                f, verdict.answer, expected,
                (verdict.answer is Answer.SOLVABLE) == expected,
            )
        )
    return tuple(rows)


# ---- JSON -----------------------------------------------------------------------

def witness_to_json_dict(witness: Witness | None, family: EventFamily) -> dict | None:
    g = family.base
    if witness is None:
        return None
    if isinstance(witness, CommonSourceWitness):
        return {
            "kind": "common-source",
            "nodes": [g.label(u) for u in mask_nodes(witness.nodes_mask)],
        }
    if isinstance(witness, NoSourceEventWitness):
        return {"kind": "no-source-event", "event": family.name(witness.event)}
    if isinstance(witness, IncompatibilityWitness):
        return {
            "kind": "source-incompatible",
            "events": family.names_of(witness.events),
            "source_sets": [
                [g.label(u) for u in mask_nodes(m)] for m in witness.source_masks
            ],
        }
    if isinstance(witness, BetaClassWitness):
        return {
            "kind": "class-unbroadcastable",
            "class": family.names_of(witness.class_events),
            "incompatibility": witness_to_json_dict(witness.incompatibility, family),
        }
    raise TypeError(f"unknown witness type {type(witness)!r}")


def verdict_to_json_dict(verdict: Verdict, family: EventFamily) -> dict:
    return {
        "problem": verdict.problem,
        "answer": verdict.answer.value,
        "rule": verdict.rule,
        "witness": witness_to_json_dict(verdict.witness, family),
        "rounds": None,  # kept: the golden CLI outputs and benchmark digests pin this key
        "exit_code": verdict.exit_code,
    }
