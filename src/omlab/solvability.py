"""Broadcastability and consensus solvability verdicts with witnesses.

Broadcast over a mobile scheme is solvable exactly when one node is a
source of every member event, so the check is an intersection of source
sets; the negative witness is a no-source event or a minimal subset of
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
all events at once (``EventFamily.source_columns``), the game to find
all successors of an informed set by splitting the events by the nodes
they starve.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from enum import Enum
from itertools import combinations
from typing import Iterable, Union

from .budget import Budget, InputError, effective_budget
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


@dataclass(frozen=True)
class CommonSourceWitness:
    """Nodes that are sources of every event in the family."""

    nodes_mask: int


@dataclass(frozen=True)
class NoSourceEventWitness:
    """Index of an event from which no node reaches everyone."""

    event: int


@dataclass(frozen=True)
class IncompatibilityWitness:
    """Events that each have sources but share none."""

    events: tuple[int, ...]
    source_masks: tuple[int, ...]

    def holds(self, family: EventFamily) -> bool:
        """Replay against each event's own source set, not the family kernel."""
        inter = family.base.full_mask
        for idx, mask in zip(self.events, self.source_masks):
            if Event(family.base, family.masks[idx]).sources_mask != mask or mask == 0:
                return False
            inter &= mask
        return inter == 0


@dataclass(frozen=True)
class BetaClassWitness:
    """A class of the partition together with its incompatibility witness.

    ``partition`` is the class partition the class was taken from, kept so
    that callers can report it without computing it again.
    """

    class_events: tuple[int, ...]
    incompatibility: IncompatibilityWitness
    partition: BetaPartition = field(compare=False, repr=False)


Witness = Union[
    CommonSourceWitness, NoSourceEventWitness, IncompatibilityWitness, BetaClassWitness
]


@dataclass(frozen=True)
class Verdict:
    problem: str  # "broadcast" | "consensus"
    answer: Answer
    rule: str
    witness: Witness | None

    @property
    def exit_code(self) -> int:
        return EXIT_CODES[self.answer]


# ---- broadcastability --------------------------------------------------------

def check_broadcastable(family: EventFamily) -> Verdict:
    """Solvable iff some node is a source for every member event."""
    source_masks = family.source_masks
    if 0 in source_masks:
        return Verdict(
            "broadcast", Answer.UNSOLVABLE, "no-source-event",
            NoSourceEventWitness(source_masks.index(0)),
        )
    common = family.common_sources_mask()
    if common:
        return Verdict(
            "broadcast", Answer.SOLVABLE, "common-source",
            CommonSourceWitness(common),
        )
    witness = _minimal_incompatible_subset(family, range(len(family)))
    return Verdict(
        "broadcast", Answer.UNSOLVABLE, "source-incompatible", witness,
    )


# Subsets examined before the incompatible-subset search settles for a greedy one.
MAX_COMBINATIONS = 200_000


def _minimal_incompatible_subset(
    family: EventFamily, members: Iterable[int]
) -> IncompatibilityWitness:
    """Smallest subset of ``members`` with nonempty sources and empty intersection.

    The search runs over distinct inclusion-minimal source sets (if one
    source set contains another, the smaller one is at least as useful),
    by increasing subset size.  If the combination count explodes, a
    greedy irredundant subset is returned instead; it is still a valid
    witness, just not guaranteed minimum-cardinality.
    """
    representative: dict[int, int] = {}
    for idx in members:
        representative.setdefault(family.source_masks[idx], idx)
    masks = sorted(representative)
    minimal = [
        m for m in masks
        if not any(other != m and other & m == other for other in masks)
    ]

    def witness_of(chosen: tuple[int, ...]) -> IncompatibilityWitness:
        events = tuple(sorted(representative[m] for m in chosen))
        return IncompatibilityWitness(
            events, tuple(family.source_masks[i] for i in events)
        )

    examined = 0
    for size in range(2, len(minimal) + 1):
        for chosen in combinations(minimal, size):
            examined += 1
            if examined > MAX_COMBINATIONS:
                return witness_of(tuple(_greedy_irredundant(minimal)))
            inter = chosen[0]
            for m in chosen[1:]:
                inter &= m
            if inter == 0:
                return witness_of(chosen)
    raise AssertionError("no incompatible subset despite empty intersection")


def _greedy_irredundant(masks: list[int]) -> list[int]:
    kept = list(masks)
    for m in list(kept):
        rest = [x for x in kept if x != m]
        inter = -1
        for x in rest:
            inter &= x
        if rest and inter == 0:
            kept = rest
    return kept


# ---- consensus -----------------------------------------------------------------

def check_consensus(
    family: EventFamily, partition: BetaPartition | None = None
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
    source_masks = family.source_masks
    if 0 in source_masks:
        return replace(check_broadcastable(family), problem="consensus")
    if is_convex(family):
        return replace(
            check_broadcastable(family), problem="consensus", rule="convex-broadcast-equivalence"
        )
    common = family.common_sources_mask()
    if common:
        # Flooding the common source's value and deciding it solves
        # consensus whenever broadcast is solvable, convex or not.
        return Verdict(
            "consensus", Answer.SOLVABLE, "broadcast-reduction", CommonSourceWitness(common)
        )
    bp = partition if partition is not None else beta_partition(family)
    for members in bp.classes:
        inter = family.base.full_mask
        for i in members:
            inter &= source_masks[i]
        if inter == 0:
            return Verdict(
                "consensus", Answer.UNSOLVABLE,
                "indistinguishable-class-unbroadcastable",
                BetaClassWitness(members, _minimal_incompatible_subset(family, members), bp),
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
    events that deliver base arc ``b``.  From a state S, an uninformed
    node v with a base arc from S is starved by
    ``all & ~OR(carriers of arcs S -> v)``.
    Splitting all events by each nonzero starve column leaves groups that
    starve the same nodes; each gives one distinct successor, S plus its
    border minus the group's starved nodes: O(arcs + columns * groups).
    ``value`` is the one search: exact values are kept in ``_memo``, and a
    state whose search stopped at a cap is kept in ``_atleast`` with that
    cap, which answers every query capped at or below it.
    """

    def __init__(self, family: EventFamily, budget: Budget | None = None) -> None:
        effective_budget(budget).check("max_game_nodes", family.base.node_count)
        self.family = family
        self._all = (1 << len(family)) - 1
        self._full = family.base.full_mask
        self._memo: dict[int, Rounds] = {self._full: 0}
        self._atleast: dict[int, Rounds] = {}

    def _successors(self, state: int) -> list[int]:
        """The distinct successors of ``state``, fewest informed nodes first."""
        base, carriers, everything = self.family.base, self.family.carriers, self._all
        out_arc_bits, in_arc_bits = base.out_arc_bits, base.in_arc_bits
        leaving = 0
        for u in mask_nodes(state):
            leaving |= out_arc_bits[u]
        grown = state
        groups = [(everything, 0)] if everything else []  # (events, nodes they starve)
        for v in mask_nodes(self._full & ~state):
            arcs = leaving & in_arc_bits[v]
            if not arcs:
                continue
            grown |= 1 << v
            fed = 0
            while arcs:
                low = arcs & -arcs
                fed |= carriers[low.bit_length() - 1]
                arcs ^= low
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
    family: EventFamily, budget: Budget | None = None
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

@dataclass(frozen=True)
class ThresholdRow:
    f: int
    answer: Answer
    expected_solvable: bool
    agrees: bool


def connectivity_threshold_check(
    g: Digraph, f_max: int, budget: Budget | None = None
) -> tuple[ThresholdRow, ...]:
    """Consensus verdicts for omission bounds 0..f_max vs the connectivity cut.

    For each global bound f the family of events with at most f missing
    arcs is checked, and the verdict is compared against the prediction
    that consensus is solvable exactly when f is below the arc
    connectivity of the symmetric graph.  The family is convex, so
    consensus holds exactly when some node stays a source after any f
    arc omissions, that is, when f arcs cannot cut the graph.
    """
    budget = effective_budget(budget)
    connectivity = arc_connectivity(g)
    rows = []
    for f in range(f_max + 1):
        family = generate_bounded_omissions(g, f, "global", budget)
        verdict = check_consensus(family)
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
