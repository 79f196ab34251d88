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
The best originator is the common source of least value: the first is
played exactly, and each later one only when a search bounded by the
best count so far (``BroadcastGame.lasts``) shows it can do better.
Both the source sets and the game read ``EventFamily.carriers``, the
bitset of events delivering each base arc: source sets as one closure per
node over all events at once, the game to find all successors of an
informed set by splitting the events by the nodes they starve.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from enum import Enum
from itertools import combinations
from typing import Iterable, Union

from .budget import Budget, effective_budget
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
    for idx, mask in enumerate(source_masks):
        if mask == 0:
            return Verdict(
                "broadcast", Answer.UNSOLVABLE, "no-source-event",
                NoSourceEventWitness(idx),
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

    ``partition`` may be supplied to reuse a previously computed class
    partition; it is only consulted on the non-convex path.
    """
    broadcast = check_broadcastable(family)
    if broadcast.rule == "no-source-event":
        return replace(broadcast, problem="consensus")
    if is_convex(family):
        return Verdict(
            "consensus", broadcast.answer, "convex-broadcast-equivalence",
            broadcast.witness,
        )
    if broadcast.answer is Answer.SOLVABLE:
        # Flooding the common source's value and deciding it solves
        # consensus whenever broadcast is solvable, convex or not.
        return Verdict(
            "consensus", Answer.SOLVABLE, "broadcast-reduction", broadcast.witness,
        )
    bp = partition if partition is not None else beta_partition(family)
    for members in bp.classes:
        inter = family.base.full_mask
        for i in members:
            inter &= family.source_masks[i]
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
    Each state's successors are computed once and kept, fewest informed
    nodes first, for both ``value`` and the bounded search ``lasts``.
    """

    def __init__(self, family: EventFamily, budget: Budget | None = None) -> None:
        effective_budget(budget).check("max_game_nodes", family.base.node_count)
        self.family = family
        self._all = (1 << len(family)) - 1
        self._full = family.base.full_mask
        self._memo: dict[int, Rounds] = {self._full: 0}
        self._lasts: dict[tuple[int, int], bool] = {}
        self._succs: dict[int, tuple[int, ...]] = {}

    def _successors(self, state: int) -> tuple[int, ...]:
        """The distinct successors of ``state``, fewest informed nodes first; cached."""
        if state in self._succs:
            return self._succs[state]
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
        succs = tuple(sorted({grown & ~starved for _events, starved in groups}, key=int.bit_count))
        self._succs[state] = succs
        return succs

    def value(self, state: int) -> Rounds:
        memo = self._memo
        if state in memo:
            return memo[state]
        succs = self._successors(state)
        if state in succs:
            result: Rounds = UNBOUNDED
        else:
            result = 1 + max(self.value(s) for s in succs)
        memo[state] = result
        return result

    def lasts(self, state: int, rounds: int) -> bool:
        """Whether ``value(state) >= rounds``, searched at most ``rounds`` deep.

        The adversary holds out for ``rounds`` rounds from ``state`` when
        some successor holds out for ``rounds - 1``, or ``state`` is its own
        successor.  Successors with the fewest informed nodes are tried
        first, an exact value already known answers at once, and each
        (state, rounds) pair is searched once.
        """
        if rounds <= 0:
            return True
        if state in self._memo:
            return self._memo[state] >= rounds
        key = (state, rounds)
        if key not in self._lasts:
            succs = self._successors(state)
            self._lasts[key] = state in succs or any(self.lasts(s, rounds - 1) for s in succs)
        return self._lasts[key]

    def rounds_from(self, u: int) -> Rounds:
        if not 0 <= u < self.family.base.node_count:
            raise ValueError(f"node {u} out of range")
        return self.value(1 << u)


def optimal_broadcast_rounds(
    family: EventFamily, budget: Budget | None = None
) -> tuple[int, int] | None:
    """Best originator and its worst-case round count; None if unsolvable.

    Only common sources are candidates (any other originator can be
    starved forever), so the minimum is taken over those, the lowest
    node winning ties.  The first is played exactly; a later one is
    played exactly only when ``lasts`` shows the adversary cannot hold
    it to the best count so far.
    """
    common = family.common_sources_mask()
    if common == 0:
        return None
    game = BroadcastGame(family, budget)
    best: tuple[int, int] | None = None
    for u in mask_nodes(common):
        if best is not None and game.lasts(1 << u, best[1]):
            continue
        value = game.rounds_from(u)
        assert value != UNBOUNDED
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
            "events": [family.name(i) for i in witness.events],
            "source_sets": [
                [g.label(u) for u in mask_nodes(m)] for m in witness.source_masks
            ],
        }
    if isinstance(witness, BetaClassWitness):
        return {
            "kind": "class-unbroadcastable",
            "class": [family.name(i) for i in witness.class_events],
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
