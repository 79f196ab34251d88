"""Indistinguishability relations between events and their coarsest closure.

Two events are related through a third event K when the sources of K
receive exactly the same arcs under both: the sources, collectively,
cannot tell the two events apart in a single round.  The union of these
relations over all member events, transitively closed, yields a first
partition.  The final partition ("beta") additionally requires that the
relating chains stay inside each class: both the intermediate events and
the witnessing events K must belong to the class being formed.

One grouping kernel, ``_connect``, does all of this work.  Given a list of
events, it takes each distinct source set among them once, builds that
set's head filter once, groups the events by the arcs they deliver into
it, and joins each group.  It stops as soon as the events are connected,
and it records each join that merges two components as a witness edge.
Relations depend on a witness only through its source set, so one
witness per distinct source set loses nothing.

The closure condition is not constructive, so the partition is computed
as a greatest fixed point.  Each round calls the kernel once per class,
with the class as its own witnesses, and splits each class into the
components found.  The first round runs on the single class of all
events, so it is the transitive closure, one kernel call over all
events; when it finds one class, it is also the last round.  When a
class splits, the piece that holds all of its witnesses is final: a
later round would meet the same witnesses, in the same order, and the
same groups.  That piece settles with the class's edges inside it, and
no later round calls the kernel on it, nor on a piece of one event,
which has nothing to join.  When a round splits nothing, the witness
edges of that round and of the settled pieces form a spanning tree of
each class, so every intra-class pair has a replayable chain whose
intermediates and witnesses all live in the class.  The result is
self-verified, by a replay that builds each witness's head filter on
its own, before it is returned; a failure raises instead of silently
producing a partition that does not satisfy the closure condition.

Events without sources would relate every pair (their source set is
empty, so nothing is observed); they are never used as witnesses here.
Solvability analysis handles them separately as immediately fatal.
"""
from __future__ import annotations

from dataclasses import dataclass
from operator import itemgetter
from typing import NamedTuple

from .budget import InputError
from .events import Event, EventFamily
from .graphs import Digraph, mask_nodes


def _head_filter(base: Digraph, x_mask: int) -> int:
    """Bitmask over the base arc order of the arcs whose head lies in ``x_mask``."""
    in_bits = base.in_arc_bits
    head_filter = 0
    for u in mask_nodes(x_mask):
        head_filter |= in_bits[u]
    return head_filter


def alpha_related(left: Event, right: Event, k: Event) -> bool:
    """True when the sources of ``k`` receive identical arcs under both events."""
    # Events of one family hold the very same base; compare by value only otherwise.
    if not (left.base is right.base is k.base or left.base == right.base == k.base):
        raise InputError("events must share a base graph")
    head_filter = _head_filter(k.base, k.sources_mask)
    return left.arc_mask & head_filter == right.arc_mask & head_filter


class AlphaWitness(NamedTuple):
    """Indices into a family: ``left`` and ``right`` related through ``witness``, as a tuple."""

    left: int
    right: int
    witness: int

    def holds(self, family: EventFamily) -> bool:
        if not all(0 <= i < len(family) for i in self):
            return False
        base, masks = family.base, family.masks
        left, right, k = (Event(base, masks[i]) for i in self)
        return alpha_related(left, right, k)


class _UnionFind:
    """Disjoint sets over ``0..n-1``, with path halving."""

    def __init__(self, n: int) -> None:
        self.parent = list(range(n))

    def find(self, x: int) -> int:
        parent = self.parent
        while parent[x] != x:
            parent[x] = x = parent[parent[x]]
        return x

    def join(self, group: list[int]) -> list[int]:
        """Join every member of ``group`` to the first; return those that were apart from it.

        The first member's root is found once, and every other root found
        is hung under it, so it stays the root for the whole group.
        """
        parent = self.parent
        root = self.find(group[0])
        apart = []
        for x in group[1:]:
            r = x
            while parent[r] != r:
                parent[r] = r = parent[parent[r]]
            if r != root:
                parent[r] = root
                apart.append(x)
        return apart

    def union(self, a: int, b: int) -> bool:
        """Hang ``b``'s root under ``a``'s, walking both here; return whether they differed."""
        parent = self.parent
        while parent[a] != a:
            parent[a] = a = parent[parent[a]]
        while parent[b] != b:
            parent[b] = b = parent[parent[b]]
        parent[b] = a
        return a != b


def _connect(
    family: EventFamily, members: list[int]
) -> tuple[list[list[int]], list[list[AlphaWitness]], int | None]:
    """Split ``members`` by the relations whose witnesses are members too.

    This is the one grouping kernel.  Each distinct nonzero source mask
    among the members is taken once, in member order, with its first
    member with that mask as the witness: its head filter is built once,
    the members are grouped by the arcs they deliver into that source
    set, and each group's first member is joined with the rest.  A
    witness whose groups are all single members joins nothing and is
    skipped.  A witness whose head filter contains the filter of one
    already grouped is not grouped at all: each of its groups would lie
    inside one earlier group, already joined.  Every join that merges
    two components becomes a witness edge, in order, so the edges form a
    spanning forest.  The scan stops as soon as the members are
    connected.

    Returns the connected components (member indices in member order),
    the witness edges inside each component, and, when the members split,
    the index of the component that holds every witness (``None`` when no
    component does, or when the members stay connected).  Source-less
    members never act as witnesses: they observe nothing and would relate
    every pair vacuously.
    """
    masks, source_masks, base = family.masks, family.source_masks, family.base
    arc_masks = [masks[i] for i in members]
    size = len(members)
    uf = _UnionFind(size)
    components = size
    joins: list[tuple[int, int, int]] = []  # (group's first position, joined one, witness)
    witnesses: dict[int, int] = {}  # source mask -> position of its witness
    scanned: list[int] = []  # head filters grouped so far
    for w, k in enumerate(members):
        if components == 1:
            break
        b = source_masks[k]
        if b == 0 or b in witnesses:
            continue
        witnesses[b] = w
        head_filter = _head_filter(base, b)
        if any(head_filter & seen == seen for seen in scanned):
            continue
        scanned.append(head_filter)
        groups: dict[int, list[int]] = {}
        for pos, arcs in enumerate(arc_masks):
            groups.setdefault(arcs & head_filter, []).append(pos)
        if len(groups) == size:
            continue
        for group in groups.values():
            if len(group) > 1:
                apart = uf.join(group)
                if apart:
                    components -= len(apart)
                    first = group[0]
                    joins.extend((first, pos, k) for pos in apart)
    # Each edge is built by ``tuple.__new__``, without the named tuple's Python-level ``__new__``.
    new = tuple.__new__
    if components == 1:
        edges = [new(AlphaWitness, (members[a], members[b], k)) for a, b, k in joins]
        return [list(members)], [edges], None
    root = [uf.find(pos) for pos in range(size)]
    pieces: dict[int, list[int]] = {}
    for pos, i in enumerate(members):
        pieces.setdefault(root[pos], []).append(i)
    piece_edges: dict[int, list[AlphaWitness]] = {r: [] for r in pieces}
    for a, b, k in joins:
        piece_edges[root[a]].append(new(AlphaWitness, (members[a], members[b], k)))
    keepers = {root[w] for w in witnesses.values()}
    keeper = list(pieces).index(keepers.pop()) if len(keepers) == 1 else None
    return list(pieces.values()), list(piece_edges.values()), keeper


@dataclass(frozen=True)
class BetaPartition:
    """Stabilized partition plus spanning witness edges for each class."""

    family: EventFamily
    classes: tuple[tuple[int, ...], ...]
    class_edges: tuple[tuple[AlphaWitness, ...], ...]
    iterations: int

    def verify(self) -> bool:
        """Replay every stored edge and recheck the closure condition.

        One union-find serves every class: the classes are checked to be
        disjoint and to cover every event, there must be one edge tuple
        per class, and each edge must lie inside its class.  A class is
        connected exactly when its edges make ``len(members) - 1`` unions
        that merge, so a class that lists an event twice never is.  Each
        witness's head filter is built once, from the
        ``Event.sources_mask`` of an event built for it alone, so the
        replay shares nothing with the family's ``source_masks``; every
        edge it witnesses compares the two arc masks, read from
        ``family.masks``, under that filter.
        """
        if len(self.class_edges) != len(self.classes):
            return False
        base, masks = self.family.base, self.family.masks
        head_filters: dict[int, int] = {}
        uf = _UnionFind(len(masks))
        seen: set[int] = set()
        for members, edges in zip(self.classes, self.class_edges):
            member_set = set(members)
            if seen & member_set:
                return False
            seen |= member_set
            merges = 0
            for left, right, k in edges:
                if not (left in member_set and right in member_set and k in member_set):
                    return False
                head_filter = head_filters.get(k)
                if head_filter is None:
                    sources = Event(base, masks[k]).sources_mask
                    head_filter = head_filters[k] = _head_filter(base, sources)
                if (masks[left] ^ masks[right]) & head_filter:
                    return False
                merges += uf.union(left, right)
            if merges != len(members) - 1:
                return False
        return seen == set(range(len(masks)))

    def to_json_dict(self) -> dict:
        fam = self.family
        # Every event is in one class, so every name is written: read them all once.
        names = fam.names or fam.names_of(range(len(fam)))
        return {
            "iterations": self.iterations,
            "classes": [
                {
                    "events": [names[i] for i in members],
                    "witness_edges": [
                        {"left": names[left], "right": names[right], "witness": names[k]}
                        for left, right, k in edges
                    ],
                }
                for members, edges in zip(self.classes, self.class_edges)
            ],
        }


def beta_partition(family: EventFamily) -> BetaPartition:
    """Greatest fixed point of the within-class witness refinement.

    Each round runs the grouping kernel once per class, with the class as
    both the events and the witnesses: each distinct source set in the
    class is observed once, and the scan stops as soon as the class is
    connected.  A class that is not connected splits into its components.
    The first round runs on the single class of all events, so it is the
    transitive closure.  Splitting can only remove witnesses from a class,
    so the refinement is monotone and stabilizes after at most one round
    per event.  The witness edges of the round in which no class splits
    are the result's spanning trees.

    A class that splits has had every one of its witnesses scanned, and no
    group straddles two of its pieces.  So the piece that holds every
    witness would meet the same witnesses in the same order, and the same
    groups, in every later round: it is final, and its edges are the
    class's edges inside it.  It settles at once, and no later round runs
    the kernel on it.  A piece of one event settles too, with no edges:
    the kernel would find it connected in every round.  The other
    pieces, and the classes that did not split, go to the next round.

    ``iterations`` counts the rounds after the closure, up to and
    including the one that splits nothing; when the closure itself splits
    nothing, that round is the closure's, and the count is one.
    """
    classes = [list(range(len(family)))]
    settled: list[tuple[list[int], list[AlphaWitness]]] = []
    rounds = 0
    while True:
        rounds += 1
        results = [_connect(family, members) for members in classes]
        if all(len(pieces) == 1 for pieces, _edges, _keeper in results):
            break
        classes = []
        for pieces, piece_edges, keeper in results:
            for j, piece in enumerate(pieces):
                if j == keeper or len(piece) == 1:
                    settled.append((piece, piece_edges[j]))
                else:
                    classes.append(piece)
    settled += ((pieces[0], piece_edges[0]) for pieces, piece_edges, _keeper in results)
    settled.sort(key=itemgetter(0))
    result = BetaPartition(
        family,
        tuple(tuple(members) for members, _edges in settled),
        tuple(tuple(edges) for _members, edges in settled),
        max(rounds - 1, 1),
    )
    if not result.verify():
        raise AssertionError(
            "refinement produced a partition that fails its own closure check"
        )
    return result
