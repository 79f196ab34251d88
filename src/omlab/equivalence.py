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
round splits nothing, the witness edges of that round form a spanning
tree of each class, so every intra-class pair has a replayable chain
whose intermediates and witnesses all live in the class.  The result is
self-verified, by a replay that builds each witness's head filter on
its own, before it is returned; a failure raises instead of silently
producing a partition that does not satisfy the closure condition.

Events without sources would relate every pair (their source set is
empty, so nothing is observed); they are never used as witnesses here.
Solvability analysis handles them separately as immediately fatal.
"""
from __future__ import annotations

from dataclasses import dataclass

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
        raise ValueError("events must share a base graph")
    head_filter = _head_filter(k.base, k.sources_mask)
    return left.arc_mask & head_filter == right.arc_mask & head_filter


@dataclass(frozen=True)
class AlphaWitness:
    """Indices into a family: ``left`` and ``right`` related through ``witness``."""

    left: int
    right: int
    witness: int

    def holds(self, family: EventFamily) -> bool:
        return alpha_related(
            family.events[self.left],
            family.events[self.right],
            family.events[self.witness],
        )


class _UnionFind:
    def __init__(self, n: int) -> None:
        self.parent = list(range(n))

    def find(self, x: int) -> int:
        root = x
        while self.parent[root] != root:
            root = self.parent[root]
        while self.parent[x] != root:
            self.parent[x], x = root, self.parent[x]
        return root

    def union(self, a: int, b: int) -> bool:
        ra, rb = self.find(a), self.find(b)
        if ra == rb:
            return False
        self.parent[max(ra, rb)] = min(ra, rb)
        return True


def _connect(
    family: EventFamily, members: list[int]
) -> tuple[list[list[int]], list[AlphaWitness]]:
    """Split ``members`` by the relations whose witnesses are members too.

    This is the one grouping kernel.  Each distinct nonzero source mask
    among the members is taken once, in member order, with its first
    member with that mask as the witness: its head filter is built once,
    the members are grouped by the arcs they deliver into that source
    set, and each group's first member is joined with the rest.  Every
    join that merges two components becomes a witness edge, in order, so
    the edges form a spanning forest.  The scan stops as soon as the
    members are connected.

    Returns the connected components (member indices in member order) and
    the witness edges.  Source-less members never act as witnesses: they
    observe nothing and would relate every pair vacuously.
    """
    masks = family.masks
    arc_masks = [masks[i] for i in members]
    uf = _UnionFind(len(members))
    components = len(members)
    edges: list[AlphaWitness] = []
    seen_source_masks: set[int] = set()
    for k in members:
        if components == 1:
            break
        b = family.source_masks[k]
        if b == 0 or b in seen_source_masks:
            continue
        seen_source_masks.add(b)
        head_filter = _head_filter(family.base, b)
        groups: dict[int, list[int]] = {}
        for pos, arcs in enumerate(arc_masks):
            groups.setdefault(arcs & head_filter, []).append(pos)
        for first, *rest in groups.values():
            for pos in rest:
                if uf.union(first, pos):
                    edges.append(AlphaWitness(members[first], members[pos], k))
                    components -= 1
    if components == 1:
        return [list(members)], edges
    pieces: dict[int, list[int]] = {}
    for pos, i in enumerate(members):
        pieces.setdefault(uf.find(pos), []).append(i)
    return list(pieces.values()), edges


def alpha_star(family: EventFamily) -> tuple[tuple[int, ...], ...]:
    """Partition of event indices by the transitive closure of the relations.

    Classes are the connected components of the graph that joins two
    events whenever some member event's sources cannot distinguish them.
    """
    pieces, _edges = _connect(family, list(range(len(family))))
    return tuple(sorted(tuple(p) for p in pieces))


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
        disjoint, and each edge must lie inside its class.  Each witness's
        head filter is built once, from the ``Event.sources_mask`` of an
        event built for it alone, so the replay shares nothing with the
        family's ``source_masks``; every edge it witnesses compares the
        two arc masks, read from ``family.masks``, under that filter.
        """
        base, masks = self.family.base, self.family.masks
        head_filters: dict[int, int] = {}
        uf = _UnionFind(len(masks))
        seen: set[int] = set()
        for ci, members in enumerate(self.classes):
            member_set = set(members)
            if seen & member_set:
                return False
            seen |= member_set
            for edge in self.class_edges[ci]:
                if not {edge.left, edge.right, edge.witness} <= member_set:
                    return False
                head_filter = head_filters.get(edge.witness)
                if head_filter is None:
                    k = Event(base, masks[edge.witness])
                    head_filter = head_filters[edge.witness] = _head_filter(base, k.sources_mask)
                if (masks[edge.left] ^ masks[edge.right]) & head_filter:
                    return False
                uf.union(edge.left, edge.right)
            if len({uf.find(i) for i in members}) > 1:
                return False
        return True

    def to_json_dict(self) -> dict:
        fam = self.family
        return {
            "iterations": self.iterations,
            "classes": [
                {
                    "events": [fam.name(i) for i in members],
                    "witness_edges": [
                        {
                            "left": fam.name(e.left),
                            "right": fam.name(e.right),
                            "witness": fam.name(e.witness),
                        }
                        for e in self.class_edges[ci]
                    ],
                }
                for ci, members in enumerate(self.classes)
            ],
        }


def beta_partition(family: EventFamily) -> BetaPartition:
    """Greatest fixed point of the within-class witness refinement.

    Each round runs the grouping kernel once per class, with the class as
    both the events and the witnesses: each distinct source set in the
    class is observed once, and the scan stops as soon as the class is
    connected.  A class that is not connected splits into its components.
    The first round runs on the single class of all events, so it is the
    transitive closure (``alpha_star``).  Splitting can only remove
    witnesses from a class, so the refinement is monotone and stabilizes
    after at most one round per event.  The witness edges of the round in
    which no class splits are the result's spanning trees.

    ``iterations`` counts the rounds after the closure, up to and
    including the one that splits nothing; when the closure itself splits
    nothing, that round is the closure's, and the count is one.
    """
    classes = [list(range(len(family)))]
    rounds = 0
    while True:
        rounds += 1
        next_classes: list[list[int]] = []
        class_edges: list[tuple[AlphaWitness, ...]] = []
        for members in classes:
            pieces, edges = _connect(family, members)
            next_classes.extend(pieces)
            class_edges.append(tuple(edges))
        if len(next_classes) == len(classes):
            break
        classes = sorted(next_classes)
    iterations = max(rounds - 1, 1)
    result = BetaPartition(
        family, tuple(tuple(c) for c in classes), tuple(class_edges), iterations
    )
    if not result.verify():
        raise AssertionError(
            "refinement produced a partition that fails its own closure check"
        )
    return result
