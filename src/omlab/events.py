"""Communication events and finite event families (mobile omission schemes).

An event is a spanning sub-digraph of a fixed base graph: the arcs that
deliver messages during one round.  A finite family of events describes a
mobile scheme in which any member event may occur in any round.  Families
are the unit of analysis for everything downstream (equivalence classes,
solvability verdicts, simulation, the oracle).

An event is one plain ``int``, its arc mask: bit ``i`` is set when the
base graph's arc ``base.sorted_arcs[i]`` delivers.  Set membership,
convexity checks and the head-filtered arc sets used by the
indistinguishability relations are single integer operations.  The arc
tuples and the per-node neighbour masks are views derived from the mask
and cached.  Only generated families are ordered: their events are
sorted by their arc tuples, with ``_arc_order`` computing that order from
the mask alone.  Any other family keeps the order it was built in.

A family also has the transposed view: ``EventFamily.carriers`` holds, for
each base arc, the bitset over event indices of the events that deliver
it.  ``EventFamily.source_masks`` runs on that view, one closure per node
over all events at once, so its cost grows with the node and arc counts
and only in big-integer width with the number of events.
``Event.sources_mask`` stays the per-event computation for single events
and for checks that must not share the family kernel.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import combinations, product
from math import comb
from typing import Iterable, Iterator, Literal, Sequence

from .budget import Budget, effective_budget
from .graphs import Arc, Digraph, mask_nodes, sources_of_arcs

OmissionMetric = Literal["global", "send", "recv"]

_ORDER_DIGITS = str.maketrans("01", "21")


def _arc_order(mask: int) -> str:
    """Sort key of an arc mask that orders events by their sorted arc tuples.

    Character ``i`` stands for bit ``i``: ``1`` when set, ``2`` when clear,
    up to the highest set bit.  At the first arc where two tuples differ,
    the smaller arc is set in one mask only, and its ``1`` sorts first; a
    tuple that is a prefix of another gives a prefix string.
    """
    return bin(mask)[:1:-1].translate(_ORDER_DIGITS) if mask else ""


@dataclass(frozen=True)
class Event:
    """One letter of the omission alphabet: the arcs delivered in a round.

    ``arc_mask`` is the whole event: bit ``i`` set means the arc
    ``base.sorted_arcs[i]`` delivers.  Build an event from arc pairs with
    ``event_from_arcs``.
    """

    base: Digraph
    arc_mask: int

    def __post_init__(self) -> None:
        if not 0 <= self.arc_mask < 1 << len(self.base.arcs):
            raise ValueError(
                f"arc mask {self.arc_mask:#x} out of range for {len(self.base.arcs)} base arcs"
            )

    @cached_property
    def sorted_arcs(self) -> tuple[Arc, ...]:
        return _arcs_of(self.base, self.arc_mask)

    @cached_property
    def arcs(self) -> frozenset[Arc]:
        return frozenset(self.sorted_arcs)

    @cached_property
    def omitted_arcs(self) -> tuple[Arc, ...]:
        return _arcs_of(self.base, (1 << len(self.base.arcs)) - 1 & ~self.arc_mask)

    @cached_property
    def out_masks(self) -> tuple[int, ...]:
        masks = [0] * self.base.node_count
        for tail, head in self.sorted_arcs:
            masks[tail] |= 1 << head
        return tuple(masks)

    @cached_property
    def in_masks(self) -> tuple[int, ...]:
        masks = [0] * self.base.node_count
        for tail, head in self.sorted_arcs:
            masks[head] |= 1 << tail
        return tuple(masks)

    @cached_property
    def sources_mask(self) -> int:
        """Nodes from which every node is reachable inside this event."""
        return sources_of_arcs(self.base.node_count, self.out_masks)


def _arcs_of(base: Digraph, mask: int) -> tuple[Arc, ...]:
    arcs = base.sorted_arcs
    return tuple(arcs[i] for i in mask_nodes(mask))


def event_from_arcs(base: Digraph, arcs: Iterable[Arc]) -> Event:
    """The event delivering exactly ``arcs``, which must be arcs of ``base``."""
    arcs = {tuple(a) for a in arcs}
    extra = arcs - base.arcs
    if extra:
        raise ValueError(f"event arcs not in base graph: {sorted(extra)}")
    bit = base.arc_bit
    return Event(base, sum(1 << bit[a] for a in arcs))


@dataclass(frozen=True)
class EventFamily:
    """Finite ordered set of distinct events over one base graph."""

    base: Digraph
    events: tuple[Event, ...]
    names: tuple[str, ...] | None = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "events", tuple(self.events))
        if not self.events:
            raise ValueError("an event family needs at least one event")
        for ev in self.events:
            if ev.base is not self.base and ev.base != self.base:
                raise ValueError("all events must share the family's base graph")
        if len(self.mask_index) != len(self.events):
            raise ValueError("duplicate events in family")
        if self.names is not None:
            object.__setattr__(self, "names", tuple(self.names))
            if len(self.names) != len(self.events):
                raise ValueError("names must cover every event")
            if len(set(self.names)) != len(self.names):
                raise ValueError("event names must be unique")

    def __len__(self) -> int:
        return len(self.events)

    def __iter__(self) -> Iterator[Event]:
        return iter(self.events)

    def name(self, index: int) -> str:
        if self.names is not None:
            return self.names[index]
        return f"E{index}"

    @cached_property
    def name_index(self) -> dict[str, int]:
        return {self.name(i): i for i in range(len(self.events))}

    @cached_property
    def mask_index(self) -> dict[int, int]:
        return {ev.arc_mask: i for i, ev in enumerate(self.events)}

    @cached_property
    def union_arc_mask(self) -> int:
        mask = 0
        for ev in self.events:
            mask |= ev.arc_mask
        return mask

    @cached_property
    def carriers(self) -> tuple[int, ...]:
        """Per base arc, the bitset over event indices of the events delivering it.

        One transpose of the family: every arc mask is written as a
        fixed-width binary row, the rows are joined, and each arc's column
        is one strided slice of that string, read back as an integer.
        """
        width = len(self.base.arcs)
        if not width:
            return ()
        grid = "".join([format(ev.arc_mask, f"0{width}b") for ev in self.events])
        # Row strings print bit 0 last, so arc ``b`` is the row's character width-1-b.
        return tuple(int(grid[width - 1 - b::width][::-1], 2) for b in range(width))

    @cached_property
    def source_masks(self) -> tuple[int, ...]:
        """Per event, the bitmask of nodes from which every node is reachable.

        Computed for all events at once from ``carriers``.  For each root v,
        ``reach[x]`` is the bitset of events in which v reaches x: it starts
        as every event at v and nothing elsewhere, and grows along each arc
        t -> h by ``reach[t] & carriers[t -> h]`` until nothing changes;
        each breadth-first level pushes only the events a node gained in
        the level before.  The AND of all ``reach`` is the column of events
        of which v is a source.  The n columns are transposed back with
        strided slices into one row per event; events sharing a row share
        a mask, which is parsed once.
        """
        base = self.base
        n, count = base.node_count, len(self.events)
        if n == 0:
            return (0,) * count
        everything = (1 << count) - 1
        arcs_out: list[list[tuple[int, int]]] = [[] for _ in range(n)]
        for (tail, head), events in zip(base.sorted_arcs, self.carriers):
            arcs_out[tail].append((head, events))
        columns = []
        for root in range(n):
            reach = [0] * n
            reach[root] = everything
            frontier = {root: everything}
            while frontier:
                grown: dict[int, int] = {}
                for tail, fresh in frontier.items():
                    for head, events in arcs_out[tail]:
                        new = fresh & events & ~reach[head]
                        if new:
                            reach[head] |= new
                            grown[head] = grown.get(head, 0) | new
                frontier = grown
            column = everything
            for events in reach:
                column &= events
            columns.append(format(column, f"0{count}b"))
        # Highest node first, so that each row below reads as a binary mask.
        grid = "".join(reversed(columns))
        # Column strings print event 0 last: row j belongs to event count-1-j.
        rows = [grid[j::count] for j in range(count)]
        mask_of = {row: int(row, 2) for row in set(rows)}
        return tuple(map(mask_of.__getitem__, reversed(rows)))

    def common_sources_mask(self) -> int:
        mask = self.base.full_mask
        for b in self.source_masks:
            mask &= b
        return mask


# ---- convexity ---------------------------------------------------------------

def is_convex(family: EventFamily) -> bool:
    """Whether the family is closed under adding one arc of another member.

    A family is convex when for every pair of member events H, H' and
    every arc a of H', the event H + a is also a member.  Only arcs in
    the union of the family matter, so the scan makes one membership
    test per event and union arc the event lacks, in family order, and
    stops at the first miss; the answer does not depend on the order.
    """
    members = family.mask_index
    union = family.union_arc_mask
    for ev in family.events:
        mask = ev.arc_mask
        missing = union & ~mask
        while missing:
            low = missing & -missing
            if mask | low not in members:
                return False
            missing ^= low
    return True


# ---- generators ----------------------------------------------------------------

def _count_bounded(degrees: Sequence[int], f: int) -> int:
    total = 1
    for d in degrees:
        total *= sum(comb(d, k) for k in range(min(f, d) + 1))
    return total


def generate_bounded_omissions(
    base: Digraph,
    f: int,
    metric: OmissionMetric = "global",
    budget: Budget | None = None,
) -> EventFamily:
    """All events of ``base`` with at most ``f`` omitted arcs.

    ``metric`` selects how omissions are counted: ``global`` bounds the
    total number of missing arcs, ``send`` bounds each node's missing
    out-arcs, ``recv`` each node's missing in-arcs.  Each metric splits
    the arcs into disjoint groups (one group for ``global``, one per node
    otherwise) and bounds the omissions in each.  The result is convex by
    construction.  Raises BudgetExceededError when the family would
    exceed the budget's family cap.
    """
    if f < 0:
        raise ValueError("omission bound must be non-negative")
    bits = [1 << i for i in range(len(base.arcs))]
    if metric == "global":
        groups = [bits]
    elif metric in ("send", "recv"):
        end = 0 if metric == "send" else 1
        groups = [[] for _ in range(base.node_count)]
        for bit, arc in zip(bits, base.sorted_arcs):
            groups[arc[end]].append(bit)
    else:
        raise ValueError(f"unknown omission metric {metric!r}")
    count = _count_bounded([len(g) for g in groups], f)
    effective_budget(budget).check("max_family_events", count)
    # One omission mask per group; the groups are disjoint.
    per_group_choices = [
        [sum(ch) for k in range(min(f, len(g)) + 1) for ch in combinations(g, k)]
        for g in groups
    ]
    full = sum(bits)
    masks = [full ^ sum(omissions) for omissions in product(*per_group_choices)]
    masks.sort(key=_arc_order)
    return EventFamily(base, tuple(Event(base, m) for m in masks))


# ---- JSON ----------------------------------------------------------------------

def family_to_json_dict(family: EventFamily) -> dict:
    from .graphs import digraph_to_json_dict

    g = family.base
    return {
        "graph": digraph_to_json_dict(g),
        "events": [
            {
                "name": family.name(i),
                "arcs": [[g.label(t), g.label(h)] for t, h in ev.sorted_arcs],
            }
            for i, ev in enumerate(family.events)
        ],
    }


def family_from_json_dict(data: dict) -> EventFamily:
    """The family that ``family_to_json_dict`` wrote, or a ValueError naming the fault.

    Each event entry is parsed through one table per family, built from
    ``base.sorted_arcs``, that maps a ``(tail label, head label)`` pair to
    its arc bit: the entry's mask is the OR of its arcs' bits, and an arc
    listed twice sets its bit once.  An entry the table cannot read, for
    a ``KeyError``, ``TypeError`` or ``ValueError``, is parsed again arc by
    arc; that path also reads labels that are not strings, such as JSON
    integers, and raises the error that names what is wrong.
    """
    from .graphs import digraph_from_json_dict

    try:
        base = digraph_from_json_dict(data["graph"])
        raw_events = list(data["events"])
    except (KeyError, TypeError) as exc:
        raise ValueError(f"malformed family JSON: {exc}") from exc
    label = base.label
    arc_bits = {(label(t), label(h)): 1 << i for i, (t, h) in enumerate(base.sorted_arcs)}
    events = []
    names = []
    for i, entry in enumerate(raw_events):
        try:
            mask = 0
            for t, h in entry["arcs"]:
                mask |= arc_bits[t, h]
        except (KeyError, TypeError, ValueError):
            mask = _entry_mask_arc_by_arc(base, i, entry)
        events.append(Event(base, mask))
        names.append(str(entry.get("name", f"E{i}")))
    return EventFamily(base, tuple(events), tuple(names))


def _entry_mask_arc_by_arc(base: Digraph, i: int, entry) -> int:
    """Arc mask of event entry ``i``, with labels compared as strings."""
    where = f"malformed event entry {i}"
    index = base.label_index

    def node(label) -> int:
        try:
            return index[str(label)]
        except KeyError:
            raise ValueError(f"{where}: unknown node label {str(label)!r}") from None

    try:
        arcs = {(node(t), node(h)) for t, h in entry["arcs"]}
    except (KeyError, TypeError) as exc:
        raise ValueError(f"{where}: {exc}") from exc
    extra = sorted(arcs - base.arcs)
    if extra:
        labelled = [[base.label(t), base.label(h)] for t, h in extra]
        raise ValueError(f"{where}: arcs not in base graph: {labelled}")
    bit = base.arc_bit
    return sum(1 << bit[a] for a in arcs)
