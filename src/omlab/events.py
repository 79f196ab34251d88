"""Communication events and finite event families (mobile omission schemes).

An event is a spanning sub-digraph of a fixed base graph: the arcs that
deliver messages during one round.  A finite family of events describes a
mobile scheme in which any member event may occur in any round.  Families
are the unit of analysis for everything downstream (equivalence classes,
solvability verdicts, simulation, the oracle).

An event is one plain ``int``, its arc mask: bit ``i`` is set when the
base graph's arc ``base.sorted_arcs[i]`` delivers.  Set membership,
convexity checks and the head-filtered arc sets used by the
indistinguishability relations are single integer operations.  A family
is built from, and stores, only that tuple of ints:
``EventFamily(base, masks, names)``.  ``EventFamily.events`` is a view of
the masks as ``Event`` objects, built and cached the first time something
that reads every event asks for it; a reader of one event builds just
that ``Event``.  An ``Event``'s arc tuples and per-node neighbour masks
are in turn cached views of its mask.  Only generated families are
ordered: ``generate_bounded_omissions`` builds them in the order of their
events' arc tuples, as lists of event masks that it carries down from
the full mask along each group of arcs, clearing one arc's bit to omit
it, and, on entering the next group, takes whole or filters by the
omissions that group has left.  Any other family keeps the order it was
built in.

A family also has the transposed views: ``EventFamily.carriers`` holds,
for each base arc, the bitset over event indices of the events that
deliver it, and ``EventFamily.source_columns`` holds, for each node, the
bitset of the events of which it is a source.  The columns come from
closures over all events at once, each run only over the events whose
answer is still open, so their cost grows with the node and arc counts
and only in big-integer width with the number of events.  Both
transposes (masks to carriers, and the columns back to one source mask
per event in ``EventFamily.source_masks``) run on whole byte strings;
only carrier rows over 8 bytes are packed one mask at a time.
``Event.sources_mask`` stays the per-event computation for single events
and for checks that must not share the family kernel.

A family is a set of events, and it asks two set-membership questions
of its members: whether one repeats, checked once on construction, and
whether a member plus an arc is a member, for convexity.  Both are asked
of a plain ``set`` of the masks.  Whether a family is convex is one
cached answer, ``EventFamily.convex``, which ``is_convex`` reads.  A
generated family is convex by construction and carries the answer
``True`` from ``generate_bounded_omissions``; every other family scans
its members once, the first time it is asked.  A generated family also
skips the constructor's checks, which its construction proves: its
masks are strictly increasing in arc-tuple order, so none repeats, and
each is the full mask with some bits cleared, so each fits the base.
Every other family, and every ``dataclasses.replace`` of a generated
one, is built by ``EventFamily(base, masks, names)`` and checked.

Family JSON has one schema, what ``family_to_json_dict`` writes; the
graph inside it is what ``graphs.digraph_to_json_dict`` writes.
``family_from_json_dict`` and ``graphs.digraph_from_json_dict`` read
exactly this and refuse anything else with an ``InputError`` naming the
fault:

- the document, its ``graph`` and each entry of ``events`` are JSON
  objects.  Keys outside the schema are ignored;
- the graph's ``nodes`` is an array of distinct strings, the node
  labels.  The graph's ``arcs`` and the document's ``events`` are arrays;
- an event entry has ``arcs`` and may have ``name``, which must be a
  string.  An entry without a name is named ``E<i>``, ``i`` its position;
- an arc is an array of exactly two node labels, ``[tail, head]``.  A
  graph arc may not be a self-loop, and an event arc must be an arc of
  the graph.  An arc listed twice is read once.

A Python caller may pass a tuple where the schema has an array, as
``json.dumps`` would write it.  A label is a string, so the number ``0``
is not the label ``"0"``.  The
family built must then be a family: at least one event, no two events
with the same arcs, and no two events with the same name.
"""
from __future__ import annotations

import sys
from array import array
from dataclasses import dataclass
from functools import cached_property, reduce
from itertools import repeat
from math import comb
from operator import and_, or_
from typing import Iterable, Literal, Sequence

from .budget import DEFAULT_BUDGET, Budget, InputError
from .graphs import (
    Arc, Digraph, arc_fault, array_fault, array_from_json, digraph_from_json_dict,
    digraph_to_json_dict, mask_nodes, node_mask, sources_of_arcs,
)

OmissionMetric = Literal["global", "send", "recv"]


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
            raise InputError(
                f"arc mask {self.arc_mask:#x} out of range for {len(self.base.arcs)} base arcs"
            )

    @cached_property
    def sorted_arcs(self) -> tuple[Arc, ...]:
        return _arcs_of(self.base, self.arc_mask)

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
        raise InputError(f"event arcs not in base graph: {sorted(extra)}")
    bit = base.arc_bit
    return Event(base, sum(1 << bit[a] for a in arcs))


@dataclass(frozen=True)
class EventFamily:
    """Finite ordered set of distinct events over one base graph.

    ``EventFamily(base, masks, names=None)`` is the one public constructor:
    event i is ``Event(base, masks[i])``.  It checks, once per family, that there
    is at least one event, that every mask fits the base (the first bad
    mask gets the message ``Event`` gives it), that ``names``, when given,
    names every event once, and that no event repeats, by one ``set`` of
    the masks.  Only a failed check looks for the first repeat, to name
    it.  ``generate_bounded_omissions`` alone sets the fields itself and
    skips these checks, which its masks pass by construction (the
    generator's docstring says why).  A family keeps no index from mask
    to position.  Equality and hashing read ``base``, ``masks`` and
    ``names``.  ``events`` is a view of the masks as ``Event`` objects,
    built the first time it is read; code that needs one event builds
    ``Event(family.base, family.masks[i])``.
    """

    base: Digraph
    masks: tuple[int, ...]
    names: tuple[str, ...] | None = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "masks", tuple(self.masks))
        masks = self.masks
        if not masks:
            raise InputError("an event family needs at least one event")
        limit = 1 << len(self.base.arcs)
        if min(masks) < 0 or max(masks) >= limit:
            # The first bad mask, with the message ``Event`` gives it.
            Event(self.base, next(x for x in masks if not 0 <= x < limit))
        if self.names is not None:
            object.__setattr__(self, "names", tuple(self.names))
            if len(self.names) != len(masks):
                raise InputError("names must cover every event")
            if len(set(self.names)) != len(self.names):
                first, _ = _first_repeat(self.names)
                raise InputError(f"event names must be unique: {self.names[first]!r} repeated")
        if len(set(masks)) != len(masks):
            first, again = map(self.name, _first_repeat(masks))
            raise InputError(f"duplicate events in family: {first} and {again}")

    @cached_property
    def events(self) -> tuple[Event, ...]:
        return tuple(Event(self.base, x) for x in self.masks)

    def __len__(self) -> int:
        return len(self.masks)

    def name(self, index: int) -> str:
        if self.names is not None:
            return self.names[index]
        return f"E{index}"

    def names_of(self, indices: Iterable[int]) -> list[str]:
        """``[self.name(i) for i in indices]``, with one check for ``names``."""
        if self.names is None:
            return [f"E{i}" for i in indices]
        return list(map(self.names.__getitem__, indices))

    @cached_property
    def name_index(self) -> dict[str, int]:
        return {self.name(i): i for i in range(len(self.masks))}

    @cached_property
    def carriers(self) -> tuple[int, ...]:
        """Per base arc, the bitset over event indices of the events delivering it.

        One transpose of the family.  The masks are packed as little-endian
        rows of one width, event 0 first: by one ``array`` call with the
        narrowest unsigned item that holds a row, or, for rows over 8
        bytes, by ``int.to_bytes`` into the same layout.  The bytes are
        read as one integer and printed in binary once.  Each arc's column
        is then one strided slice of that string, which reads event 0 as
        its lowest bit.
        """
        arcs = len(self.base.arcs)
        row = -(-arcs // 8)
        code = next((code for size, code in _ITEMS if size >= row), None)
        if code is None:
            data = b"".join(map(int.to_bytes, self.masks, repeat(row), repeat("little")))
        else:
            packed = array(code, self.masks)
            if sys.byteorder == "big":
                packed.byteswap()
            data, row = packed.tobytes(), packed.itemsize
        grid = format(int.from_bytes(data, "little"), f"0{8 * len(data)}b")
        step = 8 * row
        # A row prints bit 0 last, so arc ``b`` is the row's character step-1-b.
        return tuple(int(grid[step - 1 - b::step], 2) for b in range(arcs))

    @cached_property
    def source_columns(self) -> tuple[int, ...]:
        """Per node, the bitset over event indices of the events of which it is a source.

        Computed for all events at once from ``carriers``, one root at a
        time.  ``known[v]`` holds the events in which v's bit is already
        known, and root r's forward closure runs over its other events
        only: ``reach[x]`` is the events in which r reaches x, and the AND
        of all ``reach`` is the events r spans.  In a spanned event the
        sources are the nodes that reach r, so one backward closure from r
        over those events gives every node's bit there; for the last root
        every other bit is known, and the spanned events are its column.
        In r's other events, no node that r reaches is a source: it would
        make r one.  Either way, a node's bit is known in every event r
        reaches it in.
        """
        base = self.base
        n = base.node_count
        everything = (1 << len(self.masks)) - 1
        arcs_out: list[list[tuple[int, int]]] = [[] for _ in range(n)]
        arcs_in: list[list[tuple[int, int]]] = [[] for _ in range(n)]
        for (tail, head), events in zip(base.sorted_arcs, self.carriers):
            arcs_out[tail].append((head, events))
            arcs_in[head].append((tail, events))
        columns = [0] * n
        known = [0] * n
        for root in range(n):
            events = everything ^ known[root]
            if not events:
                continue
            reach = _closure(arcs_out, root, events)
            spans = reduce(and_, reach, events)
            if spans and root < n - 1:
                columns = list(map(or_, columns, _closure(arcs_in, root, spans)))
            else:
                columns[root] |= spans
            known = list(map(or_, known, reach))
        return tuple(columns)

    @cached_property
    def source_masks(self) -> tuple[int, ...]:
        """Per event, the bitmask of nodes from which every node is reachable:
        ``source_columns`` transposed by ``_rows``."""
        return _rows(self.source_columns, len(self.masks))

    def common_sources_mask(self) -> int:
        """The nodes that are a source of every event."""
        everything = (1 << len(self.masks)) - 1
        return node_mask(v for v, column in enumerate(self.source_columns) if column == everything)

    @cached_property
    def convex(self) -> bool:
        """Whether the family is closed under adding one arc of another member.

        A family is convex when for every pair of member events H, H' and
        every arc a of H', the event H + a is also a member.  Only arcs in
        the union of the family matter, so the scan makes one test against
        the set of member masks per event and union arc the event lacks,
        in family order, and stops at the first miss; the answer does not
        depend on the order.  A family from ``generate_bounded_omissions``
        carries ``True`` and is never scanned; any other family is scanned
        once.
        """
        members = set(self.masks)
        union = 0
        for mask in self.masks:
            union |= mask
        for mask in self.masks:
            missing = union & ~mask
            while missing:
                low = missing & -missing
                if mask | low not in members:
                    return False
                missing ^= low
        return True


def _first_repeat(items: Sequence) -> tuple[int, int]:
    """Indices ``i < j`` of the first item ``j`` equal to an earlier item ``i``."""
    seen: dict = {}
    return next((seen[x], j) for j, x in enumerate(items) if seen.setdefault(x, j) != j)


def _closure(adjacency: Sequence[list[tuple[int, int]]], root: int, events: int) -> list[int]:
    """Per node x, the events among ``events`` in which ``root`` reaches x along ``adjacency``.

    ``adjacency[x]`` lists ``(y, carriers)`` pairs: x passes to y in the
    events of ``carriers``.  ``reach[x]`` starts as ``events`` at the root
    and nothing elsewhere, and each breadth-first level pushes only the
    events a node gained in the level before.
    """
    reach = [0] * len(adjacency)
    reach[root] = events
    frontier = {root: events}
    while frontier:
        grown: dict[int, int] = {}
        for node, fresh in frontier.items():
            for other, carriers in adjacency[node]:
                new = fresh & carriers & ~reach[other]
                if new:
                    reach[other] |= new
                    grown[other] = grown.get(other, 0) | new
        frontier = grown
    return reach


# Unsigned array items by size, narrowest first.
_ITEMS = sorted((array(code).itemsize, code) for code in "BHIQ")
# Binary digits as bytes: b"0" -> 0, b"1" -> 1.
_DIGIT_BYTES = bytes.maketrans(b"01", b"\0\1")
# Where byte j of a native 8-byte word lives in memory.
_WORD_BYTE = range(8) if sys.byteorder == "little" else range(7, -1, -1)


def _rows(columns: Sequence[int], count: int) -> tuple[int, ...]:
    """The transpose of ``columns``: row i has bit v set iff column v has bit i.

    Nodes go 64 at a time into one native word per row.  Each column is
    printed in binary once, last row first, and its digits become a
    plane of 0/1 bytes; eight planes shifted into place and added make
    the plane of one byte of every word, which is written into a
    ``bytearray`` with stride 8.  A ``memoryview`` cast to unsigned
    64-bit words then reads one row per word.  Above 64 nodes, each
    further 64-node chunk is shifted into place and OR'd in.
    """
    rows: Iterable[int] = (0,) * count
    for low in range(0, len(columns), 64):
        words = bytearray(8 * count)
        for j, first in zip(_WORD_BYTE, range(low, min(low + 64, len(columns)), 8)):
            plane = 0
            for k, column in enumerate(columns[first:first + 8]):
                digits = format(column, f"0{count}b").encode().translate(_DIGIT_BYTES)
                plane += int.from_bytes(digits, "big") << k
            # The plane was read last row first: little-endian bytes put row 0 first.
            words[j::8] = plane.to_bytes(count, "little")
        chunk = memoryview(words).cast("Q")
        rows = chunk if not low else map(lambda row, word, low=low: row | word << low, rows, chunk)
    return tuple(rows)


# ---- convexity ---------------------------------------------------------------

def is_convex(family: EventFamily) -> bool:
    """Whether the family is convex: ``family.convex``, scanned at most once per family."""
    return family.convex


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
    budget: Budget = DEFAULT_BUDGET,
) -> EventFamily:
    """All events of ``base`` with at most ``f`` omitted arcs, in arc-tuple order.

    ``metric`` selects how omissions are counted: ``global`` bounds the
    total number of missing arcs, ``send`` bounds each node's missing
    out-arcs (``base.out_arc_bits``), ``recv`` each node's missing in-arcs
    (``base.in_arc_bits``).  The family is counted first, then built as
    event masks carried down from the full mask: omitting arc j clears
    its bit, and every arc not yet decided stays set.

    The walk decides the arcs highest first.  With the arcs above j
    decided, it keeps the valid masks in arc-tuple order as lists:
    list b holds those with at least b omissions left in arc j's group.
    Arc j turns list b into list b (j delivered) followed by list b + 1
    with j omitted, except that "omit every arc from j on", whose tuple
    is empty, goes to the front; it can only be the first mask of
    list b + 1.  Only the lists that the group's unbroken run of arcs
    from j down can still use are built.  Entering a group, the walk
    takes a list as the whole list, at no cost, when the group's decided
    arcs cannot use up its omissions.  That always holds for a group with
    no decided arc, that is the global group and each sender's block of
    out-arcs, entered at its top arc; so those families cost about one
    step per mask.  Otherwise, as under ``recv``, the list is filtered
    by ``bit_count``, and a run of one arc builds only lists 0 and 1.

    The result is convex, and its ``convex`` is preset to ``True`` so
    that no caller scans it: adding an arc to a member removes an
    omission and adds none, so no group's count rises above ``f``.  It
    is built without ``EventFamily``'s checks, which it cannot fail.
    There is at least one mask, the full one.  Every mask is the full
    mask with bits cleared, so it fits the base.  The lists stay in
    strictly increasing arc-tuple order, so no mask repeats.  The
    family's fields are ``base``, the masks as a tuple, ``names=None``
    and the preset ``convex``, exactly what the constructor would keep.
    Raises BudgetExceededError when the family would exceed the budget's
    family cap.
    """
    if f < 0:
        raise InputError("omission bound must be non-negative")
    m = len(base.arcs)
    full = (1 << m) - 1
    groups = {"global": (full,), "send": base.out_arc_bits, "recv": base.in_arc_bits}.get(metric)
    if groups is None:
        raise InputError(f"unknown omission metric {metric!r}")
    count = _count_bounded([g.bit_count() for g in groups], f)
    budget.check("max_family_events", count)
    lists = [[full]]
    for j in reversed(range(m)):
        bit = 1 << j
        group = next(g for g in groups if g & bit)
        # The group's unbroken run of arcs from j down, along which the lists carry over.
        run = j + 1 - (~group & bit - 1).bit_length()
        if not group & bit << 1:  # j enters its group: arc j + 1, if any, is in another
            whole = lists[0]
            decided = group >> j + 1 << j + 1
            used = decided.bit_count()
            lists = [whole]
            for b in range(1, min(f, run) + 1):
                limit = f - b  # decided omissions of the group that leave b
                lists.append(
                    whole if used <= limit
                    else [e for e in whole if (decided & ~e).bit_count() <= limit]
                )
        lists.append([])
        # Omitting every decided arc is the empty tuple, first wherever it is valid.
        empty = [(1 << j + 1) - 1]
        grown = []
        for kept, omit in zip(lists, lists[1:min(f + 1, run) + 1]):
            tail = [e ^ bit for e in omit]
            moved = omit[:1] == empty
            grown.append(tail[:moved] + kept + tail[moved:])
        lists = grown
    # Built without ``__post_init__``: the masks are distinct and fit the base.
    family = object.__new__(EventFamily)
    fields = {"base": base, "masks": tuple(lists[0]), "names": None, "convex": True}
    for field, value in fields.items():
        object.__setattr__(family, field, value)
    return family


# ---- JSON ----------------------------------------------------------------------

def family_to_json_dict(family: EventFamily) -> dict:
    g = family.base
    return {
        "graph": digraph_to_json_dict(g),
        "events": [
            {
                "name": family.name(i),
                "arcs": [[g.label(t), g.label(h)] for t, h in _arcs_of(g, x)],
            }
            for i, x in enumerate(family.masks)
        ],
    }


def family_from_json_dict(data: dict) -> EventFamily:
    """The family ``family_to_json_dict`` wrote, read in one pass by the schema above.

    ``heads[tail label][head label]`` is an arc's bit in ``base.sorted_arcs``,
    and an entry's mask is the OR of its arcs' bits, so an arc listed twice
    sets its bit once.  One sequence pattern reads each arc, and no string
    or object matches it; ``arc_fault`` names the first arc that fails.
    """
    where = "malformed family JSON"
    entries = array_from_json(data, "events", where)
    if "graph" not in data:
        raise InputError(f"{where}: 'graph'")
    base = digraph_from_json_dict(data["graph"])
    heads: dict[str, dict[str, int]] = {}
    for i, (t, h) in enumerate(base.sorted_arcs):
        heads.setdefault(base.label(t), {})[base.label(h)] = 1 << i
    masks = []
    names = []
    for i, entry in enumerate(entries):
        if not isinstance(entry, dict) or not isinstance(arcs := entry.get("arcs"), (list, tuple)):
            raise array_fault(entry, "arcs", f"malformed event entry {i}")
        mask = 0
        try:
            for arc in arcs:
                match arc:
                    case [t, h]:
                        mask |= heads[t][h]
                    case _:
                        raise TypeError
        except (KeyError, TypeError):
            raise arc_fault(arc, base.label_index, f"malformed event entry {i}") from None
        masks.append(mask)
        if not isinstance(name := entry.get("name"), str):
            if "name" in entry:
                raise InputError(f"malformed event entry {i}: name {name!r} is not a string")
            name = f"E{i}"
        names.append(name)
    return EventFamily(base, masks, names)
