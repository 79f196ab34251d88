"""Directed graphs over dense integer nodes, with bitmask node sets.

Nodes are the integers ``0 .. node_count-1``; optional string labels are
attached for I/O only.  Sets of nodes are plain ``int`` bitmasks (bit ``u``
set means node ``u`` is in the set), which keeps reachability and
source-set computations cheap on the small graphs this package targets.
Arcs are ``(tail, head)`` pairs.
"""
from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Mapping

from .budget import InputError

Arc = tuple[int, int]


# ---- bitmask node sets -----------------------------------------------------

def node_mask(nodes: Iterable[int]) -> int:
    """Bitmask of the given node indices."""
    mask = 0
    for u in nodes:
        mask |= 1 << u
    return mask


def mask_nodes(mask: int) -> tuple[int, ...]:
    """Sorted node indices contained in a bitmask."""
    nodes = []
    while mask:
        low = mask & -mask
        nodes.append(low.bit_length() - 1)
        mask ^= low
    return tuple(nodes)


# ---- digraph ---------------------------------------------------------------

@dataclass(frozen=True)
class Digraph:
    """Immutable digraph.  Arc set is deduplicated via ``frozenset``.

    Self-loops are rejected: delivery of a node's own state to itself is
    implicit in the round semantics, so a loop is a modelling mistake.
    """

    node_count: int
    arcs: frozenset[Arc]
    labels: tuple[str, ...] | None = None

    def __post_init__(self) -> None:
        if self.node_count < 0:
            raise InputError("node_count must be non-negative")
        object.__setattr__(self, "arcs", frozenset(tuple(a) for a in self.arcs))
        for tail, head in self.arcs:
            if not (0 <= tail < self.node_count and 0 <= head < self.node_count):
                raise InputError(f"arc ({tail},{head}) out of range for {self.node_count} nodes")
            if tail == head:
                raise InputError(f"self-loop ({tail},{head}) rejected")
        if self.labels is not None:
            object.__setattr__(self, "labels", tuple(self.labels))
            if len(self.labels) != self.node_count:
                raise InputError("labels must cover every node")
            if len(set(self.labels)) != self.node_count:
                raise InputError("labels must be unique")

    # -- basic views --

    @cached_property
    def full_mask(self) -> int:
        return (1 << self.node_count) - 1

    @cached_property
    def sorted_arcs(self) -> tuple[Arc, ...]:
        return tuple(sorted(self.arcs))

    @cached_property
    def arc_bit(self) -> dict[Arc, int]:
        """Position of each arc in the canonical arc ordering."""
        return {arc: i for i, arc in enumerate(self.sorted_arcs)}

    @cached_property
    def out_masks(self) -> tuple[int, ...]:
        masks = [0] * self.node_count
        for tail, head in self.arcs:
            masks[tail] |= 1 << head
        return tuple(masks)

    @cached_property
    def in_arc_bits(self) -> tuple[int, ...]:
        """Per node, bitmask over arc positions of the arcs entering it."""
        masks = [0] * self.node_count
        for arc, bit in self.arc_bit.items():
            masks[arc[1]] |= 1 << bit
        return tuple(masks)

    @cached_property
    def out_arc_bits(self) -> tuple[int, ...]:
        masks = [0] * self.node_count
        for arc, bit in self.arc_bit.items():
            masks[arc[0]] |= 1 << bit
        return tuple(masks)

    # -- labels --

    def label(self, u: int) -> str:
        return self.labels[u] if self.labels is not None else str(u)

    @cached_property
    def label_index(self) -> dict[str, int]:
        return {self.label(u): u for u in range(self.node_count)}

    def node(self, label: str) -> int:
        try:
            return self.label_index[label]
        except KeyError:
            raise KeyError(f"unknown node label {label!r}") from None


# ---- reachability and sources ----------------------------------------------

def _reach(adjacency: tuple[int, ...], u: int) -> int:
    """Closure of ``u`` under ``adjacency``; the frontier is walked by lowest set bit."""
    seen = frontier = 1 << u
    while frontier:
        new = 0
        while frontier:
            low = frontier & -frontier
            new |= adjacency[low.bit_length() - 1]
            frontier ^= low
        frontier = new & ~seen
        seen |= frontier
    return seen


def sources_of_arcs(node_count: int, out_masks: tuple[int, ...]) -> int:
    """Bitmask of nodes that reach every node, from out-neighbour masks.

    The definition, one closure per node: this is the per-event path used
    to replay witnesses, independent of ``EventFamily.source_masks``.
    """
    full = (1 << node_count) - 1
    return node_mask(u for u in range(node_count) if _reach(out_masks, u) == full)


# ---- arc connectivity ------------------------------------------------------

def arc_connectivity(g: Digraph) -> int:
    """Minimum number of arcs whose removal leaves some node unable to reach another.

    Requires a symmetric digraph on at least two nodes, where this equals
    the edge connectivity of the undirected graph.  Every arc cut separates
    node 0 from some node, and in a symmetric digraph both directions have
    the same minimum cut, so the value is the least max flow from node 0
    to another node over unit-capacity arcs.
    """
    n = g.node_count
    if n < 2:
        raise InputError("arc connectivity needs at least two nodes")
    if any((head, tail) not in g.arcs for tail, head in g.arcs):
        raise InputError("arc connectivity is defined for symmetric digraphs only")
    return min(_arc_flow(g, 0, t) for t in range(1, n))


def _arc_flow(g: Digraph, s: int, t: int) -> int:
    """Max number of arc-disjoint paths s -> t in a symmetric digraph."""
    # Symmetry keeps every residual arc, (y, x) for each arc (x, y), in g.arcs.
    residual = dict.fromkeys(g.arcs, 1)
    flow = 0
    while True:
        prev = {s: s}
        queue = deque([s])
        while queue and t not in prev:
            x = queue.popleft()
            for y in mask_nodes(g.out_masks[x]):
                if y not in prev and residual[(x, y)]:
                    prev[y] = x
                    queue.append(y)
        if t not in prev:
            return flow
        y = t
        while y != s:
            x = prev[y]
            residual[(x, y)] -= 1
            residual[(y, x)] += 1
            y = x
        flow += 1


# ---- standard constructions ------------------------------------------------

def _default_labels(n: int) -> tuple[str, ...]:
    return tuple(f"v{i}" for i in range(n))


def complete_digraph(n: int, labels: tuple[str, ...] | None = None) -> Digraph:
    arcs = {(u, v) for u in range(n) for v in range(n) if u != v}
    return Digraph(n, frozenset(arcs), labels or _default_labels(n))


def symmetric_digraph(
    n: int, edges: Iterable[tuple[int, int]], labels: tuple[str, ...] | None = None
) -> Digraph:
    """Symmetric digraph from undirected edges."""
    arcs = set()
    for u, v in edges:
        arcs.add((u, v))
        arcs.add((v, u))
    return Digraph(n, frozenset(arcs), labels or _default_labels(n))


def cycle_digraph(n: int) -> Digraph:
    return symmetric_digraph(n, ((i, (i + 1) % n) for i in range(n)))


def path_digraph(n: int) -> Digraph:
    return symmetric_digraph(n, ((i, i + 1) for i in range(n - 1)))


def hypercube_digraph(dim: int) -> Digraph:
    """Symmetric digraph of the dim-dimensional hypercube, bitstring labels."""
    n = 1 << dim
    edges = [(u, u ^ (1 << b)) for u in range(n) for b in range(dim)]
    labels = tuple(format(u, f"0{dim}b") for u in range(n))
    return symmetric_digraph(n, edges, labels)


# ---- JSON ------------------------------------------------------------------

def digraph_to_json_dict(g: Digraph) -> dict:
    """``{"nodes": [...labels...], "arcs": [[tail_label, head_label], ...]}``"""
    return {
        "nodes": [g.label(u) for u in range(g.node_count)],
        "arcs": [[g.label(t), g.label(h)] for t, h in g.sorted_arcs],
    }


def arc_from_json(pair, index: Mapping[str, int], where: str) -> Arc:
    """The arc of a JSON ``[tail, head]`` pair, each label read as a string
    through ``index``; ``where`` opens the message of the error raised."""
    try:
        # "ab" would unpack into the labels a and b, {"a": 1, "b": 2} into its keys.
        if isinstance(pair, (str, dict)):
            raise TypeError
        tail, head = pair
    except (TypeError, ValueError):
        raise InputError(f"{where}: arc {pair!r} is not a pair") from None
    try:
        return index[str(tail)], index[str(head)]
    except KeyError as exc:
        raise InputError(f"{where}: unknown node label {exc.args[0]!r}") from None


def digraph_from_json_dict(data: dict) -> Digraph:
    try:
        nodes = list(data["nodes"])
        raw_arcs = list(data["arcs"])
    except (KeyError, TypeError) as exc:
        raise InputError(f"malformed digraph JSON: {exc}") from exc
    index = {str(name): i for i, name in enumerate(nodes)}
    if len(index) != len(nodes):
        raise InputError("duplicate node names in digraph JSON")
    arcs = {arc_from_json(pair, index, "malformed digraph JSON") for pair in raw_arcs}
    return Digraph(len(nodes), frozenset(arcs), tuple(str(n) for n in nodes))
