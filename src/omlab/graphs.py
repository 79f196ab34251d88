"""Directed graphs over dense integer nodes, with bitmask node sets.

Nodes are the integers ``0 .. node_count-1``; optional string labels are
attached for I/O only.  Sets of nodes are plain ``int`` bitmasks (bit ``u``
set means node ``u`` is in the set), which keeps reachability and
source-set computations cheap on the small graphs this package targets.
Arcs are ``(tail, head)`` pairs.
"""
from __future__ import annotations

from collections import deque
from dataclasses import InitVar, dataclass
from functools import cached_property
from typing import Iterable

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


def heads(arcs: Iterable[Arc]) -> int:
    """Bitmask of nodes that are heads of the given arcs."""
    mask = 0
    for _tail, head in arcs:
        mask |= 1 << head
    return mask


# ---- digraph ---------------------------------------------------------------

@dataclass(frozen=True)
class Digraph:
    """Immutable digraph.  Arc set is deduplicated via ``frozenset``.

    Self-loops are rejected unless ``allow_self_loops=True`` is passed at
    construction (delivery of a node's own state to itself is implicit in
    the round semantics, so loops are almost always a modelling mistake).
    """

    node_count: int
    arcs: frozenset[Arc]
    labels: tuple[str, ...] | None = None
    allow_self_loops: InitVar[bool] = False

    def __post_init__(self, allow_self_loops: bool) -> None:
        if self.node_count < 0:
            raise ValueError("node_count must be non-negative")
        object.__setattr__(self, "arcs", frozenset(tuple(a) for a in self.arcs))
        for tail, head in self.arcs:
            if not (0 <= tail < self.node_count and 0 <= head < self.node_count):
                raise ValueError(f"arc ({tail},{head}) out of range for {self.node_count} nodes")
            if tail == head and not allow_self_loops:
                raise ValueError(f"self-loop ({tail},{head}) rejected")
        if self.labels is not None:
            object.__setattr__(self, "labels", tuple(self.labels))
            if len(self.labels) != self.node_count:
                raise ValueError("labels must cover every node")
            if len(set(self.labels)) != self.node_count:
                raise ValueError("labels must be unique")

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

    @cached_property
    def is_symmetric(self) -> bool:
        return all((head, tail) in self.arcs for tail, head in self.arcs)

    def out_neighbors(self, u: int) -> tuple[int, ...]:
        return mask_nodes(self.out_masks[u])

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

def reachable_from(g: Digraph, u: int) -> int:
    """Bitmask of nodes reachable from ``u`` by a directed path (incl. u)."""
    if not 0 <= u < g.node_count:
        raise ValueError(f"node {u} out of range")
    return _reach(g.out_masks, u)


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


def sources(g: Digraph) -> int:
    """Bitmask of nodes from which every node is reachable.  May be empty."""
    return sources_of_arcs(g.node_count, g.out_masks)


def sources_of_arcs(node_count: int, out_masks: tuple[int, ...]) -> int:
    """Bitmask of nodes that reach every node, from out-neighbour masks.

    A node reached from a non-source is not a source (else its reacher
    would be one), so candidates are tried in order, skipping every node a
    failed candidate reaches.  The sources are the nodes that reach the
    first candidate with a full closure, all after it: two closures, not n.
    """
    full = (1 << node_count) - 1
    excluded = 0
    for u in range(node_count):
        if excluded >> u & 1:
            continue
        reach = _reach(out_masks, u)
        if reach == full:
            found, grew = 1 << u, True
            while grew:
                grew = False
                for v in range(u + 1, node_count):
                    if out_masks[v] & found and not found >> v & 1:
                        found |= 1 << v
                        grew = True
            return found
        excluded |= reach
    return 0


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
        raise ValueError("arc connectivity needs at least two nodes")
    if not g.is_symmetric:
        raise ValueError("arc connectivity is defined for symmetric digraphs only")
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
            for y in g.out_neighbors(x):
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


def digraph_from_json_dict(data: dict) -> Digraph:
    try:
        nodes = list(data["nodes"])
        raw_arcs = list(data["arcs"])
    except (KeyError, TypeError) as exc:
        raise ValueError(f"malformed digraph JSON: {exc}") from exc
    index = {str(name): i for i, name in enumerate(nodes)}
    if len(index) != len(nodes):
        raise ValueError("duplicate node names in digraph JSON")
    arcs = set()
    for pair in raw_arcs:
        try:
            tail, head = pair
        except (TypeError, ValueError):
            raise ValueError(f"malformed digraph JSON: arc {pair!r} is not a pair") from None
        if str(tail) not in index or str(head) not in index:
            raise ValueError(f"arc {pair!r} references unknown node")
        arcs.add((index[str(tail)], index[str(head)]))
    return Digraph(len(nodes), frozenset(arcs), tuple(str(n) for n in nodes))
