"""Directed graphs over dense integer nodes, with bitmask node sets.

Nodes are the integers ``0 .. node_count-1``; string labels, ``"0"`` to
``"n-1"`` unless given, are attached for I/O only.  Sets of nodes are
plain ``int`` bitmasks (bit ``u`` set means node ``u`` is in the set),
which keeps reachability and source-set computations cheap on the small
graphs this package targets.  Arcs are ``(tail, head)`` pairs.
"""
from __future__ import annotations

from collections import deque
from functools import cached_property
from itertools import combinations
from typing import Iterable, Mapping, NamedTuple, Sequence

from .budget import InputError

Arc = tuple[int, int]


# ---- bitmask node sets -----------------------------------------------------

def node_mask(nodes: Iterable[int]) -> int:
    """Bitmask of the given node indices."""
    mask = 0
    for u in nodes:
        mask |= 1 << u
    return mask


def per_node_masks(node_count: int, pairs: Iterable[tuple[int, int]]) -> tuple[int, ...]:
    """Per node, the OR of ``1 << bit`` over the ``(node, bit)`` pairs that name it."""
    masks = [0] * node_count
    for node, bit in pairs:
        masks[node] |= 1 << bit
    return tuple(masks)


def mask_nodes(mask: int) -> tuple[int, ...]:
    """Sorted node indices contained in a bitmask."""
    nodes = []
    while mask:
        low = mask & -mask
        nodes.append(low.bit_length() - 1)
        mask ^= low
    return tuple(nodes)


# ---- digraph ---------------------------------------------------------------

def refuse_assignment(self, name: str, *value) -> None:
    """``__setattr__`` and ``__delattr__`` of a record whose ``__dict__`` only
    ``cached_property`` fills, which writes it directly."""
    raise AttributeError(f"{type(self).__name__} is immutable: cannot set or delete {name!r}")


class Digraph(NamedTuple(
    "Digraph", [("node_count", int), ("arcs", frozenset), ("labels", tuple)]
)):
    """Immutable digraph.  Arc set is deduplicated via ``frozenset``.

    Self-loops are rejected: delivery of a node's own state to itself is
    implicit in the round semantics, so a loop is a modelling mistake.
    ``labels`` is stored as a tuple; None labels node u ``str(u)``.
    """

    def __new__(
        cls, node_count: int, arcs: Iterable[Arc], labels: Sequence[str] | None = None
    ) -> Digraph:
        if node_count < 0:
            raise InputError("node_count must be non-negative")
        arcs = frozenset(tuple(a) for a in arcs)
        for tail, head in arcs:
            if not (0 <= tail < node_count and 0 <= head < node_count):
                raise InputError(f"arc ({tail},{head}) out of range for {node_count} nodes")
            if tail == head:
                raise InputError(f"self-loop ({tail},{head}) rejected")
        labels = tuple(map(str, range(node_count)) if labels is None else labels)
        if len(labels) != node_count:
            raise InputError("labels must cover every node")
        if len(set(labels)) != node_count:
            first, _ = first_repeat(labels)
            raise InputError(f"labels must be unique: {labels[first]!r} repeated")
        return tuple.__new__(cls, (node_count, arcs, labels))

    __setattr__ = __delattr__ = refuse_assignment

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
        return per_node_masks(self.node_count, self.arcs)

    @cached_property
    def in_arc_bits(self) -> tuple[int, ...]:
        """Per node, bitmask over arc positions of the arcs entering it."""
        return per_node_masks(self.node_count, ((h, i) for (_, h), i in self.arc_bit.items()))

    @cached_property
    def out_arc_bits(self) -> tuple[int, ...]:
        return per_node_masks(self.node_count, ((t, i) for (t, _), i in self.arc_bit.items()))

    # -- labels --

    def label(self, u: int) -> str:
        return self.labels[u]

    @cached_property
    def label_index(self) -> dict[str, int]:
        return {label: u for u, label in enumerate(self.labels)}

    def node(self, label: str) -> int:
        try:
            return self.label_index[label]
        except KeyError:
            raise InputError(f"unknown node label {label!r}") from None


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

def complete_digraph(n: int) -> Digraph:
    return symmetric_digraph(n, combinations(range(n), 2))


def symmetric_digraph(
    n: int, edges: Iterable[tuple[int, int]], labels: tuple[str, ...] | None = None
) -> Digraph:
    """Symmetric digraph from undirected edges, labelled ``v<u>`` unless ``labels`` is given."""
    arcs = set()
    for u, v in edges:
        arcs.add((u, v))
        arcs.add((v, u))
    if labels is None:
        labels = tuple(f"v{i}" for i in range(n))
    return Digraph(n, frozenset(arcs), labels)


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
        "nodes": list(g.labels),
        "arcs": [[g.label(t), g.label(h)] for t, h in g.sorted_arcs],
    }


def arc_fault(arc, index: Mapping[str, int], where: str) -> InputError:
    """The error naming the first fault of an arc that failed to read: not a pair,
    a label not a string or not in ``index``, a self-loop, else not in the base graph."""
    match arc:
        case [tail, head]:
            for label in arc:
                if not isinstance(label, str):
                    return InputError(f"{where}: node label {label!r} is not a string")
                if label not in index:
                    return InputError(f"{where}: unknown node label {label!r}")
            fault = "is a self-loop" if tail == head else "is not in the base graph"
            return InputError(f"{where}: arc {arc!r} {fault}")
    return InputError(f"{where}: arc {arc!r} is not a pair")


def array_fault(data, key: str, where: str) -> InputError:
    """The error naming why ``data[key]`` is not an array in a JSON object."""
    if not isinstance(data, dict):
        return InputError(f"{where}: not an object")
    return InputError(f"{where}: {key!r}" + (" is not an array" if key in data else ""))


def array_from_json(data, key: str, where: str) -> list | tuple:
    """``data[key]``, where ``data`` must be a JSON object and ``data[key]`` an
    array; a tuple from a Python caller is the array ``json.dumps`` writes."""
    if isinstance(data, dict) and isinstance(items := data.get(key), (list, tuple)):
        return items
    raise array_fault(data, key, where)


def first_repeat(items: Sequence) -> tuple[int, int]:
    """Indices ``i < j`` of the first item ``j`` equal to an earlier item ``i``."""
    seen: dict = {}
    return next((seen[x], j) for j, x in enumerate(items) if seen.setdefault(x, j) != j)


def digraph_from_json_dict(data: dict) -> Digraph:
    """The digraph ``digraph_to_json_dict`` wrote, read by the schema in ``events``."""
    where = "malformed digraph JSON"
    nodes = array_from_json(data, "nodes", where)
    raw_arcs = array_from_json(data, "arcs", where)
    for label in nodes:
        if not isinstance(label, str):
            raise InputError(f"{where}: node label {label!r} is not a string")
    index = {label: u for u, label in enumerate(nodes)}
    if len(index) != len(nodes):
        raise InputError(f"{where}: node label {nodes[first_repeat(nodes)[1]]!r} repeated")
    arcs = set()
    try:
        for arc in raw_arcs:
            match arc:
                case [tail, head] if tail != head:
                    arcs.add((index[tail], index[head]))
                case _:
                    raise TypeError
    except (KeyError, TypeError):
        raise arc_fault(arc, index, where) from None
    return Digraph(len(nodes), frozenset(arcs), tuple(nodes))
