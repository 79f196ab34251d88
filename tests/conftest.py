from __future__ import annotations

import random

import pytest

from omlab import Digraph, Event, EventFamily, event_from_arcs, symmetric_digraph
from omlab.bundled import load_family

# Node indices in the bundled two-node families.
WHITE, BLACK = 0, 1
# Node indices in the bundled four-node family.
A, B, C, D = 0, 1, 2, 3


@pytest.fixture
def two_node() -> Digraph:
    return symmetric_digraph(2, [(0, 1)], labels=("white", "black"))


@pytest.fixture
def ok_event(two_node) -> Event:
    return event_from_arcs(two_node, two_node.arcs)


@pytest.fixture
def omit_white(two_node) -> Event:
    """White's message is lost: only black -> white delivers."""
    return event_from_arcs(two_node, frozenset({(BLACK, WHITE)}))


@pytest.fixture
def omit_black(two_node) -> Event:
    return event_from_arcs(two_node, frozenset({(WHITE, BLACK)}))


@pytest.fixture
def o1() -> EventFamily:
    return load_family("O1-2node")


@pytest.fixture
def h_scheme() -> EventFamily:
    return load_family("H-2node")


@pytest.fixture
def reliable() -> EventFamily:
    return load_family("reliable-2node")


@pytest.fixture
def fig12() -> EventFamily:
    return load_family("fig12")


def random_digraph(rng: random.Random, n: int, arc_prob: float = 0.5) -> Digraph:
    arcs = {
        (u, v)
        for u in range(n)
        for v in range(n)
        if u != v and rng.random() < arc_prob
    }
    return Digraph(n, frozenset(arcs))


def random_connected_symmetric(rng: random.Random, n: int) -> Digraph:
    """Random connected undirected graph as a symmetric digraph."""
    nodes = list(range(n))
    rng.shuffle(nodes)
    edges = {tuple(sorted((nodes[i - 1], nodes[i]))) for i in range(1, n)}
    for u in range(n):
        for v in range(u + 1, n):
            if rng.random() < 0.35:
                edges.add((u, v))
    return symmetric_digraph(n, edges)


def random_event(rng: random.Random, base: Digraph, keep_prob: float = 0.6) -> Event:
    return event_from_arcs(
        base, frozenset(a for a in base.arcs if rng.random() < keep_prob)
    )
