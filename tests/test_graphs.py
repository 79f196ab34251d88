from __future__ import annotations

import random
from itertools import combinations, product

import networkx as nx
import pytest

from omlab import (
    Digraph,
    InputError,
    arc_connectivity,
    complete_digraph,
    cycle_digraph,
    digraph_from_json_dict,
    digraph_to_json_dict,
    hypercube_digraph,
    mask_nodes,
    node_mask,
    path_digraph,
    symmetric_digraph,
)
from omlab.graphs import _reach, sources_of_arcs

from conftest import A, B, C, D, random_digraph

H1_ARCS = frozenset({(C, A), (C, B), (D, A), (D, B), (A, B), (C, D), (B, C)})
H2_ARCS = frozenset({(C, A), (C, B), (D, A), (D, B), (B, A), (D, C), (A, D)})
FIG_BASE = Digraph(4, H1_ARCS | H2_ARCS, labels=("a", "b", "c", "d"))


# ---- construction ------------------------------------------------------------

def test_rejects_out_of_range_arcs():
    with pytest.raises(ValueError):
        Digraph(2, frozenset({(0, 2)}))


def test_rejects_self_loops_by_default():
    with pytest.raises(ValueError):
        Digraph(2, frozenset({(0, 0)}))


def test_rejects_duplicate_labels():
    with pytest.raises(ValueError):
        Digraph(2, frozenset(), labels=("x", "x"))


def test_label_lookup():
    g = symmetric_digraph(2, [(0, 1)], labels=("white", "black"))
    assert g.node("black") == 1
    assert g.label(0) == "white"
    with pytest.raises(InputError, match="unknown node label 'gray'"):
        g.node("gray")


# ---- reachability -------------------------------------------------------------

def test_reachable_complete_two_nodes():
    g = complete_digraph(2)
    assert _reach(g.out_masks, 0) == 0b11


def test_reachable_h1_from_a():
    h1 = Digraph(4, H1_ARCS)
    assert _reach(h1.out_masks, A) == node_mask([A, B, C, D])


def test_reachable_no_arcs():
    g = Digraph(3, frozenset())
    assert _reach(g.out_masks, 0) == 0b001


def test_reachable_matches_boolean_matrix_closure():
    """Transitive closure by repeated boolean matrix product, graphs <= 6 nodes."""
    rng = random.Random(7)
    for _ in range(50):
        n = rng.randint(2, 6)
        g = random_digraph(rng, n)
        closure = [[u == v or (u, v) in g.arcs for v in range(n)] for u in range(n)]
        for _ in range(n):
            closure = [
                [
                    any(closure[u][w] and closure[w][v] for w in range(n))
                    for v in range(n)
                ]
                for u in range(n)
            ]
        for u in range(n):
            expected = node_mask(v for v in range(n) if closure[u][v])
            assert _reach(g.out_masks, u) == expected


def test_reachability_monotone_under_arc_addition():
    rng = random.Random(11)
    for _ in range(100):
        n = rng.randint(2, 6)
        g = random_digraph(rng, n, 0.4)
        candidates = [
            (u, v) for u in range(n) for v in range(n)
            if u != v and (u, v) not in g.arcs
        ]
        if not candidates:
            continue
        bigger = Digraph(n, g.arcs | {rng.choice(candidates)})
        for u in range(n):
            before = _reach(g.out_masks, u)
            after = _reach(bigger.out_masks, u)
            assert before & after == before


# ---- sources -------------------------------------------------------------------

def sources(g: Digraph) -> int:
    return sources_of_arcs(g.node_count, g.out_masks)


def test_sources_two_node_events(omit_white, ok_event):
    assert sources(Digraph(2, omit_white.sorted_arcs)) == node_mask([1])  # black only
    assert sources(Digraph(2, ok_event.sorted_arcs)) == 0b11


def test_sources_fig_events():
    assert sources(Digraph(4, H1_ARCS)) == node_mask([A, B, C, D])
    assert sources(Digraph(4, H2_ARCS)) == node_mask([A, B, C, D])


def test_sources_may_be_empty():
    g = Digraph(3, frozenset({(0, 1)}))
    assert sources(g) == 0


def test_source_closure_under_incoming_arc():
    """If (s,t) is an arc and t is a source, then s is a source."""
    rng = random.Random(13)
    for _ in range(300):
        n = rng.randint(2, 6)
        g = random_digraph(rng, n)
        b = sources(g)
        for s, t in g.arcs:
            if b >> t & 1:
                assert b >> s & 1


def test_sources_agree_with_condensation():
    """Nonempty sources iff the condensation has a unique source component;
    when nonempty, the sources are exactly that component's members."""
    rng = random.Random(17)
    for _ in range(200):
        n = rng.randint(2, 6)
        g = random_digraph(rng, n)
        nxg = nx.DiGraph()
        nxg.add_nodes_from(range(n))
        nxg.add_edges_from(g.arcs)
        cond = nx.condensation(nxg)
        roots = [c for c in cond.nodes if cond.in_degree(c) == 0]
        b = sources(g)
        if len(roots) == 1:
            assert b == node_mask(cond.nodes[roots[0]]["members"])
        else:
            assert b == 0


# ---- arc connectivity ----------------------------------------------------------------

def _brute_force_edge_connectivity(g: Digraph) -> int:
    """Fewest undirected edges whose removal disconnects the graph."""
    n = g.node_count
    edges = [(u, v) for u, v in g.arcs if u < v]
    for size in range(len(edges) + 1):
        for cut in combinations(edges, size):
            kept = set(edges) - set(cut)
            rest = symmetric_digraph(n, kept)
            if _reach(rest.out_masks, 0) != rest.full_mask:
                return size
    raise AssertionError("two or more nodes without edges cannot be connected")


@pytest.mark.parametrize(
    "graph,expected",
    [
        (cycle_digraph(4), 2),
        (complete_digraph(4), 3),
        (hypercube_digraph(3), 3),
        (path_digraph(4), 1),
        (complete_digraph(2), 1),
        # Bowtie: two triangles sharing node 0, cut by one node but no one edge.
        (symmetric_digraph(5, [(0, 1), (1, 2), (2, 0), (0, 3), (3, 4), (4, 0)]), 2),
    ],
)
def test_arc_connectivity_known_values(graph, expected):
    assert arc_connectivity(graph) == expected


def test_arc_connectivity_matches_brute_force():
    rng = random.Random(19)
    for _ in range(40):
        n = rng.randint(2, 6)
        edges = {
            (u, v) for u, v in combinations(range(n), 2) if rng.random() < 0.55
        }
        g = symmetric_digraph(n, edges)
        assert arc_connectivity(g) == _brute_force_edge_connectivity(g)


def test_arc_connectivity_rejects_asymmetric():
    with pytest.raises(ValueError):
        arc_connectivity(Digraph(2, frozenset({(0, 1)})))


def test_arc_connectivity_rejects_single_node():
    with pytest.raises(ValueError):
        arc_connectivity(Digraph(1, frozenset()))


# ---- bitmask helpers and JSON ---------------------------------------------------------

def test_mask_round_trip():
    assert mask_nodes(node_mask([0, 3, 5])) == (0, 3, 5)


def test_json_round_trip():
    g = FIG_BASE
    data = digraph_to_json_dict(g)
    assert data["nodes"] == ["a", "b", "c", "d"]
    again = digraph_from_json_dict(data)
    assert again == g
    assert digraph_to_json_dict(again) == data


def test_json_rejects_unknown_node():
    with pytest.raises(ValueError):
        digraph_from_json_dict({"nodes": ["a"], "arcs": [["a", "b"]]})


def test_json_names_a_self_loop_by_its_labels():
    with pytest.raises(InputError) as caught:
        digraph_from_json_dict({"nodes": ["a", "b"], "arcs": [["a", "b"], ["a", "a"]]})
    assert str(caught.value) == "malformed digraph JSON: arc ['a', 'a'] is a self-loop"


def test_hypercube_labels():
    q3 = hypercube_digraph(3)
    assert q3.node_count == 8
    assert len(q3.arcs) == 24
    assert q3.label(5) == "101"
