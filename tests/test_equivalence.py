from __future__ import annotations

import random
from dataclasses import replace

import pytest

from omlab import (
    AlphaWitness,
    Event,
    EventFamily,
    alpha_related,
    beta_partition,
    complete_digraph,
    cycle_digraph,
    event_from_arcs,
    generate_bounded_omissions,
    mask_nodes,
    node_mask,
)
from omlab.equivalence import _connect, _head_filter

from conftest import A, B, C, D, BLACK, WHITE


# ---- in_x -------------------------------------------------------------------

def in_x(event: Event, x_mask: int) -> frozenset:
    """Arcs of the event whose head lies in ``x_mask``, through the relations' head filter."""
    return frozenset(Event(event.base, event.arc_mask & _head_filter(event.base, x_mask)).sorted_arcs)


def test_in_x_empty_set(omit_white):
    assert in_x(omit_white, 0) == frozenset()


def test_in_x_fig_events(fig12):
    h1, h2 = fig12.events
    assert in_x(h1, node_mask([A])) == frozenset({(C, A), (D, A)})
    assert in_x(h2, node_mask([A])) == frozenset({(C, A), (D, A), (B, A)})


def test_in_x_two_node(omit_white, ok_event):
    assert in_x(omit_white, node_mask([WHITE])) == frozenset({(BLACK, WHITE)})
    assert in_x(ok_event, node_mask([WHITE])) == frozenset({(BLACK, WHITE)})


# ---- alpha ---------------------------------------------------------------------

def test_alpha_omit_white_vs_ok(omit_white, omit_black, ok_event):
    """The sources of the omit-black event (just white) see the same arcs
    under omit-white and under full delivery."""
    assert alpha_related(omit_white, ok_event, omit_black)


def test_alpha_reflexive(fig12):
    h1, h2 = fig12.events
    assert alpha_related(h1, h1, h2)


def test_alpha_fig_events_differ(fig12):
    h1, h2 = fig12.events
    assert not alpha_related(h1, h2, h1)


def test_alpha_requires_shared_base(ok_event):
    other = complete_digraph(2)
    foreign = event_from_arcs(other, other.arcs)
    with pytest.raises(ValueError):
        alpha_related(ok_event, foreign, ok_event)


# ---- alpha star -------------------------------------------------------------------

def alpha_star(family: EventFamily) -> tuple[tuple[int, ...], ...]:
    """The transitive closure: the kernel's components of all events, all of them witnesses."""
    pieces = _connect(family, list(range(len(family))))[0]
    return tuple(sorted(tuple(p) for p in pieces))


def test_alpha_star_o1_single_class(o1):
    assert alpha_star(o1) == ((0, 1, 2),)


def test_alpha_star_h_two_singletons(h_scheme):
    assert alpha_star(h_scheme) == ((0,), (1,))


def test_alpha_star_singleton(two_node, ok_event):
    family = EventFamily(two_node, (ok_event.arc_mask,))
    assert alpha_star(family) == ((0,),)


# ---- beta ----------------------------------------------------------------------------

def test_beta_o1_single_class(o1):
    bp = beta_partition(o1)
    assert bp.classes == ((0, 1, 2),)
    assert bp.verify()


def test_beta_h_two_classes(h_scheme):
    bp = beta_partition(h_scheme)
    assert len(bp.classes) == 2


def test_beta_fig12_two_singletons(fig12):
    bp = beta_partition(fig12)
    assert bp.classes == ((0,), (1,))


def test_beta_refines_alpha_star():
    rng = random.Random(37)
    for _ in range(40):
        g = complete_digraph(rng.randint(2, 3))
        events = {
            event_from_arcs(g, (a for a in g.arcs if rng.random() < 0.65)).arc_mask
            for _ in range(rng.randint(1, 5))
        }
        family = EventFamily(g, sorted(events, key=mask_nodes))
        coarse = {frozenset(c) for c in alpha_star(family)}
        bp = beta_partition(family)
        assert bp.verify()
        for members in bp.classes:
            assert any(set(members) <= c for c in coarse)
        assert bp.iterations <= len(family) + 1


def test_beta_verify_catches_tampering(o1):
    bp = beta_partition(o1)
    # Forge a relation that does not hold: the sources of "ok" (both nodes)
    # can tell omit-white and omit-black apart.
    forged = (AlphaWitness(left=1, right=2, witness=0),)
    tampered = replace(bp, class_edges=(forged,))
    assert not tampered.verify()


def test_beta_verify_catches_a_missing_event(h_scheme):
    bp = beta_partition(h_scheme)
    assert bp.classes == ((0,), (1,))
    assert not replace(bp, classes=bp.classes[:1], class_edges=bp.class_edges[:1]).verify()


@pytest.mark.parametrize(
    "fixture, classes, class_edges",
    [
        # The first edge holds and caches witness 2's filter; the second reuses it and fails.
        ("o1", ((0, 1, 2),), ((AlphaWitness(0, 1, 2), AlphaWitness(1, 2, 2)),)),
        # The edge holds (it is reflexive), but its witness sits in the other class.
        ("h_scheme", ((0,), (1,)), ((AlphaWitness(0, 0, 1),), ())),
        # Every edge holds and spans its class, but event 2 is in both classes.
        ("o1", ((0, 1, 2), (2,)), ((AlphaWitness(0, 2, 1), AlphaWitness(0, 1, 2)), ())),
        # The one edge holds, but it leaves event 1 apart from the rest of the class.
        ("o1", ((0, 1, 2),), ((AlphaWitness(0, 2, 1),),)),
        # Two classes that need no edges, but no edge tuple for either.
        ("h_scheme", ((0,), (1,)), ()),
        # Every class holds, but an edge tuple is left over with no class.
        ("h_scheme", ((0,), (1,)), ((), (), ())),
        # The edges span the class, but the class lists event 2 twice.
        ("o1", ((0, 1, 2, 2),), ((AlphaWitness(0, 2, 1), AlphaWitness(0, 1, 2)),)),
        # Both edges hold and there are two, but the second closes a cycle: one merge.
        ("o1", ((0, 1, 2),), ((AlphaWitness(0, 1, 2), AlphaWitness(1, 0, 2)),)),
        # O1 has events 0-2: the class and an edge name an event 3 it does not have.
        ("o1", ((0, 1, 2, 3),), ((AlphaWitness(0, 3, 2),),)),
        ("o1", ((0, 1, 2, 3),), ((AlphaWitness(0, 1, 3),),)),
    ],
    ids=["cached-witness-edge-fails", "witness-outside-class", "classes-overlap",
         "edges-do-not-span", "edge-tuples-missing", "edge-tuple-left-over",
         "class-lists-an-event-twice", "edges-close-a-cycle",
         "edge-names-an-event-outside-the-family", "witness-outside-the-family"],
)
def test_beta_verify_refutes_forged_partitions(request, fixture, classes, class_edges):
    bp = beta_partition(request.getfixturevalue(fixture))
    assert bp.verify()
    assert not replace(bp, classes=classes, class_edges=class_edges).verify()


def test_alpha_witness_is_a_named_tuple():
    edge = AlphaWitness(1, 2, 3)
    assert edge == (1, 2, 3)
    assert (edge.left, edge.right, edge.witness) == (1, 2, 3)
    assert repr(edge) == "AlphaWitness(left=1, right=2, witness=3)"


def test_alpha_witness_holds(o1):
    # ok ~ omit-white through omit-black, per the source-set computation.
    assert AlphaWitness(left=0, right=1, witness=2).holds(o1)
    assert not AlphaWitness(left=1, right=2, witness=0).holds(o1)


def test_alpha_witness_refuses_indices_outside_the_family(o1):
    # (-3, -2, -1) would name the events of the edge above that holds.
    assert AlphaWitness(0, 1, 2).holds(o1)
    assert not AlphaWitness(-3, -2, -1).holds(o1)
    for edge in ((0, 1, 3), (3, 1, 2), (0, -1, 2)):
        assert not AlphaWitness(*edge).holds(o1)


def test_beta_tolerates_no_source_events(two_node, omit_white, omit_black):
    family = EventFamily(two_node, (omit_white.arc_mask, omit_black.arc_mask, 0))
    bp = beta_partition(family)
    assert bp.verify()
    # The silent event never acts as a witness: it observes nothing.
    for edges in bp.class_edges:
        for edge in edges:
            assert edge.witness != 2


def test_single_class_for_incompatible_bounded_families():
    """Convex families with sources but no common source collapse to one class."""
    for g, f in [
        (complete_digraph(2), 1),
        (cycle_digraph(4), 2),
        (complete_digraph(4), 3),
    ]:
        family = generate_bounded_omissions(g, f, "global")
        masks = [m for m in family.source_masks]
        assert all(masks), "every event should still have a source"
        inter = g.full_mask
        for m in masks:
            inter &= m
        assert inter == 0, "chosen bound should kill the common source"
        assert len(beta_partition(family).classes) == 1


def test_beta_json_report(o1):
    data = beta_partition(o1).to_json_dict()
    assert len(data["classes"]) == 1
    names = data["classes"][0]["events"]
    assert set(names) == {"ok", "omit-white", "omit-black"}
    assert data["classes"][0]["witness_edges"]
