from __future__ import annotations

import random
from dataclasses import replace
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from omlab import (
    UNBOUNDED,
    Answer,
    BetaClassWitness,
    BroadcastGame,
    Budget,
    BudgetExceededError,
    CommonSourceWitness,
    EventFamily,
    IncompatibilityWitness,
    NoSourceEventWitness,
    arc_connectivity,
    broadcast_consensus,
    check_broadcastable,
    check_consensus,
    complete_digraph,
    connectivity_threshold_check,
    cycle_digraph,
    event_from_arcs,
    exhaustive_check,
    generate_bounded_omissions,
    symmetric_digraph,
    is_convex,
    mask_nodes,
    node_mask,
    optimal_broadcast_rounds,
    verdict_to_json_dict,
)

from conftest import (
    BLACK,
    WHITE,
    random_connected_symmetric,
    random_event,
)


def _family(base, *events):
    return EventFamily(base, tuple(events))


# ---- broadcastability ------------------------------------------------------------

def test_o1_broadcast_unsolvable(o1):
    verdict = check_broadcastable(o1)
    assert verdict.answer is Answer.UNSOLVABLE
    witness = verdict.witness
    assert isinstance(witness, IncompatibilityWitness)
    assert witness.holds(o1)
    assert len(witness.events) == 2
    assert set(witness.source_masks) == {node_mask([WHITE]), node_mask([BLACK])}


def test_reliable_broadcast_solvable(reliable):
    verdict = check_broadcastable(reliable)
    assert verdict.answer is Answer.SOLVABLE
    assert isinstance(verdict.witness, CommonSourceWitness)
    assert verdict.witness.nodes_mask == 0b11


def test_fig12_broadcast_solvable_everywhere(fig12):
    verdict = check_broadcastable(fig12)
    assert verdict.answer is Answer.SOLVABLE
    assert verdict.witness.nodes_mask == fig12.base.full_mask


def test_no_source_event_wins(two_node, omit_white):
    silent = event_from_arcs(two_node, frozenset())
    verdict = check_broadcastable(_family(two_node, omit_white, silent))
    assert verdict.answer is Answer.UNSOLVABLE
    assert verdict.rule == "no-source-event"
    assert isinstance(verdict.witness, NoSourceEventWitness)
    assert verdict.witness.event == 1


def test_incompatibility_witness_is_minimal_for_k4_f3():
    family = generate_bounded_omissions(complete_digraph(4), 3, "global")
    verdict = check_broadcastable(family)
    witness = verdict.witness
    assert isinstance(witness, IncompatibilityWitness)
    assert witness.holds(family)
    assert len(witness.events) == 2


def test_incompatibility_witness_with_an_altered_mask_is_refuted():
    family = generate_bounded_omissions(complete_digraph(4), 3, "global")
    witness = check_broadcastable(family).witness
    for pos in range(len(witness.events)):
        for node in range(4):
            masks = list(witness.source_masks)
            masks[pos] ^= 1 << node
            assert not replace(witness, source_masks=tuple(masks)).holds(family)


def test_incompatibility_witness_replays_without_the_family_kernel(o1):
    # Swap the cached family masks of the witness events: a witness built from
    # the swapped masks is still incompatible, yet each event refutes it.
    witness = check_broadcastable(o1).witness
    forged = EventFamily(o1.base, o1.events, o1.names)
    masks = list(o1.source_masks)
    first, second = witness.events
    masks[first], masks[second] = masks[second], masks[first]
    forged.__dict__["source_masks"] = tuple(masks)
    assert witness.holds(forged)
    assert not replace(witness, source_masks=(masks[first], masks[second])).holds(forged)


# ---- consensus -----------------------------------------------------------------------

def test_o1_consensus_unsolvable_via_convexity(o1):
    verdict = check_consensus(o1)
    assert verdict.answer is Answer.UNSOLVABLE
    assert verdict.rule == "convex-broadcast-equivalence"


def test_h_scheme_consensus_condition_only(h_scheme):
    verdict = check_consensus(h_scheme)
    assert verdict.answer is Answer.NECESSARY_CONDITION_HOLDS


def test_consensus_no_source_event(two_node, ok_event):
    silent = event_from_arcs(two_node, frozenset())
    verdict = check_consensus(_family(two_node, ok_event, silent))
    assert verdict.answer is Answer.UNSOLVABLE
    assert verdict.rule == "no-source-event"


def test_fig12_consensus_solvable_by_reduction(fig12):
    """Broadcastable but non-convex: the flooding reduction still applies."""
    assert not is_convex(fig12)
    verdict = check_consensus(fig12)
    assert verdict.answer is Answer.SOLVABLE
    assert verdict.rule == "broadcast-reduction"


def _deaf_node_family(n: int) -> EventFamily:
    """Complete graph; event v silences everything addressed to node v.

    Every event has exactly one source (the deaf node itself), the
    source sets are disjoint, and the remaining nodes cannot tell which
    of the other events happened, so all events share one class.
    """
    g = complete_digraph(n)
    events = tuple(
        event_from_arcs(g, frozenset(a for a in g.arcs if a[1] != v)) for v in range(n)
    )
    return EventFamily(g, events)


def test_consensus_unsolvable_via_class_witness():
    family = _deaf_node_family(3)
    assert not is_convex(family)
    assert check_broadcastable(family).answer is Answer.UNSOLVABLE
    verdict = check_consensus(family)
    assert verdict.answer is Answer.UNSOLVABLE
    assert verdict.rule == "indistinguishable-class-unbroadcastable"
    witness = verdict.witness
    assert isinstance(witness, BetaClassWitness)
    assert witness.class_events == (0, 1, 2)
    assert witness.incompatibility.holds(family)


def test_consensus_never_solvable_for_nonconvex_unbroadcastable():
    rng = random.Random(41)
    for _ in range(60):
        g = random_connected_symmetric(rng, rng.randint(2, 4))
        events = {random_event(rng, g).arcs for _ in range(rng.randint(2, 4))}
        family = EventFamily(
            g, tuple(event_from_arcs(g, arcs) for arcs in sorted(events, key=sorted))
        )
        broadcast = check_broadcastable(family)
        consensus = check_consensus(family)
        if broadcast.answer is Answer.UNSOLVABLE and not is_convex(family):
            assert consensus.answer in (
                Answer.UNSOLVABLE, Answer.NECESSARY_CONDITION_HOLDS,
            )
        if broadcast.answer is Answer.UNSOLVABLE and is_convex(family):
            assert consensus.answer is Answer.UNSOLVABLE


def test_verdict_json_payloads(h_scheme):
    condition = check_consensus(h_scheme)
    payload = verdict_to_json_dict(condition, h_scheme)
    assert payload["answer"] == "necessary-condition-holds"
    assert payload["exit_code"] == 3
    class_case = check_consensus(_deaf_node_family(3))
    family = _deaf_node_family(3)
    payload = verdict_to_json_dict(class_case, family)
    assert payload["witness"]["kind"] == "class-unbroadcastable"
    assert payload["witness"]["incompatibility"]["kind"] == "source-incompatible"


# ---- adversarial flooding game ----------------------------------------------------------

def test_fig12_rounds_per_source(fig12):
    game = BroadcastGame(fig12)
    assert [game.rounds_from(u) for u in range(4)] == [3, 3, 2, 2]


def test_h_scheme_stalls_forever(h_scheme):
    game = BroadcastGame(h_scheme)
    assert game.rounds_from(WHITE) == UNBOUNDED
    assert game.rounds_from(BLACK) == UNBOUNDED


def test_optimal_broadcast_fig12(fig12):
    # Both c and d achieve two rounds; the lower index wins the tie.
    assert optimal_broadcast_rounds(fig12) == (2, 2)


def test_optimal_broadcast_reliable(reliable):
    assert optimal_broadcast_rounds(reliable) == (0, 1)


def test_optimal_broadcast_unsolvable(o1):
    assert optimal_broadcast_rounds(o1) is None


def test_game_finite_iff_common_source():
    rng = random.Random(43)
    for _ in range(60):
        g = random_connected_symmetric(rng, rng.randint(2, 5))
        events = {random_event(rng, g, 0.7).arcs for _ in range(rng.randint(1, 3))}
        family = EventFamily(
            g, tuple(event_from_arcs(g, arcs) for arcs in sorted(events, key=sorted))
        )
        common = family.common_sources_mask()
        game = BroadcastGame(family)
        for u in range(g.node_count):
            value = game.rounds_from(u)
            if common >> u & 1:
                assert value != UNBOUNDED
                assert value <= g.node_count - 1
                assert value <= len(family) * g.node_count
            else:
                assert value == UNBOUNDED


def test_game_respects_node_budget(fig12):
    with pytest.raises(BudgetExceededError, match="max_game_nodes: 4 > 3"):
        BroadcastGame(fig12, Budget(max_game_nodes=3))


def test_adding_events_is_monotone():
    rng = random.Random(47)
    for _ in range(40):
        g = random_connected_symmetric(rng, rng.randint(2, 4))
        events = [random_event(rng, g, 0.7)]
        family = _family(g, *events)
        extra = random_event(rng, g, 0.7)
        if extra.arcs in {ev.arcs for ev in events}:
            continue
        bigger = _family(g, *events, extra)
        assert bigger.common_sources_mask() & family.common_sources_mask() == (
            bigger.common_sources_mask()
        )
        if check_broadcastable(family).answer is Answer.UNSOLVABLE:
            assert check_broadcastable(bigger).answer is Answer.UNSOLVABLE


# ---- first reduction ----------------------------------------------------------------------

def test_broadcast_reduction_protocol_passes(fig12):
    """Whenever broadcast is solvable, flooding-then-decide solves consensus
    at the computed round count."""
    source, rounds = optimal_broadcast_rounds(fig12)
    protocol = broadcast_consensus(source, rounds)
    report = exhaustive_check(protocol, fig12, rounds)
    assert report.passed
    assert report.runs == len(fig12) ** rounds * 16


def test_broadcast_reduction_on_random_families():
    rng = random.Random(53)
    checked = 0
    for _ in range(40):
        g = random_connected_symmetric(rng, rng.randint(2, 4))
        events = {random_event(rng, g, 0.8).arcs for _ in range(rng.randint(1, 2))}
        family = EventFamily(
            g, tuple(event_from_arcs(g, arcs) for arcs in sorted(events, key=sorted))
        )
        best = optimal_broadcast_rounds(family)
        if best is None or len(family) ** best[1] * 2 ** g.node_count > 50_000:
            continue
        protocol = broadcast_consensus(best[0], best[1])
        assert exhaustive_check(protocol, family, best[1]).passed
        checked += 1
    assert checked >= 10


# ---- connectivity sweep ----------------------------------------------------------------------

def test_connectivity_sweep_c4():
    rows = connectivity_threshold_check(cycle_digraph(4), 2)
    assert [(r.f, r.answer is Answer.SOLVABLE) for r in rows] == [
        (0, True), (1, True), (2, False),
    ]
    assert all(r.agrees for r in rows)


def test_connectivity_sweep_k4():
    rows = connectivity_threshold_check(complete_digraph(4), 3)
    assert [r.answer is Answer.SOLVABLE for r in rows] == [True, True, True, False]
    assert all(r.agrees for r in rows)


def test_connectivity_sweep_respects_family_cap():
    with pytest.raises(BudgetExceededError, match="max_family_events: 13 > 10"):
        connectivity_threshold_check(complete_digraph(4), 3, budget=Budget(max_family_events=10))


def test_connectivity_sweep_bowtie_follows_arc_connectivity():
    # Node 0 cuts the bowtie (vertex connectivity 1), but no single arc
    # omission does (arc connectivity 2), so consensus survives f=1.
    bowtie = symmetric_digraph(5, [(0, 1), (1, 2), (2, 0), (0, 3), (3, 4), (4, 0)])
    rows = connectivity_threshold_check(bowtie, 2)
    assert [(r.f, r.answer is Answer.SOLVABLE, r.expected_solvable) for r in rows] == [
        (0, True, True), (1, True, True), (2, False, False),
    ]
    assert all(r.agrees for r in rows)


@st.composite
def connected_symmetric_graphs(draw):
    n = draw(st.integers(2, 5))
    tree = {(draw(st.integers(0, v - 1)), v) for v in range(1, n)}
    extra = draw(st.sets(st.sampled_from(list(combinations(range(n), 2)))))
    return symmetric_digraph(n, tree | extra)


@settings(derandomize=True, max_examples=20, deadline=None)
@given(connected_symmetric_graphs())
def test_connectivity_prediction_matches_consensus_verdicts(g):
    # Sweeping up to f = arc connectivity covers both sides of the threshold.
    rows = connectivity_threshold_check(g, arc_connectivity(g))
    assert all(r.agrees for r in rows)
    assert rows[-1].answer is Answer.UNSOLVABLE
