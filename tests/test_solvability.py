from __future__ import annotations

import random
from collections import Counter
from functools import reduce
from itertools import combinations
from operator import and_

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
    InputError,
    NoSourceEventWitness,
    arc_connectivity,
    beta_partition,
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
from omlab import solvability
from omlab.bundled import load_family

from conftest import (
    BLACK,
    WHITE,
    random_connected_symmetric,
    random_event,
)


def _family(base, *events):
    return EventFamily(base, [ev.arc_mask for ev in events])


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


def test_no_source_witness_is_the_first_event_without_sources():
    rng = random.Random(43)
    firsts = Counter()
    for _ in range(200):
        g = random_connected_symmetric(rng, rng.randint(2, 5))
        masks = sorted({random_event(rng, g).arc_mask for _ in range(rng.randint(1, 6))})
        rng.shuffle(masks)
        family = EventFamily(g, masks)
        own = [ev.sources_mask for ev in family.events]
        first = own.index(0) if 0 in own else None
        for verdict in (check_broadcastable(family), check_consensus(family)):
            assert (verdict.rule == "no-source-event") == (first is not None)
            if first is not None:
                assert verdict.witness == NoSourceEventWitness(first)
        firsts[first] += 1
    assert firsts[None] > 50 and firsts[0] > 20 and 200 - firsts[None] - firsts[0] > 20


def test_convex_consensus_reads_no_per_event_source_masks():
    family = generate_bounded_omissions(complete_digraph(5), 2)
    assert check_consensus(family).rule == "convex-broadcast-equivalence"
    assert "source_masks" not in vars(family)


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
            assert not witness._replace(source_masks=tuple(masks)).holds(family)


def test_incompatibility_witness_replays_without_the_family_kernel(o1):
    # Swap the cached family masks of the witness events: a witness built from
    # the swapped masks is still incompatible, yet each event refutes it.
    witness = check_broadcastable(o1).witness
    forged = EventFamily(o1.base, o1.masks, o1.names)
    masks = list(o1.source_masks)
    first, second = witness.events
    masks[first], masks[second] = masks[second], masks[first]
    forged.__dict__["source_masks"] = tuple(masks)
    assert witness.holds(forged)
    assert not witness._replace(source_masks=(masks[first], masks[second])).holds(forged)


def _sources_family(n: int, source_sets) -> EventFamily:
    """K_n with one event per source set S, holding every arc out of S.

    On a complete graph a node of S reaches everyone in one hop and a node
    outside S sends nothing, so the event's sources are exactly S.
    """
    g = complete_digraph(n)
    return EventFamily(
        g, [event_from_arcs(g, (a for a in g.arcs if a[0] in s)).arc_mask for s in source_sets]
    )


# Each event misses the listed nodes as sources.  A greedy irredundant pass
# keeps 8 events; the smallest incompatible subset has 6.
K14_MISSING = [
    [5, 10, 13], [1, 9, 13], [2, 8, 13], [4, 7, 13], [6, 13], [0, 5, 13], [1, 4, 13],
    [11, 12], [5, 7, 12], [4, 5, 12], [6, 10, 11], [2, 10, 11], [7, 11], [0, 4, 11],
    [1, 11], [7, 9, 10], [6, 8, 10], [4, 7, 10], [4, 5, 10], [1, 5, 10], [5, 8, 9],
    [2, 8, 9], [6, 7, 9], [5, 7, 8], [0, 5, 8], [5, 6], [4, 6], [2, 5], [3],
]


def _k14_family() -> EventFamily:
    return _sources_family(14, [set(range(14)) - set(m) for m in K14_MISSING])


def _random_sources_families():
    rng = random.Random(47)
    families = []
    while len(families) < 120:
        n = rng.randint(3, 7)
        sets = {frozenset(rng.sample(range(n), rng.randint(n // 2, n - 1)))
                for _ in range(rng.randint(2, 14))}
        if not frozenset.intersection(*sets):
            families.append(_sources_family(n, rng.sample(sorted(sets, key=sorted), len(sets))))
    return families


def _reference_witness(family: EventFamily) -> tuple[int, ...]:
    """The first smallest combination of inclusion-minimal source sets, by brute force."""
    representative = {}
    for idx, mask in enumerate(family.source_masks):
        representative.setdefault(mask, idx)
    masks = sorted(representative)
    minimal = [m for m in masks if not any(o != m and o & m == o for o in masks)]
    for size in range(2, len(minimal) + 1):
        for chosen in combinations(minimal, size):
            if reduce(and_, chosen) == 0:
                return tuple(sorted(representative[m] for m in chosen))
    raise AssertionError("broadcastable family")


def _brute_force_minimum(family: EventFamily) -> int:
    """The fewest events, over all subsets of the family, whose source sets share no node."""
    distinct = sorted(set(family.source_masks))
    return next(
        size for size in range(2, len(distinct) + 1)
        if any(reduce(and_, chosen) == 0 for chosen in combinations(distinct, size))
    )


@pytest.mark.parametrize(
    "family",
    [
        load_family("O1-2node"),
        generate_bounded_omissions(cycle_digraph(5), 2, "global"),
        generate_bounded_omissions(complete_digraph(4), 3, "global"),
        _k14_family(),
        *_random_sources_families(),
    ],
    ids=lambda family: f"n{family.base.node_count}-e{len(family)}",
)
def test_incompatible_subset_is_the_first_minimum_combination(family):
    witness = check_broadcastable(family).witness
    assert isinstance(witness, IncompatibilityWitness) and witness.holds(family)
    assert len(witness.events) == _brute_force_minimum(family)
    for dropped in range(len(witness.source_masks)):
        inter = family.base.full_mask
        for pos, mask in enumerate(witness.source_masks):
            if pos != dropped:
                inter &= mask
        assert inter != 0
    assert witness.events == _reference_witness(family)


def test_incompatible_subset_search_is_capped_by_max_game_nodes():
    family = _k14_family()
    with pytest.raises(BudgetExceededError, match="^max_game_nodes"):
        check_broadcastable(family, Budget(max_game_nodes=3))
    # Both consensus paths that search pass the budget on: a convex family and a class.
    convex = generate_bounded_omissions(cycle_digraph(21), 2, "global")
    deaf = _deaf_node_family(5)
    assert check_consensus(deaf).rule == "indistinguishable-class-unbroadcastable"
    for family in (convex, deaf):
        with pytest.raises(BudgetExceededError, match="^max_game_nodes"):
            check_consensus(family, budget=Budget(max_game_nodes=2))
    with pytest.raises(BudgetExceededError, match="^max_game_nodes"):
        connectivity_threshold_check(cycle_digraph(21), 2, Budget(max_game_nodes=2))
    # Past 20 nodes the search holds few intersections, so the default budget answers.
    for n in (21, 24):
        family = generate_bounded_omissions(cycle_digraph(n), 2, "global")
        broadcast = check_broadcastable(family, Budget())
        consensus = check_consensus(family, budget=Budget())
        assert broadcast.rule == "source-incompatible"
        assert consensus.rule == "convex-broadcast-equivalence"
        assert consensus.witness == broadcast.witness


def test_incompatibility_witness_refuses_forged_indices(o1):
    witness = check_broadcastable(o1).witness
    assert witness.events == (1, 2) and witness.holds(o1)
    assert not witness._replace(events=(-2, -1)).holds(o1)
    extra = witness._replace(source_masks=witness.source_masks + (o1.source_masks[0],))
    assert not extra.holds(o1)
    assert not witness._replace(events=(1, len(o1))).holds(o1)


def test_incompatibility_witness_refuses_a_claimed_source_set_smaller_than_the_true_one(
    two_node, ok_event, omit_black
):
    # {full, white -> black}: white is a source of both.  Claiming only
    # {black} for the full event forges a disjoint pair.
    family = _family(two_node, ok_event, omit_black)
    assert family.source_masks == (0b11, 0b01)
    assert not IncompatibilityWitness((0, 1), (0b10, 0b01)).holds(family)


def test_incompatibility_witness_refuses_an_event_with_no_source(two_node, ok_event):
    # An event with no source is a no-source witness, not an incompatible subset.
    family = _family(two_node, ok_event, event_from_arcs(two_node, frozenset()))
    assert family.source_masks[1] == 0
    assert not IncompatibilityWitness((1,), (0,)).holds(family)

# ---- consensus -----------------------------------------------------------------------

def test_o1_consensus_unsolvable_via_convexity(o1):
    verdict = check_consensus(o1)
    assert verdict.answer is Answer.UNSOLVABLE
    assert verdict.rule == "convex-broadcast-equivalence"


def test_h_scheme_consensus_condition_only(h_scheme):
    verdict = check_consensus(h_scheme)
    assert verdict.answer is Answer.NECESSARY_CONDITION_HOLDS


def test_consensus_no_source_event(two_node, ok_event, monkeypatch):
    silent = event_from_arcs(two_node, frozenset())
    family = _family(two_node, ok_event, silent)
    searches = []
    first_unsourced = solvability._first_unsourced_event
    monkeypatch.setattr(solvability, "_first_unsourced_event",
                        lambda family: searches.append(1) or first_unsourced(family))
    verdict = check_consensus(family)
    assert searches == [1]
    assert verdict.answer is Answer.UNSOLVABLE
    assert verdict.rule == "no-source-event"
    assert verdict == check_broadcastable(family)._replace(problem="consensus")


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
    masks = [event_from_arcs(g, (a for a in g.arcs if a[1] != v)).arc_mask for v in range(n)]
    return EventFamily(g, masks)


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


def test_consensus_searches_only_the_class_for_an_incompatible_subset(monkeypatch):
    """A non-convex family runs one subset search, for the class it reports."""
    k3 = generate_bounded_omissions(complete_digraph(3), 2, "global")
    family = EventFamily(k3.base, k3.masks[::2])
    assert len(family) == 11 and not is_convex(family)
    search = solvability._minimum_incompatible_subset
    searched = []

    def spy(family, members, budget):
        members = tuple(members)
        searched.append(members)
        return search(family, members, budget)

    monkeypatch.setattr(solvability, "_minimum_incompatible_subset", spy)
    verdict = check_consensus(family)
    assert verdict.rule == "indistinguishable-class-unbroadcastable"
    assert verdict.witness.class_events == tuple(range(11))
    assert searched == [tuple(range(11))]


def test_consensus_refuses_a_partition_of_another_family(o1, h_scheme):
    # A class of three events on a family of two: the class loop would index past it.
    with pytest.raises(InputError, match="another family"):
        check_consensus(h_scheme, beta_partition(o1))
    # As many events, but singleton classes: each would read as broadcastable.
    family = _deaf_node_family(3)
    others = generate_bounded_omissions(complete_digraph(3), 2, "global").masks[:3]
    other = EventFamily(family.base, others)
    assert beta_partition(other).classes == ((0,), (1,), (2,))
    with pytest.raises(InputError, match="another family"):
        check_consensus(family, beta_partition(other))
    # A partition of an equal family is the family's own.
    twin = EventFamily(family.base, family.masks)
    verdict = check_consensus(family, beta_partition(twin))
    assert verdict.rule == "indistinguishable-class-unbroadcastable"


def test_consensus_never_solvable_for_nonconvex_unbroadcastable():
    rng = random.Random(41)
    for _ in range(60):
        g = random_connected_symmetric(rng, rng.randint(2, 4))
        events = {random_event(rng, g).arc_mask for _ in range(rng.randint(2, 4))}
        family = EventFamily(g, sorted(events, key=mask_nodes))
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
    assert [game.value(1 << u) for u in range(4)] == [3, 3, 2, 2]


def test_h_scheme_stalls_forever(h_scheme):
    game = BroadcastGame(h_scheme)
    assert game.value(1 << WHITE) == UNBOUNDED
    assert game.value(1 << BLACK) == UNBOUNDED


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
        events = {random_event(rng, g, 0.7).arc_mask for _ in range(rng.randint(1, 3))}
        family = EventFamily(g, sorted(events, key=mask_nodes))
        common = family.common_sources_mask()
        game = BroadcastGame(family)
        for u in range(g.node_count):
            value = game.value(1 << u)
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
        if extra.arc_mask in {ev.arc_mask for ev in events}:
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
        events = {random_event(rng, g, 0.8).arc_mask for _ in range(rng.randint(1, 2))}
        family = EventFamily(g, sorted(events, key=mask_nodes))
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
