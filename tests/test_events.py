from __future__ import annotations

import random
from dataclasses import fields
from math import comb

import pytest

from omlab import (
    Budget,
    BudgetExceededError,
    Digraph,
    Event,
    EventFamily,
    cli,
    complete_digraph,
    convexity_violation,
    event_from_arcs,
    exhaustive_check,
    family_from_json_dict,
    family_to_json_dict,
    flooding,
    generate_bounded_omissions,
    hypercube_digraph,
    is_convex,
    mask_nodes,
    node_mask,
    run,
    symmetric_digraph,
)
from omlab.events import _arc_order
from omlab.simulator import _check_run

from conftest import BLACK, WHITE, random_connected_symmetric


# ---- events -----------------------------------------------------------------

def test_event_arcs_must_be_subset(two_node):
    with pytest.raises(ValueError):
        event_from_arcs(two_node, frozenset({(0, 1), (1, 1)}))


def test_event_is_its_arc_mask():
    assert [f.name for f in fields(Event)] == ["base", "arc_mask"]
    rng = random.Random(11)
    for _ in range(50):
        g = random_connected_symmetric(rng, rng.randint(2, 6))
        arcs = frozenset(a for a in g.arcs if rng.random() < 0.6)
        event = event_from_arcs(g, arcs)
        assert event == Event(g, event.arc_mask)
        assert event.arcs == arcs
        assert event.sorted_arcs == tuple(sorted(arcs))
        assert event.omitted_arcs == tuple(sorted(g.arcs - arcs))
        assert event.out_masks == tuple(
            node_mask(h for t, h in arcs if t == u) for u in range(g.node_count)
        )
        assert event.in_masks == tuple(
            node_mask(t for t, h in arcs if h == u) for u in range(g.node_count)
        )


def test_event_mask_must_fit_the_base(two_node):
    assert Event(two_node, 0b11).arcs == two_node.arcs
    for mask in (-1, 0b100):
        with pytest.raises(ValueError):
            Event(two_node, mask)


def test_arc_order_sorts_like_arc_tuples():
    rng = random.Random(3)
    wide = [rng.getrandbits(300) for _ in range(2000)]
    # Masks sharing long prefixes, and prefixes of one another.
    wide += [m >> rng.randrange(300) << rng.randrange(4) for m in wide[:500]]
    for masks in (list(range(1 << 10)), wide):
        rng.shuffle(masks)
        assert sorted(masks, key=_arc_order) == sorted(masks, key=mask_nodes)


def test_event_sources(omit_white, omit_black, ok_event):
    assert omit_white.sources_mask == node_mask([BLACK])
    assert omit_black.sources_mask == node_mask([WHITE])
    assert ok_event.sources_mask == node_mask([WHITE, BLACK])


def test_empty_event_has_no_source(two_node):
    assert event_from_arcs(two_node, frozenset()).sources_mask == 0


def test_family_rejects_duplicates(two_node, ok_event):
    with pytest.raises(ValueError):
        EventFamily(two_node, (ok_event, event_from_arcs(two_node, two_node.arcs)))


def test_family_rejects_no_events(two_node):
    with pytest.raises(ValueError, match="at least one event"):
        EventFamily(two_node, ())


def test_family_rejects_foreign_base(two_node, ok_event):
    other = complete_digraph(2)
    with pytest.raises(ValueError):
        EventFamily(other, (ok_event,))


def test_family_compares_bases_by_value(two_node, ok_event):
    twin = symmetric_digraph(2, [(0, 1)], labels=("white", "black"))
    assert twin == two_node and twin is not two_node
    assert EventFamily(twin, (ok_event,)).events == (ok_event,)
    one_way = Digraph(2, frozenset({(0, 1)}), ("white", "black"))
    with pytest.raises(ValueError, match="share the family's base graph"):
        EventFamily(one_way, (event_from_arcs(one_way, one_way.arcs), ok_event))


def test_family_names_and_lookup(o1):
    assert o1.names == ("ok", "omit-white", "omit-black")
    assert o1.name_index["omit-black"] == 2
    assert o1.mask_index[o1.events[1].arc_mask] == 1


# ---- convexity -----------------------------------------------------------------

def test_o1_is_convex(o1):
    assert is_convex(o1)


def test_h_scheme_not_convex(h_scheme):
    violation = convexity_violation(h_scheme)
    assert violation is not None
    left = h_scheme.events[violation.left]
    right = h_scheme.events[violation.right]
    # The violation must be replayable: the arc comes from the right event
    # and adding it to the left event leaves the family.
    assert violation.arc in right.arcs
    grown = left.arcs | {violation.arc}
    assert grown not in {ev.arcs for ev in h_scheme.events}


def test_singleton_family_is_convex(two_node, omit_white):
    assert is_convex(EventFamily(two_node, (omit_white,)))


def test_convexity_rejects_empty_family(two_node):
    with pytest.raises(ValueError):
        is_convex(EventFamily(two_node, ()))


# ---- bounded omission generator ---------------------------------------------------

def test_two_node_one_omission_is_o1(two_node, o1):
    family = generate_bounded_omissions(two_node, 1, "global")
    assert {ev.arcs for ev in family} == {ev.arcs for ev in o1}


def test_zero_omissions_is_base_only(two_node):
    family = generate_bounded_omissions(two_node, 0, "global")
    assert len(family) == 1
    assert family.events[0].arcs == two_node.arcs


def test_hypercube_one_omission_count():
    q3 = hypercube_digraph(3)
    family = generate_bounded_omissions(q3, 1, "global")
    assert len(family) == 1 + 24


def test_global_count_formula():
    rng = random.Random(23)
    for _ in range(20):
        g = random_connected_symmetric(rng, rng.randint(2, 4))
        f = rng.randint(0, 2)
        family = generate_bounded_omissions(g, f, "global")
        assert len(family) == sum(comb(len(g.arcs), k) for k in range(f + 1))


def test_send_metric_two_node(two_node):
    family = generate_bounded_omissions(two_node, 1, "send")
    # Each node may drop its single out-arc or not: 4 events incl. silence.
    assert len(family) == 4
    assert frozenset() in {ev.arcs for ev in family}


def test_recv_metric_matches_send_on_symmetric_two_node(two_node):
    send = generate_bounded_omissions(two_node, 1, "send")
    recv = generate_bounded_omissions(two_node, 1, "recv")
    assert {ev.arcs for ev in send} == {ev.arcs for ev in recv}


@pytest.mark.parametrize("metric", ["global", "send", "recv"])
def test_bounded_families_are_convex(metric):
    rng = random.Random(29)
    for _ in range(12):
        g = random_connected_symmetric(rng, rng.randint(2, 5))
        f = rng.randint(0, 2)
        family = generate_bounded_omissions(g, f, metric, budget=Budget(max_family_events=1 << 16))
        assert is_convex(family)


def test_family_cap_names_its_cap():
    q3 = hypercube_digraph(3)
    with pytest.raises(BudgetExceededError, match="max_family_events: 2,325 > 100"):
        generate_bounded_omissions(q3, 3, "global", budget=Budget(max_family_events=100))


def test_negative_bound_rejected(two_node):
    with pytest.raises(ValueError):
        generate_bounded_omissions(two_node, -1)


def test_generator_output_is_canonically_ordered(two_node):
    k4 = complete_digraph(4)
    families = [generate_bounded_omissions(two_node, 2, "global")]
    families += [generate_bounded_omissions(k4, 2, metric) for metric in ("global", "send", "recv")]
    for family in families:
        orders = [ev.sorted_arcs for ev in family]
        assert orders == sorted(orders)
        assert family.canonical_order == tuple(range(len(family)))
    shuffled = list(families[1].events)
    random.Random(4).shuffle(shuffled)
    family = EventFamily(k4, tuple(shuffled))
    assert [shuffled[i] for i in family.canonical_order] == list(families[1].events)


# ---- initial configurations: input tuples ---------------------------------------------

def test_initial_config_validation(o1):
    """``run`` takes exactly one 0/1 input value per node."""
    for init in [(0,), (0, 1, 1), (0, 2)]:
        with pytest.raises(ValueError, match="not one 0/1 value per node"):
            run(flooding(0, 1), o1, (0,), init)


def test_initial_config_uniform_detection():
    """Validity binds only uniform inputs."""
    decided_zero = [(0, 1)] * 3
    assert [v.kind for v in _check_run((0,), (1, 1, 1), decided_zero)] == ["validity"]
    assert _check_run((0,), (0, 1, 1), decided_zero) == []


def test_initial_config_from_mapping(two_node):
    family = EventFamily(two_node, (Event(two_node, 0b11),))
    assert cli._parse_init("white=0,black=1", family) == (0, 1)
    with pytest.raises(cli.CliError, match="missing for nodes: \\['black'\\]"):
        cli._parse_init("white=0", family)


def test_all_initial_configs_enumeration(o1):
    """Sweeps try the inputs in the oracle's order, ``product((0, 1), repeat=n)``."""
    report = exhaustive_check(flooding(0, 0), o1, 0)
    assert [v.init for v in report.violations] == [(0, 0), (0, 1), (1, 0), (1, 1)]


# ---- JSON --------------------------------------------------------------------------

def test_family_json_round_trip(fig12):
    data = family_to_json_dict(fig12)
    again = family_from_json_dict(data)
    assert again == fig12
    assert family_to_json_dict(again) == data


def test_family_json_rejects_bad_arc(two_node):
    data = family_to_json_dict(EventFamily(two_node, (Event(two_node, 0b11),)))
    data["events"][0]["arcs"].append(["white", "nope"])
    with pytest.raises(ValueError):
        family_from_json_dict(data)
