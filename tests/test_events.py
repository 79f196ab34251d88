from __future__ import annotations

import json
import random
from collections import Counter
from dataclasses import fields, replace
from math import comb

import pytest

from omlab import (
    BetaClassWitness,
    Budget,
    BudgetExceededError,
    Digraph,
    Event,
    EventFamily,
    IncompatibilityWitness,
    InputError,
    beta_partition,
    check_broadcastable,
    check_consensus,
    cli,
    complete_digraph,
    cycle_digraph,
    dot,
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
    optimal_broadcast_rounds,
    path_digraph,
    run,
    symmetric_digraph,
    verdict_to_json_dict,
)
from omlab.bundled import NAMES, load_family
from omlab.events import _count_bounded
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
        assert event.sorted_arcs == tuple(sorted(arcs))
        assert event.omitted_arcs == tuple(sorted(g.arcs - arcs))
        assert event.out_masks == tuple(
            node_mask(h for t, h in arcs if t == u) for u in range(g.node_count)
        )
        assert event.in_masks == tuple(
            node_mask(t for t, h in arcs if h == u) for u in range(g.node_count)
        )


def test_event_mask_must_fit_the_base(two_node):
    assert Event(two_node, 0b11).sorted_arcs == two_node.sorted_arcs
    for mask in (-1, 0b100):
        with pytest.raises(ValueError):
            Event(two_node, mask)


def test_event_sources(omit_white, omit_black, ok_event):
    assert omit_white.sources_mask == node_mask([BLACK])
    assert omit_black.sources_mask == node_mask([WHITE])
    assert ok_event.sources_mask == node_mask([WHITE, BLACK])


def test_empty_event_has_no_source(two_node):
    assert event_from_arcs(two_node, frozenset()).sources_mask == 0


def test_family_rejects_duplicates(two_node, ok_event):
    with pytest.raises(ValueError):
        EventFamily(two_node, (ok_event.arc_mask, 0b11))


def test_family_rejects_no_events(two_node):
    with pytest.raises(ValueError, match="at least one event"):
        EventFamily(two_node, ())


def test_family_compares_bases_by_value(two_node, ok_event):
    twin = symmetric_digraph(2, [(0, 1)], labels=("white", "black"))
    assert twin == two_node and twin is not two_node
    family = EventFamily(twin, [0b11, 0b01])
    assert family == EventFamily(two_node, (0b11, 0b01))
    assert hash(family) == hash(EventFamily(two_node, (0b11, 0b01)))
    assert family.events[0] == ok_event


def test_family_stores_its_masks_and_builds_the_view_when_read(o1):
    family = EventFamily(o1.base, iter(o1.masks), iter(o1.names))
    assert family == o1 and family.masks == (0b11, 0b10, 0b01)
    assert family.names == ("ok", "omit-white", "omit-black")
    assert "events" not in family.__dict__
    assert family.events == tuple(Event(o1.base, x) for x in o1.masks)


@pytest.mark.parametrize(
    "masks, names, message",
    [
        ((), None, "an event family needs at least one event"),
        ((0b11, -1, -2), None, "arc mask -0x1 out of range for 2 base arcs"),
        ((0b100, 0b11, 0b1000), None, "arc mask 0x4 out of range for 2 base arcs"),
        ((0b11, 0b01, 0b11), None, "duplicate events in family: E0 and E2"),
        ((0b11, 0b01, 0b11), ("x", "y", "z"), "duplicate events in family: x and z"),
        ((0b11, 0b01), ("ok",), "names must cover every event"),
        ((0b11, 0b01, 0b10), ("ok", "no", "ok"), "event names must be unique: 'ok' repeated"),
    ],
    ids=["empty", "negative", "too-large", "duplicate", "duplicate-named", "names-short",
         "names-repeated"],
)
def test_family_from_masks_rejects_what_the_event_path_rejects(two_node, masks, names, message):
    """Each fault's message, pinned; the first mask out of range gets the
    message ``Event(base, x)`` gives it."""
    with pytest.raises(ValueError) as caught:
        EventFamily(two_node, masks, names)
    assert str(caught.value) == message
    bad = [x for x in masks if not 0 <= x < 4]
    if bad:
        with pytest.raises(ValueError) as from_event:
            Event(two_node, bad[0])
        assert str(from_event.value) == message


def _partition_mix_style() -> EventFamily:
    """A parsed JSON family: the first of seeded 20-event subsets of K4 f=3
    with no common source."""
    full = generate_bounded_omissions(complete_digraph(4), 3)
    rng = random.Random(1)
    while True:
        subset = EventFamily(full.base, rng.sample(full.masks, 20))
        if not subset.common_sources_mask():
            return family_from_json_dict(json.loads(json.dumps(family_to_json_dict(subset))))


@pytest.mark.parametrize(
    "build",
    [
        lambda: generate_bounded_omissions(complete_digraph(4), 2, "global"),
        lambda: generate_bounded_omissions(cycle_digraph(6), 2, "recv"),
        _partition_mix_style,
    ],
    ids=["K4-f2-global", "C6-f2-recv", "parsed-subset"],
)
def test_timed_pipelines_never_build_the_event_view(build):
    family = build()
    family.source_masks
    broadcast = check_broadcastable(family)
    partition = beta_partition(family)
    verdicts = [broadcast, check_consensus(family), check_consensus(family, partition)]
    optimal_broadcast_rounds(family)
    for verdict in verdicts:
        verdict_to_json_dict(verdict, family)
        # Readers of one event build that Event alone, not the view.
        dot.verdict_dot(verdict, family)
        witness = verdict.witness
        if isinstance(witness, BetaClassWitness):
            witness = witness.incompatibility
        if isinstance(witness, IncompatibilityWitness):
            assert witness.holds(family)
    partition.to_json_dict()
    # The partition's replay builds one Event per witness, not the view.
    assert partition.verify()
    assert all(edge.holds(family) for edges in partition.class_edges for edge in edges)
    assert "events" not in family.__dict__


def test_family_names_and_lookup(o1):
    assert o1.names == ("ok", "omit-white", "omit-black")
    assert o1.name_index["omit-black"] == 2


# ---- convexity -----------------------------------------------------------------

def test_o1_is_convex(o1):
    assert is_convex(o1)


def test_h_scheme_not_convex(h_scheme):
    assert not is_convex(h_scheme)


def test_singleton_family_is_convex(two_node, omit_white):
    assert is_convex(EventFamily(two_node, (omit_white.arc_mask,)))


def test_convexity_rejects_empty_family(two_node):
    with pytest.raises(ValueError):
        is_convex(EventFamily(two_node, ()))


# ---- bounded omission generator ---------------------------------------------------

def test_two_node_one_omission_is_o1(two_node, o1):
    family = generate_bounded_omissions(two_node, 1, "global")
    assert set(family.masks) == set(o1.masks)


def test_zero_omissions_is_base_only(two_node):
    family = generate_bounded_omissions(two_node, 0, "global")
    assert len(family) == 1
    assert family.events[0].sorted_arcs == two_node.sorted_arcs


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
    assert 0 in family.masks


def test_recv_metric_matches_send_on_symmetric_two_node(two_node):
    send = generate_bounded_omissions(two_node, 1, "send")
    recv = generate_bounded_omissions(two_node, 1, "recv")
    assert set(send.masks) == set(recv.masks)


CONVEXITY_GRAPHS = (
    [complete_digraph(n) for n in range(3, 7)]
    + [cycle_digraph(n) for n in range(4, 9)]
    + [hypercube_digraph(3)]
)


@pytest.mark.parametrize("metric", ["global", "send", "recv"])
def test_bounded_families_are_convex(metric):
    """The generator's families pass the scan, not just the answer they carry."""
    cap = Budget(max_family_events=70_000)
    scanned = 0
    for g in CONVEXITY_GRAPHS:
        for f in range(4):
            try:
                family = generate_bounded_omissions(g, f, metric, budget=cap)
            except BudgetExceededError:
                continue  # K5, K6 and Q3 past f = 1 under send and recv
            assert EventFamily(family.base, family.masks).convex, (g.node_count, f)
            scanned += 1
    assert scanned == {"global": 40, "send": 34, "recv": 34}[metric]


def test_generated_family_carries_its_convexity():
    family = generate_bounded_omissions(complete_digraph(4), 2)
    assert vars(family)["convex"] is True
    full = (1 << len(family.base.arcs)) - 1
    rest = [mask for mask in family.masks if mask != full]
    assert EventFamily(family.base, rest).convex is False
    assert replace(family, masks=rest).convex is False
    assert "convex" not in vars(replace(family))
    # The answer is read, not scanned: a scan of these masks would answer False.
    object.__setattr__(family, "masks", tuple(rest))
    assert is_convex(family)


def test_generated_families_pass_every_check_the_generator_skips():
    """The generator builds its family without the constructor's checks:
    the one constructor, run on the same masks, must build an equal family."""
    cap = Budget(max_family_events=70_000)
    c8_2 = symmetric_digraph(8, [(i, (i + k) % 8) for i in range(8) for k in (1, 2)])
    cases = [(g, f, metric) for g in CONVEXITY_GRAPHS for f in range(4)
             for metric in ("global", "send", "recv")]
    cases += [(c8_2, 3, "global"), (cycle_digraph(8), 1, "recv")]
    built = 0
    for g, f, metric in cases:
        try:
            family = generate_bounded_omissions(g, f, metric, budget=cap)
        except BudgetExceededError:
            continue
        # Every field, and nothing else but the preset answer.
        assert set(vars(family)) == {"base", "masks", "names", "convex"} == {
            field.name for field in fields(EventFamily)
        } | {"convex"}
        assert type(family.masks) is tuple and family.names is None
        assert EventFamily(family.base, family.masks) == family, (g.node_count, f, metric)
        with pytest.raises(InputError, match="duplicate events in family"):
            replace(family, masks=family.masks + family.masks[-1:])
        built += 1
    assert built == 40 + 34 + 34 + 2


def test_nonconvex_family_scans_once(h_scheme):
    assert "convex" not in vars(h_scheme)
    assert not is_convex(h_scheme)
    assert vars(h_scheme)["convex"] is False


def test_family_cap_names_its_cap():
    q3 = hypercube_digraph(3)
    with pytest.raises(BudgetExceededError, match="max_family_events: 2,325 > 100"):
        generate_bounded_omissions(q3, 3, "global", budget=Budget(max_family_events=100))


def test_negative_bound_rejected(two_node):
    with pytest.raises(ValueError):
        generate_bounded_omissions(two_node, -1)


def test_metric_groups_are_counted_per_node():
    q3 = hypercube_digraph(3)
    # Each of the 8 nodes keeps 7 of the subsets of its 3 in-arcs: 7^8 events.
    with pytest.raises(BudgetExceededError, match="max_family_events: 5,764,801 > 100"):
        generate_bounded_omissions(q3, 2, "recv", budget=Budget(max_family_events=100))


def test_unknown_metric_rejected(two_node):
    with pytest.raises(ValueError, match="unknown omission metric 'bogus'"):
        generate_bounded_omissions(two_node, 1, "bogus")


GROUP_OF = {"global": lambda arc: 0, "send": lambda arc: arc[0], "recv": lambda arc: arc[1]}


def brute_force_bounded(base: Digraph, metric: str, bounds: range) -> dict[int, list[int]]:
    """Per bound f, every arc mask within each group's cap, sorted by arc tuples."""
    arcs = base.sorted_arcs
    group = GROUP_OF[metric]
    # The most omissions any one group sees, per arc mask.
    worst = [
        max(Counter(group(a) for i, a in enumerate(arcs) if not mask >> i & 1).values(),
            default=0)
        for mask in range(1 << len(arcs))
    ]
    return {f: sorted((m for m, w in enumerate(worst) if w <= f), key=mask_nodes) for f in bounds}


def test_generator_matches_brute_force_reference():
    """The generator's masks in the generator's order, on random asymmetric
    digraphs and on bases that reach each way of entering an arc's group."""
    rng = random.Random(31)
    bases = []
    for _ in range(150):
        n = rng.randint(0, 6)
        pairs = [(u, v) for u in range(n) for v in range(n) if u != v]
        bases.append(Digraph(n, frozenset(rng.sample(pairs, min(len(pairs), rng.randint(0, 10))))))
    # Under recv, arcs (0,2) and (1,2) are consecutive and share head 2,
    # whose higher arc (3,2) is decided before them.
    bases.append(Digraph(4, frozenset({(0, 2), (1, 2), (1, 3), (3, 2)})))
    # Groups of one or two arcs, which f omits whole, so "omit every arc
    # from j on" stays valid across group boundaries.
    bases += [Digraph(5, frozenset((i, (i + 1) % 5) for i in range(5))), path_digraph(4)]
    bases += [cycle_digraph(6), cycle_digraph(7), complete_digraph(4)]
    for base in bases:
        for metric in GROUP_OF:
            for f, expected in brute_force_bounded(base, metric, range(5)).items():
                family = generate_bounded_omissions(base, f, metric)
                assert list(family.masks) == expected, (base, metric, f)


def test_generator_output_is_canonically_ordered(two_node):
    """Below and past brute-force size: strictly increasing arc tuples, one per counted event."""
    k4, k5 = complete_digraph(4), complete_digraph(5)
    cases = [(two_node, 2, "global")] + [(k4, 2, metric) for metric in ("global", "send", "recv")]
    cases += [(complete_digraph(6), 3, "global"), (cycle_digraph(12), 2, "global")]
    cases += [(k5, 2, "send"), (k5, 2, "recv")]
    for base, f, metric in cases:
        family = generate_bounded_omissions(base, f, metric)
        groups = {"global": [(1 << len(base.arcs)) - 1], "send": base.out_arc_bits,
                  "recv": base.in_arc_bits}[metric]
        assert len(family) == _count_bounded([g.bit_count() for g in groups], f)
        tuples = [tuple(base.sorted_arcs[i] for i in mask_nodes(x)) for x in family.masks]
        assert all(a < b for a, b in zip(tuples, tuples[1:])), (base, f, metric)


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
    family = EventFamily(two_node, (0b11,))
    assert cli._parse_init("white=0,black=1", family) == (0, 1)
    with pytest.raises(InputError, match="missing for nodes: \\['black'\\]"):
        cli._parse_init("white=0", family)


def test_all_initial_configs_enumeration(o1):
    """Sweeps try the inputs in the oracle's order, ``product((0, 1), repeat=n)``."""
    report = exhaustive_check(flooding(0, 0), o1, 0)
    assert [v.init for v in report.violations] == [(0, 0), (0, 1), (1, 0), (1, 1)]


# ---- JSON --------------------------------------------------------------------------

def test_family_json_round_trip():
    q3 = generate_bounded_omissions(hypercube_digraph(3), 3)
    assert len(q3) == 2325
    for family in [*map(load_family, NAMES), q3]:
        data = family_to_json_dict(family)
        again = family_from_json_dict(data)
        # A family without names is written with its default names E0, E1, ...
        names = tuple(family.name(i) for i in range(len(family)))
        assert again == EventFamily(family.base, family.masks, names)
        assert family_to_json_dict(again) == data


def test_family_json_rejects_bad_arc(two_node):
    data = family_to_json_dict(EventFamily(two_node, (0b11,)))
    data["events"][0]["arcs"].append(["white", "nope"])
    with pytest.raises(ValueError):
        family_from_json_dict(data)


TWO_NODE_GRAPH = {"nodes": ["white", "black"], "arcs": [["white", "black"], ["black", "white"]]}


@pytest.mark.parametrize(
    "data, message",
    [
        ({"events": []}, "malformed family JSON: 'graph'"),
        ([], "malformed family JSON: not an object"),
        ({"graph": "x", "events": []}, "malformed digraph JSON: not an object"),
        ({"graph": TWO_NODE_GRAPH, "events": 3}, "malformed family JSON: 'events' is not an array"),
        ({"graph": TWO_NODE_GRAPH, "events": [{"name": "a"}]}, "malformed event entry 0: 'arcs'"),
        ({"graph": TWO_NODE_GRAPH, "events": [{"arcs": []}, 3]},
         "malformed event entry 1: not an object"),
        ({"graph": TWO_NODE_GRAPH, "events": ["ab"]}, "malformed event entry 0: not an object"),
        ({"graph": TWO_NODE_GRAPH, "events": [{"arcs": {"white": "black"}}]},
         "malformed event entry 0: 'arcs' is not an array"),
        ({"graph": TWO_NODE_GRAPH, "events": [{"arcs": [["white", "nope"]]}]},
         "malformed event entry 0: unknown node label 'nope'"),
        ({"graph": TWO_NODE_GRAPH, "events": [{"arcs": [["white", 1]]}]},
         "malformed event entry 0: node label 1 is not a string"),
        ({"graph": {"nodes": ["white", "black"], "arcs": [["white", "black"]]},
          "events": [{"arcs": [["black", "white"]]}]},
         "malformed event entry 0: arc ['black', 'white'] is not in the base graph"),
        ({"graph": TWO_NODE_GRAPH, "events": [{"arcs": [["black", "black"]]}]},
         "malformed event entry 0: arc ['black', 'black'] is a self-loop"),
        ({"graph": {"nodes": ["white", "black"], "arcs": [{"white": 1, "black": 2}]},
          "events": [{"arcs": [{"white": 1, "black": 2}]}]},
         "malformed digraph JSON: arc {'white': 1, 'black': 2} is not a pair"),
        ({"graph": TWO_NODE_GRAPH, "events": [{"arcs": [{"white": 1, "black": 2}]}]},
         "malformed event entry 0: arc {'white': 1, 'black': 2} is not a pair"),
        ({"graph": {"nodes": ["white", "white"], "arcs": []}, "events": [{"arcs": []}]},
         "duplicate node names in digraph JSON"),
        ({"graph": {"nodes": [0, 1], "arcs": []}, "events": [{"arcs": []}]},
         "malformed digraph JSON: node label 0 is not a string"),
        ({"graph": {"nodes": ["white", "black"], "arcs": [["white", "white"]]},
          "events": [{"arcs": []}]},
         "malformed digraph JSON: arc ['white', 'white'] is a self-loop"),
        ({"graph": TWO_NODE_GRAPH, "events": [{"name": ["x"], "arcs": []}]},
         "malformed event entry 0: name ['x'] is not a string"),
        ({"graph": TWO_NODE_GRAPH, "events": [{"arcs": []}, {"arcs": []}]},
         "duplicate events in family: E0 and E1"),
        ({"graph": TWO_NODE_GRAPH,
          "events": [{"name": "a", "arcs": []}, {"name": "a", "arcs": [["white", "black"]]}]},
         "event names must be unique: 'a' repeated"),
    ],
    ids=["no-graph", "document-an-array", "graph-a-string", "events-not-a-list",
         "entry-without-arcs", "entry-not-an-object", "entry-a-string", "entry-arcs-an-object",
         "unknown-label", "label-not-a-string", "arc-not-in-base", "event-self-loop",
         "graph-arc-object", "event-arc-object", "graph-duplicate-labels",
         "graph-integer-labels", "graph-self-loop", "name-an-array", "duplicate-events",
         "duplicate-names"],
)
def test_family_json_errors_name_the_fault(data, message, tmp_path, capsys):
    with pytest.raises(ValueError) as caught:
        family_from_json_dict(data)
    assert str(caught.value) == message
    path = tmp_path / "family.json"
    path.write_text(json.dumps(data))
    assert cli.main(["check", "--family", str(path)]) == 64
    assert capsys.readouterr().err == f"omlab: error: {message}\n"


def test_family_json_arc_listed_twice_sets_it_once():
    once = {"graph": TWO_NODE_GRAPH, "events": [{"name": "a", "arcs": [["white", "black"]]}]}
    twice = {"graph": TWO_NODE_GRAPH,
             "events": [{"name": "a", "arcs": [["white", "black"], ["white", "black"]]}]}
    assert family_from_json_dict(twice) == family_from_json_dict(once)


def test_family_json_integer_labels_are_refused():
    """A label is a string: the numbers 0 and 1 are not the labels "0" and "1"."""
    as_ints = {"graph": {"nodes": [0, 1], "arcs": [[0, 1]]},
               "events": [{"arcs": [[0, 1]]}, {"arcs": []}]}
    with pytest.raises(InputError, match="node label 0 is not a string"):
        family_from_json_dict(as_ints)
    as_strs = {"graph": {"nodes": ["0", "1"], "arcs": [["0", "1"]]},
               "events": [{"arcs": [["0", 1]]}, {"arcs": []}]}
    with pytest.raises(InputError, match="node label 1 is not a string"):
        family_from_json_dict(as_strs)


def test_family_names_of_reads_names_in_order(o1):
    assert o1.names_of([2, 0, 2]) == [o1.name(2), o1.name(0), o1.name(2)]
    unnamed = EventFamily(o1.base, o1.masks)
    assert unnamed.names_of(range(3)) == ["E0", "E1", "E2"]
    assert unnamed.names is None
