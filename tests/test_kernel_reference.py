"""Source sets, the family's carrier index, the flooding game, the convexity
test, the oracle's search and the exhaustive check against naive
references.

Each reference is the plain version of its kernel, kept here: one closure
per node and event for source sets, a per-arc scan of every event for
the family's carrier index, one successor per event for the flooding game,
every pair of events and every arc of the second for convexity, a
component search over the nested-tuple views of every
execution for the oracle, and one simulator run per word and input for
the prefix-sharing sweep behind ``check_scenarios`` and
``exhaustive_check``.  The kernels must give the same answers, witnesses
included.
"""
from __future__ import annotations

import random
from itertools import product

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from omlab import (
    UNBOUNDED,
    BroadcastGame,
    Budget,
    BudgetExceededError,
    Digraph,
    EventFamily,
    complete_digraph,
    cycle_digraph,
    event_from_arcs,
    generate_bounded_omissions,
    is_convex,
    mask_nodes,
    optimal_broadcast_rounds,
    path_digraph,
    symmetric_digraph,
)
from omlab import oracle
from omlab.bundled import NAMES, crash_scheme_prefixes, h_one_round, load_family
from omlab.equivalence import _UnionFind
from omlab.graphs import sources_of_arcs
from omlab.oracle import IndistinguishabilityChain, execution_views
from omlab import simulator
from omlab.simulator import (
    CheckReport,
    ProtocolError,
    ProtocolSpec,
    check_scenarios,
    exhaustive_check,
    flooding,
)

from conftest import random_connected_symmetric, random_digraph, random_event
from test_oracle import HORIZON as ORACLE_HORIZON
from test_oracle import random_family


# ---- source sets -------------------------------------------------------------------

def reference_sources(node_count: int, out_masks: tuple[int, ...]) -> int:
    """Nodes whose closure, grown to a fixpoint one node at a time, is every node."""
    full = (1 << node_count) - 1
    found = 0
    for u in range(node_count):
        seen = 1 << u
        while True:
            grown = seen
            for v in range(node_count):
                if seen >> v & 1:
                    grown |= out_masks[v]
            if grown == seen:
                break
            seen = grown
        if seen == full:
            found |= 1 << u
    return found


@st.composite
def digraphs(draw) -> Digraph:
    n = draw(st.integers(1, 7))
    pairs = [(u, v) for u in range(n) for v in range(n) if u != v]
    arcs = draw(st.sets(st.sampled_from(pairs))) if pairs else set()
    return Digraph(n, frozenset(arcs))


@settings(derandomize=True, max_examples=300, deadline=None)
@given(digraphs())
@example(Digraph(1, frozenset()))  # a single node is its own source
@example(Digraph(3, frozenset({(0, 1), (1, 0)})))  # no source: node 2 is cut off
@example(Digraph(4, frozenset({(0, 1), (1, 0), (2, 3), (3, 2), (2, 1)})))  # two SCCs
@example(Digraph(3, frozenset({(1, 0), (1, 2), (2, 1)})))  # node 0 is a sink
@example(Digraph(5, frozenset({(4, 3), (3, 2), (2, 1), (1, 0)})))  # only the last node
def test_sources_match_one_closure_per_node(g):
    expected = reference_sources(g.node_count, g.out_masks)
    assert sources_of_arcs(g.node_count, g.out_masks) == expected


def test_sources_of_random_events_match_reference():
    rng = random.Random(3)
    for _ in range(300):
        base = random_digraph(rng, rng.randint(1, 8), arc_prob=rng.random())
        event = random_event(rng, base, keep_prob=rng.random())
        assert event.sources_mask == reference_sources(base.node_count, event.out_masks)


def family_of_masks(base: Digraph, *arc_masks: int) -> EventFamily:
    return EventFamily(base, arc_masks)


@st.composite
def families(draw) -> EventFamily:
    n = draw(st.integers(0, 6))
    pairs = [(u, v) for u in range(n) for v in range(n) if u != v]
    base = Digraph(n, frozenset(draw(st.sets(st.sampled_from(pairs))) if pairs else ()))
    arc_masks = draw(st.sets(st.integers(0, (1 << len(base.arcs)) - 1), min_size=1, max_size=40))
    return family_of_masks(base, *sorted(arc_masks))


PATH3 = Digraph(3, frozenset({(0, 1), (1, 2)}))


@settings(derandomize=True, max_examples=300, deadline=None)
@given(families())
@example(family_of_masks(Digraph(0, frozenset()), 0))  # no nodes: one empty event, no source
@example(family_of_masks(Digraph(1, frozenset()), 0))  # a single node is its own source
@example(family_of_masks(Digraph(3, frozenset()), 0))  # arcless: nobody reaches anybody
@example(family_of_masks(PATH3, 0b11, 0b01, 0b10))  # only the full path has a source
@example(family_of_masks(cycle_digraph(4), 0xFF, 0x0F, 0xF0, 0x55))  # some events source-less
@example(
    # node 0 is a sink: only node 1 or 2 can be a source
    family_of_masks(Digraph(3, frozenset({(1, 0), (1, 2), (2, 1)})), 0b111, 0b011, 0b110, 0b101)
)
def test_family_source_masks_match_one_closure_per_node(family):
    n = family.base.node_count
    expected = tuple(reference_sources(n, ev.out_masks) for ev in family.events)
    assert family.source_masks == expected
    common = family.base.full_mask
    for mask in expected:
        common &= mask
    assert family.common_sources_mask() == common


def test_family_source_masks_match_on_bounded_families():
    for base in (complete_digraph(4), cycle_digraph(6), PATH3):
        for metric in ("global", "send", "recv"):
            family = generate_bounded_omissions(base, 2, metric)
            assert family.source_masks == tuple(ev.sources_mask for ev in family.events)


def naive_carriers(family: EventFamily) -> tuple[int, ...]:
    """Per arc, the events delivering it, one event at a time."""
    return tuple(
        sum(1 << i for i, ev in enumerate(family.events) if ev.arc_mask >> b & 1)
        for b in range(len(family.base.arcs))
    )


@settings(derandomize=True, max_examples=200, deadline=None)
@given(families())
@example(family_of_masks(Digraph(0, frozenset()), 0))
@example(family_of_masks(Digraph(3, frozenset()), 0))
def test_carriers_match_the_naive_per_arc_index(family):
    assert family.carriers == naive_carriers(family)


def assert_transposes_match(family: EventFamily) -> None:
    assert family.carriers == naive_carriers(family)
    assert family.source_masks == tuple(ev.sources_mask for ev in family.events)


@pytest.mark.parametrize("n", [8, 9, 16, 17, 33, 64, 65, 70])
@pytest.mark.parametrize("shape", [cycle_digraph, path_digraph])
def test_transposes_match_per_event_on_bounded_families_past_a_byte_and_a_word(n, shape):
    # Node counts around the byte and 64-bit word edges of the source-mask transpose.
    for f in (0, 1):
        family = generate_bounded_omissions(shape(n), f)
        assert_transposes_match(family)
    if shape is path_digraph:
        # A path cut at one arc has the nodes on the far side of the cut as sources.
        full = family.base.full_mask
        cuts = {full >> k << k for k in range(1, n)} | {(1 << k) - 1 for k in range(1, n)}
        assert set(family.source_masks) == cuts | {full}


def first_arcs_of_k9(width: int) -> Digraph:
    return Digraph(9, frozenset(complete_digraph(9).sorted_arcs[:width]))


@pytest.mark.parametrize("width", [7, 8, 9, 15, 16, 17, 24, 25, 32, 33, 63, 64, 65])
def test_transposes_match_per_event_at_arc_widths_past_a_byte_and_a_word(width):
    # Arc counts at the edges of the carriers' rows: each array item size
    # (1, 2, 4 and 8 bytes, a 3-byte row in a 4-byte item) and rows past 8 bytes.
    base = first_arcs_of_k9(width)
    rng = random.Random(width)
    full = (1 << width) - 1
    masks = {0, full} | {full & ~(1 << rng.randrange(width)) for _ in range(20)}
    masks |= {rng.getrandbits(width) for _ in range(40)}
    family = EventFamily(base, sorted(masks))
    assert_transposes_match(family)


@pytest.mark.parametrize(
    "family",
    [
        EventFamily(cycle_digraph(70), [(1 << 140) - 1]),
        EventFamily(first_arcs_of_k9(65), [(1 << 65) - 1]),
        EventFamily(Digraph(70, frozenset()), [0]),
        EventFamily(Digraph(0, frozenset()), [0]),
        EventFamily(
            cycle_digraph(70),
            sorted({random_event(random.Random(j), cycle_digraph(70), 0.99).arc_mask
                    for j in range(40)}),
        ),
    ],
    ids=["one-event-70-nodes", "one-event-65-arcs", "no-arcs-70-nodes", "no-nodes",
         "random-events-70-nodes"],
)
def test_transposes_match_per_event_on_edge_families(family):
    assert_transposes_match(family)


# ---- flooding game -------------------------------------------------------------------

def reference_successors(family: EventFamily, state: int) -> set[int]:
    """One successor per event: the state plus the heads of its arcs out of the state."""
    succs = set()
    informed = mask_nodes(state)
    for ev in family.events:
        grown = state
        for u in informed:
            grown |= ev.out_masks[u]
        succs.add(grown)
    return succs


def reference_values(family: EventFamily) -> dict[int, float]:
    """Game value of every nonempty state, by the memoized per-event recursion."""
    full = family.base.full_mask
    memo: dict[int, float] = {full: 0}

    def value(state: int) -> float:
        if state in memo:
            return memo[state]
        succs = reference_successors(family, state)
        result = UNBOUNDED if state in succs else 1 + max(value(s) for s in succs)
        memo[state] = result
        return result

    return {state: value(state) for state in range(1, full + 1)}


def assert_game_matches_reference(family: EventFamily) -> dict[int, float]:
    expected = reference_values(family)
    game = BroadcastGame(family)
    for u in range(family.base.node_count):
        assert game.value(1 << u) == expected[1 << u]
    assert {state: game.value(state) for state in expected} == expected
    return expected


def random_nonconvex_family(rng: random.Random) -> EventFamily:
    n = rng.randint(2, 5)
    base = random_connected_symmetric(rng, n) if rng.random() < 0.5 else complete_digraph(n)
    keep = rng.uniform(0.3, 0.95)
    masks = {random_event(rng, base, keep).arc_mask for _ in range(rng.randint(1, 15))}
    return EventFamily(base, sorted(masks, key=mask_nodes))


def test_game_matches_reference_on_random_families():
    rng = random.Random(11)
    unbounded = nonconvex = 0
    for _ in range(150):
        family = random_nonconvex_family(rng)
        values = assert_game_matches_reference(family)
        unbounded += UNBOUNDED in values.values()
        nonconvex += not is_convex(family)
    assert unbounded > 50 and nonconvex > 75


def test_game_matches_reference_with_a_stalling_event():
    # The event without arcs out of node 0 starves every state {0} forever.
    g = complete_digraph(4)
    stall = event_from_arcs(g, frozenset(a for a in g.arcs if a[0] != 0))
    family = EventFamily(g, (stall.arc_mask,) + generate_bounded_omissions(g, 1).masks)
    values = assert_game_matches_reference(family)
    assert values[0b0001] == UNBOUNDED
    assert values[0b0011] != UNBOUNDED


def test_game_matches_reference_when_events_share_successors():
    # Random events of K4 with at most three omissions: many per successor.
    g = complete_digraph(4)
    full = generate_bounded_omissions(g, 3)
    rng = random.Random(5)
    for size in (20, 80, 200):
        family = EventFamily(g, rng.sample(full.masks, size))
        assert_game_matches_reference(family)
        assert 2 * len(reference_successors(family, 0b0001)) < size


@pytest.mark.parametrize("metric", ["send", "recv"])
@pytest.mark.parametrize("base", [complete_digraph(4), cycle_digraph(6)], ids=["K4", "C6"])
def test_game_matches_reference_on_bounded_families(base, metric):
    assert_game_matches_reference(generate_bounded_omissions(base, 2, metric))


def reference_best(family: EventFamily, values: dict[int, float]) -> tuple[int, int] | None:
    """The lowest-index common source of least game value, from each event's own sources."""
    common = family.base.full_mask
    for ev in family.events:
        common &= ev.sources_mask
    if not common:
        return None
    value, u = min((values[1 << u], u) for u in mask_nodes(common))
    return u, int(value)


def bounded_k4_c6_families() -> list[EventFamily]:
    return [generate_bounded_omissions(base, 2, metric)
            for base in (complete_digraph(4), cycle_digraph(6)) for metric in ("send", "recv")]


def test_optimal_rounds_match_the_reference_best_source():
    rng = random.Random(11)
    families = [random_nonconvex_family(rng) for _ in range(150)] + bounded_k4_c6_families()
    later = 0
    for family in families:
        expected = reference_best(family, reference_values(family))
        assert optimal_broadcast_rounds(family) == expected
        later += expected is not None and expected[0] != mask_nodes(family.common_sources_mask())[0]
    # Some families are answered by a source after the first.
    assert later >= 5


def assert_game_memos_are_sound(game: BroadcastGame, values: dict[int, float]) -> None:
    """Every kept value is exact, and every kept cap is at most the value."""
    assert all(values[s] == v for s, v in game._memo.items())
    assert all(values[s] >= cap for s, cap in game._atleast.items())


def test_capped_value_matches_the_reference_values_at_every_cap():
    rng = random.Random(11)
    families = [random_nonconvex_family(rng) for _ in range(40)] + bounded_k4_c6_families()
    for family in families:
        values = reference_values(family)
        caps = range(-1, family.base.node_count + 2)
        fresh = BroadcastGame(family)
        assert {(s, cap): fresh.value(s, cap) for s in values for cap in caps} == {
            (s, cap): min(values[s], cap) for s in values for cap in caps
        }
        assert_game_memos_are_sound(fresh, values)
        # With every exact value known, a capped call reads it.
        played = BroadcastGame(family)
        for state in values:
            played.value(state)
        assert all(played.value(s, cap) == min(values[s], cap) for s in values for cap in caps)


@pytest.mark.parametrize(
    "family", [generate_bounded_omissions(path_digraph(4), 0)] + bounded_k4_c6_families(),
    ids=["P4-f0", "K4-send-f2", "K4-recv-f2", "C6-send-f2", "C6-recv-f2"],
)
def test_capped_value_expands_only_states_within_its_cap(family):
    n = family.base.node_count
    values = reference_values(family)
    for u in range(n):
        # within[d]: the states the adversary can reach from {u} in d rounds or fewer.
        within = [{1 << u}]
        for _ in range(n):
            within.append(within[-1] | {t for s in within[-1]
                                        for t in reference_successors(family, s)})
        for cap in range(-1, n + 1):
            game = BroadcastGame(family)
            expanded: list[int] = []
            successors = game._successors

            def spy(state: int) -> list[int]:
                expanded.append(state)
                succs = successors(state)
                assert set(succs) == reference_successors(family, state)
                assert [t.bit_count() for t in succs] == sorted(t.bit_count() for t in succs)
                return succs

            game._successors = spy
            assert game.value(1 << u, cap) == min(values[1 << u], cap)
            # Successors are computed only for states fewer than ``cap`` rounds in.
            assert set(expanded) <= (within[cap - 1] if cap > 0 else set())
            assert_game_memos_are_sound(game, values)
            count = len(expanded)
            assert game.value(1 << u, cap) == min(values[1 << u], cap)
            assert len(expanded) == count


# ---- convexity -------------------------------------------------------------------

def reference_violation(family: EventFamily) -> tuple[int, int, int] | None:
    """First (left, right, arc bit) whose left + arc falls outside the family, or None.

    The definition: every ordered pair of members and every arc of the
    second that the first lacks.
    """
    members = set(family.masks)
    for left, ev in enumerate(family.events):
        for right, other in enumerate(family.events):
            for bit in mask_nodes(other.arc_mask & ~ev.arc_mask):
                if ev.arc_mask | 1 << bit not in members:
                    return left, right, bit
    return None


def test_convexity_witness_matches_full_provider_scan():
    rng = random.Random(17)
    violations = 0
    for _ in range(300):
        family = random_nonconvex_family(rng)
        expected = reference_violation(family)
        assert is_convex(family) == (expected is None)
        violations += expected is not None
    assert violations > 200


def test_convexity_witness_matches_on_bounded_subsets():
    full = generate_bounded_omissions(complete_digraph(4), 2)
    rng = random.Random(29)
    for _ in range(40):
        picked = rng.sample(full.masks, rng.randint(2, len(full) - 1))
        family = EventFamily(full.base, picked)
        assert is_convex(family) == (reference_violation(family) is None)
    assert is_convex(full) and reference_violation(full) is None


# ---- the oracle's layered search ---------------------------------------------------

def reference_oracle(family: EventFamily, max_horizon: int):
    """Horizon table, decision table and chain of the nested-tuple component search."""
    n, k = family.base.node_count, len(family)
    table = []
    for r in range(max_horizon + 1):
        execs = [(x, w) for x in product((0, 1), repeat=n)
                 for w in product(range(k), repeat=r)]
        views = [execution_views(family, w, x) for x, w in execs]
        uf = _UnionFind(len(execs))
        groups: dict = {}
        for idx, contents in enumerate(views):
            for content in contents:
                group = groups.setdefault(content, [])
                if group:
                    uf.union(group[0], idx)
                group.append(idx)
        root = [uf.find(i) for i in range(len(execs))]
        uniform: dict[int, set[int]] = {}
        for idx, (x, _w) in enumerate(execs):
            if len(set(x)) == 1:
                uniform.setdefault(root[idx], set()).add(x[0])
        mixed = [c for c, values in uniform.items() if values == {0, 1}]
        table.append((r, not mixed))
        if not mixed:
            decide = {c: min(values) for c, values in uniform.items()}
            decisions = {content: decide.get(root[idx], 0)
                         for idx, contents in enumerate(views) for content in contents}
            return table, decisions, None
    start = next(i for i, (x, _w) in enumerate(execs)
                 if root[i] == mixed[0] and set(x) == {0})
    prev = {start: (start, -1)}
    frontier, goal = [start], None
    while goal is None and frontier:
        frontier, reached = [], frontier
        for idx in reached:
            for owner, content in enumerate(views[idx]):
                for other in groups[content]:
                    if goal is None and other not in prev:
                        prev[other] = (idx, owner)
                        if set(execs[other][0]) == {1}:
                            goal = other
                        frontier.append(other)
    path, nodes = [goal], []
    while path[-1] != start:
        idx, node = prev[path[-1]]
        path.append(idx)
        nodes.append(node)
    chain = IndistinguishabilityChain(
        tuple(execs[i] for i in reversed(path)), tuple(reversed(nodes)), max_horizon
    )
    return table, None, chain


def assert_oracle_matches_reference(family: EventFamily, horizon: int, monkeypatch) -> None:
    sizes = []
    search_class = oracle._Search

    def recorded(*args):
        search = search_class(*args)
        sizes.append(len(search.executions))
        return search

    monkeypatch.setattr(oracle, "_Search", recorded)
    result = oracle.min_consensus_rounds(family, horizon)
    table, decisions, chain = reference_oracle(family, horizon)
    assert result.horizon_table == tuple(table)
    assert result.decision_table == (
        None if decisions is None else {repr(view): value for view, value in decisions.items()}
    )
    assert result.witness == chain
    n, k = family.base.node_count, len(family)
    assert sizes == [2**n * k**r for r, _ok in table]
    if decisions is None:
        return
    # The JSON lists the decision table sorted by view.
    assert result.to_json_dict(family)["decision_table"] == [
        {"view": view, "decision": value}
        for view, value in sorted((repr(view), value) for view, value in decisions.items())
    ]
    # The protocol runs on view ids; every node must decide what its nested view maps to.
    r = result.rounds
    for word in product(range(k), repeat=r):
        for init in product((0, 1), repeat=n):
            trace = simulator.run(result.protocol, family, word, init)
            views = execution_views(family, word, init)
            assert trace.decisions == tuple((decisions[view], r) for view in views)


@pytest.mark.parametrize("block", range(6))
def test_oracle_matches_nested_tuple_search_on_random_families(block, monkeypatch):
    for seed in range(50 * block, 50 * block + 50):
        assert_oracle_matches_reference(random_family(seed), ORACLE_HORIZON, monkeypatch)


@pytest.mark.parametrize("name", NAMES)
def test_oracle_matches_nested_tuple_search_on_bundled_families(name, monkeypatch):
    assert_oracle_matches_reference(load_family(name), 3, monkeypatch)


@pytest.mark.parametrize(
    "base, horizon",
    [
        (complete_digraph(3), 2), (cycle_digraph(4), 2),
        # Each small base has one event, the empty one.
        (Digraph(0, frozenset()), 2), (Digraph(1, frozenset()), 2),
        # The benchmark's largest searches; C5 ends in a chain.
        (cycle_digraph(4), 3), (complete_digraph(4), 3), (cycle_digraph(5), 2),
    ],
    ids=["K3", "C4", "0-node", "1-node", "C4-h3", "K4-h3", "C5-h2"],
)
def test_oracle_matches_nested_tuple_search_on_bounded_families(base, horizon, monkeypatch):
    assert_oracle_matches_reference(generate_bounded_omissions(base, 1), horizon, monkeypatch)


def test_oracle_renders_node_numbers_of_two_digits(monkeypatch):
    # The star K1,10 without omissions: views print (10, ...) and fill letters past J.
    star = symmetric_digraph(11, [(0, v) for v in range(1, 11)])
    family = generate_bounded_omissions(star, 0)
    assert_oracle_matches_reference(family, 1, monkeypatch)
    table = oracle.min_consensus_rounds(family, 1).decision_table
    assert any("(10, " in view for view in table)


@pytest.mark.parametrize(
    "built, foreign",
    [("reliable-2node", "O1-2node"), ("reliable-2node", "crash-C1"), ("fig12", "O1-2node"),
     ("H-2node", "fig12")],
)
def test_oracle_protocol_rejects_a_family_it_was_not_built_for(built, foreign):
    result = oracle.min_consensus_rounds(load_family(built), 3)
    _table, decisions, _chain = reference_oracle(load_family(built), 3)
    family = load_family(foreign)
    # The first node, in word-major, input-minor order, whose nested view
    # the reference table lacks.
    first = next(
        v
        for word in product(range(len(family)), repeat=result.rounds)
        for init in product((0, 1), repeat=family.base.node_count)
        for v, view in enumerate(execution_views(family, word, init))
        if view not in decisions
    )
    with pytest.raises(
        ProtocolError, match=f"node {first} reached a view outside the decision table"
    ):
        exhaustive_check(result.protocol, family, result.rounds)


def test_oracle_protocol_raises_for_a_view_lost_below_the_last_depth():
    result = oracle.min_consensus_rounds(generate_bounded_omissions(complete_digraph(3), 1), 2)
    protocol = result.protocol
    assert result.rounds == 2
    # Every event of K3 f=1 delivers to every node, so a round with no deliveries loses every view.
    states = [protocol.init(v, 0) for v in range(3)]
    states = [protocol.transition(v, state, {}) for v, state in enumerate(states)]
    assert [protocol.decision(v, state) for v, state in enumerate(states)] == [None] * 3
    states = [protocol.transition(v, state, {}) for v, state in enumerate(states)]
    with pytest.raises(ProtocolError, match="node 0 reached a view outside the decision table"):
        protocol.decision(0, states[0])


# ---- the prefix-sharing sweep --------------------------------------------------------

def reference_check(protocol, family: EventFamily, words, horizon: int) -> CheckReport:
    """One simulator run per word and input, in word-major, input-minor order."""
    words = list(words)
    n = family.base.node_count
    violations = []
    for word in words:
        for init in product((0, 1), repeat=n):
            trace = simulator.run(protocol, family, word, init)
            violations.extend(simulator._check_run(word, init, trace.decisions))
    return CheckReport(protocol.name, horizon, len(words) << n, tuple(violations))


def outcome(check, *args):
    """The report of a check, or the type and message of the error it raised."""
    try:
        return check(*args)
    except (ProtocolError, ValueError) as exc:
        return type(exc), str(exc)


def assert_sweeps_match_reference(protocol, family: EventFamily, horizon: int, words=None):
    """``check_scenarios`` on ``words`` (default: every word of length
    ``horizon``, when ``exhaustive_check`` is compared too) against the reference."""
    if words is None:
        words = list(product(range(len(family)), repeat=horizon))
        assert outcome(exhaustive_check, protocol, family, horizon) == outcome(
            reference_check, protocol, family, words, horizon
        )
    expected = outcome(reference_check, protocol, family, words, horizon)
    assert outcome(check_scenarios, protocol, family, words, horizon) == expected
    return expected


@pytest.mark.parametrize("horizon", range(4))
def test_exhaustive_check_reports_violations_in_word_then_input_order(horizon):
    report = assert_sweeps_match_reference(h_one_round(), load_family("crash-C1"), horizon)
    assert report.violations


def test_exhaustive_check_past_the_halting_round():
    report = assert_sweeps_match_reference(flooding(0, 1), load_family("fig12"), 3)
    assert report.runs == 16 * 2**3 and len(report.violations) == report.runs


def test_exhaustive_check_certifies_oracle_protocols():
    for seed in range(40):
        family = random_family(seed)
        result = oracle.min_consensus_rounds(family, ORACLE_HORIZON)
        if result.solvable:
            assert assert_sweeps_match_reference(result.protocol, family, result.rounds).passed


def flip_flop(rounds: int | None) -> ProtocolSpec:
    """Decides the parity of its input plus the messages heard so far, which
    flips at every delivery; a node with input 0 first decides at round 1."""
    return ProtocolSpec(
        name="flip-flop",
        init=lambda v, value: (0, value, 0),
        message=lambda v, state: state[1],
        transition=lambda v, state, got: (state[0] + 1, state[1], state[2] + len(got)),
        decision=lambda v, state: (
            None if state[0] == state[1] == 0 else (state[1] + state[2]) % 2
        ),
        halting_round=rounds,
    )


@pytest.mark.parametrize("horizon", [2, 3])
def test_exhaustive_check_raises_the_first_protocol_error(horizon):
    family = load_family("O1-2node")
    got = assert_sweeps_match_reference(flip_flop(horizon), family, horizon)
    # Input (0, 1) fails at round 1, on a shorter prefix than the first
    # failing run, input (0, 0) at round 2.
    assert got[0] is ProtocolError and got[1].endswith("at round 2")


def test_exhaustive_check_freezes_a_halted_protocol():
    family = load_family("O1-2node")
    report = assert_sweeps_match_reference(flip_flop(0), family, 3)
    assert {v.kind for v in report.violations} == {"termination"}
    assert assert_sweeps_match_reference(flip_flop(1), family, 3)[0] is ProtocolError


def raises_value_error() -> ProtocolSpec:
    """Decides its own input at round 0; a transition raises ``ValueError``
    for input 1 at round 1 and for input 0 at round 2."""

    def transition(v, state, got):
        round_no, value = state[0] + 1, state[1]
        if (value, round_no) in ((1, 1), (0, 2)):
            raise ValueError(f"input {value} at round {round_no} (node {v})")
        return round_no, value

    return ProtocolSpec(
        name="raises-value-error",
        init=lambda v, value: (0, value),
        message=lambda v, state: state[1],
        transition=transition,
        decision=lambda v, state: state[1],
    )


def test_exhaustive_check_raises_the_first_error_of_any_type():
    # The sweep steps input (0, 1) through round 1 before input (0, 0)
    # reaches round 2, but one run per word and input fails on (0, 0) first.
    got = assert_sweeps_match_reference(raises_value_error(), load_family("O1-2node"), 2)
    assert got == (ValueError, "input 0 at round 2 (node 0)")


def refuses_input_one() -> ProtocolSpec:
    """Decides its own input at round 0, except that node 1 raises on input 1."""

    def decision(v, state):
        if v == state == 1:
            raise ProtocolError("node 1 refuses input 1")
        return state

    return ProtocolSpec(
        name="refuses-input-one",
        init=lambda v, value: value,
        message=lambda v, state: state,
        transition=lambda v, state, got: state,
        decision=decision,
    )


def refuses_second_message() -> ProtocolSpec:
    """Sends its input every round and decides it at round 0, except that
    node 1 on input 1 raises at its second message."""

    def message(v, state):
        if v == 1 and state == (1, 1):
            raise ProtocolError("node 1 refuses a second message on input 1")
        return state[1]

    return ProtocolSpec(
        name="refuses-second-message",
        init=lambda v, value: (0, value),
        message=message,
        transition=lambda v, state, got: (state[0] + 1, state[1]),
        decision=lambda v, state: state[1],
    )


def o1_words() -> list[tuple[int, ...]]:
    return list(product(range(3), repeat=2))


@pytest.mark.parametrize(
    "words",
    [
        o1_words()[::-1],
        [(2, 1), (2, 1), (0,), (2, 1), (0, 0, 2), ()],
        [(), (1,), (1, 2, 0), (1, 2), (), (0, 2, 2, 1), (1, 2, 0, 0)],
        [(0, 1), (0, 2), (0, -1)],
        [(1, 1), (1, 3), (0,)],
        [(0, -1, 1), (2,)],
        [],
    ],
    ids=["reversed", "repeated", "mixed-lengths", "negative-letter", "letter-too-large",
         "negative-in-first-word", "no-words"],
)
@pytest.mark.parametrize(
    "protocol",
    [h_one_round(), flooding(0, 1), flip_flop(None), flip_flop(0), refuses_input_one(),
     refuses_second_message()],
    ids=["h-one-round", "flooding", "flip-flop", "halted-flip-flop", "fails-at-round-0",
         "fails-at-second-message"],
)
def test_sweep_matches_reference_in_any_word_order(protocol, words):
    assert_sweeps_match_reference(protocol, load_family("O1-2node"), 2, words)


@pytest.mark.parametrize("horizon", range(5))
def test_sweep_matches_reference_on_unsorted_crash_prefixes(horizon, two_node):
    family, words = crash_scheme_prefixes(two_node, horizon)
    shuffled = sorted(words)
    random.Random(horizon).shuffle(shuffled)
    for protocol in (h_one_round(), flooding(0, 2), flip_flop(None)):
        assert_sweeps_match_reference(protocol, family, horizon, shuffled)


def counting(transitions: list, messages: list | None = None) -> ProtocolSpec:
    """Never halts; appends the node to ``transitions`` at every transition,
    and to ``messages``, when given, at every message."""

    def transition(v, state, got):
        transitions.append(v)
        return state + 1

    def message(v, state):
        if messages is not None:
            messages.append(v)
        return state

    return ProtocolSpec(
        name="counting",
        init=lambda v, value: 0,
        message=message,
        transition=transition,
        decision=lambda v, state: 0,
    )


@pytest.mark.parametrize("horizon", range(4))
def test_sweep_simulates_each_prefix_once(horizon, two_node):
    family = load_family("O1-2node")
    n, k = 2, 3
    transitions = []
    exhaustive_check(counting(transitions), family, horizon)
    assert len(transitions) == n * 2**n * sum(k**d for d in range(1, horizon + 1))
    family, words = crash_scheme_prefixes(two_node, horizon)
    prefixes = {word[:d] for word in words for d in range(1, horizon + 1)}
    transitions.clear()
    check_scenarios(counting(transitions), family, sorted(words), horizon)
    assert len(transitions) == n * 2**n * len(prefixes)


@pytest.mark.parametrize("horizon", range(4))
def test_sweep_computes_each_runs_messages_once(horizon, two_node):
    # A run's messages are computed when it is first stepped and kept for
    # every letter after, so runs at the last depth send none.
    family = load_family("O1-2node")
    n, k = 2, 3
    messages = []
    exhaustive_check(counting([], messages), family, horizon)
    assert len(messages) == n * 2**n * sum(k**d for d in range(horizon))
    family, words = crash_scheme_prefixes(two_node, horizon)
    stepped = {word[:d] for word in words for d in range(len(word))}
    messages.clear()
    check_scenarios(counting([], messages), family, sorted(words), horizon)
    assert len(messages) == n * 2**n * len(stepped)


def spy(calls: list) -> ProtocolSpec:
    """Never halts; a state is the node's input and what it heard each round,
    and is also the message, except that odd nodes send None until they hear
    something.  Appends ``(node, state, delivered items)`` to ``calls`` at
    every transition."""

    def transition(v, state, delivered):
        heard = tuple(delivered.items())
        calls.append((v, state, heard))
        return (*state, heard)

    return ProtocolSpec(
        name="spy",
        init=lambda v, value: (value,),
        message=lambda v, state: None if v % 2 and not any(state[1:]) else state,
        transition=transition,
        decision=lambda v, state: 0,
    )


@pytest.mark.parametrize(
    "family, horizon",
    [
        (load_family("fig12"), 3),
        (generate_bounded_omissions(complete_digraph(3), 1), 2),
        (generate_bounded_omissions(cycle_digraph(4), 1), 2),
    ],
    ids=["fig12", "K3-f1", "C4-f1"],
)
def test_sweep_delivers_what_run_delivers(family, horizon):
    n, k = family.base.node_count, len(family)
    words = list(product(range(k), repeat=horizon))
    expected = []
    for word in words:
        for init in product((0, 1), repeat=n):
            simulator.run(spy(expected), family, word, init)
    calls = []
    exhaustive_check(spy(calls), family, horizon)
    assert len(calls) == n * 2**n * sum(k**d for d in range(1, horizon + 1))
    assert set(calls) == set(expected)
    shuffled = words[:]
    random.Random(horizon).shuffle(shuffled)
    calls.clear()
    check_scenarios(spy(calls), family, shuffled, horizon)
    assert set(calls) == set(expected)


def decides_then_fails() -> ProtocolSpec:
    """In round 1, node 0 changes the decision it took at round 0, and node 1's
    transition raises ``ValueError``."""

    def transition(v, state, delivered):
        if v == 1:
            raise ValueError("node 1 cannot step")
        return state + 1

    return ProtocolSpec(
        name="decides-then-fails",
        init=lambda v, value: 0,
        message=lambda v, state: state,
        transition=transition,
        decision=lambda v, state: state,
    )


def test_exhaustive_check_raises_the_reference_error_of_a_round():
    got = assert_sweeps_match_reference(decides_then_fails(), load_family("fig12"), 1)
    assert got == (ValueError, "node 1 cannot step")


def test_sweeps_check_the_execution_budget():
    family = load_family("O1-2node")
    with pytest.raises(BudgetExceededError, match="max_executions: 36 > 35"):
        exhaustive_check(h_one_round(), family, 2, Budget(max_executions=35))
    with pytest.raises(BudgetExceededError, match="max_executions: 8 > 7"):
        check_scenarios(h_one_round(), family, [(0,), (1, 2)], 2, Budget(max_executions=7))
