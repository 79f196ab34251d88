"""Source sets, the flooding game, the convexity witness, the oracle's search
and the exhaustive check against naive references.

Each reference is the plain version of its kernel, kept here: one closure
per node for source sets, one successor per event for the flooding game,
a provider table over every arc of every event for the convexity
witness, a component search over the nested-tuple views of every
execution for the oracle, and one simulator run per word and input for
the exhaustive check.  The kernels must give the same answers, witnesses
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
    ConvexityViolation,
    Digraph,
    EventFamily,
    complete_digraph,
    convexity_violation,
    cycle_digraph,
    event_from_arcs,
    generate_bounded_omissions,
    mask_nodes,
)
from omlab import oracle
from omlab.bundled import bundled_names, h_one_round, load_family
from omlab.equivalence import _UnionFind
from omlab.graphs import sources_of_arcs
from omlab.oracle import Execution, IndistinguishabilityChain, execution_views
from omlab.simulator import (
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
        assert game.rounds_from(u) == expected[1 << u]
    assert {state: game.value(state) for state in expected} == expected
    return expected


def random_nonconvex_family(rng: random.Random) -> EventFamily:
    n = rng.randint(2, 5)
    base = random_connected_symmetric(rng, n) if rng.random() < 0.5 else complete_digraph(n)
    keep = rng.uniform(0.3, 0.95)
    masks = {random_event(rng, base, keep).arcs for _ in range(rng.randint(1, 15))}
    return EventFamily(base, tuple(event_from_arcs(base, arcs) for arcs in sorted(masks, key=sorted)))


def test_game_matches_reference_on_random_families():
    rng = random.Random(11)
    unbounded = nonconvex = 0
    for _ in range(150):
        family = random_nonconvex_family(rng)
        values = assert_game_matches_reference(family)
        unbounded += UNBOUNDED in values.values()
        nonconvex += convexity_violation(family) is not None
    assert unbounded > 50 and nonconvex > 75


def test_game_matches_reference_with_a_stalling_event():
    # The event without arcs out of node 0 starves every state {0} forever.
    g = complete_digraph(4)
    stall = event_from_arcs(g, frozenset(a for a in g.arcs if a[0] != 0))
    family = EventFamily(g, (stall,) + generate_bounded_omissions(g, 1).events)
    values = assert_game_matches_reference(family)
    assert values[0b0001] == UNBOUNDED
    assert values[0b0011] != UNBOUNDED


def test_game_matches_reference_when_events_share_successors():
    # Random events of K4 with at most three omissions: many per successor.
    g = complete_digraph(4)
    full = generate_bounded_omissions(g, 3)
    rng = random.Random(5)
    for size in (20, 80, 200):
        family = EventFamily(g, tuple(rng.sample(full.events, size)))
        assert_game_matches_reference(family)
        assert 2 * len(reference_successors(family, 0b0001)) < size


@pytest.mark.parametrize("metric", ["send", "recv"])
@pytest.mark.parametrize("base", [complete_digraph(4), cycle_digraph(6)], ids=["K4", "C6"])
def test_game_matches_reference_on_bounded_families(base, metric):
    assert_game_matches_reference(generate_bounded_omissions(base, 2, metric))


# ---- convexity witness ---------------------------------------------------------------

def reference_violation(family: EventFamily) -> ConvexityViolation | None:
    """The scan with a provider for every arc bit, built before any test."""
    members = set(family.mask_index)
    union = family.union_arc_mask
    provider: dict[int, int] = {}
    for idx in family.canonical_order:
        mask = family.events[idx].arc_mask
        bit = 0
        while mask >> bit:
            if mask >> bit & 1:
                provider.setdefault(bit, idx)
            bit += 1
    arc_of_bit = family.base.sorted_arcs
    for idx in family.canonical_order:
        mask = family.events[idx].arc_mask
        missing = union & ~mask
        bit = 0
        while missing >> bit:
            if missing >> bit & 1 and (mask | 1 << bit) not in members:
                return ConvexityViolation(idx, provider[bit], arc_of_bit[bit])
            bit += 1
    return None


def test_convexity_witness_matches_full_provider_scan():
    rng = random.Random(17)
    violations = 0
    for _ in range(300):
        family = random_nonconvex_family(rng)
        expected = reference_violation(family)
        assert convexity_violation(family) == expected
        violations += expected is not None
    assert violations > 200


def test_convexity_witness_matches_on_bounded_subsets():
    full = generate_bounded_omissions(complete_digraph(4), 2)
    rng = random.Random(29)
    for _ in range(40):
        picked = rng.sample(full.events, rng.randint(2, len(full) - 1))
        family = EventFamily(full.base, tuple(picked))
        assert convexity_violation(family) == reference_violation(family)
    assert convexity_violation(full) is None and reference_violation(full) is None


# ---- the oracle's layered search ---------------------------------------------------

def reference_oracle(family: EventFamily, max_horizon: int):
    """Horizon table, decision table and chain of the nested-tuple component search."""
    n, k = family.base.node_count, len(family)
    table = []
    for r in range(max_horizon + 1):
        execs = [Execution(x, w) for x in product((0, 1), repeat=n)
                 for w in product(range(k), repeat=r)]
        views = [execution_views(family, ex.word, ex.init) for ex in execs]
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
        for idx, ex in enumerate(execs):
            if len(set(ex.init)) == 1:
                uniform.setdefault(root[idx], set()).add(ex.init[0])
        mixed = [c for c, values in uniform.items() if values == {0, 1}]
        table.append((r, not mixed))
        if not mixed:
            decide = {c: min(values) for c, values in uniform.items()}
            decisions = {content: decide.get(root[idx], 0)
                         for idx, contents in enumerate(views) for content in contents}
            return table, decisions, None
    start = next(i for i, ex in enumerate(execs)
                 if root[i] == mixed[0] and set(ex.init) == {0})
    prev = {start: (start, -1)}
    frontier, goal = [start], None
    while goal is None and frontier:
        frontier, reached = [], frontier
        for idx in reached:
            for owner, content in enumerate(views[idx]):
                for other in groups[content]:
                    if goal is None and other not in prev:
                        prev[other] = (idx, owner)
                        if set(execs[other].init) == {1}:
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
    assert result.decision_table == decisions
    assert result.witness == chain
    n, k = family.base.node_count, len(family)
    assert sizes == [2**n * k**r for r, _ok in table]


@pytest.mark.parametrize("block", range(6))
def test_oracle_matches_nested_tuple_search_on_random_families(block, monkeypatch):
    for seed in range(50 * block, 50 * block + 50):
        assert_oracle_matches_reference(random_family(seed), ORACLE_HORIZON, monkeypatch)


@pytest.mark.parametrize("name", bundled_names())
def test_oracle_matches_nested_tuple_search_on_bundled_families(name, monkeypatch):
    assert_oracle_matches_reference(load_family(name), 3, monkeypatch)


@pytest.mark.parametrize("base", [complete_digraph(3), cycle_digraph(4)], ids=["K3", "C4"])
def test_oracle_matches_nested_tuple_search_on_bounded_families(base, monkeypatch):
    assert_oracle_matches_reference(generate_bounded_omissions(base, 1), 2, monkeypatch)


# ---- the prefix-tree exhaustive check ------------------------------------------------

def assert_exhaustive_matches_scenarios(protocol, family: EventFamily, horizon: int):
    words = product(range(len(family)), repeat=horizon)
    expected = check_scenarios(protocol, family, words, horizon)
    assert exhaustive_check(protocol, family, horizon) == expected
    return expected


@pytest.mark.parametrize("horizon", range(4))
def test_exhaustive_check_reports_violations_in_word_then_input_order(horizon):
    report = assert_exhaustive_matches_scenarios(
        h_one_round(), load_family("crash-C1"), horizon
    )
    assert report.violations


def test_exhaustive_check_past_the_halting_round():
    report = assert_exhaustive_matches_scenarios(flooding(0, 1), load_family("fig12"), 3)
    assert report.runs == 16 * 2**3 and len(report.violations) == report.runs


def test_exhaustive_check_certifies_oracle_protocols():
    for seed in range(40):
        family = random_family(seed)
        result = oracle.min_consensus_rounds(family, ORACLE_HORIZON)
        if result.solvable:
            assert assert_exhaustive_matches_scenarios(result.protocol, family, result.rounds).passed


def flip_flop(rounds: int) -> ProtocolSpec:
    """Decides the parity of its input plus the messages heard so far, which
    flips at every delivery; a node with input 0 first decides at round 1."""
    return ProtocolSpec(
        name="flip-flop",
        state_space="(round, own value, messages heard)",
        init=lambda v, value: (0, value, 0),
        message=lambda v, state, neighbor: state[1],
        transition=lambda v, state, got: (state[0] + 1, state[1], state[2] + len(got)),
        decision=lambda v, state: (
            None if state[0] == state[1] == 0 else (state[1] + state[2]) % 2
        ),
        halting_round=rounds,
    )


@pytest.mark.parametrize("horizon", [2, 3])
def test_exhaustive_check_raises_the_first_protocol_error(horizon):
    family = load_family("O1-2node")
    words = list(product(range(len(family)), repeat=horizon))
    with pytest.raises(ProtocolError) as expected:
        check_scenarios(flip_flop(horizon), family, words, horizon)
    with pytest.raises(ProtocolError) as got:
        exhaustive_check(flip_flop(horizon), family, horizon)
    # Input (0, 1) fails at round 1, on a shorter prefix than the first
    # failing run, input (0, 0) at round 2.
    assert str(got.value) == str(expected.value)
    assert str(got.value).endswith("at round 2")


def test_exhaustive_check_freezes_a_halted_protocol():
    family = load_family("O1-2node")
    report = assert_exhaustive_matches_scenarios(flip_flop(0), family, 3)
    assert {v.kind for v in report.violations} == {"termination"}
    with pytest.raises(ProtocolError):
        exhaustive_check(flip_flop(1), family, 3)
