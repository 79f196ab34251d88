"""The class partition pinned two ways: golden JSON and a naive reference.

The golden file holds ``BetaPartition.to_json_dict()`` (classes, witness
edges in order, iteration count) for the bundled families and a few
seeded random ones.  The reference classes are built straight from the
definition: every triple of a class is tested with ``alpha_related``, and
the classes are split until a round changes nothing.  The reference
edges are those of the round that changes nothing, with the kernel run
afresh on every class and no class settled early.
"""
from __future__ import annotations

import json
import random
from itertools import combinations
from pathlib import Path

import pytest

from omlab import (
    BetaPartition,
    EventFamily,
    alpha_related,
    beta_partition,
    complete_digraph,
    cycle_digraph,
    equivalence,
    event_from_arcs,
    generate_bounded_omissions,
    mask_nodes,
)
from omlab.bundled import load_family
from omlab.equivalence import _connect

GOLDEN = Path(__file__).parent / "data" / "beta_golden.json"

# Seeds picked for coverage: events without sources (24, 48), several
# refinement rounds (24, 48, 124, 365: 3, 4, 3 and 5 rounds), classes
# that split (k4-34-40), all singletons (k4-38-40) and one class of 80
# events with 79 witness edges (k4-1-80).
RANDOM_SEEDS = (24, 48, 124, 365)
K4_CASES = ((2, 40), (34, 40), (38, 40), (1, 80))
BUNDLED = {"o1": "O1-2node", "h_scheme": "H-2node", "fig12": "fig12"}


def random_family(seed: int) -> EventFamily:
    """2-12 random events on K2, K3 or C4; some may have no source."""
    rng = random.Random(seed)
    n = rng.randint(2, 4)
    g = complete_digraph(n) if n < 4 else cycle_digraph(4)
    arcs = sorted(g.arcs)
    chosen = {
        event_from_arcs(g, (a for a in arcs if rng.random() < 0.6)).arc_mask
        for _ in range(rng.randint(2, 12))
    }
    return EventFamily(g, sorted(chosen, key=mask_nodes))


def k4_subset(seed: int, size: int) -> EventFamily:
    """Random events of K4 with at most three omissions: not convex."""
    full = generate_bounded_omissions(complete_digraph(4), 3)
    picked = sorted(random.Random(seed).sample(range(len(full)), size))
    return EventFamily(full.base, [full.masks[i] for i in picked])


def golden_families() -> dict[str, EventFamily]:
    families = {key: load_family(name) for key, name in BUNDLED.items()}
    families.update({f"random-{s}": random_family(s) for s in RANDOM_SEEDS})
    families.update({f"k4-{s}-{n}": k4_subset(s, n) for s, n in K4_CASES})
    return families


def reference_partition(family: EventFamily) -> BetaPartition:
    """The partition, with classes and round count from the definition alone.

    Round 0 joins two events when some event with sources relates them;
    each later round keeps only relations whose witness lies in the class
    and splits the class into connected components.  Rounds are counted
    as ``beta_partition`` counts them: up to and including the first one
    that changes nothing.  Each class's witness edges are those the
    kernel finds when it is run on that class alone, as the last round
    runs it when no class is settled early.
    """

    def components(members, witnesses):
        parent = {i: i for i in members}

        def find(x):
            while parent[x] != x:
                x = parent[x]
            return x

        for i, j in combinations(members, 2):
            if find(i) == find(j):
                continue
            for k in witnesses:
                if family.source_masks[k] and alpha_related(
                    family.events[i], family.events[j], family.events[k]
                ):
                    parent[find(i)] = find(j)
                    break
        pieces: dict[int, list[int]] = {}
        for i in members:
            pieces.setdefault(find(i), []).append(i)
        return [tuple(sorted(p)) for p in pieces.values()]

    everyone = list(range(len(family)))
    classes = sorted(components(everyone, everyone))
    rounds = 0
    while True:
        rounds += 1
        refined = sorted(p for c in classes for p in components(list(c), list(c)))
        if refined == classes:
            break
        classes = refined
    class_edges = []
    for c in classes:
        pieces, piece_edges, _keeper = _connect(family, list(c))
        assert pieces == [list(c)]
        class_edges.append(tuple(piece_edges[0]))
    return BetaPartition(family, tuple(classes), tuple(class_edges), rounds)


def test_golden_file_covers_every_family():
    assert set(json.loads(GOLDEN.read_text())) == set(golden_families())


@pytest.mark.parametrize("key", sorted(golden_families()))
def test_partition_matches_golden(key):
    family = golden_families()[key]
    expected = json.loads(GOLDEN.read_text())[key]
    assert beta_partition(family).to_json_dict() == expected


@pytest.mark.parametrize("key", sorted(golden_families()))
def test_partition_matches_reference(key):
    family = golden_families()[key]
    assert beta_partition(family).to_json_dict() == reference_partition(family).to_json_dict()


# Kernel calls per family: a closure with one class takes one call.  The
# closure of k4-34-40 finds classes of 35, 1, 2 and 2 events.  The 35 keep
# every witness and the single event has nothing to join, so both settle.
# The next round runs the two pairs, which split into single events that
# all settle, and the last round runs nothing: 1 + 2.
@pytest.mark.parametrize("key, calls", [("o1", 1), ("k4-1-80", 1), ("k4-34-40", 3)])
def test_closure_is_the_first_round(key, calls, monkeypatch):
    """The closure runs once, and a closure with one class is also the last round."""
    counted = []
    connect = equivalence._connect

    def counting(family, members):
        counted.append(len(members))
        return connect(family, members)

    monkeypatch.setattr(equivalence, "_connect", counting)
    family = golden_families()[key]
    assert beta_partition(family).to_json_dict() == json.loads(GOLDEN.read_text())[key]
    assert len(counted) == calls
    assert counted.count(len(family)) == 1


def test_reference_covers_no_source_events_and_several_rounds():
    families = golden_families()
    assert any(0 in families[f"random-{s}"].source_masks for s in RANDOM_SEEDS)
    assert max(reference_partition(families[f"random-{s}"]).iterations for s in RANDOM_SEEDS) >= 4


def test_partition_matches_reference_on_random_families():
    for seed in range(400, 460):
        family = random_family(seed)
        assert beta_partition(family).to_json_dict() == reference_partition(family).to_json_dict()


def agrees_with_reference(family: EventFamily) -> bool:
    try:
        return beta_partition(family).to_json_dict() == reference_partition(family).to_json_dict()
    except AssertionError:  # the partition failed its own closure check
        return False


def witnesses(family: EventFamily, members: list[int]) -> set[int]:
    """The first member of each distinct nonzero source mask."""
    first = {}
    for i in members:
        first.setdefault(family.source_masks[i], i)
    first.pop(0, None)
    return set(first.values())


def settle_a_piece_missing_one_witness(family, members):
    pieces, piece_edges, keeper = _connect(family, members)
    lacking = [witnesses(family, members) - set(p) for p in pieces]
    short = [j for j, missing in enumerate(lacking) if len(missing) == 1]
    return pieces, piece_edges, short[0] if short else keeper


def settle_with_every_edge_of_the_class(family, members):
    pieces, piece_edges, keeper = _connect(family, members)
    if keeper is not None:
        piece_edges[keeper] = [e for edges in piece_edges for e in edges]
    return pieces, piece_edges, keeper


@pytest.mark.parametrize(
    "mutant", [settle_a_piece_missing_one_witness, settle_with_every_edge_of_the_class]
)
def test_reference_catches_a_wrongly_settled_piece(mutant, monkeypatch):
    """Settling a piece the next round could split, or giving it edges from
    outside it, changes the partition on some family."""
    families = [*golden_families().values(), *map(random_family, range(400, 460))]
    assert all(map(agrees_with_reference, families))
    monkeypatch.setattr(equivalence, "_connect", mutant)
    assert not all(map(agrees_with_reference, families))
