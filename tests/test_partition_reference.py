"""The class partition pinned two ways: golden JSON and a naive reference.

The golden file holds ``BetaPartition.to_json_dict()`` (classes, witness
edges in order, iteration count) for the bundled families and a few
seeded random ones.  The reference partition is built straight from the
definition: every triple of a class is tested with ``alpha_related``, and
the classes are split until a round changes nothing.
"""
from __future__ import annotations

import json
import random
from itertools import combinations
from pathlib import Path

import pytest

from omlab import (
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


def reference_partition(family: EventFamily) -> tuple[tuple[tuple[int, ...], ...], int]:
    """Classes and round count of the partition, from the definition alone.

    Round 0 joins two events when some event with sources relates them;
    each later round keeps only relations whose witness lies in the class
    and splits the class into connected components.  Rounds are counted
    as ``beta_partition`` counts them: up to and including the first one
    that changes nothing.
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
            return tuple(classes), rounds
        classes = refined


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
    bp = beta_partition(family)
    assert (bp.classes, bp.iterations) == reference_partition(family)


# Kernel calls per family: a closure with one class takes one call; the
# closure of k4-34-40 finds 4 classes, which split into 6 that stay: 1 + 4 + 6.
@pytest.mark.parametrize("key, calls", [("o1", 1), ("k4-1-80", 1), ("k4-34-40", 11)])
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
    assert max(reference_partition(families[f"random-{s}"])[1] for s in RANDOM_SEEDS) >= 4


def test_partition_matches_reference_on_random_families():
    for seed in range(400, 460):
        family = random_family(seed)
        bp = beta_partition(family)
        assert (bp.classes, bp.iterations) == reference_partition(family)
