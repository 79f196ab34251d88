"""Finite scenario words over an event family, plus generator recipes.

A scenario is an infinite sequence of events; the toolkit works with
finite prefixes represented as index words into an ``EventFamily``.  A
word may carry the recipe that produced it (constant event, round robin,
seeded random, eventually constant) so runs are reproducible from
configuration plus seed.

Non-mobile schemes have no family representation; the one bundled here,
the single-crash scheme on two nodes, exists purely as an enumeration of
its finite prefixes for the simulator.
"""
from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Sequence

from .events import Event, EventFamily
from .graphs import Digraph


@dataclass(frozen=True)
class ScenarioRecipe:
    kind: str
    events: tuple[int, ...] = ()
    tail: int | None = None
    seed: int | None = None


@dataclass(frozen=True)
class Scenario:
    """A finite word of event indices, optionally with its recipe."""

    word: tuple[int, ...]
    generator: ScenarioRecipe | None = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "word", tuple(self.word))
        if any(i < 0 for i in self.word):
            raise ValueError("event indices must be non-negative")

    def __len__(self) -> int:
        return len(self.word)

    def check_family(self, family: EventFamily) -> None:
        for i in self.word:
            if i >= len(family):
                raise ValueError(
                    f"scenario references event {i}, family has {len(family)}"
                )

    def names(self, family: EventFamily) -> tuple[str, ...]:
        return tuple(family.name(i) for i in self.word)


def constant_scenario(event: int, length: int) -> Scenario:
    return Scenario((event,) * length, ScenarioRecipe("constant", (event,)))


def round_robin_scenario(events: Sequence[int], length: int) -> Scenario:
    if not events:
        raise ValueError("round robin needs at least one event")
    word = tuple(events[i % len(events)] for i in range(length))
    return Scenario(word, ScenarioRecipe("round-robin", tuple(events)))


def random_scenario(pool: Sequence[int], length: int, seed: int) -> Scenario:
    """Uniform word over ``pool``, reproducible from the seed."""
    if not pool:
        raise ValueError("random scenario needs a nonempty event pool")
    rng = random.Random(seed)
    word = tuple(rng.choice(pool) for _ in range(length))
    return Scenario(word, ScenarioRecipe("random", tuple(pool), seed=seed))


def eventually_constant_scenario(
    prefix: Sequence[int], tail: int, length: int
) -> Scenario:
    if length < len(prefix):
        raise ValueError("length shorter than the prefix")
    word = tuple(prefix) + (tail,) * (length - len(prefix))
    return Scenario(word, ScenarioRecipe("eventually-constant", tuple(prefix), tail=tail))


def subword(scenario: Scenario, positions: Sequence[int]) -> Scenario:
    """Sub-sequence of the word at strictly increasing positions."""
    prev = -1
    for p in positions:
        if p <= prev:
            raise ValueError("positions must be strictly increasing")
        if not 0 <= p < len(scenario.word):
            raise IndexError(f"position {p} out of range")
        prev = p
    return Scenario(tuple(scenario.word[p] for p in positions))


# ---- the two-node single-crash scheme ---------------------------------------

def crash_scheme_prefixes(
    g: Digraph, horizon: int
) -> tuple[EventFamily, frozenset[Scenario]]:
    """All length-``horizon`` prefixes of the two-node single-crash scheme.

    At most one of the two processes stops transmitting, permanently,
    after an arbitrary round.  Returns the three-event support family
    (all delivered / first silent / second silent) together with every
    prefix of the given length, as words over that family.
    """
    if horizon < 0:
        raise ValueError("horizon must be non-negative")
    if g.node_count != 2 or len(g.arcs) != 2:
        raise ValueError("the crash scheme is defined on the complete 2-node digraph")
    # Bit 0 of an arc mask is the arc (0, 1), bit 1 the arc (1, 0).
    ok, silent_first, silent_second = Event(g, 0b11), Event(g, 0b10), Event(g, 0b01)
    family = EventFamily(
        g,
        (ok, silent_first, silent_second),
        ("ok", f"crash-{g.label(0)}", f"crash-{g.label(1)}"),
    )
    words: set[tuple[int, ...]] = {(0,) * horizon}
    for crashed in (1, 2):
        for start in range(horizon):
            words.add((0,) * start + (crashed,) * (horizon - start))
    return family, frozenset(Scenario(w) for w in words)
