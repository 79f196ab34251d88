"""Named example families shipped as data files, and their companion protocols.

Each example is a one-command reproduction target for the CLI: the
two-node schemes (reliable, at-most-one-omission, at-most-one-delivery),
the four-node two-event family where consensus is faster than broadcast,
and the support family of the two-node single-crash scheme.  The crash
scheme is not mobile, so it is valid for simulation only; solvability
commands reject it.  A crash is permanent, so the scheme is not a family
of freely repeatable events; ``crash_scheme_prefixes`` enumerates its
finite prefixes instead, as words: tuples of indices into the support
family.
"""
from __future__ import annotations

import json
from importlib import resources
from typing import Any, Mapping

from .budget import InputError
from .events import EventFamily, family_from_json_dict
from .graphs import Digraph
from .simulator import ProtocolSpec


NAMES = ("reliable-2node", "O1-2node", "H-2node", "fig12", "crash-C1")
NOT_MOBILE = "crash-C1"


def load_family(name: str) -> EventFamily:
    """The bundled example ``name``, read from ``data/<name in lower case>.json``."""
    if name not in NAMES:
        raise InputError(f"unknown bundled example {name!r} (known: {', '.join(NAMES)})")
    text = resources.files("omlab.data").joinpath(f"{name.lower()}.json").read_text()
    return family_from_json_dict(json.loads(text))


# ---- companion protocols -----------------------------------------------------

def h_one_round() -> ProtocolSpec:
    """Exchange values once; decide the received value, else your own.

    Solves consensus on the two-node at-most-one-delivery scheme: exactly
    one process receives a value each round, though nobody knows in
    advance whose value gets through.
    """

    def init(v: int, value: int):
        return (None, value)

    def transition(v: int, state, delivered: Mapping[int, Any]):
        own = state[1]
        return (next(iter(delivered.values()), own), own)

    return ProtocolSpec(
        name="h-one-round",
        init=init,
        message=lambda v, state: state[1],
        transition=transition,
        decision=lambda v, state: state[0],
        halting_round=1,
    )


# ---- the two-node single-crash scheme -----------------------------------------

def crash_scheme_prefixes(
    g: Digraph, horizon: int
) -> tuple[EventFamily, frozenset[tuple[int, ...]]]:
    """All length-``horizon`` prefixes of the two-node single-crash scheme.

    At most one of the two processes stops transmitting, permanently,
    after an arbitrary round.  Returns the three-event support family
    (all delivered / first silent / second silent) together with every
    prefix of the given length, as words over that family.
    """
    if horizon < 0:
        raise InputError("horizon must be non-negative")
    if g.node_count != 2 or len(g.arcs) != 2:
        raise InputError("the crash scheme is defined on the complete 2-node digraph")
    # Bit 0 of an arc mask is the arc (0, 1), bit 1 the arc (1, 0).
    family = EventFamily(
        g, (0b11, 0b10, 0b01), ("ok", f"crash-{g.label(0)}", f"crash-{g.label(1)}")
    )
    words = {(0,) * horizon}
    for crashed in (1, 2):
        for start in range(horizon):
            words.add((0,) * start + (crashed,) * (horizon - start))
    return family, frozenset(words)
