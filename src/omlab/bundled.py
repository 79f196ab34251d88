"""Named example families shipped as data files, and their companion protocols.

Each example is a one-command reproduction target for the CLI: the
two-node schemes (reliable, at-most-one-omission, at-most-one-delivery),
the four-node two-event family where consensus is faster than broadcast,
and the support family of the two-node single-crash scheme.  The crash
scheme is not mobile, so it is valid for simulation only; solvability
commands reject it.
"""
from __future__ import annotations

import json
from dataclasses import dataclass
from importlib import resources
from typing import Any, Mapping

from .events import EventFamily, family_from_json_dict
from .simulator import ProtocolSpec


@dataclass(frozen=True)
class BundledEntry:
    filename: str
    mobile: bool
    description: str


REGISTRY: dict[str, BundledEntry] = {
    "reliable-2node": BundledEntry(
        "reliable-2node.json", True, "two nodes, every message delivered"
    ),
    "O1-2node": BundledEntry(
        "o1-2node.json", True, "two nodes, at most one omission per round"
    ),
    "H-2node": BundledEntry(
        "h-2node.json", True, "two nodes, at most one message received per round"
    ),
    "fig12": BundledEntry(
        "fig12.json", True,
        "four nodes, two events; consensus in one round, broadcast needs two",
    ),
    "crash-C1": BundledEntry(
        "crash-c1.json", False,
        "support events of the two-node single-crash scheme (simulation only)",
    ),
}


def bundled_names() -> tuple[str, ...]:
    return tuple(REGISTRY)


def is_mobile(name: str) -> bool:
    return _entry(name).mobile


def _entry(name: str) -> BundledEntry:
    try:
        return REGISTRY[name]
    except KeyError:
        known = ", ".join(REGISTRY)
        raise KeyError(f"unknown bundled example {name!r} (known: {known})") from None


def load_family(name: str) -> EventFamily:
    entry = _entry(name)
    text = resources.files("omlab.data").joinpath(entry.filename).read_text()
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

    def message(v: int, state, neighbor: int):
        return state[1]

    def transition(v: int, state, delivered: Mapping[int, Any]):
        decided, own = state
        if decided is not None:
            return state
        return (next(iter(delivered.values()), own), own)

    return ProtocolSpec(
        name="h-one-round",
        state_space="(decided value or None, own value)",
        init=init,
        message=message,
        transition=transition,
        decision=lambda v, state: state[0],
        halting_round=1,
    )
