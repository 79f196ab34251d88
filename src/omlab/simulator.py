"""Deterministic synchronous round engine driven by scenario words.

A word is a tuple of event indices into an ``EventFamily``, one letter
per round; an input is a tuple of one binary value per node.

Each round, every node computes one message and sends it to all its
out-neighbours in the base graph; a message is delivered exactly when
its arc is present in the round's event (so failures never depend on
what the algorithm sends).  Nodes then update their state from the
delivered messages.  Nodes know the family of possible events, never the
actual letter, except through what they receive.

A sweep checks a sequence of words against every input; each word
resumes from the runs of the longest prefix it shares with the word
before it, so words in lexicographic order simulate each prefix once.
It keeps one run record per input and prefix, ``[states, decisions,
payloads]``: the payloads are the messages the states send, computed
when the record is first stepped and kept for every later letter, and a
stepped run shares its parent's decisions list until one of them
changes.  ``run`` steps one run at a time and is the reference the sweep
is tested against.

Decisions are sticky: once a node's decision extractor reports a value,
reporting a different value (or none) later is a protocol error.
"""
from __future__ import annotations

from dataclasses import dataclass
from itertools import product
from typing import Any, Callable, Iterable, Mapping, Sequence

from .budget import Budget, InputError, effective_budget
from .events import EventFamily
from .graphs import Arc, mask_nodes, node_mask


class ProtocolError(RuntimeError):
    """A protocol violated the engine's contract (e.g. changed a decision)."""


@dataclass(frozen=True)
class ProtocolSpec:
    """Deterministic per-node algorithm as four functions.

    ``init(node, value)`` builds the initial state; ``message(node,
    state)`` returns the payload the node sends to every out-neighbour
    (None sends nothing); ``transition(node, state, delivered)`` consumes the
    mapping of in-neighbour to payload for delivered messages only;
    ``decision(node, state)`` reports 0/1 once decided, else None.
    After ``halting_round`` rounds the node stops sending and its state
    freezes.
    """

    name: str
    init: Callable[[int, int], Any]
    message: Callable[[int, Any], Any]
    transition: Callable[[int, Any, Mapping[int, Any]], Any]
    decision: Callable[[int, Any], int | None]
    halting_round: int | None = None


@dataclass(frozen=True)
class SimulationTrace:
    word: tuple[int, ...]
    init: tuple[int, ...]
    states: tuple[tuple[Any, ...], ...]  # states[r] = configuration after round r
    deliveries: tuple[tuple[Arc, ...], ...]  # arcs that carried a message, per round
    decisions: tuple[tuple[int, int] | None, ...]  # per node: (value, round decided)

    @property
    def rounds(self) -> int:
        return len(self.word)


def run(
    protocol: ProtocolSpec,
    family: EventFamily,
    word: tuple[int, ...],
    init: tuple[int, ...],
) -> SimulationTrace:
    """Execute the protocol on input ``init`` subject to ``word``."""
    _check_letters(family, word, 0)
    if len(init) != family.base.node_count or any(value not in (0, 1) for value in init):
        raise InputError(f"input {init} is not one 0/1 value per node")
    states, decisions = _start(protocol, init)
    all_states = [tuple(states)]
    deliveries: list[tuple[Arc, ...]] = []
    for round_no, letter in enumerate(word, start=1):
        states, arcs_used = _step(
            protocol, family, states, letter, decisions, round_no
        )
        all_states.append(tuple(states))
        deliveries.append(arcs_used)
    return SimulationTrace(
        word, init, tuple(all_states), tuple(deliveries), tuple(decisions)
    )


def _check_letters(family: EventFamily, word: tuple[int, ...], start: int) -> None:
    """Reject ``word`` if a letter from position ``start`` on is not an event index."""
    if any(letter not in range(len(family)) for letter in word[start:]):
        raise InputError(f"word {word} has a letter outside the {len(family)}-event family")


def _start(
    protocol: ProtocolSpec, init: tuple[int, ...]
) -> tuple[list[Any], list[tuple[int, int] | None]]:
    """The initial states and the decisions taken at round 0."""
    states = [protocol.init(u, value) for u, value in enumerate(init)]
    decisions: list[tuple[int, int] | None] = [None] * len(states)
    _record_decisions(protocol, states, decisions, 0)
    return states, decisions


def _step(
    protocol: ProtocolSpec,
    family: EventFamily,
    states: list[Any],
    letter: int,
    decisions: list[tuple[int, int] | None],
    round_no: int,
) -> tuple[list[Any], tuple[Arc, ...]]:
    """One round under ``letter``: the new states and the arcs that carried a
    message.  Records new decisions in ``decisions``; a halted protocol
    keeps its states and decides nothing more."""
    if protocol.halting_round is not None and round_no > protocol.halting_round:
        return states, ()
    payloads = [protocol.message(u, state) for u, state in enumerate(states)]
    delivered: list[dict[int, Any]] = [{} for _ in states]
    arcs_used: list[Arc] = []
    # Arcs come tail-major, so each node hears its senders in node order.
    for tail, head in family.events[letter].sorted_arcs:
        payload = payloads[tail]
        if payload is not None:
            delivered[head][tail] = payload
            arcs_used.append((tail, head))
    states = [
        protocol.transition(v, state, delivered[v]) for v, state in enumerate(states)
    ]
    _record_decisions(protocol, states, decisions, round_no)
    return states, tuple(arcs_used)


def _record_decisions(
    protocol: ProtocolSpec,
    states: list[Any],
    decisions: list[tuple[int, int] | None],
    round_no: int,
) -> None:
    for v, state in enumerate(states):
        value = protocol.decision(v, state)
        previous = decisions[v]
        if previous is None:
            if value is not None:
                decisions[v] = (value, round_no)
        elif value != previous[0]:
            raise _changed_decision(v, previous[0], value, round_no)


def _changed_decision(v: int, old: int, new: int | None, round_no: int) -> ProtocolError:
    return ProtocolError(f"node {v} changed its decision from {old} to {new} at round {round_no}")


# ---- standard protocols -------------------------------------------------------

def flooding(u: int, rounds: int) -> ProtocolSpec:
    """Originator ``u`` sends its value; informed nodes forward every round."""
    if rounds < 0:
        raise InputError("round count must be non-negative")

    def init(v: int, value: int):
        return value if v == u else None

    def transition(v: int, state, delivered: Mapping[int, Any]):
        if state is not None:
            return state
        for payload in delivered.values():
            return payload
        return None

    return ProtocolSpec(
        name=f"flooding[{u},{rounds}]",
        init=init,
        message=lambda v, state: state,
        transition=transition,
        decision=lambda v, state: None,
        halting_round=rounds,
    )


def broadcast_consensus(u: int, rounds: int) -> ProtocolSpec:
    """Flood ``u``'s initial value, then decide it after ``rounds`` rounds.

    Nodes that never received the value fall back to deciding their own;
    correctness therefore requires ``u`` to be a common source and
    ``rounds`` at least the worst-case flooding time.
    """
    if rounds < 0:
        raise InputError("round count must be non-negative")

    def init(v: int, value: int):
        got = value if v == u else None
        return (0, got, value)

    def transition(v: int, state, delivered: Mapping[int, Any]):
        round_no, got, own = state
        if got is None:
            for payload in delivered.values():
                got = payload
                break
        return (round_no + 1, got, own)

    def decision(v: int, state):
        round_no, got, own = state
        if round_no < rounds:
            return None
        return got if got is not None else own

    return ProtocolSpec(
        name=f"broadcast-consensus[{u},{rounds}]",
        init=init,
        message=lambda v, state: state[1],
        transition=transition,
        decision=decision,
        halting_round=rounds,
    )


def event_detection_consensus(
    family: EventFamily, decision_map: Mapping[int, int]
) -> ProtocolSpec:
    """One-round consensus for families whose events every node can identify.

    After one full exchange of initial values, each node recognizes the
    round's event from the set of senders it heard, and decides the value
    of the originator mapped to that event.  Construction is rejected
    unless (a) per node, events have pairwise distinct in-neighbour sets
    and (b) each mapped originator reaches every node in one round of its
    event.
    """
    n = family.base.node_count
    if set(decision_map) != set(range(len(family))):
        raise InputError("decision map must cover exactly the family's events")
    for e, origin in decision_map.items():
        event = family.events[e]
        for v in range(n):
            if v != origin and not event.out_masks[origin] >> v & 1:
                raise InputError(
                    f"originator {family.base.label(origin)} does not reach "
                    f"{family.base.label(v)} in one round of {family.name(e)}"
                )
    lookup: list[dict[int, int]] = []
    for v in range(n):
        senders_to_event: dict[int, int] = {}
        for e, event in enumerate(family.events):
            senders = event.in_masks[v]
            if senders in senders_to_event:
                other = senders_to_event[senders]
                raise InputError(
                    f"node {family.base.label(v)} cannot distinguish "
                    f"{family.name(other)} from {family.name(e)}"
                )
            senders_to_event[senders] = e
        lookup.append(senders_to_event)

    def init(v: int, value: int):
        return (None, value)

    def transition(v: int, state, delivered: Mapping[int, Any]):
        own = state[1]
        senders = node_mask(delivered.keys())
        e = lookup[v][senders]
        origin = decision_map[e]
        value = own if origin == v else delivered[origin]
        return (value, own)

    return ProtocolSpec(
        name="event-detection-consensus",
        init=init,
        message=lambda v, state: state[1],
        transition=transition,
        decision=lambda v, state: state[0],
        halting_round=1,
    )


# ---- exhaustive checking --------------------------------------------------------

@dataclass(frozen=True)
class Violation:
    kind: str  # "termination" | "validity" | "agreement"
    word: tuple[int, ...]
    init: tuple[int, ...]
    detail: str


@dataclass(frozen=True)
class CheckReport:
    protocol: str
    horizon: int
    runs: int
    violations: tuple[Violation, ...]

    @property
    def passed(self) -> bool:
        return not self.violations

    def to_json_dict(self, family: EventFamily) -> dict:
        return {
            "protocol": self.protocol,
            "horizon": self.horizon,
            "runs": self.runs,
            "passed": self.passed,
            "violations": [
                {
                    "kind": v.kind,
                    "scenario": [family.name(i) for i in v.word],
                    "init": list(v.init),
                    "detail": v.detail,
                }
                for v in self.violations
            ],
        }


def check_scenarios(
    protocol: ProtocolSpec,
    family: EventFamily,
    words: Iterable[tuple[int, ...]],
    horizon: int,
    budget: Budget | None = None,
) -> CheckReport:
    """Run all words against all binary inputs and check the three
    consensus requirements: every node decides, uniform inputs force the
    common value, and all decided values agree.  Nodes may decide at
    different rounds, as long as all have decided by the end."""
    word_list = list(words)
    return _sweep(protocol, family, word_list, len(word_list), horizon, budget)


def exhaustive_check(
    protocol: ProtocolSpec,
    family: EventFamily,
    horizon: int,
    budget: Budget | None = None,
) -> CheckReport:
    """``check_scenarios`` over every length-``horizon`` word of the family,
    in lexicographic order, so each prefix is simulated once."""
    if horizon < 0:
        raise InputError("horizon must be non-negative")
    k = len(family)
    words = product(range(k), repeat=horizon)
    return _sweep(protocol, family, words, k**horizon, horizon, budget)


def _sweep(
    protocol: ProtocolSpec, family: EventFamily, words: Iterable[tuple[int, ...]],
    count: int, horizon: int, budget: Budget | None,
) -> CheckReport:
    """Check ``count`` words, in the given order, against every input.

    ``levels[d]`` holds the run records of every input after the first d
    letters of the previous word; each word keeps the levels of the prefix
    it shares with that word and steps the rest, a whole level per loop.
    A run that raises ``ProtocolError`` stops, and keeps the error until a
    word ends on it: errors surface in word-major, input-minor order, so
    the one raised is the one a run per word and input would raise first.
    """
    n = family.base.node_count
    runs = count << n
    effective_budget(budget).check("max_executions", runs)
    inits = list(product((0, 1), repeat=n))
    # The common value of each uniform input, else None.
    uniform = [init[0] if len(set(init)) == 1 else None for init in inits]
    senders = [tuple(map(mask_nodes, event.in_masks)) for event in family.events]
    message, transition, decision = protocol.message, protocol.transition, protocol.decision
    level = []
    for init in inits:
        try:
            level.append([*_start(protocol, init), None])
        except ProtocolError as exc:
            level.append([exc, None, None])
    levels = [level]
    previous: tuple[int, ...] = ()
    violations: list[Violation] = []
    for word in words:
        shared = next(
            (i for i, (a, b) in enumerate(zip(word, previous)) if a != b),
            min(len(word), len(previous)),
        )
        _check_letters(family, word, shared)
        del levels[shared + 1:]
        for round_no in range(shared + 1, len(word) + 1):
            if protocol.halting_round is not None and round_no > protocol.halting_round:
                # A halted protocol keeps its states and decides nothing more.
                levels.append(levels[-1])
                continue
            heard_from = senders[word[round_no - 1]]
            stepped = []
            for record in levels[-1]:
                states, decisions, payloads = record
                if isinstance(states, ProtocolError):
                    stepped.append(record)
                    continue
                if payloads is None:
                    try:
                        payloads = [message(u, state) for u, state in enumerate(states)]
                    except ProtocolError as exc:
                        payloads = exc
                    record[2] = payloads
                if isinstance(payloads, ProtocolError):
                    stepped.append([payloads, decisions, None])
                    continue
                try:
                    states = [
                        transition(v, state, {
                            u: payloads[u] for u in heard_from[v] if payloads[u] is not None
                        })
                        for v, state in enumerate(states)
                    ]
                    inherited = decisions
                    for v, state in enumerate(states):
                        value = decision(v, state)
                        old = decisions[v]
                        if old is None:
                            if value is not None:
                                if decisions is inherited:
                                    decisions = list(decisions)
                                decisions[v] = (value, round_no)
                        elif value != old[0]:
                            raise _changed_decision(v, old[0], value, round_no)
                except ProtocolError as exc:
                    states = exc
                stepped.append([states, decisions, None])
            levels.append(stepped)
        for init, value, (states, decisions, _payloads) in zip(inits, uniform, levels[-1]):
            if isinstance(states, ProtocolError):
                raise states
            first = decisions[0] if n else None
            # Every node decided the same value at the same round, and it is valid.
            if first is not None and decisions.count(first) == n and value in (None, first[0]):
                continue
            violations.extend(_check_run(word, init, decisions))
        previous = word
    return CheckReport(protocol.name, horizon, runs, tuple(violations))


def _check_run(
    word: tuple[int, ...],
    init: tuple[int, ...],
    decisions: Sequence[tuple[int, int] | None],
) -> list[Violation]:
    """The consensus requirements that one run, with these final decisions, breaks."""
    violations = []
    undecided = [v for v, d in enumerate(decisions) if d is None]
    if undecided:
        violations.append(
            Violation("termination", word, init, f"nodes {undecided} never decided")
        )
    decided = [d[0] for d in decisions if d is not None]
    if len(set(init)) == 1 and any(value != init[0] for value in decided):
        violations.append(
            Violation(
                "validity", word, init,
                f"uniform input {init[0]} but decisions {decided}",
            )
        )
    if len(set(decided)) > 1:
        violations.append(
            Violation("agreement", word, init, f"conflicting decisions {decided}")
        )
    return violations
