"""Deterministic synchronous round engine driven by scenario words.

Each round, every node computes a message per out-neighbour of the base
graph; a message is delivered exactly when its arc is present in the
round's event (so failures never depend on what the algorithm sends).
Nodes then update their state from the delivered messages.  Nodes know
the family of possible events, never the actual letter, except through
what they receive.

Decisions are sticky: once a node's decision extractor reports a value,
reporting a different value (or none) later is a protocol error.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Iterable, Mapping, Sequence

from .budget import Budget, BudgetExceededError, effective_budget
from .events import EventFamily, InitialConfig, all_initial_configs
from .graphs import Arc, node_mask
from .scenarios import Scenario


class ProtocolError(RuntimeError):
    """A protocol violated the engine's contract (e.g. changed a decision)."""


@dataclass(frozen=True)
class ProtocolSpec:
    """Deterministic per-node algorithm as four functions.

    ``init(node, value)`` builds the initial state; ``message(node,
    state, neighbor)`` returns the payload for one out-neighbour (None
    sends nothing); ``transition(node, state, delivered)`` consumes the
    mapping of in-neighbour to payload for delivered messages only;
    ``decision(node, state)`` reports 0/1 once decided, else None.
    After ``halting_round`` rounds the node stops sending and its state
    freezes.
    """

    name: str
    state_space: str
    init: Callable[[int, int], Any]
    message: Callable[[int, Any, int], Any]
    transition: Callable[[int, Any, Mapping[int, Any]], Any]
    decision: Callable[[int, Any], int | None]
    halting_round: int | None = None


@dataclass(frozen=True)
class SimulationTrace:
    scenario: Scenario
    init: InitialConfig
    states: tuple[tuple[Any, ...], ...]  # states[r] = configuration after round r
    deliveries: tuple[tuple[Arc, ...], ...]  # arcs that carried a message, per round
    decisions: tuple[tuple[int, int] | None, ...]  # per node: (value, round decided)

    @property
    def rounds(self) -> int:
        return len(self.scenario.word)


def run(
    protocol: ProtocolSpec,
    family: EventFamily,
    scenario: Scenario,
    init: InitialConfig,
) -> SimulationTrace:
    """Execute the protocol subject to the scenario word."""
    scenario.check_family(family)
    n = family.base.node_count
    if len(init.values) != n:
        raise ValueError(
            f"initial configuration has {len(init.values)} values, graph has {n} nodes"
        )
    states, decisions = _start(protocol, init)
    all_states = [tuple(states)]
    deliveries: list[tuple[Arc, ...]] = []
    for round_no, letter in enumerate(scenario.word, start=1):
        states, arcs_used = _step(
            protocol, family, states, letter, decisions, round_no
        )
        all_states.append(tuple(states))
        deliveries.append(arcs_used)
    return SimulationTrace(
        scenario, init, tuple(all_states), tuple(deliveries), tuple(decisions)
    )


def _start(
    protocol: ProtocolSpec, init: InitialConfig
) -> tuple[list[Any], list[tuple[int, int] | None]]:
    """The initial states and the decisions taken at round 0."""
    states = [protocol.init(u, value) for u, value in enumerate(init.values)]
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
    arc_mask = family.events[letter].arc_mask
    delivered: list[dict[int, Any]] = [{} for _ in states]
    arcs_used: list[Arc] = []
    for bit, (tail, head) in enumerate(family.base.sorted_arcs):
        payload = protocol.message(tail, states[tail], head)
        if payload is not None and arc_mask >> bit & 1:
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
            raise ProtocolError(
                f"node {v} changed its decision from {previous[0]} to {value} "
                f"at round {round_no}"
            )


# ---- standard protocols -------------------------------------------------------

def flooding(u: int, rounds: int) -> ProtocolSpec:
    """Originator ``u`` sends its value; informed nodes forward every round."""
    if rounds < 0:
        raise ValueError("round count must be non-negative")

    def init(v: int, value: int):
        return value if v == u else None

    def message(v: int, state, neighbor: int):
        return state

    def transition(v: int, state, delivered: Mapping[int, Any]):
        if state is not None:
            return state
        for payload in delivered.values():
            return payload
        return None

    return ProtocolSpec(
        name=f"flooding[{u},{rounds}]",
        state_space="originator value, or None before it arrives",
        init=init,
        message=message,
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
        raise ValueError("round count must be non-negative")

    def init(v: int, value: int):
        got = value if v == u else None
        return (0, got, value)

    def message(v: int, state, neighbor: int):
        return state[1]

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
        state_space="(round, originator value or None, own value)",
        init=init,
        message=message,
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
        raise ValueError("decision map must cover exactly the family's events")
    for e, origin in decision_map.items():
        event = family.events[e]
        for v in range(n):
            if v != origin and not event.out_masks[origin] >> v & 1:
                raise ValueError(
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
                raise ValueError(
                    f"node {family.base.label(v)} cannot distinguish "
                    f"{family.name(other)} from {family.name(e)}"
                )
            senders_to_event[senders] = e
        lookup.append(senders_to_event)

    def init(v: int, value: int):
        return (None, value)

    def message(v: int, state, neighbor: int):
        return state[1]

    def transition(v: int, state, delivered: Mapping[int, Any]):
        decided, own = state
        if decided is not None:
            return state
        senders = node_mask(delivered.keys())
        e = lookup[v][senders]
        origin = decision_map[e]
        value = own if origin == v else delivered[origin]
        return (value, own)

    return ProtocolSpec(
        name="event-detection-consensus",
        state_space="(decided value or None, own value)",
        init=init,
        message=message,
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
    scenarios: Iterable[Scenario],
    horizon: int,
    budget: Budget | None = None,
) -> CheckReport:
    """Run all scenarios against all binary inputs and check the three
    consensus requirements: every node decides, uniform inputs force the
    common value, and all decided values agree.  Nodes may decide at
    different rounds, as long as all have decided by the end."""
    budget = effective_budget(budget)
    n = family.base.node_count
    scenario_list = list(scenarios)
    runs = len(scenario_list) * (1 << n)
    if runs > budget.max_executions:
        raise BudgetExceededError(
            f"{runs} runs exceed the execution cap {budget.max_executions}"
        )
    violations: list[Violation] = []
    for scenario in scenario_list:
        for init in all_initial_configs(n):
            trace = run(protocol, family, scenario, init)
            violations.extend(_check_run(scenario.word, init, trace.decisions))
    return CheckReport(protocol.name, horizon, runs, tuple(violations))


def _check_run(
    word: tuple[int, ...],
    init: InitialConfig,
    decisions: Sequence[tuple[int, int] | None],
) -> list[Violation]:
    """The consensus requirements that one run, with these final decisions, breaks."""
    values = init.values
    violations = []
    undecided = [v for v, d in enumerate(decisions) if d is None]
    if undecided:
        violations.append(
            Violation("termination", word, values, f"nodes {undecided} never decided")
        )
    decided = [d[0] for d in decisions if d is not None]
    uniform = init.all_same
    if uniform is not None and any(value != uniform for value in decided):
        violations.append(
            Violation(
                "validity", word, values,
                f"uniform input {uniform} but decisions {decided}",
            )
        )
    if len(set(decided)) > 1:
        violations.append(
            Violation("agreement", word, values, f"conflicting decisions {decided}")
        )
    return violations


def exhaustive_check(
    protocol: ProtocolSpec,
    family: EventFamily,
    horizon: int,
    budget: Budget | None = None,
) -> CheckReport:
    """``check_scenarios`` over every length-``horizon`` word of the family.

    The words are walked as a prefix tree, depth first in lexicographic
    order, carrying the runs of every input, so each prefix is simulated
    once.  A run that raises ``ProtocolError`` stops, and keeps the error
    until the walk reaches a full word: errors surface in word-major,
    input-minor order, so the same one is raised as by ``check_scenarios``.
    """
    if horizon < 0:
        raise ValueError("horizon must be non-negative")
    budget = effective_budget(budget)
    n = family.base.node_count
    runs = len(family) ** horizon * (1 << n)
    if runs > budget.max_executions:
        raise BudgetExceededError(
            f"{runs} runs exceed the execution cap {budget.max_executions}"
        )
    inits = list(all_initial_configs(n))
    violations: list[Violation] = []

    def walk(word: tuple[int, ...], carried: list) -> None:
        if len(word) == horizon:
            for init, (states, decisions) in zip(inits, carried):
                if isinstance(states, ProtocolError):
                    raise states
                violations.extend(_check_run(word, init, decisions))
            return
        round_no = len(word) + 1
        for letter in range(len(family)):
            stepped = []
            for states, decisions in carried:
                if not isinstance(states, ProtocolError):
                    decisions = list(decisions)
                    try:
                        states, _arcs = _step(
                            protocol, family, states, letter, decisions, round_no
                        )
                    except ProtocolError as exc:
                        states = exc
                stepped.append((states, decisions))
            walk(word + (letter,), stepped)

    walk((), [_start(protocol, init) for init in inits])
    return CheckReport(protocol.name, horizon, runs, tuple(violations))
