"""Command-line entry point: check, gen, simulate, oracle, audit.

Exit codes: 0 solvable / checks passed, 2 unsolvable / violations found,
3 necessary condition holds (inconclusive), 64 the library or the CLI
raised ``InputError``, 65 resource budget exceeded.  The ``OMLAB_BUDGET``
environment variable overrides the default state-space caps; a malformed
value exits 64.
``check`` and ``gen`` render DOT with ``--format dot``; ``-o FILE``
writes any format to a file instead of stdout.
"""
from __future__ import annotations

import argparse
import json
import os
import random
import sys
from pathlib import Path
from typing import get_args

from . import bundled, dot
from .budget import Budget, BudgetExceededError, InputError
from .equivalence import beta_partition
from .events import (
    EventFamily,
    OmissionMetric,
    family_from_json_dict,
    family_to_json_dict,
    generate_bounded_omissions,
)
from .graphs import (
    Digraph,
    complete_digraph,
    cycle_digraph,
    digraph_from_json_dict,
    hypercube_digraph,
    path_digraph,
)
from .oracle import equal_rounds_audit, min_consensus_rounds
from .simulator import (
    CheckReport,
    ProtocolSpec,
    SimulationTrace,
    broadcast_consensus,
    check_scenarios,
    event_detection_consensus,
    exhaustive_check,
    flooding,
    run,
)
from .solvability import (
    BetaClassWitness,
    Verdict,
    check_broadcastable,
    check_consensus,
    connectivity_threshold_check,
    verdict_to_json_dict,
    witness_to_json_dict,
)

EXIT_OK = 0
EXIT_NEGATIVE = 2
EXIT_PARSE = 64
EXIT_BUDGET = 65

RULE_TEXT = {
    "common-source": "some node is a source of every event",
    "no-source-event": "an event has no source node",
    "source-incompatible": "events with sources but no common source",
    "convex-broadcast-equivalence":
        "family closed under arc additions: consensus coincides with broadcast",
    "broadcast-reduction":
        "broadcast is solvable; flooding the common source's value decides consensus",
    "indistinguishable-class-unbroadcastable":
        "an indistinguishability class has no common source",
    "necessary-condition-only":
        "every indistinguishability class is broadcastable; "
        "sufficiency of this condition is open",
}


class _Parser(argparse.ArgumentParser):
    def error(self, message: str) -> None:  # type: ignore[override]
        raise InputError(message)


def non_negative_int(text: str) -> int:
    """Argument type of sizes, omission bounds, horizons and round counts."""
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be non-negative, got {value}")
    return value


# ---- input resolution ---------------------------------------------------------

# flag -> (builder taking the size N, help text)
GRAPH_BUILDERS = {
    "hypercube": (hypercube_digraph, "hypercube of dimension N"),
    "complete": (complete_digraph, "complete graph on N nodes"),
    "cycle": (cycle_digraph, "cycle on N nodes"),
    "path": (path_digraph, "path on N nodes"),
}


def _add_graph_flags(parser: argparse.ArgumentParser) -> argparse._MutuallyExclusiveGroup:
    """The graph sources, exactly one of which must be given."""
    group = parser.add_mutually_exclusive_group(required=True)
    group.add_argument("--graph", metavar="FILE", help="digraph JSON file")
    for flag, (_build, text) in GRAPH_BUILDERS.items():
        group.add_argument(f"--{flag}", type=non_negative_int, metavar="N", help=text)
    return group


def _add_family_flags(parser: argparse.ArgumentParser) -> None:
    group = _add_graph_flags(parser)
    group.add_argument("--family", metavar="FILE", help="event family JSON file")
    group.add_argument("--bundled", metavar="NAME",
                       help="bundled example: " + ", ".join(bundled.NAMES))
    parser.add_argument("--bounded", type=non_negative_int, metavar="F",
                        help="generate events with at most F omissions")
    parser.add_argument("--metric", choices=get_args(OmissionMetric),
                        help="how omissions are counted (default global)")


def _load_json(path: str) -> dict:
    try:
        return json.loads(Path(path).read_text())
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc.strerror}")
    except ValueError as exc:  # bad JSON, bytes that are not text, or an overlong integer
        raise InputError(f"cannot parse {path}: {exc}")


def _resolve_graph(args: argparse.Namespace) -> Digraph:
    if args.graph is not None:
        return digraph_from_json_dict(_load_json(args.graph))
    flag = next(flag for flag in GRAPH_BUILDERS if getattr(args, flag) is not None)
    size = getattr(args, flag)
    try:
        return GRAPH_BUILDERS[flag][0](size)
    except InputError as exc:  # e.g. the self-loop of a one-node cycle
        raise InputError(f"--{flag} {size}: {exc}")


def _resolve_family(
    args: argparse.Namespace, budget: Budget, allow_non_mobile: bool = False
) -> EventFamily:
    given = args.family is not None or args.bundled is not None
    if given and (args.bounded is not None or args.metric is not None):
        raise InputError("--bounded and --metric apply only to a family generated from a graph")
    if args.family is not None:
        family = family_from_json_dict(_load_json(args.family))
    elif args.bundled is not None:
        family = bundled.load_family(args.bundled)
        if args.bundled == bundled.NOT_MOBILE and not allow_non_mobile:
            raise InputError(
                f"{args.bundled} is not a mobile scheme; solvability analysis "
                "does not apply (use `simulate --crash-horizon`)"
            )
    elif args.bounded is None:
        raise InputError("generated families need --bounded F")
    else:
        family = generate_bounded_omissions(
            _resolve_graph(args), args.bounded, args.metric or "global", budget
        )
    # Verdicts on a graph without nodes contradict each other; none is asked for.
    if not family.base.node_count:
        raise InputError("the family's graph has no nodes")
    return family


def _render(args: argparse.Namespace, **formats) -> None:
    """Write ``formats[args.format]()`` to stdout or ``-o FILE``: the ``json``
    function returns the object to serialize, the others return the text."""
    answer = formats[args.format]()
    text = json.dumps(answer, indent=2) if args.format == "json" else answer
    try:
        if args.output:
            Path(args.output).write_text(text + "\n")
        else:
            print(text, flush=True)
    except OSError as exc:
        if not args.output:
            # Python flushes stdout again at exit: send what is left nowhere.
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        raise InputError(f"cannot write {args.output or 'stdout'}: {exc.strerror}")


# ---- check --------------------------------------------------------------------

def _verdict_text(verdict: Verdict, family: EventFamily) -> str:
    lines = [f"{verdict.problem}: {verdict.answer.value}"]
    lines.append(f"rule: {verdict.rule} ({RULE_TEXT[verdict.rule]})")
    payload = witness_to_json_dict(verdict.witness, family)
    if payload is not None:
        lines.append("witness: " + json.dumps(payload))
    return "\n".join(lines)


def cmd_check(args: argparse.Namespace, budget: Budget) -> int:
    if args.beta and args.format != "json":
        raise InputError("--beta applies only to --format json")
    family = _resolve_family(args, budget)
    partition = beta_partition(family) if args.beta else None
    if args.problem == "broadcast":
        verdict = check_broadcastable(family, budget)
    else:
        verdict = check_consensus(family, partition, budget)
    if isinstance(verdict.witness, BetaClassWitness):
        partition = verdict.witness.partition

    def as_json() -> dict:
        payload = verdict_to_json_dict(verdict, family)
        if partition is not None:
            payload["beta"] = partition.to_json_dict()
        return payload

    _render(args, text=lambda: _verdict_text(verdict, family), json=as_json,
            dot=lambda: dot.verdict_dot(verdict, family))
    return verdict.exit_code


# ---- gen ----------------------------------------------------------------------

def cmd_gen(args: argparse.Namespace, budget: Budget) -> int:
    family = generate_bounded_omissions(
        _resolve_graph(args), args.bounded, args.metric, budget
    )
    _render(args, json=lambda: family_to_json_dict(family), dot=lambda: dot.family_dot(family))
    print(f"generated {len(family)} events", file=sys.stderr)
    return EXIT_OK


# ---- simulate -------------------------------------------------------------------

def _build_protocol(args: argparse.Namespace, family: EventFamily) -> ProtocolSpec:
    name = args.protocol
    if name == "h-one-round":
        return bundled.h_one_round()
    if name in ("flooding", "broadcast-consensus"):
        if args.origin is None or args.rounds is None:
            raise InputError(f"{name} needs --origin NODE and --rounds R")
        factory = flooding if name == "flooding" else broadcast_consensus
        return factory(family.base.node(args.origin), args.rounds)
    if not args.decide_map:
        raise InputError('event-detection needs --decide-map "H1=c,H2=d"')
    mapping = {}
    for part in args.decide_map.split(","):
        event_name, sep, node_label = (s.strip() for s in part.partition("="))
        if not sep:
            raise InputError(f"cannot parse --decide-map entry {part!r}")
        event = family.name_index.get(event_name)
        if event is None:
            raise InputError(f"unknown event in --decide-map: {event_name}")
        if event in mapping:
            raise InputError(f"repeated event in --decide-map: {event_name}")
        node = family.base.label_index.get(node_label)
        if node is None:
            raise InputError(f"unknown node in --decide-map: {node_label}")
        mapping[event] = node
    return event_detection_consensus(family, mapping)


def _parse_scenario(spec: str, family: EventFamily) -> tuple[int, ...]:
    word = []
    for token in spec.split(","):
        token = token.strip()
        if token in family.name_index:
            word.append(family.name_index[token])
        elif token.isascii() and token.isdigit() and int(token) < len(family):
            word.append(int(token))
        else:
            raise InputError(f"unknown event {token!r} in --scenario")
    return tuple(word)


def _parse_init(spec: str, family: EventFamily) -> tuple[int, ...]:
    mapping = {}
    for part in spec.split(","):
        label, sep, value = part.partition("=")
        if not sep or value.strip() not in ("0", "1"):
            raise InputError(f"cannot parse --init entry {part!r}")
        label = label.strip()
        if label in mapping:
            raise InputError(f"repeated node in --init: {label}")
        mapping[label] = int(value)
    g = family.base
    values = {g.node(label): value for label, value in mapping.items()}
    missing = [g.label(u) for u in range(g.node_count) if u not in values]
    if missing:
        raise InputError(f"initial value missing for nodes: {missing}")
    return tuple(values[u] for u in range(g.node_count))


def _trace_json(trace: SimulationTrace, protocol: ProtocolSpec, family: EventFamily) -> dict:
    g = family.base
    return {
        "protocol": protocol.name,
        "scenario": family.names_of(trace.word),
        "init": {g.label(u): v for u, v in enumerate(trace.init)},
        "rounds": [
            {
                "round": r + 1,
                "event": family.name(trace.word[r]),
                "delivered": [[g.label(t), g.label(h)] for t, h in trace.deliveries[r]],
                "states": {g.label(u): repr(s) for u, s in enumerate(trace.states[r + 1])},
            }
            for r in range(trace.rounds)
        ],
        "decisions": {
            g.label(u): None if d is None else {"value": d[0], "round": d[1]}
            for u, d in enumerate(trace.decisions)
        },
    }


def _trace_text(trace: SimulationTrace, protocol: ProtocolSpec, family: EventFamily) -> str:
    g = family.base
    values = " ".join(f"{g.label(u)}={x}" for u, x in enumerate(trace.init))
    lines = [f"protocol {protocol.name}: init {values}"]
    for r, letter in enumerate(trace.word):
        arcs = " ".join(f"{g.label(t)}->{g.label(h)}" for t, h in trace.deliveries[r])
        lines.append(f"  round {r + 1} {family.name(letter)}: {arcs or '(nothing delivered)'}")
    decided = [
        f"{g.label(u)}={'undecided' if d is None else f'{d[0]} (round {d[1]})'}"
        for u, d in enumerate(trace.decisions)
    ]
    lines.append("decisions: " + " ".join(decided))
    return "\n".join(lines)


def _report_text(report: CheckReport, family: EventFamily) -> str:
    lines = [
        f"protocol {report.protocol}: "
        f"{'PASS' if report.passed else 'FAIL'} ({report.runs} runs)"
    ]
    for v in report.violations[:20]:
        scenario = ",".join(family.names_of(v.word))
        lines.append(f"  {v.kind}: scenario [{scenario}] init {list(v.init)}: {v.detail}")
    if len(report.violations) > 20:
        lines.append(f"  ... and {len(report.violations) - 20} more violations")
    return "\n".join(lines)


def cmd_simulate(args: argparse.Namespace, budget: Budget) -> int:
    floods = args.protocol in ("flooding", "broadcast-consensus")
    for flag, value, reader, read in (
        ("--init", args.init, "--scenario", args.scenario is not None),
        ("--length", args.length, "--random-scenarios", args.random_scenarios is not None),
        ("--seed", args.seed, "--random-scenarios", args.random_scenarios is not None),
        ("--origin", args.origin, "flooding and broadcast-consensus", floods),
        ("--rounds", args.rounds, "flooding and broadcast-consensus", floods),
        ("--decide-map", args.decide_map, "event-detection", args.protocol == "event-detection"),
    ):
        if value is not None and not read:
            raise InputError(f"{flag} applies only to {reader}")
    family = _resolve_family(args, budget, allow_non_mobile=args.crash_horizon is not None)
    if args.crash_horizon is not None:
        family, words = bundled.crash_scheme_prefixes(family.base, args.crash_horizon)
    protocol = _build_protocol(args, family)
    if args.crash_horizon is not None:
        report = check_scenarios(protocol, family, sorted(words), args.crash_horizon, budget)
    elif args.all_scenarios is not None:
        report = exhaustive_check(protocol, family, args.all_scenarios, budget)
    elif args.random_scenarios is not None:
        if args.length is None:
            raise InputError("--random-scenarios needs --length L")
        budget.check("max_executions", args.random_scenarios << family.base.node_count)
        # One generator per word, seeded seed + i, so each word depends on its seed only.
        letters = range(len(family))
        seed = args.seed or 0
        rngs = (random.Random(seed + i) for i in range(args.random_scenarios))
        words = [tuple(rng.choice(letters) for _ in range(args.length)) for rng in rngs]
        report = check_scenarios(protocol, family, words, args.length, budget)
    else:
        if args.scenario is None or args.init is None:
            raise InputError(
                "give --scenario and --init for a single run, or --all-scenarios / "
                "--random-scenarios / --crash-horizon for a sweep"
            )
        trace = run(
            protocol, family, _parse_scenario(args.scenario, family),
            _parse_init(args.init, family),
        )
        _render(args, text=lambda: _trace_text(trace, protocol, family),
                json=lambda: _trace_json(trace, protocol, family))
        return EXIT_OK
    _render(args, text=lambda: _report_text(report, family),
            json=lambda: report.to_json_dict(family))
    return EXIT_OK if report.passed else EXIT_NEGATIVE


# ---- oracle ---------------------------------------------------------------------

def cmd_oracle(args: argparse.Namespace, budget: Budget) -> int:
    family = _resolve_family(args, budget)
    result = min_consensus_rounds(family, args.max_horizon, budget)
    _render(
        args,
        text=lambda: "\n".join([
            f"consensus solvable in {result.rounds} round(s)" if result.solvable
            else f"no consensus protocol with horizon <= {result.max_horizon}",
            *(f"  r={r}: {'solvable' if ok else 'not solvable'}"
              for r, ok in result.horizon_table),
        ]),
        json=lambda: result.to_json_dict(family),
    )
    return EXIT_OK if result.solvable else EXIT_NEGATIVE


# ---- audit ----------------------------------------------------------------------

def cmd_audit_connectivity(args: argparse.Namespace, budget: Budget) -> int:
    rows = connectivity_threshold_check(_resolve_graph(args), args.f_max, budget)
    payload = [
        {
            "f": row.f,
            "answer": row.answer.value,
            "expected_solvable": row.expected_solvable,
            "agrees": row.agrees,
        }
        for row in rows
    ]
    _render(
        args,
        text=lambda: "\n".join(
            f"f={r['f']}: {r['answer']} "
            f"(expected {'solvable' if r['expected_solvable'] else 'unsolvable'})"
            + ("" if r["agrees"] else "  << MISMATCH")
            for r in payload
        ),
        json=lambda: payload,
    )
    return EXIT_OK if all(row.agrees for row in rows) else EXIT_NEGATIVE


def cmd_audit_equal_rounds(args: argparse.Namespace, budget: Budget) -> int:
    family = _resolve_family(args, budget)
    report = equal_rounds_audit(family, budget)
    _render(
        args,
        text=lambda: (
            f"broadcast rounds: {report.broadcast_rounds}\n"
            f"consensus rounds: {report.consensus_rounds}\n"
            f"equal: {report.equal}"
        ),
        json=lambda: report.to_json_dict(family),
    )
    return EXIT_OK if report.equal else EXIT_NEGATIVE


# ---- parser ---------------------------------------------------------------------

def _add_command(sub, name: str, run, text: str, formats=("text", "json")) -> _Parser:
    """A subcommand parser that dispatches to ``run(args, budget)``; the first of
    ``formats``, the names ``run`` passes to ``_render``, is the default."""
    parser = sub.add_parser(name, help=text)
    parser.set_defaults(run=run)
    parser.add_argument("--format", choices=formats, default=formats[0])
    parser.add_argument("-o", "--output", metavar="FILE")
    return parser


def build_parser() -> _Parser:
    parser = _Parser(
        prog="omlab",
        description="Broadcast/consensus solvability under mobile omission faults.",
        epilog="Set OMLAB_BUDGET to override state-space caps.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    check = _add_command(sub, "check", cmd_check, "solvability verdict for a family",
                         ("text", "json", "dot"))
    _add_family_flags(check)
    check.add_argument("--problem", choices=("consensus", "broadcast"),
                       default="consensus")
    check.add_argument("--beta", action="store_true",
                       help="include the class partition in JSON output")

    gen = _add_command(sub, "gen", cmd_gen, "generate a bounded-omission family",
                       ("json", "dot"))
    _add_graph_flags(gen)
    gen.add_argument("--bounded", type=non_negative_int, metavar="F", required=True)
    gen.add_argument("--metric", choices=get_args(OmissionMetric), default="global")

    sim = _add_command(sub, "simulate", cmd_simulate, "run a protocol against scenarios")
    _add_family_flags(sim)
    sim.add_argument("--protocol", required=True,
                     choices=("h-one-round", "flooding", "broadcast-consensus", "event-detection"))
    sim.add_argument("--origin", metavar="NODE", help="originator label")
    sim.add_argument("--rounds", type=non_negative_int, help="protocol round parameter")
    sim.add_argument("--decide-map", metavar="MAP", help='e.g. "H1=c,H2=d"')
    sim.add_argument("--init", metavar="VALUES", help='e.g. "a=0,b=1"')
    sim.add_argument("--length", type=non_negative_int, help="word length for --random-scenarios")
    sim.add_argument("--seed", type=int, help="first seed for --random-scenarios (default 0)")
    mode = sim.add_mutually_exclusive_group()
    mode.add_argument("--scenario", metavar="WORD", help='e.g. "H1,H2,H1"')
    mode.add_argument("--all-scenarios", type=non_negative_int, metavar="H",
                      help="check all words of length H against all inputs")
    mode.add_argument("--random-scenarios", type=non_negative_int, metavar="N",
                      help="check N seeded random words")
    mode.add_argument("--crash-horizon", type=non_negative_int, metavar="H",
                      help="check all single-crash prefixes of length H (2-node)")

    oracle = _add_command(sub, "oracle", cmd_oracle, "brute-force consensus search")
    _add_family_flags(oracle)
    oracle.add_argument("--max-horizon", type=non_negative_int, default=3)

    audit = sub.add_parser("audit", help="cross-check theory against searches")
    audit_sub = audit.add_subparsers(dest="audit_kind", required=True)
    conn = _add_command(audit_sub, "connectivity", cmd_audit_connectivity,
                        "omission bound sweep vs graph connectivity")
    _add_graph_flags(conn)
    conn.add_argument("--f-max", type=non_negative_int, required=True)
    eq = _add_command(audit_sub, "equal-rounds", cmd_audit_equal_rounds,
                      "broadcast rounds vs oracle consensus rounds")
    _add_family_flags(eq)
    return parser


def main(argv: list[str] | None = None) -> int:
    try:
        args = build_parser().parse_args(argv)
        try:
            budget = Budget.from_env()
        except InputError as exc:
            raise InputError(f"OMLAB_BUDGET: {exc}")
        return args.run(args, budget)
    except InputError as exc:
        print(f"omlab: error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except BudgetExceededError as exc:
        print(f"omlab: budget exceeded: {exc}", file=sys.stderr)
        return EXIT_BUDGET


if __name__ == "__main__":
    raise SystemExit(main())
