"""``Budget.from_env``: how ``OMLAB_BUDGET`` is read, that only the CLI reads it,
the cap message, and the one error type that the library's input checks raise."""
from __future__ import annotations

import pytest

from omlab import (
    Budget,
    BudgetExceededError,
    Digraph,
    InputError,
    IncompatibilityWitness,
    arc_connectivity,
    broadcast_consensus,
    check_broadcastable,
    check_consensus,
    cli,
    complete_digraph,
    cycle_digraph,
    digraph_from_json_dict,
    equal_rounds_audit,
    event_detection_consensus,
    exhaustive_check,
    family_from_json_dict,
    flooding,
    generate_bounded_omissions,
    min_consensus_rounds,
)
from omlab.budget import DEFAULT_MAX_GAME_NODES
from omlab.bundled import crash_scheme_prefixes, h_one_round, load_family


def test_unset_or_empty_gives_the_defaults(monkeypatch):
    monkeypatch.delenv("OMLAB_BUDGET", raising=False)
    assert Budget.from_env() == Budget()
    assert Budget.from_env("") == Budget()


def test_bare_integer_sets_the_execution_and_family_caps():
    budget = Budget.from_env("  5000 ")
    assert budget == Budget(max_family_events=5000, max_executions=5000)
    assert budget.max_game_nodes == DEFAULT_MAX_GAME_NODES


def test_key_value_list_sets_each_named_cap(monkeypatch):
    monkeypatch.setenv("OMLAB_BUDGET", "max_executions=2000000, max_game_nodes = 12")
    assert Budget.from_env() == Budget(max_executions=2_000_000, max_game_nodes=12)


def test_library_calls_ignore_the_environment(monkeypatch):
    # The CLI exits 65 under these settings (test_cli.py); a library call
    # that passes no budget gets DEFAULT_BUDGET instead.
    monkeypatch.setenv("OMLAB_BUDGET", "max_game_nodes=2")
    family = generate_bounded_omissions(cycle_digraph(21), 2, "global")
    for verdict in (check_broadcastable(family), check_consensus(family)):
        assert isinstance(verdict.witness, IncompatibilityWitness)
        assert verdict.witness.holds(family)
    monkeypatch.setenv("OMLAB_BUDGET", "max_executions=50")
    result = min_consensus_rounds(load_family("O1-2node"), 3)
    assert result.rounds is None and result.witness is not None


@pytest.mark.parametrize(
    "raw, entry",
    [
        ("bogus=1", "bogus=1"),
        ("max_executions=abc", "max_executions=abc"),
        ("max_executions=", "max_executions="),
        ("max_executions=-5", "max_executions=-5"),
        ("max_executions=5,", ""),
        ("foo", "foo"),
    ],
    ids=["unknown-key", "not-an-integer", "no-value", "negative", "empty-entry", "bare-word"],
)
def test_unreadable_entry_is_named(raw, entry):
    with pytest.raises(ValueError) as info:
        Budget.from_env(raw)
    assert str(info.value) == f"cannot parse entry: {entry!r}"


@pytest.mark.parametrize(
    "raw, cap", [("0", "max_family_events"), ("max_executions=0", "max_executions")]
)
def test_zero_cap_is_rejected(raw, cap):
    with pytest.raises(ValueError, match=f"^budget cap {cap} must be positive$"):
        Budget.from_env(raw)


def test_check_names_cap_amount_and_limit():
    budget = Budget(max_executions=1000)
    budget.check("max_executions", 1000)
    with pytest.raises(BudgetExceededError) as info:
        budget.check("max_executions", 1_234_567)
    assert str(info.value) == "max_executions: 1,234,567 > 1,000"


@pytest.mark.parametrize(
    "raw, entry",
    [
        ("max_executions=5,max_executions=7", "max_executions=7"),
        ("max_game_nodes=3, max_executions=9,max_game_nodes =3", "max_game_nodes =3"),
    ],
    ids=["different-values", "same-value-spaced-key"],
)
def test_repeated_entry_is_refused(raw, entry):
    with pytest.raises(InputError) as info:
        Budget.from_env(raw)
    assert str(info.value) == f"repeated entry: {entry!r}"


def test_cli_refuses_a_repeated_cap(monkeypatch, capsys):
    monkeypatch.setenv("OMLAB_BUDGET", "max_executions=5,max_executions=7")
    assert cli.main(["check", "--bundled", "fig12"]) == 64
    assert capsys.readouterr().err == (
        "omlab: error: OMLAB_BUDGET: repeated entry: 'max_executions=7'\n"
    )


def test_cli_names_the_variable_once(monkeypatch, capsys):
    monkeypatch.setenv("OMLAB_BUDGET", "max_executions=abc")
    assert cli.main(["check", "--bundled", "fig12"]) == 64
    assert capsys.readouterr().err == (
        "omlab: error: OMLAB_BUDGET: cannot parse entry: 'max_executions=abc'\n"
    )


TWO_NODES = {"nodes": ["a", "b"], "arcs": [["a", "b"], ["b", "a"]]}


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: digraph_from_json_dict({"nodes": ["a"]}), "malformed digraph JSON: 'arcs'"),
        (lambda: family_from_json_dict({"graph": TWO_NODES, "events": [{"arcs": [["a"]]}]}),
         "malformed event entry 0: arc ['a'] is not a pair"),
        (lambda: load_family("nope"), "unknown bundled example 'nope' "
         "(known: reliable-2node, O1-2node, H-2node, fig12, crash-C1)"),
        (lambda: Budget.from_env("x"), "cannot parse entry: 'x'"),
        (lambda: crash_scheme_prefixes(complete_digraph(3), 1),
         "the crash scheme is defined on the complete 2-node digraph"),
        (lambda: arc_connectivity(Digraph(2, frozenset({(0, 1)}))),
         "arc connectivity is defined for symmetric digraphs only"),
        (lambda: equal_rounds_audit(load_family("H-2node")),
         "the equal-rounds audit applies to convex families only"),
        (lambda: event_detection_consensus(load_family("fig12"), {0: 2}),
         "decision map must cover exactly the family's events"),
        (lambda: complete_digraph(2).node("zz"), "unknown node label 'zz'"),
        (lambda: flooding(0, -1), "round count must be non-negative"),
        (lambda: broadcast_consensus(0, -1), "round count must be non-negative"),
        (lambda: exhaustive_check(h_one_round(), load_family("H-2node"), -1),
         "horizon must be non-negative"),
        (lambda: min_consensus_rounds(load_family("fig12"), -1), "horizon must be non-negative"),
        (lambda: crash_scheme_prefixes(complete_digraph(2), -1), "horizon must be non-negative"),
        (lambda: Digraph(-1, frozenset()), "node_count must be non-negative"),
        (lambda: Digraph(2, frozenset(), labels=("a",)), "labels must cover every node"),
        (lambda: digraph_from_json_dict({"nodes": "ab", "arcs": []}),
         "malformed digraph JSON: 'nodes' is not an array"),
        (lambda: digraph_from_json_dict({"nodes": {"a": 0, "b": 1}, "arcs": []}),
         "malformed digraph JSON: 'nodes' is not an array"),
        (lambda: digraph_from_json_dict({"nodes": ["a", "b"], "arcs": "ab"}),
         "malformed digraph JSON: 'arcs' is not an array"),
        (lambda: digraph_from_json_dict({"nodes": ["a", "b"], "arcs": {"ab": 1}}),
         "malformed digraph JSON: 'arcs' is not an array"),
        (lambda: family_from_json_dict({"graph": TWO_NODES, "events": {"x": 1}}),
         "malformed family JSON: 'events' is not an array"),
        (lambda: family_from_json_dict({"graph": TWO_NODES, "events": "ab"}),
         "malformed family JSON: 'events' is not an array"),
    ],
    ids=["graph-json", "family-json", "unknown-bundled", "budget-env", "crash-on-k3",
         "asymmetric-connectivity", "equal-rounds-not-convex", "incomplete-decide-map",
         "unknown-node-label", "flooding-negative-rounds", "broadcast-consensus-negative-rounds",
         "exhaustive-negative-horizon", "oracle-negative-horizon", "crash-negative-horizon",
         "negative-node-count", "labels-short", "graph-nodes-string", "graph-nodes-object",
         "graph-arcs-string", "graph-arcs-object", "family-events-object",
         "family-events-string"],
)
def test_library_input_checks_raise_input_error(call, message):
    with pytest.raises(InputError) as info:
        call()
    assert str(info.value) == message
