"""``Budget.from_env``: how ``OMLAB_BUDGET`` is read, and the cap message."""
from __future__ import annotations

import pytest

from omlab import Budget, BudgetExceededError, cli
from omlab.budget import DEFAULT_MAX_GAME_NODES


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


def test_cli_names_the_variable_once(monkeypatch, capsys):
    monkeypatch.setenv("OMLAB_BUDGET", "max_executions=abc")
    assert cli.main(["check", "--bundled", "fig12"]) == 64
    assert capsys.readouterr().err == (
        "omlab: error: OMLAB_BUDGET: cannot parse entry: 'max_executions=abc'\n"
    )
