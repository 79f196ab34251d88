"""Golden command-line runs: the exact stdout and the exit code of each.

Each case runs ``cli.main`` on one argument list, with ``OMLAB_BUDGET``
set where the case says so.  The exit code is pinned here, next to the
arguments; the stdout is pinned in ``data/cli_golden.json``.  The cases
cover ``check`` in every format on every bundled example, ``gen``,
``simulate``, ``oracle`` and both ``audit`` kinds, so they also pin the
DOT renderer, the oracle and the simulator end to end.

When a change of output is intended, rewrite the file with
``PYTHONPATH=src python tests/test_cli_golden.py`` and review the diff.
"""
from __future__ import annotations

import io
import json
from contextlib import redirect_stdout
from pathlib import Path

import pytest

from omlab import cli

DATA = Path(__file__).parent / "data"
GOLDEN = DATA / "cli_golden.json"

CHECK_CODES = {"reliable-2node": 0, "O1-2node": 2, "H-2node": 3, "fig12": 0, "crash-C1": 64}

# name -> (argv, OMLAB_BUDGET or None, exit code)
CASES: dict[str, tuple[list[str], str | None, int]] = {
    f"check-{name}-{fmt}": (["check", "--bundled", name, "--format", fmt], None, code)
    for name, code in CHECK_CODES.items()
    for fmt in ("text", "json", "dot")
}
CASES.update({
    "gen-k3-f1-json": (["gen", "--complete", "3", "--bounded", "1", "--format", "json"], None, 0),
    "gen-k3-f1-default": (["gen", "--complete", "3", "--bounded", "1"], None, 0),
    "gen-k3-f1-dot": (["gen", "--complete", "3", "--bounded", "1", "--format", "dot"], None, 0),
    "simulate-h-one-round-all": (
        ["simulate", "--bundled", "H-2node", "--protocol", "h-one-round",
         "--all-scenarios", "2"], None, 0),
    "simulate-o1-broadcast-consensus-all-json": (
        ["simulate", "--bundled", "O1-2node", "--protocol", "broadcast-consensus",
         "--origin", "white", "--rounds", "1", "--all-scenarios", "1", "--format", "json"],
        None, 2),
    "simulate-fig12-flooding-trace": (
        ["simulate", "--bundled", "fig12", "--protocol", "flooding", "--origin", "a",
         "--rounds", "2", "--scenario", "H1,H2", "--init", "a=1,b=0,c=0,d=1"], None, 0),
    "oracle-fig12-json": (["oracle", "--bundled", "fig12", "--format", "json"], None, 0),
    "oracle-o1-json": (
        ["oracle", "--bundled", "O1-2node", "--max-horizon", "2", "--format", "json"], None, 2),
    "audit-connectivity-k4": (
        ["audit", "connectivity", "--complete", "4", "--f-max", "3"], None, 0),
    "audit-equal-rounds-k3-f1-json": (
        ["audit", "equal-rounds", "--complete", "3", "--bounded", "1", "--format", "json"],
        None, 0),
    "oracle-fig12-over-budget": (["oracle", "--bundled", "fig12"], "10", 65),
    "oracle-o1-text": (["oracle", "--bundled", "O1-2node", "--max-horizon", "2"], None, 2),
    "audit-equal-rounds-k3-f1-text": (
        ["audit", "equal-rounds", "--complete", "3", "--bounded", "1"], None, 0),
    "audit-equal-rounds-k4-f2-json": (
        ["audit", "equal-rounds", "--complete", "4", "--bounded", "2", "--format", "json"],
        None, 0),
    "audit-equal-rounds-q3-f1-text": (
        ["audit", "equal-rounds", "--hypercube", "3", "--bounded", "1"], None, 0),
    "audit-equal-rounds-k4-send-f1-json": (
        ["audit", "equal-rounds", "--complete", "4", "--bounded", "1", "--metric", "send",
         "--format", "json"], None, 0),
    # On P4 f=0 node v1 needs 2 rounds and v0 needs 3: a later source beats the first.
    "audit-equal-rounds-p4-f0-json": (
        ["audit", "equal-rounds", "--path", "4", "--bounded", "0", "--format", "json"],
        None, 0),
    "audit-connectivity-c4-json": (
        ["audit", "connectivity", "--cycle", "4", "--f-max", "2", "--format", "json"], None, 0),
    "simulate-o1-broadcast-consensus-random": (
        ["simulate", "--bundled", "O1-2node", "--protocol", "broadcast-consensus",
         "--origin", "white", "--rounds", "1", "--random-scenarios", "3", "--length", "2",
         "--seed", "5"], None, 2),
    "simulate-crash-c1-h-one-round": (
        ["simulate", "--bundled", "crash-C1", "--protocol", "h-one-round",
         "--crash-horizon", "2"], None, 2),
    # A sweep of 4 nodes past round 1: flooding from v0 needs 3 rounds on C4 f=1.
    "simulate-c4-broadcast-consensus-all": (
        ["simulate", "--cycle", "4", "--bounded", "1", "--protocol", "broadcast-consensus",
         "--origin", "v0", "--rounds", "2", "--all-scenarios", "3"], None, 2),
    "simulate-fig12-event-detection-all": (
        ["simulate", "--bundled", "fig12", "--protocol", "event-detection",
         "--decide-map", "H1=c,H2=d", "--all-scenarios", "1"], None, 0),
    "check-fig12-broadcast": (["check", "--bundled", "fig12", "--problem", "broadcast"], None, 0),
    "check-H-2node-json-beta": (
        ["check", "--bundled", "H-2node", "--format", "json", "--beta"], None, 3),
    "gen-c3-f1-send-json": (
        ["gen", "--cycle", "3", "--bounded", "1", "--metric", "send", "--format", "json"],
        None, 0),
    "check-fig12-budget-not-a-number": (["check", "--bundled", "fig12"], "foo", 64),
    "check-fig12-budget-zero": (["check", "--bundled", "fig12"], "0", 64),
    "check-fig12-bounded-with-bundled": (
        ["check", "--bundled", "fig12", "--bounded", "3", "--metric", "send"], None, 64),
    "simulate-fig12-flooding-trace-json": (
        ["simulate", "--bundled", "fig12", "--protocol", "flooding", "--origin", "a",
         "--rounds", "2", "--scenario", "H1,H2", "--init", "a=1,b=0,c=0,d=1",
         "--format", "json"], None, 0),
    # An event of P3 f=2 has no source: the DOT shows that event alone.
    "check-p3-f2-dot": (["check", "--path", "3", "--bounded", "2", "--format", "dot"], None, 2),
    # A class of the partition has no common source: the DOT shows its incompatible events.
    "check-c4-class-unbroadcastable-dot": (
        ["check", "--family", str(DATA / "c4-class-unbroadcastable.json"), "--format", "dot"],
        None, 2),
})


def run_case(name: str, monkeypatch: pytest.MonkeyPatch, *extra: str) -> tuple[int, str]:
    argv, budget, _code = CASES[name]
    if budget is None:
        monkeypatch.delenv("OMLAB_BUDGET", raising=False)
    else:
        monkeypatch.setenv("OMLAB_BUDGET", budget)
    out = io.StringIO()
    with redirect_stdout(out):
        code = cli.main(argv + list(extra))
    return code, out.getvalue()


@pytest.mark.parametrize("name", sorted(CASES))
def test_cli_golden(name, monkeypatch):
    code, out = run_case(name, monkeypatch)
    assert code == CASES[name][2]
    assert out == json.loads(GOLDEN.read_text())[name]


@pytest.mark.parametrize("name", sorted(n for n, case in CASES.items() if case[2] < 64))
def test_output_file_holds_what_stdout_prints(name, monkeypatch, tmp_path):
    """``-o FILE`` writes the text with one trailing newline, as stdout shows it,
    and prints nothing."""
    path = tmp_path / "out"
    assert run_case(name, monkeypatch, "-o", str(path)) == (CASES[name][2], "")
    expected = json.loads(GOLDEN.read_text())[name]
    assert path.read_text() == expected and not expected.endswith("\n\n")


def test_gen_prints_json_by_default():
    golden = json.loads(GOLDEN.read_text())
    assert golden["gen-k3-f1-default"] == golden["gen-k3-f1-json"]


def write_golden() -> None:
    outputs = {}
    with pytest.MonkeyPatch.context() as monkeypatch:
        for name in sorted(CASES):
            code, outputs[name] = run_case(name, monkeypatch)
            assert code == CASES[name][2], (name, code)
    GOLDEN.write_text(json.dumps(outputs, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    write_golden()
