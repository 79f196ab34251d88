from __future__ import annotations

import json
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

from omlab import beta_partition, cli, equivalence, family_from_json_dict, solvability
from omlab.bundled import load_family


@pytest.fixture
def partition_calls(monkeypatch):
    """Every family the class partition is computed for, in call order."""
    calls = []

    def counting(family):
        calls.append(family)
        return equivalence.beta_partition(family)

    monkeypatch.setattr(cli, "beta_partition", counting)
    monkeypatch.setattr(solvability, "beta_partition", counting)
    return calls


def test_check_json_beta_computes_partition_once(partition_calls, capsys):
    # H is neither convex nor broadcastable, so the verdict needs the partition.
    code = cli.main(["check", "--bundled", "H-2node", "--format", "json", "--beta"])
    payload = json.loads(capsys.readouterr().out)
    assert code == 3
    assert payload["rule"] == "necessary-condition-only"
    assert len(partition_calls) == 1
    assert payload["beta"] == beta_partition(load_family("H-2node")).to_json_dict()


def test_check_json_class_verdict_computes_partition_once(partition_calls, capsys):
    # Four events of C4, not convex and not broadcastable, all in one class.
    path = Path(__file__).parent / "data" / "c4-class-unbroadcastable.json"
    family = family_from_json_dict(json.loads(path.read_text()))
    code = cli.main(["check", "--family", str(path), "--format", "json"])
    payload = json.loads(capsys.readouterr().out)
    assert code == 2
    assert payload["rule"] == "indistinguishable-class-unbroadcastable"
    assert len(partition_calls) == 1
    assert payload["beta"] == beta_partition(family).to_json_dict()


SIMULATE_K3 = ["simulate", "--complete", "3", "--bounded", "1"]
H_ONE_ROUND = ["simulate", "--bundled", "H-2node", "--protocol", "h-one-round",
               "--all-scenarios", "1"]
FIG12_FLOODING = ["simulate", "--bundled", "fig12", "--protocol", "flooding", "--origin", "a",
                  "--rounds", "2"]

# Placeholders in an argument list, replaced by the path of a file holding this JSON.
INPUT_FILES = {
    "ASYMMETRIC": {"nodes": ["a", "b"], "arcs": [["a", "b"]]},
    "NOT_A_PAIR": {"nodes": ["a", "b"], "arcs": [5]},
    "EMPTY_FAMILY": {
        "graph": {"nodes": ["a", "b"], "arcs": [["a", "b"], ["b", "a"]]},
        "events": [],
    },
    "NO_NODES": {"graph": {"nodes": [], "arcs": []}, "events": [{"name": "E0", "arcs": []}]},
    "DUPLICATE_NODES": {"nodes": ["a", "a"], "arcs": []},
    "NO_ARCS": {"nodes": ["a", "b"]},
    "NOT_JSON": "{not json",
    "ARC_OF_ONE": {"graph": {"nodes": ["a", "b"], "arcs": [["a", "b"]]},
                   "events": [{"arcs": [["a"]]}]},
    "ARC_OF_THREE": {"graph": {"nodes": ["a", "b"], "arcs": [["a", "b"]]},
                     "events": [{"arcs": [["a", "b", "c"]]}]},
    "ARC_NOT_A_LIST": {"graph": {"nodes": ["a", "b"], "arcs": [["a", "b"]]},
                       "events": [{"arcs": [5]}]},
    # Two-character strings would unpack into the one-character labels a and b.
    "GRAPH_ARC_STRING": {"graph": {"nodes": ["a", "b"], "arcs": ["ab", "ba"]},
                         "events": [{"arcs": [["a", "b"]]}]},
    "ARC_STRING": {"graph": {"nodes": ["a", "b"], "arcs": [["a", "b"], ["b", "a"]]},
                   "events": [{"arcs": ["ab"]}]},
    "GRAPH_ARC_UNKNOWN_LABEL": {"nodes": ["a", "b"], "arcs": [["a", "b"], ["a", "z"]]},
    "GRAPH_SELF_LOOP": {"nodes": ["a", "b"], "arcs": [["a", "a"]]},
    # A string would read as its characters, an object as its keys.
    "NODES_STRING": {"graph": {"nodes": "ab", "arcs": [["a", "b"], ["b", "a"]]},
                     "events": [{"arcs": [["a", "b"]]}]},
    "EVENTS_OBJECT": {"graph": {"nodes": ["a", "b"], "arcs": [["a", "b"]]},
                      "events": {"x": 1}},
    "NOT_TEXT": b"\xff\xfe{}",
    # json.loads raises a plain ValueError, not a JSONDecodeError, past the
    # interpreter's limit on the digits of an integer (4,300 by default).
    "LONG_INTEGER": '{"nodes": [' + "9" * 5000 + '], "arcs": []}',
}


def with_input_files(argv: list[str], tmp_path: Path) -> list[str]:
    """``argv`` with each INPUT_FILES name replaced by the path of its file.

    Bytes or a string are the file's contents as they stand; anything else is
    written as JSON.
    """
    for name, data in INPUT_FILES.items():
        if not isinstance(data, (str, bytes)):
            data = json.dumps(data)
        (tmp_path / f"{name}.json").write_bytes(data if isinstance(data, bytes) else data.encode())
    return [str(tmp_path / f"{arg}.json") if arg in INPUT_FILES else arg for arg in argv]


@pytest.mark.parametrize(
    "argv",
    [
        ["audit", "connectivity", "--complete", "1", "--f-max", "1"],
        ["audit", "connectivity", "--graph", "ASYMMETRIC", "--f-max", "1"],
        ["check", "--complete", "3", "--bounded", "-1"],
        ["check", "--hypercube", "-1", "--bounded", "1"],
        ["gen", "--cycle", "1", "--bounded", "1"],
        SIMULATE_K3 + ["--protocol", "flooding", "--origin", "v0", "--rounds", "2",
                       "--all-scenarios", "-1"],
        SIMULATE_K3 + ["--protocol", "flooding", "--origin", "v0", "--rounds", "-2"],
        SIMULATE_K3 + ["--protocol", "h-one-round", "--crash-horizon", "2"],
        ["oracle", "--complete", "2", "--bounded", "1", "--max-horizon", "-1"],
        ["gen", "--graph", "NOT_A_PAIR", "--bounded", "1"],
        ["check", "--family", "EMPTY_FAMILY"],
        ["oracle", "--family", "EMPTY_FAMILY"],
        SIMULATE_K3 + ["--protocol", "h-one-round", "--all-scenarios", "1", "--format", "dot"],
        ["oracle", "--bundled", "fig12", "--format", "dot"],
        ["audit", "connectivity", "--complete", "3", "--f-max", "1", "--format", "dot"],
        ["audit", "equal-rounds", "--bundled", "O1-2node", "--format", "dot"],
        ["check", "--bundled", "fig12", "--complete", "3", "--bounded", "1"],
        ["check"],
        ["check", "--family", "."],
        ["check", "--bundled", "fig12", "--bounded", "3", "--metric", "send"],
        ["oracle", "--bundled", "O1-2node", "--metric", "recv"],
        ["simulate", "--bundled", "H-2node", "--protocol", "h-one-round",
         "--all-scenarios", "2", "--crash-horizon", "1"],
        FIG12_FLOODING + ["--scenario", "H1,H2", "--init", "a=1,b=0,c=0,d=1",
                          "--all-scenarios", "1"],
        FIG12_FLOODING + ["--scenario", "H1", "--init", "a=1,b=0,c=0"],
        FIG12_FLOODING + ["--scenario", "H1", "--init", "a=1,b=0,c=0,e=1"],
        FIG12_FLOODING + ["--scenario", "H1", "--init", "a=1,b=0,c=0,d=2"],
        FIG12_FLOODING + ["--scenario", "H1,H3", "--init", "a=1,b=0,c=0,d=1"],
        H_ONE_ROUND + ["--init", "white=0,black=1"],
        H_ONE_ROUND + ["--length", "5"],
        H_ONE_ROUND + ["--seed", "3"],
        H_ONE_ROUND + ["--origin", "white"],
        H_ONE_ROUND + ["--rounds", "1"],
        FIG12_FLOODING + ["--all-scenarios", "1", "--decide-map", "H1=c,H2=d"],
        ["simulate", "--bundled", "H-2node", "--protocol", "gossip", "--all-scenarios", "1"],
        ["check", "--complete", "0", "--bounded", "0"],
        ["oracle", "--path", "0", "--bounded", "0"],
        ["check", "--family", "NO_NODES"],
        ["gen", "--complete", "3", "--bounded", "1", "--format", "text"],
        ["check", "--family", "NOT_TEXT"],
        ["gen", "--graph", "LONG_INTEGER", "--bounded", "0"],
    ],
    ids=[
        "one-node-connectivity", "asymmetric-connectivity", "negative-bound",
        "negative-hypercube", "one-node-cycle", "negative-horizon", "negative-rounds",
        "crash-on-k3", "negative-oracle-horizon", "arc-not-a-pair", "empty-family-check",
        "empty-family-oracle", "dot-simulate", "dot-oracle", "dot-audit-connectivity",
        "dot-audit-equal-rounds", "two-family-sources", "no-family-source",
        "family-is-a-directory", "bounded-with-bundled", "metric-with-bundled",
        "two-sweeps", "run-and-sweep", "init-missing-node", "init-unknown-label",
        "init-value-2", "scenario-unknown-event", "init-without-scenario",
        "length-without-random", "seed-without-random", "origin-with-h-one-round",
        "rounds-with-h-one-round", "decide-map-with-flooding", "unknown-protocol",
        "no-nodes-check", "no-nodes-oracle", "no-nodes-family", "gen-text",
        "family-not-text", "graph-integer-too-long",
    ],
)
def test_bad_values_exit_64_with_one_line_error(argv, capsys, tmp_path):
    code = cli.main(with_input_files(argv, tmp_path))
    err = capsys.readouterr().err
    assert code == 64
    assert err.startswith("omlab: error: ") and err.count("\n") == 1


@pytest.mark.parametrize(
    "argv, message",
    [
        (["check", "--bundled", "fig12", "--beta"], "--beta applies only to --format json"),
        (["check", "--bundled", "fig12", "--beta", "--format", "dot"],
         "--beta applies only to --format json"),
        # A superscript two is a digit to str.isdigit but not to int().
        (H_ONE_ROUND[:-2] + ["--scenario", "\u00b2", "--init", "white=0,black=1"],
         "unknown event '\u00b2' in --scenario"),
        # An Arabic-Indic one is a digit to int() too, but event indices are ASCII.
        (H_ONE_ROUND[:-2] + ["--scenario", "\u0661", "--init", "white=0,black=1"],
         "unknown event '\u0661' in --scenario"),
        (H_ONE_ROUND[:-2] + ["--scenario", "0", "--init", "white=0,white=1,black=1"],
         "repeated node in --init: white"),
        (["check", "--family", "NOT_JSON"],
         "cannot parse {NOT_JSON}: Expecting property name enclosed in double quotes: "
         "line 1 column 2 (char 1)"),
        (["check", "--bundled", "nope"],
         "unknown bundled example 'nope' "
         "(known: reliable-2node, O1-2node, H-2node, fig12, crash-C1)"),
        (["check", "--complete", "3"], "generated families need --bounded F"),
        (FIG12_FLOODING[:-4] + ["--all-scenarios", "1"],
         "flooding needs --origin NODE and --rounds R"),
        (FIG12_FLOODING[:-3] + ["zz", "--rounds", "2", "--all-scenarios", "1"],
         "unknown node label 'zz'"),
        (["simulate", "--bundled", "fig12", "--protocol", "event-detection",
          "--all-scenarios", "1"],
         'event-detection needs --decide-map "H1=c,H2=d"'),
        (H_ONE_ROUND[:-2] + ["--random-scenarios", "3"], "--random-scenarios needs --length L"),
        (H_ONE_ROUND[:-2],
         "give --scenario and --init for a single run, or --all-scenarios / "
         "--random-scenarios / --crash-horizon for a sweep"),
        (["audit", "equal-rounds", "--bundled", "H-2node"],
         "the equal-rounds audit applies to convex families only"),
        (["gen", "--graph", "DUPLICATE_NODES", "--bounded", "1"],
         "duplicate node names in digraph JSON"),
        (["gen", "--graph", "NO_ARCS", "--bounded", "1"], "malformed digraph JSON: 'arcs'"),
        (["gen", "--complete", "3", "--bounded", "1", "-o", "missing/out.json"],
         "cannot write missing/out.json: No such file or directory"),
        (["check", "--family", "ARC_OF_ONE"], "malformed event entry 0: arc ['a'] is not a pair"),
        (["check", "--family", "ARC_OF_THREE"],
         "malformed event entry 0: arc ['a', 'b', 'c'] is not a pair"),
        (["check", "--family", "ARC_NOT_A_LIST"], "malformed event entry 0: arc 5 is not a pair"),
        (["check", "--family", "GRAPH_ARC_STRING"],
         "malformed digraph JSON: arc 'ab' is not a pair"),
        (["check", "--family", "ARC_STRING"], "malformed event entry 0: arc 'ab' is not a pair"),
        (["gen", "--graph", "GRAPH_ARC_UNKNOWN_LABEL", "--bounded", "1"],
         "malformed digraph JSON: unknown node label 'z'"),
        (["gen", "--graph", "GRAPH_SELF_LOOP", "--bounded", "1"],
         "malformed digraph JSON: arc ['a', 'a'] is a self-loop"),
        (["check", "--family", "NODES_STRING"], "malformed digraph JSON: 'nodes' is not an array"),
        (["check", "--family", "EVENTS_OBJECT"], "malformed family JSON: 'events' is not an array"),
    ],
    ids=["beta-with-text", "beta-with-dot", "scenario-superscript-digit",
         "scenario-arabic-indic-digit", "init-repeated-node", "family-not-json",
         "unknown-bundled", "generated-without-bound", "flooding-without-origin",
         "flooding-unknown-origin", "event-detection-without-map", "random-without-length",
         "simulate-without-mode", "equal-rounds-not-convex", "graph-duplicate-nodes",
         "graph-without-arcs", "output-in-missing-directory", "family-arc-of-one",
         "family-arc-of-three", "family-arc-not-a-list", "family-graph-arc-string",
         "family-arc-string", "graph-arc-unknown-label", "graph-self-loop", "family-nodes-string",
         "family-events-object"],
)
def test_misplaced_and_malformed_inputs_exit_64_naming_the_fault(
    argv, message, capsys, tmp_path, monkeypatch
):
    monkeypatch.chdir(tmp_path)
    assert cli.main(with_input_files(argv, tmp_path)) == 64
    paths = {name: tmp_path / f"{name}.json" for name in INPUT_FILES}
    captured = capsys.readouterr()
    assert captured.err == f"omlab: error: {message.format(**paths)}\n"
    assert captured.out == ""
    assert sorted(tmp_path.iterdir()) == sorted(paths.values())


def start_omlab(*argv: str, **streams) -> subprocess.Popen:
    """``python -m omlab.cli`` in a new process, with stderr piped."""
    env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).parents[1])}
    return subprocess.Popen([sys.executable, "-m", "omlab.cli", *argv], env=env,
                            stderr=subprocess.PIPE, **streams)


def test_stdout_closed_early_exits_64_with_one_line():
    # K6 f=3 has 4,526 events: far more JSON than a pipe holds.
    with start_omlab("gen", "--complete", "6", "--bounded", "3", stdout=subprocess.PIPE) as proc:
        assert proc.stdout.readline() == b"{\n"
        proc.stdout.close()
        err = proc.stderr.read().decode()
    assert proc.returncode == 64
    assert err == "omlab: error: cannot write stdout: Broken pipe\n"


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
def test_stdout_on_a_full_device_exits_64_with_one_line():
    with open("/dev/full", "w") as full, start_omlab(*H_ONE_ROUND[:-1], "2", stdout=full) as proc:
        err = proc.stderr.read().decode()
    assert proc.returncode == 64
    assert err == "omlab: error: cannot write stdout: No space left on device\n"


def test_a_value_error_no_input_check_raised_is_not_a_usage_error(monkeypatch):
    def broken(family, budget=None):
        raise ValueError("a bug")

    monkeypatch.setattr(cli, "equal_rounds_audit", broken)
    with pytest.raises(ValueError, match="^a bug$") as info:
        cli.main(["audit", "equal-rounds", "--bundled", "O1-2node"])
    assert type(info.value) is ValueError


def test_sweep_report_lists_twenty_violations_and_counts_the_rest(capsys):
    code = cli.main(["simulate", "--bundled", "O1-2node", "--protocol", "flooding",
                     "--origin", "white", "--rounds", "1", "--all-scenarios", "2"])
    lines = capsys.readouterr().out.splitlines()
    assert code == 2
    assert len(lines) == 22 and lines[-1] == "  ... and 16 more violations"


def test_random_sweep_checks_the_budget_before_drawing_words(monkeypatch, capsys):
    def no_words(seed):
        raise AssertionError("a word was drawn")

    monkeypatch.setattr(random, "Random", no_words)
    monkeypatch.setenv("OMLAB_BUDGET", "max_executions=1000")
    code = cli.main(["simulate", "--bundled", "O1-2node", "--protocol", "h-one-round",
                     "--random-scenarios", "1000000", "--length", "20"])
    assert code == 65
    assert "max_executions" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv",
    [
        ["check", "--cycle", "21", "--bounded", "2", "--problem", "broadcast"],
        ["check", "--cycle", "21", "--bounded", "2"],
        ["audit", "connectivity", "--cycle", "21", "--f-max", "2"],
    ],
    ids=["check-broadcast", "check-consensus", "audit-connectivity"],
)
def test_incompatible_subset_search_reads_the_command_budget(argv, monkeypatch, capsys):
    assert cli.main(argv) in (0, 2)
    monkeypatch.setenv("OMLAB_BUDGET", "max_game_nodes=2")
    assert cli.main(argv) == 65
    assert capsys.readouterr().err.startswith("omlab: budget exceeded: max_game_nodes")
