from __future__ import annotations

import json

import pytest

from omlab import (
    EventFamily,
    beta_partition,
    cli,
    cycle_digraph,
    equivalence,
    event_from_arcs,
    family_to_json_dict,
    solvability,
)
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


def test_check_json_class_verdict_computes_partition_once(partition_calls, capsys, tmp_path):
    c4 = cycle_digraph(4)
    arc_lists = [
        [(0, 1), (0, 3), (1, 0), (1, 2), (2, 1), (3, 0)],
        [(0, 1), (0, 3), (1, 0), (2, 1), (2, 3), (3, 2)],
        [(0, 1), (0, 3), (1, 2), (2, 1), (3, 0)],
        [(0, 3), (1, 0), (1, 2), (2, 3)],
    ]
    family = EventFamily(c4, tuple(event_from_arcs(c4, frozenset(arcs)) for arcs in arc_lists))
    path = tmp_path / "family.json"
    path.write_text(json.dumps(family_to_json_dict(family)))
    code = cli.main(["check", "--family", str(path), "--format", "json"])
    payload = json.loads(capsys.readouterr().out)
    assert code == 2
    assert payload["rule"] == "indistinguishable-class-unbroadcastable"
    assert len(partition_calls) == 1
    assert payload["beta"] == beta_partition(family).to_json_dict()


SIMULATE_K3 = ["simulate", "--complete", "3", "--bounded", "1"]

# Placeholders in an argument list, replaced by the path of a file holding this JSON.
INPUT_FILES = {
    "ASYMMETRIC": {"nodes": ["a", "b"], "arcs": [["a", "b"]]},
    "NOT_A_PAIR": {"nodes": ["a", "b"], "arcs": [5]},
    "EMPTY_FAMILY": {
        "graph": {"nodes": ["a", "b"], "arcs": [["a", "b"], ["b", "a"]]},
        "events": [],
    },
}


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
    ],
    ids=[
        "one-node-connectivity", "asymmetric-connectivity", "negative-bound",
        "negative-hypercube", "one-node-cycle", "negative-horizon", "negative-rounds",
        "crash-on-k3", "negative-oracle-horizon", "arc-not-a-pair", "empty-family-check",
        "empty-family-oracle", "dot-simulate", "dot-oracle", "dot-audit-connectivity",
        "dot-audit-equal-rounds", "two-family-sources", "no-family-source",
        "family-is-a-directory", "bounded-with-bundled", "metric-with-bundled",
    ],
)
def test_bad_values_exit_64_with_one_line_error(argv, capsys, tmp_path):
    for name, data in INPUT_FILES.items():
        (tmp_path / f"{name}.json").write_text(json.dumps(data))
    code = cli.main([str(tmp_path / f"{arg}.json") if arg in INPUT_FILES else arg for arg in argv])
    err = capsys.readouterr().err
    assert code == 64
    assert err.startswith("omlab: error: ") and err.count("\n") == 1
