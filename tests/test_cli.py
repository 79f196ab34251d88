from __future__ import annotations

import json

import pytest

from omlab import (
    Event,
    EventFamily,
    beta_partition,
    cli,
    cycle_digraph,
    equivalence,
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
    family = EventFamily(c4, tuple(Event(c4, frozenset(arcs)) for arcs in arc_lists))
    path = tmp_path / "family.json"
    path.write_text(json.dumps(family_to_json_dict(family)))
    code = cli.main(["check", "--family", str(path), "--format", "json"])
    payload = json.loads(capsys.readouterr().out)
    assert code == 2
    assert payload["rule"] == "indistinguishable-class-unbroadcastable"
    assert len(partition_calls) == 1
    assert payload["beta"] == beta_partition(family).to_json_dict()
