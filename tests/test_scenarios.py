from __future__ import annotations

import io
import json
from contextlib import redirect_stdout

import pytest

from omlab import cli, complete_digraph, flooding, run, symmetric_digraph
from omlab.bundled import crash_scheme_prefixes


def test_scenario_family_check(o1):
    """``run`` checks every letter of the word against the family."""
    assert run(flooding(0, 3), o1, (0, 1, 2), (1, 0)).rounds == 3
    for word in [(3,), (0, -1)]:
        with pytest.raises(ValueError, match="outside the 3-event family"):
            run(flooding(0, 3), o1, word, (1, 0))


def test_random_scenario_reproducible():
    """``simulate --random-scenarios N --seed S`` draws word i from seed S + i."""

    def words(seed: int) -> list:
        out = io.StringIO()
        with redirect_stdout(out):
            code = cli.main([
                "simulate", "--bundled", "O1-2node", "--protocol", "flooding",
                "--origin", "white", "--rounds", "1", "--random-scenarios", "4",
                "--length", "10", "--seed", str(seed), "--format", "json",
            ])
        assert code == 2
        # Flooding never decides: each word fails termination once per input.
        violations = json.loads(out.getvalue())["violations"]
        return [v["scenario"] for v in violations[::4]]

    first = words(42)
    assert len(first) == 4 and words(42) == first
    assert words(43)[:3] == first[1:]
    assert not set(map(tuple, words(142))) & set(map(tuple, first))


# ---- crash scheme prefixes --------------------------------------------------------

def test_crash_prefixes_horizon_one(two_node):
    family, words = crash_scheme_prefixes(two_node, 1)
    assert family.names == ("ok", "crash-white", "crash-black")
    assert words == {(0,), (1,), (2,)}


def test_crash_prefixes_horizon_two(two_node):
    _family, words = crash_scheme_prefixes(two_node, 2)
    assert words == {
        (0, 0), (0, 1), (0, 2), (1, 1), (2, 2),
    }


def test_crash_prefixes_horizon_zero(two_node):
    _family, words = crash_scheme_prefixes(two_node, 0)
    assert words == {()}


def test_crash_prefixes_once_crashed_stays_silent(two_node):
    """No prefix resumes delivery after a crash letter."""
    _family, words = crash_scheme_prefixes(two_node, 4)
    for word in words:
        seen_crash = None
        for letter in word:
            if seen_crash is not None:
                assert letter == seen_crash
            elif letter != 0:
                seen_crash = letter


def test_crash_prefixes_need_two_node_complete():
    with pytest.raises(ValueError):
        crash_scheme_prefixes(complete_digraph(3), 1)
    with pytest.raises(ValueError):
        crash_scheme_prefixes(symmetric_digraph(2, []), 1)


@pytest.mark.parametrize(
    "bundled, decide_map, message",
    [
        ("fig12", "H1", "cannot parse --decide-map entry 'H1'"),
        ("fig12", "H1=c,H3=d", "unknown event in --decide-map: H3"),
        ("fig12", "H1=z,H2=d", "unknown node in --decide-map: z"),
        ("fig12", "H1=c", "decision map must cover exactly the family's events"),
        # In H1, a sends only to b.
        ("fig12", "H1=a,H2=d", "originator a does not reach c in one round of H1"),
        # White hears black in both ok and omit-white.
        ("O1-2node", "ok=white,omit-white=black,omit-black=white",
         "node white cannot distinguish ok from omit-white"),
    ],
    ids=["entry-without-equals", "unknown-event", "unknown-node", "event-not-mapped",
         "originator-misses-a-node", "node-cannot-tell-events-apart"],
)
def test_event_detection_rejections_exit_64(bundled, decide_map, message, capsys):
    """``event_detection_consensus`` and the ``--decide-map`` parser name each fault."""
    code = cli.main(["simulate", "--bundled", bundled, "--protocol", "event-detection",
                     "--decide-map", decide_map, "--all-scenarios", "1"])
    assert code == 64
    assert capsys.readouterr().err == f"omlab: error: {message}\n"
