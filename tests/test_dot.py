"""DOT output read back by DOT's own quoting rules.

Inside a quoted ID, ``\\"`` is a quote that does not close it, ``\\\\`` is a
pair that is kept (a label shows it as one backslash), and any other
``"`` closes the ID.  Every line ``omlab`` prints must split into the IDs
it meant, with only DOT syntax between them.
"""
from __future__ import annotations

import json
import re

import pytest

from omlab import (
    Digraph,
    EventFamily,
    check_broadcastable,
    cli,
    complete_digraph,
    dot,
    generate_bounded_omissions,
)

# Labels that end in a backslash, hold a quote, or hold the two together.
LABELS = ("a\\", 'b"', 'c\\"', "\\\\d")

# What a line may hold between its IDs (each ID is read as ``@``).
SKELETON = re.compile(
    r" *(digraph @ \{|@( \[shape=doublecircle\])?;|@ -> @( \[style=dashed,color=gray\])?;"
    r"|subgraph cluster_\d+ \{|label=@;|@ \[label=@\]( \[shape=doublecircle\])?;|\})"
)


def read_ids(line: str) -> tuple[list[str], str]:
    """The IDs of one DOT line, as a label shows them, and the line with each ID as ``@``."""
    ids, rest, i = [], [], 0
    while i < len(line):
        if line[i] != '"':
            rest.append(line[i])
            i += 1
            continue
        i += 1
        chars = []
        while True:
            assert i < len(line), f"quoted ID never closes in {line!r}"
            if line[i] == '"':
                i += 1
                break
            if line[i] == "\\" and line[i + 1:i + 2] in ('"', "\\"):
                chars.append(line[i + 1])
                i += 2
            else:
                chars.append(line[i])
                i += 1
        ids.append("".join(chars))
        rest.append("@")
    return ids, "".join(rest)


def assert_ids_close(text: str, allowed: set[str]) -> list[str]:
    """Every line reads as DOT syntax around IDs from ``allowed``, and the last
    line closes the one graph that the first opens; returns the IDs."""
    seen = []
    lines = text.splitlines()
    depth = 0
    for number, line in enumerate(lines, 1):
        ids, skeleton = read_ids(line)
        assert SKELETON.fullmatch(skeleton), (line, skeleton)
        depth += skeleton.count("{") - skeleton.count("}")
        assert (depth == 0) == (number == len(lines)), (number, line, depth)
        assert set(ids) <= allowed, (line, ids)
        if "[label=@]" in skeleton:
            # A cluster node's ID is its cluster index, a colon and the label it shows.
            assert ids[0].split(":", 1)[1] == ids[1], line
        seen += ids
    return seen


def labelled(n: int) -> Digraph:
    return Digraph(n, complete_digraph(n).arcs, labels=LABELS[:n])


def cluster_ids(family: EventFamily) -> set[str]:
    labels = family.base.labels
    return {f"{i}:{label}" for i in range(len(family)) for label in labels} | set(labels)


def test_digraph_ids_close_on_every_label():
    g = labelled(4)
    text = dot.digraph_dot(g, name='G\\"', highlight_mask=0b0101)
    seen = assert_ids_close(text, set(LABELS) | {'G\\"'})
    assert seen[0] == 'G\\"'
    assert set(seen) == set(LABELS) | {'G\\"'}
    assert text.count("[shape=doublecircle]") == 2


def test_family_ids_close_on_every_label_and_event_name():
    g = labelled(3)
    family = generate_bounded_omissions(g, 1)
    names = tuple(f'E{i}\\"' + "\\" * (i % 3) for i in range(len(family)))
    family = EventFamily(g, family.masks, names)
    text = dot.family_dot(family, name="fam\\")
    seen = assert_ids_close(text, cluster_ids(family) | set(names) | {"fam\\"})
    assert set(names) <= set(seen)


def test_verdict_ids_close_for_every_witness_kind():
    g = labelled(3)

    def star(u: int) -> int:
        """The arcs out of ``u``: its only source is ``u``."""
        return sum(1 << g.arc_bit[u, v] for v in range(3) if v != u)

    common = EventFamily(g, ((1 << len(g.arcs)) - 1,))
    no_source = EventFamily(g, (0, star(0)), ("silent\\", 'star"'))
    incompatible = EventFamily(g, (star(0), star(1), star(2)), ('x\\', 'y"', 'z\\"'))
    rules = set()
    for family in (common, no_source, incompatible):
        verdict = check_broadcastable(family)
        rules.add(verdict.rule)
        titles = {f"{verdict.problem}: {verdict.answer.value}"}
        titles |= {family.name(i) for i in range(len(family))}
        # Incompatibility clusters are titled with their event's source labels.
        titles |= {
            f"{family.name(i)} (sources: {label})" for i in range(len(family)) for label in LABELS
        }
        text = dot.verdict_dot(verdict, family)
        assert_ids_close(text, cluster_ids(family) | titles)
    assert rules == {"common-source", "no-source-event", "source-incompatible"}


def test_check_dot_of_a_label_ending_in_a_backslash(tmp_path, capsys):
    family = {
        "graph": {"nodes": ["a\\", "b"], "arcs": [["a\\", "b"], ["b", "a\\"]]},
        "events": [{"name": "all", "arcs": [["a\\", "b"], ["b", "a\\"]]}],
    }
    path = tmp_path / "family.json"
    path.write_text(json.dumps(family))
    assert cli.main(["check", "--family", str(path), "--format", "dot"]) == 0
    text = capsys.readouterr().out
    assert '  "a\\\\" [shape=doublecircle];' in text.splitlines()
    assert_ids_close(text, {"a\\", "b", "consensus: solvable"})


@pytest.mark.parametrize("label", LABELS)
def test_quoted_id_reads_back_as_its_label(label):
    ids, skeleton = read_ids(dot._quote(label))
    assert (ids, skeleton) == ([label], "@")
