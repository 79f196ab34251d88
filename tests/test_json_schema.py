"""Graph and family JSON against a reference reader of the schema.

The schema is written once, in the ``events`` module docstring.  The
reference reader here follows it with plain type checks and list scans,
and shares no code with ``graphs`` or ``events``.  It returns the labels,
arcs, masks and names a document stands for, or ``None`` where the
schema refuses the document.  ``digraph_from_json_dict`` and
``family_from_json_dict`` must raise ``InputError`` exactly where the
reference refuses, and build what it builds everywhere else.  Through
the CLI, every refusal exits 64 with one line on stderr.  The generated
documents are valid ones with one generated JSON value put in at one
position: a member replaced, an array item appended or a key added.
"""
from __future__ import annotations

import copy
import io
import json
import random
from contextlib import redirect_stderr, redirect_stdout
from functools import reduce
from operator import getitem

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from omlab import (
    EventFamily,
    InputError,
    cli,
    digraph_from_json_dict,
    family_from_json_dict,
    family_to_json_dict,
    generate_bounded_omissions,
    hypercube_digraph,
)


# ---- the reference reader ------------------------------------------------------------

def is_arc(arc, labels) -> bool:
    return type(arc) is list and len(arc) == 2 and all(
        type(label) is str and label in labels for label in arc)


def reference_graph(graph):
    """``(labels, arcs)``, the arcs as sorted index pairs, or None if refused."""
    if type(graph) is not dict or not type(graph.get("nodes")) is type(graph.get("arcs")) is list:
        return None
    labels = graph["nodes"]
    if any(type(label) is not str for label in labels) or len(set(labels)) != len(labels):
        return None
    if not all(is_arc(arc, labels) and arc[0] != arc[1] for arc in graph["arcs"]):
        return None
    return labels, sorted({(labels.index(t), labels.index(h)) for t, h in graph["arcs"]})


def reference_family(doc):
    """``(labels, masks, names)``, or None if refused."""
    if type(doc) is not dict or "graph" not in doc or type(doc.get("events")) is not list:
        return None
    if (graph := reference_graph(doc["graph"])) is None:
        return None
    labels, arcs = graph
    bit = {(labels[t], labels[h]): 1 << i for i, (t, h) in enumerate(arcs)}
    masks, names = [], []
    for i, entry in enumerate(doc["events"]):
        if type(entry) is not dict or type(entry.get("arcs")) is not list:
            return None
        if type(name := entry.get("name", f"E{i}")) is not str:
            return None
        if not all(is_arc(arc, labels) and tuple(arc) in bit for arc in entry["arcs"]):
            return None
        masks.append(reduce(int.__or__, (bit[tuple(arc)] for arc in entry["arcs"]), 0))
        names.append(name)
    if not masks or len(set(masks)) != len(masks) or len(set(names)) != len(names):
        return None
    return labels, masks, names


# ---- the readers under test ----------------------------------------------------------

def read_graph(graph):
    try:
        g = digraph_from_json_dict(graph)
    except InputError:
        return None
    return list(g.labels), list(g.sorted_arcs)


def read_family(doc):
    try:
        family = family_from_json_dict(doc)
    except InputError:
        return None
    return list(family.base.labels), list(family.masks), list(family.names)


def refusal_through_cli(argv: list[str], doc, tmp_path) -> tuple[int, str]:
    """Exit code and stderr of ``cli.main`` with ``doc`` written to the file ``INPUT``."""
    path = tmp_path / "input.json"
    path.write_text(json.dumps(doc))
    err = io.StringIO()
    with redirect_stderr(err), redirect_stdout(io.StringIO()):
        code = cli.main([str(path) if arg == "INPUT" else arg for arg in argv])
    return code, err.getvalue()


# ---- generated documents -------------------------------------------------------------

ONE_CHAR_GRAPH = {"nodes": ["a", "b", "c"], "arcs": [["a", "b"], ["b", "a"], ["b", "c"]]}
TWO_NODE_GRAPH = {"nodes": ["white", "black"], "arcs": [["white", "black"], ["black", "white"]]}
INT_GRAPH = {"nodes": [0, 1], "arcs": [[0, 1], [1, 0]]}
VALID_FAMILIES = [
    {"graph": ONE_CHAR_GRAPH, "events": [{"name": "x", "arcs": [["a", "b"], ["b", "c"]]},
                                         {"arcs": [["b", "a"]]}]},
    {"graph": TWO_NODE_GRAPH, "events": [{"name": "ok", "arcs": [["white", "black"],
                                                                 ["black", "white"]]},
                                         {"name": "lost", "arcs": []}]},
]
KEYS = ["graph", "nodes", "arcs", "events", "name", "x"]


def positions(value, path=()):
    """Every path at which a value can be put into ``value``."""
    yield path
    if isinstance(value, list):
        for i, item in enumerate(value):
            yield from positions(item, (*path, i))
        yield (*path, len(value))
    elif isinstance(value, dict):
        for key in KEYS:
            yield from positions(value[key], (*path, key)) if key in value else [(*path, key)]


def put(doc, path, value):
    if not path:
        return value
    doc = copy.deepcopy(doc)
    *outer, last = path
    target = reduce(getitem, outer, doc)
    if isinstance(target, list) and last == len(target):
        target.append(value)
    else:
        target[last] = value
    return doc


# "ab" and {"a": 1, "b": 2} spell the arc (a, b) of the one-character labels, to a loose reader.
label_strings = st.sampled_from(["a", "b", "c", "z", "ab", "ba", "bc", "white", "black", "E0"])
scalars = (st.none() | st.booleans() | st.integers(-1, 2) | st.floats(-2, 2, width=16)
           | st.text("abc", max_size=2) | label_strings)
json_values = scalars | st.recursive(
    scalars,
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(label_strings | st.sampled_from(KEYS), inner, max_size=3),
    max_leaves=6,
)


def mutated(docs):
    """A document of ``docs`` with one generated JSON value put in at one position."""
    # Deepest positions first: the search draws early members of a list more often.
    return st.sampled_from(docs).flatmap(lambda doc: st.builds(
        put, st.just(doc), st.sampled_from(list(positions(doc))[::-1]), json_values))


# ---- the readers against the reference -----------------------------------------------

SETTINGS = settings(derandomize=True, max_examples=400, deadline=None,
                    suppress_health_check=[HealthCheck.function_scoped_fixture])


@SETTINGS
@given(graph=mutated([ONE_CHAR_GRAPH, TWO_NODE_GRAPH]))
@example(graph=ONE_CHAR_GRAPH)
@example(graph={"nodes": ["a", "b"], "arcs": [["a", "a"]]})  # a self-loop
@example(graph={"nodes": ["a", "b"], "arcs": [{"a": 1, "b": 2}]})  # an object arc
@example(graph={"nodes": ["a", "b"], "arcs": ["ab"]})  # a string arc over one-character labels
@example(graph={"nodes": [True, "b"], "arcs": []})  # a label that is not a string
@example(graph={"nodes": ["a", "a"], "arcs": []})  # repeated labels
@example(graph=INT_GRAPH)  # integer labels
@example(graph="x")
def test_graph_reader_refuses_exactly_what_the_reference_refuses(graph, tmp_path):
    expected = reference_graph(graph)
    assert read_graph(graph) == expected
    if expected is None:
        code, err = refusal_through_cli(["gen", "--graph", "INPUT", "--bounded", "0"], graph,
                                        tmp_path)
        assert code == 64
        assert err.startswith("omlab: error: ") and err.count("\n") == 1 and err.endswith("\n")


@SETTINGS
@given(doc=mutated(VALID_FAMILIES))
@example(doc=VALID_FAMILIES[0])
@example(doc=[VALID_FAMILIES[0]])  # a top-level array
@example(doc={"graph": "x", "events": [{"arcs": []}]})
@example(doc={"graph": ONE_CHAR_GRAPH, "events": ["ab"]})  # an entry that is not an object
@example(doc={"graph": ONE_CHAR_GRAPH, "events": [{"arcs": [{"a": 1, "b": 2}]}]})  # an object arc
@example(doc={"graph": ONE_CHAR_GRAPH, "events": [{"name": ["x"], "arcs": []}]})  # an array name
@example(doc={"graph": ONE_CHAR_GRAPH, "events": [{"arcs": "ab"}]})  # arcs that are a string
@example(doc={"graph": ONE_CHAR_GRAPH, "events": [{"arcs": [["c", "c"]]}]})  # an event self-loop
@example(doc={"graph": ONE_CHAR_GRAPH, "events": []})  # no event
@example(doc={"graph": ONE_CHAR_GRAPH,  # a name given twice, once by default
              "events": [{"arcs": []}, {"name": "E0", "arcs": [["a", "b"]]}]})
@example(doc={"graph": ONE_CHAR_GRAPH,  # an event twice
              "events": [{"arcs": []}, {"name": "y", "arcs": []}]})
def test_family_reader_refuses_exactly_what_the_reference_refuses(doc, tmp_path):
    expected = reference_family(doc)
    assert read_family(doc) == expected
    if expected is None:
        code, err = refusal_through_cli(["check", "--family", "INPUT"], doc, tmp_path)
        assert code == 64
        assert err.startswith("omlab: error: ") and err.count("\n") == 1 and err.endswith("\n")


# Each entry, read over its graph: valid ones and, one per way of failing, refused ones.
@pytest.mark.parametrize(
    "graph, entry, accepted",
    [
        (ONE_CHAR_GRAPH, {"arcs": [["a", "b"], ["b", "c"]]}, True),
        (ONE_CHAR_GRAPH, {"arcs": [["b", "a"], ["b", "a"]]}, True),
        (TWO_NODE_GRAPH, {"arcs": [["black", "white"], ["white", "black"]]}, True),
        (TWO_NODE_GRAPH, {"name": None, "arcs": [["white", "black"]]}, False),
        (INT_GRAPH, {"arcs": [[0, 1]]}, False),
        (INT_GRAPH, {"arcs": [["0", 1]]}, False),
        (ONE_CHAR_GRAPH, {"arcs": [["z", "b"]]}, False),
        (ONE_CHAR_GRAPH, {"arcs": [["a", "z"]]}, False),
        (ONE_CHAR_GRAPH, {"arcs": [["c", "a"]]}, False),
        (ONE_CHAR_GRAPH, {"arcs": [["a"]]}, False),
        (ONE_CHAR_GRAPH, {"arcs": [["a", "b", "c"]]}, False),
        (ONE_CHAR_GRAPH, {"arcs": [[["a"], "b"]]}, False),
        (ONE_CHAR_GRAPH, {"arcs": [["a", ["b"]]]}, False),
        (ONE_CHAR_GRAPH, {"arcs": ["ab"]}, False),
        (ONE_CHAR_GRAPH, {"arcs": [["a", "b"], "ba"]}, False),
        (TWO_NODE_GRAPH, {"arcs": ["ab"]}, False),
    ],
    ids=["valid", "arc-listed-twice", "valid-long-labels", "name-null", "integer-labels",
         "integer-head", "unknown-tail", "unknown-head", "tail-without-that-arc",
         "one-element-arc", "three-element-arc", "unhashable-tail", "unhashable-head",
         "two-character-string-arc", "string-arc-after-a-pair", "string-arc-long-labels"],
)
def test_family_entry_read_as_the_reference_reads_it(graph, entry, accepted):
    doc = {"graph": graph, "events": [entry]}
    expected = reference_family(doc)
    assert (expected is not None) == accepted
    assert read_family(doc) == expected


def test_family_read_as_the_reference_reads_it_on_a_q3_subset():
    q3 = generate_bounded_omissions(hypercube_digraph(3), 4)
    picked = random.Random(3).sample(range(len(q3)), 2000)
    doc = family_to_json_dict(EventFamily(q3.base, [q3.masks[i] for i in picked]))
    expected = reference_family(doc)
    assert expected is not None
    assert read_family(doc) == expected
    assert expected[1] == [q3.masks[i] for i in picked]


def test_python_tuples_read_as_the_arrays_json_writes_for_them():
    doc = {"graph": {"nodes": ("a", "b"), "arcs": (("a", "b"), ("b", "a"))},
           "events": ({"name": "x", "arcs": (("a", "b"),)}, {"arcs": ()})}
    expected = reference_family(json.loads(json.dumps(doc)))
    assert expected is not None
    assert read_family(doc) == expected
