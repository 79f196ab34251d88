"""Every record of ``omlab`` is a ``NamedTuple``: frozen, with the
``Name(field=...)`` repr.  The four with cached views keep a ``__dict__``
that only ``cached_property`` fills.  Importing the CLI generates no
dataclass code."""
from __future__ import annotations

import subprocess
import sys
from functools import cached_property
from pathlib import Path

import pytest

from omlab import (
    Budget,
    EventFamily,
    beta_partition,
    budget,
    check_broadcastable,
    check_consensus,
    complete_digraph,
    connectivity_threshold_check,
    equal_rounds_audit,
    equivalence,
    events,
    exhaustive_check,
    generate_bounded_omissions,
    graphs,
    min_consensus_rounds,
    oracle,
    path_digraph,
    run,
    simulator,
    solvability,
)
from omlab.bundled import h_one_round, load_family

MODULES = (budget, graphs, events, equivalence, oracle, simulator, solvability)
WITH_VIEWS = {"Digraph", "Event", "EventFamily", "OracleResult"}

# Run from the repository root; a CI step runs the same command.
STARTUP_GUARD = (
    "import sys; sys.path.insert(0, 'src'); import omlab.cli; "
    "bad = sorted({'dataclasses', 'inspect'} & set(sys.modules)) + sorted("
    "c.__qualname__ for m in list(sys.modules.values()) if m.__name__.startswith('omlab') "
    "for c in vars(m).values() if hasattr(c, '__dataclass_fields__')); "
    "sys.exit(bad or None)"
)


def _record_classes() -> set[type]:
    return {
        value for module in MODULES for value in vars(module).values()
        if isinstance(value, type) and issubclass(value, tuple)
        and value.__module__ == module.__name__
    }


def _records() -> list[tuple]:
    """One instance of each record class, each built by the code that builds it."""
    o1 = load_family("O1-2node")
    fig12 = load_family("fig12")
    partition = beta_partition(o1)
    k3 = generate_bounded_omissions(complete_digraph(3), 2, "global")
    nonconvex = EventFamily(k3.base, k3.masks[::2])
    report = exhaustive_check(h_one_round(), o1, 1)
    return [
        Budget(),
        o1.base,
        o1.events[0],
        o1,
        partition,
        next(edge for edges in partition.class_edges for edge in edges),
        min_consensus_rounds(o1, 1),
        min_consensus_rounds(o1, 1).witness,
        min_consensus_rounds(load_family("reliable-2node"), 1),
        equal_rounds_audit(generate_bounded_omissions(path_digraph(3), 0)),
        h_one_round(),
        run(h_one_round(), o1, (0,), (0, 1)),
        report,
        report.violations[0],
        check_consensus(fig12),
        check_consensus(fig12).witness,
        check_consensus(generate_bounded_omissions(path_digraph(3), 2)).witness,
        check_broadcastable(o1).witness,
        check_consensus(nonconvex).witness,
        connectivity_threshold_check(complete_digraph(3), 1)[0],
    ]


RECORDS = _records()


def _id(record: tuple) -> str:
    return type(record).__name__


def test_every_record_class_is_covered_and_none_is_a_dataclass():
    classes = _record_classes()
    assert {type(record) for record in RECORDS} == classes
    assert {_id(record) for record in RECORDS if hasattr(record, "__dict__")} == WITH_VIEWS
    # The 18 records that were frozen dataclasses, and ``AlphaWitness``.
    assert len(classes) == 19
    assert not any(hasattr(cls, "__dataclass_fields__") for cls in classes)


@pytest.mark.parametrize("record", RECORDS, ids=_id)
def test_fields_cannot_be_assigned_or_deleted(record):
    for name in record._fields:
        value = getattr(record, name)
        with pytest.raises(AttributeError):
            setattr(record, name, value)
        with pytest.raises(AttributeError):
            delattr(record, name)
        assert getattr(record, name) is value
    with pytest.raises(AttributeError):
        record.extra = 1
    assert not hasattr(record, "extra")


@pytest.mark.parametrize("record", RECORDS, ids=_id)
def test_repr_names_the_class_and_each_field(record):
    fields = ", ".join(f"{name}={getattr(record, name)!r}" for name in record._fields)
    assert repr(record) == f"{type(record).__name__}({fields})"


@pytest.mark.parametrize("record", [r for r in RECORDS if _id(r) in WITH_VIEWS], ids=_id)
def test_cached_views_fill_and_cannot_be_set_or_deleted(record):
    views = [name for cls in type(record).__mro__ for name, attr in vars(cls).items()
             if isinstance(attr, cached_property)]
    assert views
    for name in views:
        value = getattr(record, name)
        assert vars(record)[name] is value
        with pytest.raises(AttributeError):
            setattr(record, name, value)
        with pytest.raises(AttributeError):
            delattr(record, name)
        assert getattr(record, name) is value
    assert set(vars(record)) <= set(views)


def test_importing_the_cli_generates_no_dataclass_code():
    """``-S`` keeps ``site`` from importing anything first."""
    root = Path(__file__).resolve().parent.parent
    done = subprocess.run([sys.executable, "-S", "-c", STARTUP_GUARD], cwd=root,
                          capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
