"""Graphviz DOT rendering of graphs, events, families and verdict witnesses."""
from __future__ import annotations

from .events import Event, EventFamily
from .graphs import Digraph, mask_nodes
from .solvability import (
    BetaClassWitness,
    CommonSourceWitness,
    IncompatibilityWitness,
    NoSourceEventWitness,
    Verdict,
)


def _quote(name: str) -> str:
    """A DOT quoted ID: backslashes doubled first, then each quote escaped."""
    return '"' + name.replace("\\", "\\\\").replace('"', r"\"") + '"'


def _dot(name: str, lines: list[str]) -> str:
    """One DOT digraph named ``name`` around ``lines``."""
    return "\n".join([f"digraph {_quote(name)} {{", *lines, "}"])


def _doubled(highlight_mask: int, u: int) -> str:
    """The attribute that draws node ``u`` as a double circle when it is highlighted."""
    return " [shape=doublecircle]" if highlight_mask >> u & 1 else ""


def digraph_dot(g: Digraph, name: str = "G", highlight_mask: int = 0) -> str:
    return _dot(name, [
        *(f"  {_quote(g.label(u))}{_doubled(highlight_mask, u)};" for u in range(g.node_count)),
        *(f"  {_quote(g.label(t))} -> {_quote(g.label(h))};" for t, h in g.sorted_arcs),
    ])


def _event_cluster(
    event: Event, index: int, title: str, highlight_mask: int = 0
) -> list[str]:
    g = event.base
    lines = [f"  subgraph cluster_{index} {{", f"    label={_quote(title)};"]
    for u, label in enumerate(g.labels):
        shape = _doubled(highlight_mask, u)
        lines.append(f"    {_quote(f'{index}:{label}')} [label={_quote(label)}]{shape};")
    for tail, head in event.sorted_arcs:
        lines.append(
            f"    {_quote(f'{index}:{g.label(tail)}')} -> {_quote(f'{index}:{g.label(head)}')};"
        )
    for tail, head in event.omitted_arcs:
        lines.append(
            f"    {_quote(f'{index}:{g.label(tail)}')} -> {_quote(f'{index}:{g.label(head)}')}"
            " [style=dashed,color=gray];"
        )
    lines.append("  }")
    return lines


def event_dot(event: Event, name: str = "event") -> str:
    return _dot(name, _event_cluster(event, 0, name, event.sources_mask))


def family_dot(family: EventFamily, name: str = "family") -> str:
    """All events side by side; present arcs solid, omitted dashed, sources doubled."""
    return _dot(name, [
        line for i, event in enumerate(family.events)
        for line in _event_cluster(event, i, family.name(i), event.sources_mask)
    ])


def verdict_dot(verdict: Verdict, family: EventFamily) -> str:
    """Render the verdict's witness for inspection."""
    witness = verdict.witness
    title = f"{verdict.problem}: {verdict.answer.value}"
    if isinstance(witness, CommonSourceWitness):
        return digraph_dot(family.base, title, highlight_mask=witness.nodes_mask)
    if isinstance(witness, NoSourceEventWitness):
        event = Event(family.base, family.masks[witness.event])
        return event_dot(event, family.name(witness.event))
    if isinstance(witness, BetaClassWitness):
        witness = witness.incompatibility
    clusters: list[str] = []
    if isinstance(witness, IncompatibilityWitness):
        for pos, (idx, mask) in enumerate(zip(witness.events, witness.source_masks)):
            sources = ",".join(family.base.label(u) for u in mask_nodes(mask))
            clusters += _event_cluster(
                Event(family.base, family.masks[idx]), pos,
                f"{family.name(idx)} (sources: {sources})", mask,
            )
    return _dot(title, clusters)
