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


def digraph_dot(g: Digraph, name: str = "G", highlight_mask: int = 0) -> str:
    lines = [f"digraph {_quote(name)} {{"]
    for u in range(g.node_count):
        shape = " [shape=doublecircle]" if highlight_mask >> u & 1 else ""
        lines.append(f"  {_quote(g.label(u))}{shape};")
    for tail, head in g.sorted_arcs:
        lines.append(f"  {_quote(g.label(tail))} -> {_quote(g.label(head))};")
    lines.append("}")
    return "\n".join(lines)


def _event_cluster(
    event: Event, index: int, title: str, highlight_mask: int = 0
) -> list[str]:
    g = event.base
    lines = [f"  subgraph cluster_{index} {{", f"    label={_quote(title)};"]
    for u in range(g.node_count):
        shape = " [shape=doublecircle]" if highlight_mask >> u & 1 else ""
        lines.append(f"    {_quote(f'{index}:{g.label(u)}')} [label={_quote(g.label(u))}]{shape};")
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
    lines = [f"digraph {_quote(name)} {{"]
    lines.extend(_event_cluster(event, 0, name, event.sources_mask))
    lines.append("}")
    return "\n".join(lines)


def family_dot(family: EventFamily, name: str = "family") -> str:
    """All events side by side; present arcs solid, omitted dashed, sources doubled."""
    lines = [f"digraph {_quote(name)} {{"]
    for i, event in enumerate(family.events):
        lines.extend(_event_cluster(event, i, family.name(i), event.sources_mask))
    lines.append("}")
    return "\n".join(lines)


def verdict_dot(verdict: Verdict, family: EventFamily) -> str:
    """Render the verdict's witness for inspection."""
    witness = verdict.witness
    title = f"{verdict.problem}: {verdict.answer.value}"
    if isinstance(witness, CommonSourceWitness):
        return digraph_dot(family.base, title, highlight_mask=witness.nodes_mask)
    if isinstance(witness, NoSourceEventWitness):
        event = Event(family.base, family.masks[witness.event])
        return event_dot(event, family.name(witness.event))
    incompat: IncompatibilityWitness | None = None
    if isinstance(witness, IncompatibilityWitness):
        incompat = witness
    elif isinstance(witness, BetaClassWitness):
        incompat = witness.incompatibility
    lines = [f"digraph {_quote(title)} {{"]
    if incompat is not None:
        for pos, (idx, mask) in enumerate(zip(incompat.events, incompat.source_masks)):
            sources = ",".join(family.base.label(u) for u in mask_nodes(mask))
            lines.extend(
                _event_cluster(
                    Event(family.base, family.masks[idx]), pos,
                    f"{family.name(idx)} (sources: {sources})", mask,
                )
            )
    lines.append("}")
    return "\n".join(lines)
