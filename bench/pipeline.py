"""What one instance of each workload asks of omlab, and the checks on its answer.

Every call into omlab goes through a module attribute (``solvability.
check_consensus``, not a name imported from it), so that the traced run
can swap the attribute for a recording wrapper.  The answer of an instance
is the JSON the CLI would print for it; ``check_objects`` then re-checks
the witnesses with omlab's own replay methods, outside the timed region.
"""
from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from typing import Any

from omlab import equivalence, events, graphs, oracle, simulator, solvability


@dataclass
class Outcome:
    """The answer of one instance, with the objects its checks replay."""

    answer: dict
    family: Any
    verdicts: list = field(default_factory=list)
    partition: Any = None
    certified: bool | None = None


def _symmetric(g: dict):
    return graphs.symmetric_digraph(g["n"], [tuple(e) for e in g["edges"]])


def _touch_masks(family, tr) -> None:
    # First touch of the cached source masks: the per-event BFS kernel.
    with tr.span("events.source_masks"):
        masks = family.source_masks
    # Counting distinct masks is work of its own: keep it out of untraced passes.
    if tr.active:
        tr.count("events.source_mask_events", len(masks))
        tr.count("events.distinct_source_masks", len(set(masks)))


def convex_ladder(inst: dict, tr) -> Outcome:
    """generate -> check_broadcastable -> check_consensus -> optimal rounds."""
    family = events.generate_bounded_omissions(_symmetric(inst["graph"]), inst["f"], inst["metric"])
    tr.count("events.generated_events", len(family))
    _touch_masks(family, tr)
    broadcast = solvability.check_broadcastable(family)
    consensus = solvability.check_consensus(family)
    best = None
    if broadcast.answer is solvability.Answer.SOLVABLE:
        best = solvability.optimal_broadcast_rounds(family)
    answer = {
        "events": len(family),
        "broadcast": solvability.verdict_to_json_dict(broadcast, family),
        "consensus": solvability.verdict_to_json_dict(consensus, family),
        "rounds": None if best is None else [family.base.label(best[0]), best[1]],
    }
    return Outcome(answer, family, [broadcast, consensus])


def partition_mix(inst: dict, tr) -> Outcome:
    """The ``omlab check --beta --format json`` path on a family JSON dict."""
    family = events.family_from_json_dict(inst["family"])
    _touch_masks(family, tr)
    broadcast = solvability.check_broadcastable(family)
    partition = equivalence.beta_partition(family)
    tr.count("equivalence.iterations", partition.iterations)
    tr.count("equivalence.classes", len(partition.classes))
    consensus = solvability.check_consensus(family, partition)
    answer = {
        "events": len(family),
        "broadcast": solvability.verdict_to_json_dict(broadcast, family),
        "consensus": solvability.verdict_to_json_dict(consensus, family),
        "beta": partition.to_json_dict(),
    }
    return Outcome(answer, family, [broadcast, consensus], partition)


def oracle_small(inst: dict, tr) -> Outcome:
    """min_consensus_rounds, then certify: exhaustive_check or verify_chain."""
    if "family" in inst:
        family = events.family_from_json_dict(inst["family"])
    else:
        family = events.generate_bounded_omissions(
            _symmetric(inst["graph"]), inst["f"], inst["metric"]
        )
        tr.count("events.generated_events", len(family))
    result = oracle.min_consensus_rounds(family, inst["horizon"])
    if result.solvable:
        tr.count("oracle.decision_views", len(result.decision_table))
        report = simulator.exhaustive_check(result.protocol, family, result.rounds)
        tr.count("simulator.runs", report.runs)
        certified = report.passed
    else:
        certified = oracle.verify_chain(result.witness, family)
    answer = {
        "events": len(family),
        "oracle": result.to_json_dict(family),
        "certified": certified,
    }
    return Outcome(answer, family, certified=certified)


RUNNERS = {
    "convex-ladder": convex_ladder,
    "partition-mix": partition_mix,
    "oracle-small": oracle_small,
}


# ---- checks ------------------------------------------------------------------------

def _witness_holds(witness, family, partition) -> bool:
    """Replay one verdict witness against the family it was computed for."""
    masks = family.source_masks
    if witness is None:
        return True
    if isinstance(witness, solvability.CommonSourceWitness):
        return witness.nodes_mask != 0 and all(m & witness.nodes_mask == witness.nodes_mask for m in masks)
    if isinstance(witness, solvability.NoSourceEventWitness):
        return masks[witness.event] == 0
    if isinstance(witness, solvability.IncompatibilityWitness):
        return witness.holds(family)
    if isinstance(witness, solvability.BetaClassWitness):
        in_class = set(witness.class_events) >= set(witness.incompatibility.events)
        is_class = partition is None or witness.class_events in partition.classes
        return in_class and is_class and witness.incompatibility.holds(family)
    return False


def check_objects(out: Outcome) -> list[str]:
    """Problems found by replaying the answer's witnesses; empty when it holds."""
    problems = []
    for verdict in out.verdicts:
        if not _witness_holds(verdict.witness, out.family, out.partition):
            problems.append(f"{verdict.problem} witness {verdict.rule} does not hold")
    if out.partition is not None and not out.partition.verify():
        problems.append("BetaPartition.verify failed")
    if out.certified is False:
        problems.append("oracle answer failed its certification")
    return problems


def digest(data: Any) -> str:
    text = json.dumps(data, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def summary(answer: dict) -> dict:
    """The answer fields kept in clear next to the answer digest."""
    out: dict[str, Any] = {"events": answer["events"]}
    for problem in ("broadcast", "consensus"):
        if problem in answer:
            verdict = answer[problem]
            out[problem] = [verdict["answer"], verdict["rule"]]
    if "rounds" in answer:
        out["rounds"] = answer["rounds"]
    if "beta" in answer:
        out["beta"] = [answer["beta"]["iterations"], len(answer["beta"]["classes"])]
    if "oracle" in answer:
        out["oracle_rounds"] = answer["oracle"]["rounds"]
        out["horizon"] = answer["oracle"]["max_horizon"]
    return out


def input_digest(inst: dict) -> str:
    return digest({k: v for k, v in inst.items() if k != "id"})
