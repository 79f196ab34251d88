"""Solvability of broadcast and consensus under mobile omission faults.

A round of communication is an event: the sub-digraph of arcs that
deliver messages.  A mobile scheme is a finite family of events, any of
which may occur in any round.  This package decides broadcastability and
(where theory permits) consensus solvability for such schemes, computes
the indistinguishability-class partition behind the consensus condition,
runs protocols in an exact round simulator, and cross-checks everything
against a brute-force execution-view oracle on small instances.

Scenario words and input vectors are plain tuples of ints, and an
execution is their pair (input, word): a word holds one event index per
round, an input one 0/1 value per node.
"""
from .budget import Budget, BudgetExceededError, InputError
from .equivalence import (
    AlphaWitness,
    BetaPartition,
    alpha_related,
    beta_partition,
)
from .events import (
    Event,
    EventFamily,
    event_from_arcs,
    family_from_json_dict,
    family_to_json_dict,
    generate_bounded_omissions,
    is_convex,
)
from .graphs import (
    Arc,
    Digraph,
    arc_connectivity,
    complete_digraph,
    cycle_digraph,
    digraph_from_json_dict,
    digraph_to_json_dict,
    hypercube_digraph,
    mask_nodes,
    node_mask,
    path_digraph,
    symmetric_digraph,
)
from .oracle import (
    EqualRoundsReport,
    IndistinguishabilityChain,
    OracleResult,
    equal_rounds_audit,
    execution_views,
    min_consensus_rounds,
    verify_chain,
)
from .simulator import (
    CheckReport,
    ProtocolError,
    ProtocolSpec,
    SimulationTrace,
    broadcast_consensus,
    check_scenarios,
    event_detection_consensus,
    exhaustive_check,
    flooding,
    run,
)
from .solvability import (
    UNBOUNDED,
    Answer,
    BetaClassWitness,
    BroadcastGame,
    CommonSourceWitness,
    IncompatibilityWitness,
    NoSourceEventWitness,
    ThresholdRow,
    Verdict,
    check_broadcastable,
    check_consensus,
    connectivity_threshold_check,
    optimal_broadcast_rounds,
    verdict_to_json_dict,
)

__version__ = "0.1.0"
