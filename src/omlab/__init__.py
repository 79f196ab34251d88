"""Solvability of broadcast and consensus under mobile omission faults.

A round of communication is an event: the sub-digraph of arcs that
deliver messages.  A mobile scheme is a finite family of events, any of
which may occur in any round.  This package decides broadcastability and
(where theory permits) consensus solvability for such schemes, computes
the indistinguishability-class partition behind the consensus condition,
runs protocols in an exact round simulator, and cross-checks everything
against a brute-force execution-view oracle on small instances.
"""
from .budget import Budget, BudgetExceededError, FamilyCapExceededError
from .equivalence import (
    AlphaWitness,
    BetaPartition,
    alpha_related,
    alpha_star,
    beta_partition,
    in_x,
)
from .events import (
    ConvexityViolation,
    Event,
    EventFamily,
    InitialConfig,
    all_initial_configs,
    convex_closure,
    convexity_violation,
    event_from_arcs,
    family_from_json_dict,
    family_to_json_dict,
    full_event,
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
    heads,
    hypercube_digraph,
    mask_nodes,
    node_mask,
    path_digraph,
    reachable_from,
    sources,
    symmetric_digraph,
)
from .oracle import (
    EqualRoundsReport,
    Execution,
    IndistinguishabilityChain,
    OracleResult,
    equal_rounds_audit,
    execution_views,
    min_consensus_rounds,
    verify_chain,
)
from .scenarios import (
    Scenario,
    ScenarioRecipe,
    constant_scenario,
    crash_scheme_prefixes,
    eventually_constant_scenario,
    random_scenario,
    round_robin_scenario,
    subword,
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
    broadcast_rounds,
    check_broadcastable,
    check_consensus,
    connectivity_threshold_check,
    optimal_broadcast_rounds,
    verdict_to_json_dict,
)

__version__ = "0.1.0"
