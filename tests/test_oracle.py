"""The brute-force oracle against the solvability verdicts on random families.

Each of the seeds 0-299 draws a family of 1-6 distinct arc masks over
the complete digraph on two or three nodes and runs the oracle up to
horizon 3; the verdicts are 196 unsolvable, 80 solvable and 24
necessary-condition-holds.  The verdict and the oracle must agree, and
each side's evidence must replay: an oracle protocol passes the
exhaustive simulator check, and a mixing chain passes ``verify_chain``.
An inconclusive verdict must be settled by a protocol within horizon 3.
The equal-rounds audit, which searches only below the broadcast round
count, must report what the search up to that count finds; on a family
that is not broadcastable it searches as deep as the execution cap allows,
up to |V| rounds.
"""
from __future__ import annotations

import random
from types import SimpleNamespace

import pytest

from omlab import (
    Answer,
    Budget,
    BudgetExceededError,
    EventFamily,
    check_consensus,
    complete_digraph,
    cycle_digraph,
    generate_bounded_omissions,
    optimal_broadcast_rounds,
    path_digraph,
)
from omlab import cli, oracle
from omlab.bundled import load_family
from omlab.oracle import equal_rounds_audit, min_consensus_rounds, verify_chain
from omlab.simulator import exhaustive_check

HORIZON = 3


def random_family(seed: int) -> EventFamily:
    rng = random.Random(seed)
    base = complete_digraph(rng.choice((2, 3)))
    masks = range(1 << len(base.arcs))
    count = min(rng.randint(1, 6), len(masks))
    return EventFamily(base, rng.sample(masks, count))


@pytest.mark.parametrize("block", range(6))
def test_oracle_agrees_with_verdicts(block):
    for seed in range(50 * block, 50 * block + 50):
        family = random_family(seed)
        answer = check_consensus(family).answer
        result = min_consensus_rounds(family, HORIZON)
        if answer is Answer.UNSOLVABLE:
            assert not result.solvable, seed
            assert verify_chain(result.witness, family), seed
            continue
        # solvable, or the necessary condition holds: a protocol exists by h = 3
        assert result.solvable, (seed, answer)
        report = exhaustive_check(result.protocol, family, result.rounds)
        assert report.passed, seed


def test_oracle_checks_the_execution_budget():
    # O1 is unsolvable at every horizon; horizon 3 needs 2^2 inputs * 3^3 words.
    with pytest.raises(BudgetExceededError, match="max_executions: 108 > 50"):
        min_consensus_rounds(load_family("O1-2node"), 3, Budget(max_executions=50))


def _with_pair(chain, execution):
    """The chain with its third execution replaced by ``execution``."""
    return chain._replace(executions=chain.executions[:2] + (execution,) + chain.executions[3:])


def _with_execution(chain, i, init=None, word=None):
    executions = list(chain.executions)
    old_init, old_word = executions[i]
    executions[i] = (old_init if init is None else init, old_word if word is None else word)
    return chain._replace(executions=tuple(executions))


# O1's chain at horizon 1 runs (0,0) ok, (0,0) omit-white, (1,0) omit-white, ...,
# (1,1) omit-black; each step's shared node is the only node whose views agree.
def test_verify_chain_builds_each_executions_views_once(monkeypatch):
    family = load_family("O1-2node")
    chain = min_consensus_rounds(family, 2).witness
    built = []

    def counted(family, word, init):
        built.append((word, init))
        return views(family, word, init)

    views = oracle.execution_views
    monkeypatch.setattr(oracle, "execution_views", counted)
    assert verify_chain(chain, family)
    assert built == [(word, init) for init, word in chain.executions]


@pytest.mark.parametrize(
    "forge",
    [
        lambda chain: chain._replace(executions=chain.executions[:1]),
        lambda chain: chain._replace(shared_nodes=chain.shared_nodes[:-1]),
        lambda chain: _with_execution(chain, 2, init=(1, 0, 0)),
        lambda chain: _with_execution(chain, 2, init=(1, 2)),
        lambda chain: _with_execution(chain, 2, word=(1, 1)),
        lambda chain: chain._replace(depth=2),
        lambda chain: _with_execution(chain, 2, word=(3,)),
        lambda chain: _with_execution(chain, 0, init=(0, 1)),
        # Every step still shares its node's view; only the endpoints are wrong.
        lambda chain: chain._replace(executions=chain.executions[::-1],
                                     shared_nodes=chain.shared_nodes[::-1]),
        lambda chain: chain._replace(shared_nodes=(2,) + chain.shared_nodes[1:]),
        lambda chain: chain._replace(shared_nodes=(1,) + chain.shared_nodes[1:]),
        lambda chain: _with_pair(chain, (*chain.executions[2], 0)),
        lambda chain: _with_pair(chain, (5, (0,))),
        lambda chain: _with_pair(chain, ((0, 0), 7)),
        lambda chain: _with_pair(chain, ((0, 0), ("x",))),
        lambda chain: _with_pair(chain, ((0, 0), (0.0,))),
        lambda chain: chain._replace(shared_nodes=("a",) + chain.shared_nodes[1:]),
        lambda chain: chain._replace(shared_nodes=(0.0,) + chain.shared_nodes[1:]),
    ],
    ids=["one-execution", "shared-nodes-short", "input-length", "input-value",
         "word-length", "depth", "letter-out-of-range", "endpoint-not-all-0", "reversed",
         "shared-node-is-n", "shared-views-differ", "execution-not-a-pair",
         "input-an-int", "word-an-int", "letter-a-string", "letter-a-float",
         "shared-node-a-string", "shared-node-a-float"],
)
def test_verify_chain_refutes_a_chain_with_one_field_changed(forge):
    family = load_family("O1-2node")
    chain = min_consensus_rounds(family, 1).witness
    assert verify_chain(chain, family)
    assert chain.shared_nodes[0] == 0 and chain.executions[2][1] == (1,)
    assert not verify_chain(forge(chain), family)


def _spy_on_proofs(monkeypatch) -> list[str]:
    """Record the name of each proof builder the oracle calls."""
    built: list[str] = []

    def spy(owner, name):
        original = getattr(owner, name)

        def recorded(*args):
            built.append(name)
            return original(*args)
        monkeypatch.setattr(owner, name, recorded)

    spy(oracle, "full_information_protocol")
    spy(oracle, "_decision_table")
    spy(oracle._Search, "mixing_chain")
    return built


def test_each_proof_is_built_once_on_first_read(monkeypatch):
    built = _spy_on_proofs(monkeypatch)
    solved = min_consensus_rounds(load_family("fig12"), 3)
    failed = min_consensus_rounds(load_family("O1-2node"), 2)
    assert solved.solvable and not failed.solvable and built == []
    for _ in range(2):
        assert solved.witness is None and failed.protocol is failed.decision_table is None
        protocol, table, chain = solved.protocol, solved.decision_table, failed.witness
        assert built == ["full_information_protocol", "_decision_table", "mixing_chain"]
    assert (protocol, table, chain) == (solved.protocol, solved.decision_table, failed.witness)


def test_oracle_text_output_builds_no_proof(monkeypatch, capsys):
    built = _spy_on_proofs(monkeypatch)
    assert cli.main(["oracle", "--cycle", "4", "--bounded", "1", "--max-horizon", "3"]) == 0
    assert capsys.readouterr().out.startswith("consensus solvable in 3 round(s)")
    assert built == []


AUDIT_FAMILIES = pytest.mark.parametrize(
    "base, f, metric",
    [
        (complete_digraph(3), 1, "global"),
        (cycle_digraph(4), 1, "global"),
        (complete_digraph(1), 1, "global"),
        # Not broadcastable: the audit searches up to |V| rounds, which fit the cap.
        (path_digraph(3), 1, "send"),
    ],
    ids=["K3-f1", "C4-f1", "K1-f1", "P3-send-f1"],
)


@AUDIT_FAMILIES
def test_equal_rounds_audit_builds_no_proof(base, f, metric, monkeypatch):
    family = generate_bounded_omissions(base, f, metric)
    built = _spy_on_proofs(monkeypatch)
    equal_rounds_audit(family)
    assert built == []


@AUDIT_FAMILIES
def test_equal_rounds_audit_matches_the_full_search(base, f, metric):
    """The audit searches up to b - 1 rounds; the search up to the
    broadcast round count b itself must give the same count."""
    family = generate_bounded_omissions(base, f, metric)
    report = equal_rounds_audit(family)
    best = optimal_broadcast_rounds(family)
    horizon = base.node_count if best is None else best[1]
    assert report.horizon == horizon
    assert report.consensus_rounds == min_consensus_rounds(family, horizon).rounds
    if best is not None and best[1] and report.consensus_rounds == best[1]:
        # No protocol below b: the chain at depth b - 1 replays.
        below = min_consensus_rounds(family, best[1] - 1)
        assert verify_chain(below.witness, family)


@pytest.mark.parametrize(
    "cap, horizon",
    [(8 * 12**3, 3), (8 * 12**3 - 1, 2), (8 * 12**2, 2), (8 * 12 - 1, 0), (8, 0)],
)
def test_equal_rounds_audit_searches_the_deepest_horizon_the_cap_allows(cap, horizon):
    # P3 send f=1 is not broadcastable: 12 events, 2^3 * 12^h executions at depth h.
    family = generate_bounded_omissions(path_digraph(3), 1, "send")
    assert len(family) == 12 and optimal_broadcast_rounds(family) is None
    budget = Budget(max_executions=cap)
    report = equal_rounds_audit(family, budget)
    assert report.horizon == horizon
    assert report.consensus_rounds == min_consensus_rounds(family, horizon, budget).rounds
    assert report.equal and report.broadcast_rounds is None


def test_equal_rounds_audit_fails_when_no_horizon_fits():
    family = generate_bounded_omissions(path_digraph(3), 1, "send")
    with pytest.raises(BudgetExceededError, match="max_executions: 8 > 7"):
        equal_rounds_audit(family, Budget(max_executions=7))


def test_equal_rounds_audit_of_k4_send_searches_one_round():
    # 256 events: depth 2 needs 2^4 * 256^2 = 1,048,576 executions, over the default cap.
    family = generate_bounded_omissions(complete_digraph(4), 1, "send")
    report = equal_rounds_audit(family, Budget())
    assert (report.broadcast_rounds, report.consensus_rounds, report.horizon) == (None, None, 1)


def test_equal_rounds_audit_reports_a_count_found_below_b(monkeypatch):
    # No convex family is known to reach consensus before broadcast, so a
    # stub search stands in for one that finds a protocol at depth 1.
    family = generate_bounded_omissions(complete_digraph(3), 1)
    horizons = []

    def search(family, horizon, budget=None):
        horizons.append(horizon)
        return SimpleNamespace(rounds=1)

    monkeypatch.setattr(oracle, "min_consensus_rounds", search)
    report = equal_rounds_audit(family)
    assert horizons == [1]
    assert (report.broadcast_rounds, report.consensus_rounds, report.horizon) == (2, 1, 2)
    assert not report.equal
