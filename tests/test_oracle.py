"""The brute-force oracle against the solvability verdicts on random families.

Each of the seeds 0-299 draws a family of 1-6 distinct arc masks over
the complete digraph on two or three nodes and runs the oracle up to
horizon 3; the verdicts are 196 unsolvable, 80 solvable and 24
necessary-condition-holds.  The verdict and the oracle must agree, and
each side's evidence must replay: an oracle protocol passes the
exhaustive simulator check, and a mixing chain passes ``verify_chain``.
An inconclusive verdict must be settled by a protocol within horizon 3.
"""
from __future__ import annotations

import random

import pytest

from omlab import (
    Answer,
    Budget,
    BudgetExceededError,
    Event,
    EventFamily,
    check_consensus,
    complete_digraph,
)
from omlab.bundled import load_family
from omlab.oracle import min_consensus_rounds, verify_chain
from omlab.simulator import exhaustive_check

HORIZON = 3


def random_family(seed: int) -> EventFamily:
    rng = random.Random(seed)
    base = complete_digraph(rng.choice((2, 3)))
    masks = range(1 << len(base.arcs))
    count = min(rng.randint(1, 6), len(masks))
    return EventFamily(base, tuple(Event(base, m) for m in rng.sample(masks, count)))


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
