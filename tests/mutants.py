"""Mutants of the witness checkers that the tests must kill, and their runner.

Each entry names a module of ``src/omlab``, a snippet of its source that
must occur there exactly once, the replacement that makes the mutant, and
the tests that must fail on it.  A refactor that moves a snippet updates
its entry.

    python3 tests/mutants.py

copies ``src/`` to a temporary directory for each mutant, applies it, and
runs only the named tests against the copy.  It exits 1 if a snippet does
not occur exactly once or a named test does not fail.
"""
from __future__ import annotations

import os
import re
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import NamedTuple

REPO = Path(__file__).resolve().parent.parent
ORACLE = "tests/test_oracle.py::"
CHAIN = ORACLE + "test_verify_chain_refutes_a_chain_with_one_field_changed"
BETA = "tests/test_equivalence.py::test_beta_verify_refutes_forged_partitions"
SOLVABILITY = "tests/test_solvability.py::"
KERNEL = "tests/test_kernel_reference.py::"


class Mutant(NamedTuple):
    name: str
    module: str
    snippet: str
    replacement: str
    kills: tuple[str, ...]


MUTANTS = [
    # verify_chain
    Mutant("chain-end-check-dropped", "oracle",
           "    if set(execs[0][0]) != {0} or set(execs[-1][0]) != {1}:\n        return False\n", "",
           (f"{CHAIN}[reversed]",)),
    Mutant("chain-view-check-dropped", "oracle",
           "if not 0 <= node < n or left[node] != right[node]:", "if not 0 <= node < n:",
           (f"{CHAIN}[shared-views-differ]",)),
    Mutant("chain-depth-check-dropped", "oracle",
           "if len(word) != chain.depth:", "if False:",
           (f"{CHAIN}[depth]",)),
    Mutant("chain-letter-range-check-dropped", "oracle",
           "if any(not 0 <= i < len(family) for i in word):", "if False:",
           (f"{CHAIN}[letter-out-of-range]",)),
    Mutant("chain-input-shape-check-dropped", "oracle",
           "if len(init) != n or any(v not in (0, 1) for v in init):", "if False:",
           (f"{CHAIN}[input-length]",)),
    Mutant("chain-pair-check-dropped", "oracle",
           "        if not isinstance(ex, tuple) or len(ex) != 2:\n            return False\n", "",
           (f"{CHAIN}[execution-not-a-pair]",)),
    # OracleResult
    Mutant("witness-built-for-a-solvable-result", "oracle",
           "return None if self.solvable else self.search.mixing_chain()",
           "return self.search.mixing_chain()",
           (f"{ORACLE}test_each_proof_is_built_once_on_first_read",)),
    Mutant("proof-rebuilt-on-each-read", "oracle",
           "    @cached_property\n    def decision_table", "    @property\n    def decision_table",
           (f"{ORACLE}test_each_proof_is_built_once_on_first_read",)),
    # AlphaWitness.holds
    Mutant("alpha-negative-index-accepted", "equivalence",
           "if not all(0 <= i < len(family) for i in self):",
           "if not all(i < len(family) for i in self):",
           ("tests/test_equivalence.py::test_alpha_witness_refuses_indices_outside_the_family",)),
    # BetaPartition.verify
    Mutant("beta-edge-tuple-count-check-weakened", "equivalence",
           "if len(self.class_edges) != len(self.classes):",
           "if len(self.class_edges) < len(self.classes):",
           (f"{BETA}[edge-tuple-left-over]",)),
    Mutant("beta-witness-membership-check-dropped", "equivalence",
           "and right in member_set and k in member_set):", "and right in member_set):",
           (f"{BETA}[witness-outside-class]",)),
    Mutant("beta-edge-replay-dropped", "equivalence",
           "if (masks[left] ^ masks[right]) & head_filter:", "if False:",
           (f"{BETA}[cached-witness-edge-fails]",)),
    Mutant("beta-merge-count-check-dropped", "equivalence",
           "if merges != len(members) - 1:", "if False:",
           (f"{BETA}[edges-do-not-span]", f"{BETA}[class-lists-an-event-twice]",
            f"{BETA}[edges-close-a-cycle]")),
    Mutant("beta-range-refusal-dropped", "equivalence",
           "if not member_set <= unseen:",
           "if member_set & (set(range(len(masks))) - unseen):",
           (f"{BETA}[edge-names-an-event-outside-the-family]",
            f"{BETA}[witness-outside-the-family]")),
    # IncompatibilityWitness.holds
    Mutant("incompatibility-source-subset-accepted", "solvability",
           "sources_mask != mask or mask == 0:", "sources_mask & mask != mask or mask == 0:",
           (f"{SOLVABILITY}test_incompatibility_witness_refuses_a_claimed_source_set_smaller"
            "_than_the_true_one",)),
    Mutant("incompatibility-empty-source-accepted", "solvability",
           "sources_mask != mask or mask == 0:", "sources_mask != mask:",
           (f"{SOLVABILITY}test_incompatibility_witness_refuses_an_event_with_no_source",)),
    # the exhaustive check
    Mutant("check-run-validity-dropped", "simulator",
           "if len(set(init)) == 1 and any(value != init[0] for value in decided):", "if False:",
           ("tests/test_events.py::test_initial_config_uniform_detection",)),
    Mutant("check-run-agreement-dropped", "simulator",
           "if len(set(decided)) > 1:", "if False:",
           (f"{KERNEL}test_exhaustive_check_reports_violations_in_word_then_input_order[1]",)),
    Mutant("sweep-fast-path-skips-agreement", "simulator",
           "if first is not None and decisions.count(first) == n and value in (None, first[0]):",
           "if first is not None and value in (None, first[0]):",
           (f"{KERNEL}test_exhaustive_check_reports_violations_in_word_then_input_order[1]",
            f"{KERNEL}test_sweep_matches_reference_in_any_word_order[h-one-round-reversed]")),
]


def faults(mutant: Mutant) -> list[str]:
    """What keeps ``mutant`` from counting as killed, if anything."""
    with tempfile.TemporaryDirectory() as tmp:
        src = Path(tmp, "src")
        shutil.copytree(REPO / "src", src, ignore=shutil.ignore_patterns("__pycache__"))
        path = src / "omlab" / f"{mutant.module}.py"
        text = path.read_text()
        if text.count(mutant.snippet) != 1:
            return [f"snippet occurs {text.count(mutant.snippet)} times in {mutant.module}"]
        path.write_text(text.replace(mutant.snippet, mutant.replacement))
        out = subprocess.run(
            [sys.executable, "-m", "pytest", "-q", "-rfE", "-p", "no:cacheprovider", *mutant.kills],
            cwd=REPO, env={**os.environ, "PYTHONPATH": str(src)}, capture_output=True, text=True,
        ).stdout
    failed = set(re.findall(r"^(?:FAILED|ERROR) (\S+)", out, re.M))
    return [f"{test} did not fail" for test in mutant.kills if test not in failed]


def main() -> int:
    found = [f"{m.name}: {fault}" for m in MUTANTS for fault in faults(m)]
    print("\n".join(found) or f"all {len(MUTANTS)} mutants killed")
    return 1 if found else 0


if __name__ == "__main__":
    sys.exit(main())
