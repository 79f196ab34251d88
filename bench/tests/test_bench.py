"""Tests of the benchmark itself.

    python3 -m pytest -q bench/tests
"""
from __future__ import annotations

import copy
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
import worker  # noqa: E402  (puts src/ on the path)
import pipeline  # noqa: E402
import workloads  # noqa: E402
from tracing import NullTracer, Tracer  # noqa: E402

EXPECTED = json.loads((BENCH / "expected.json").read_text())


def checked(workload: str, batch: list[dict], passes: list[dict], expected: dict):
    instances = {i["id"]: {**i, "input_digest": pipeline.input_digest(i)} for i in batch}
    return run.check_records(workload, instances, passes, expected)


def cheap(workload: str) -> list[dict]:
    """The small instances of seed 0, for tests that need a quick batch."""
    small = []
    for inst in workloads.instances(workload, 0):
        if "family" in inst:
            keep = len(inst["family"]["events"]) <= 100
        else:
            keep = inst["graph"]["n"] <= (3 if "horizon" in inst else 6)
        if keep:
            small.append(inst)
    return small


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_one_seed_always_gives_the_same_instances(workload):
    first = workloads.instances(workload, 3)
    assert json.dumps(first) == json.dumps(workloads.instances(workload, 3))
    assert [i["id"] for i in first] != [i["id"] for i in workloads.instances(workload, 4)]
    assert len({i["id"] for i in first}) == len(first)


def test_instances_do_not_depend_on_the_hash_seed():
    code = (
        "import sys, json; sys.path[:0] = [sys.argv[1], sys.argv[2]];"
        "import workloads, pipeline;"
        "print(pipeline.digest(workloads.instances('partition-mix', 5)))"
    )
    digests = set()
    for hash_seed in ("1", "2"):
        env = {**os.environ, "PYTHONHASHSEED": hash_seed}
        out = subprocess.run([sys.executable, "-c", code, str(BENCH), str(ROOT / "src")],
                             env=env, capture_output=True, text=True, check=True)
        digests.add(out.stdout.strip())
    assert len(digests) == 1


def test_every_seeded_instance_has_an_expected_answer():
    for workload in workloads.WORKLOADS:
        ids = {inst_id for _picks, pool in workloads.WORKLOADS[workload].strata()
               for inst_id, _build in pool}
        ids |= {inst["id"] for inst in workloads.WORKLOADS[workload].fixed()}
        assert ids == set(EXPECTED[workload])


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_expected_answers_match_the_program(workload):
    batch = workloads.instances(workload, 0)
    result = worker.run_pass(batch, pipeline.RUNNERS[workload], NullTracer())
    attempted, failed, messages = checked(workload, batch, [result], EXPECTED)
    assert attempted == len(batch)
    assert failed == 0, messages


def test_wrong_expected_answer_raises_failed_fraction():
    workload = "oracle-small"
    batch = cheap(workload)
    result = worker.run_pass(batch, pipeline.RUNNERS[workload], NullTracer())
    wrong = copy.deepcopy(EXPECTED)
    victim = batch[0]["id"]
    wrong[workload][victim]["answer"] = "0" * 16
    attempted, failed, messages = checked(workload, batch, [result], wrong)
    assert failed == 1 and attempted == len(batch)
    assert victim in messages[0]


def test_threshold_check_rejects_a_wrong_verdict():
    bowtie = workloads.bounded_instance("t", workloads.graph("bowtie"), 1, "global")
    right = {"consensus": ["solvable", "convex-broadcast-equivalence"]}
    wrong = {"consensus": ["unsolvable", "convex-broadcast-equivalence"]}
    assert run.known_answer_problems(bowtie, right) == []
    assert run.known_answer_problems(bowtie, wrong)


def test_traced_self_times_sum_to_at_most_wall():
    tracer = Tracer()
    for workload in ("convex-ladder", "partition-mix", "oracle-small"):
        batch = cheap(workload)
        tracer.install()
        try:
            result = worker.run_pass(batch, pipeline.RUNNERS[workload], tracer)
        finally:
            tracer.uninstall()
        times = [v for k, v in result["layers"].items() if k.endswith("_s")]
        assert all(t >= 0 for t in times)
        assert 0 < sum(times) <= result["wall_s"]
    assert pipeline.solvability.check_consensus.__name__ == "check_consensus"
    assert not hasattr(pipeline.solvability.check_consensus, "__wrapped__")


def traced_pass(workload: str, batch: list[dict]) -> dict:
    tracer = Tracer()
    tracer.install()
    try:
        return worker.run_pass(batch, pipeline.RUNNERS[workload], tracer)
    finally:
        tracer.uninstall()


def test_reported_metrics_are_the_declared_ones():
    workload = "partition-mix"
    batch = cheap(workload)
    plain = worker.run_pass(batch, pipeline.RUNNERS[workload], NullTracer())
    traced = traced_pass(workload, batch)
    data = {"peak_rss_mb": 1.0, "passes": [{**plain, "traced": False}, {**traced, "traced": True}]}
    for kind, metrics in (("end_to_end", run.end_to_end(data, 0.1)), ("per_layer", run.per_layer(data))):
        assert set(metrics) == set(run.declared_units(kind))
    layers = run.per_layer(data)
    self_times = [v for k, v in layers.items() if k.endswith("_s") and not k.startswith("trace.")]
    assert sum(self_times) <= layers["trace.wall_s"]


def test_oracle_executions_are_counted_from_the_search():
    family = {"id": "t", "family": workloads.random_family(workloads._rng("t"), 2, 3, 1.0, 0.6),
              "horizon": 2}
    layers = traced_pass("oracle-small", [family])["layers"]
    searched = pipeline.oracle.min_consensus_rounds(
        pipeline.events.family_from_json_dict(family["family"]), 2).horizon_table
    assert layers["oracle.executions"] == sum(4 * 3 ** r for r, _ok in searched)
    assert layers["oracle.budget_used_frac"] == 4 * 3 ** searched[-1][0] / 1_000_000


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "oracle-small", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
