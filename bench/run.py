"""omlab benchmark: run one workload, check every answer, print every metric.

    python3 bench/run.py --workload convex-ladder --seed 1 --seconds 30 --trace 0

Run from the repository root.  The workloads, and why each was chosen,
are listed in ``BENCHMARK.json`` and built by ``workloads.py`` from the
seed.  Each run:

1. times set-up: ``SETUP_REPEATS`` fresh interpreters each import omlab and
   ``omlab.cli`` and build the seeded inputs (``worker.py --setup-only``);
   ``setup_s`` is the median, each scaled by the calibration its process
   ran once set up;
2. starts one workload process (``worker.py``) that answers the batch in a
   closed loop for ``--seconds`` seconds, one instance at a time, pass
   after pass;
3. checks every answer: against ``expected.json`` (verdict, rule, witness
   JSON, rounds, oracle rounds and partition, by digest), by replaying its
   witness with omlab's own checks, and against answers known without
   omlab: for global-metric families on symmetric graphs, Santoro and
   Widmayer's threshold (consensus is solvable exactly when f is below the
   arc connectivity, computed with networkx), and the round count of
   oracle families built to have one;
4. prints each metric by name and unit, then one JSON line with
   ``correct``, ``attempted``, ``failed`` and ``metrics``.

With ``--trace 0`` the metrics are the end-to-end ones; with ``--trace 1``
they are the per-layer self times and counts from the fastest traced
pass, and the spans go to ``.bench_out/``.  Names and units are those
declared in ``BENCHMARK.json``.  ``failed`` over ``attempted`` is the
failed fraction: instance runs that raised, exceeded a budget or failed a
check.  The exit code is 0 only when every check passed.

The timings are host-normalised.  An answer time is the instance's best
time over the run's passes (work elsewhere on the host only ever adds
time).  Every timing is then scaled by how fast the host ran a fixed
calibration task in the same process, to a host on which that task takes
``REFERENCE_CALIBRATION_S``: answer times by the calibrations run before
each instance, set-up times by one run in each set-up process.  On a
shared host whose speed drifts for minutes at a time, this is what
repeats from run to run; the measured times are printed alongside.
"""
from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
EXPECTED = BENCH / "expected.json"
DECLARED = ROOT / "BENCHMARK.json"
# Timings are scaled to a host on which the calibration takes this long.
REFERENCE_CALIBRATION_S = 0.001
SETUP_REPEATS = 7
SETUP_TIMEOUT_S = 60
# The worker stops starting passes at --seconds; this leaves room for the last one.
WORKER_MARGIN_S = 60


def worker_command(*args: str) -> list[str]:
    return [sys.executable, str(BENCH / "worker.py"), *args]


def worker_env() -> dict:
    # Default budget caps, whatever the caller's environment says.
    env = dict(os.environ)
    env.pop("OMLAB_BUDGET", None)
    return env


def time_setup(workload: str, seed: int) -> tuple[float, float]:
    """Median time from launching a fresh interpreter to its inputs being built:
    (measured, host-normalised).

    The set-up process prints the system-wide monotonic clock once its inputs
    exist, so interpreter shutdown is not part of set-up, and then its
    calibration time.
    """
    measured, normalised = [], []
    for _ in range(SETUP_REPEATS):
        start = time.monotonic()
        proc = subprocess.run(
            worker_command("--workload", workload, "--seed", str(seed), "--setup-only"),
            cwd=ROOT, env=worker_env(), capture_output=True, text=True, check=True,
            timeout=SETUP_TIMEOUT_S,
        )
        ready, calibration = map(float, proc.stdout.split()[-2:])
        measured.append(ready - start)
        normalised.append((ready - start) * REFERENCE_CALIBRATION_S / calibration)
    return statistics.median(measured), statistics.median(normalised)


def run_worker(workload: str, seed: int, seconds: float, trace: int) -> dict:
    args = ["--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
            "--trace", str(trace)]
    if trace:
        args += ["--trace-out", str(ROOT / ".bench_out" / f"trace-{workload}-seed{seed}.json")]
    try:
        proc = subprocess.run(
            worker_command(*args),
            cwd=ROOT, env=worker_env(), capture_output=True, text=True,
            timeout=seconds + WORKER_MARGIN_S,
        )
    except subprocess.TimeoutExpired:
        raise SystemExit(f"workload process did not finish within {seconds + WORKER_MARGIN_S} s")
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"workload process exited with {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


# ---- checks -------------------------------------------------------------------------

def arc_connectivity(g: dict) -> int:
    import networkx as nx

    graph = nx.Graph()
    graph.add_nodes_from(range(g["n"]))
    graph.add_edges_from(map(tuple, g["edges"]))
    return nx.edge_connectivity(graph)


def known_answer_problems(inst: dict, summary: dict) -> list[str]:
    """Disagreements with answers known without omlab.

    Santoro-Widmayer: with at most f omitted arcs per round on a symmetric
    graph, consensus (and broadcast) is solvable exactly when f < lambda(G).
    Oracle families built with a known round count must get exactly it.
    """
    problems = []
    if "known_oracle_rounds" in inst and summary["oracle_rounds"] != inst["known_oracle_rounds"]:
        problems.append(f"oracle rounds {summary['oracle_rounds']}, "
                        f"known to be {inst['known_oracle_rounds']}")
    if "graph" not in inst or inst["metric"] != "global":
        return problems
    solvable = inst["f"] < arc_connectivity(inst["graph"])
    for problem in ("broadcast", "consensus"):
        if problem in summary and (summary[problem][0] == "solvable") != solvable:
            problems.append(f"{problem} is {summary[problem][0]}, threshold says "
                            f"{'solvable' if solvable else 'unsolvable'}")
    if "oracle_rounds" in summary and not solvable and summary["oracle_rounds"] is not None:
        problems.append("oracle found a protocol where the threshold rules one out")
    return problems


def check_records(workload: str, instances: dict[str, dict], passes: list[dict],
                  expected: dict) -> tuple[int, int, list[str]]:
    """(attempted, failed, messages) over every instance run of every pass."""
    known = expected.get(workload, {})
    known_cache: dict[str, list[str]] = {}
    attempted = failed = 0
    messages = []
    for p in passes:
        for rec in p["records"]:
            attempted += 1
            iid = rec["id"]
            if "error" in rec:
                problems = ["raised: " + rec["error"].strip().splitlines()[-1]]
            else:
                problems = list(rec["problems"])
                want = known.get(iid)
                if want is None:
                    problems.append("no expected answer")
                elif want["input"] != instances[iid]["input_digest"]:
                    problems.append("input differs from the one the expected answer was made for")
                elif want["answer"] != rec["answer"]:
                    problems.append(f"answer differs from expected: got {rec['summary']}, "
                                    f"expected {want['summary']}")
                if iid not in known_cache:
                    known_cache[iid] = known_answer_problems(instances[iid], rec["summary"])
                problems += known_cache[iid]
            if problems:
                failed += 1
                messages.extend(f"FAIL {iid}: {msg}" for msg in problems)
    return attempted, failed, messages


# ---- metrics ------------------------------------------------------------------------

def percentile(values: list[float], q: int) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def best_times(per_pass: list[list[float]]) -> list[float]:
    """Each position's best time over the passes.

    Every pass answers the same instances in the same order, and each
    instance builds its objects afresh, so the passes repeat the same work.
    """
    return [min(times) for times in zip(*per_pass)]


def host_factor(passes: list[dict]) -> float:
    """How much slower than the reference host the calibration ran, timed
    like the instances: best over the passes at each position in the batch,
    then the median over positions."""
    best = best_times([p["calibration_s"] for p in passes])
    return statistics.median(best) / REFERENCE_CALIBRATION_S


def end_to_end(data: dict, setup_s: float) -> dict[str, float]:
    plain = [p for p in data["passes"] if not p["traced"]]
    factor = host_factor(plain)
    best = [t / factor for t in best_times([p["latencies_s"] for p in plain])]
    return {
        "setup_s": setup_s,
        "wall_s": sum(best),
        "answer_p50_ms": percentile(best, 50) * 1000,
        "answer_p90_ms": percentile(best, 90) * 1000,
        "peak_rss_mb": data["peak_rss_mb"],
    }


def src_lines() -> int:
    return sum(len(p.read_text().splitlines()) for p in (ROOT / "src").rglob("*.py"))


def per_layer(data: dict) -> dict[str, float]:
    """Self times and counts of the fastest traced pass.

    Taking them from one pass keeps their sum within that pass's time;
    the overhead compares it with the fastest untraced pass.
    """
    fastest = min((p for p in data["passes"] if p["traced"]), key=lambda p: p["wall_s"])
    plain_wall = min(p["wall_s"] for p in data["passes"] if not p["traced"])
    metrics = dict(fastest["layers"])
    metrics["trace.wall_s"] = fastest["wall_s"]
    metrics["trace.overhead_frac"] = fastest["wall_s"] / plain_wall - 1
    metrics["src.lines"] = src_lines()
    return metrics


def declared_units(kind: str) -> dict[str, str]:
    """Metric name -> unit, as ``BENCHMARK.json`` declares them under ``kind``."""
    return {m["name"]: m["unit"] for m in json.loads(DECLARED.read_text())[kind]}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="omlab benchmark")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    needed = [ROOT / "src" / "omlab" / "__init__.py", EXPECTED, DECLARED]
    if not all(path.is_file() for path in needed):
        print(f"error: run from an omlab checkout; one of {', '.join(map(str, needed))} "
              "is missing", file=sys.stderr)
        return 2

    sys.path.insert(0, str(ROOT / "src"))
    import pipeline
    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"choose from {', '.join(workloads.WORKLOADS)}")
    measured_setup_s, setup_s = time_setup(args.workload, args.seed)
    data = run_worker(args.workload, args.seed, args.seconds, args.trace)

    instances = {}
    for inst in workloads.instances(args.workload, args.seed):
        instances[inst["id"]] = {**inst, "input_digest": pipeline.input_digest(inst)}
    expected = json.loads(EXPECTED.read_text())
    attempted, failed, messages = check_records(args.workload, instances, data["passes"], expected)

    units = {**declared_units("end_to_end"), **declared_units("per_layer")}
    e2e = end_to_end(data, setup_s)
    layers = per_layer(data) if args.trace else {}
    plain = [p for p in data["passes"] if not p["traced"]]
    print(f"workload {args.workload}, seed {args.seed}: {data['instances']} instances per pass, "
          f"{len(data['passes'])} passes ({len(plain)} untraced), one caller, closed loop")
    for message in messages[:20]:
        print(message)
    factor = host_factor(plain)
    measured_wall_s = sum(best_times([p["latencies_s"] for p in plain]))
    print(f"host: calibration {factor * REFERENCE_CALIBRATION_S * 1000:.3f} ms against "
          f"{REFERENCE_CALIBRATION_S * 1000:g} ms; measured set-up {measured_setup_s:.4f} s "
          f"and wall {measured_wall_s:.4f} s, wall reported divided by {factor:.4f}")
    for name, value in {**e2e, **layers}.items():
        note = (f"  ({data['instances']} samples, each the best of {len(plain)} passes)"
                if name.startswith("answer_") else "")
        print(f"{name:40s} {value:14.6f} {units[name]}{note}")
    print(f"{'failed_frac':40s} {failed / attempted:14.6f} ratio  ({failed} of {attempted} instance runs)")
    correct = failed == 0
    metrics = layers if args.trace else e2e
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
