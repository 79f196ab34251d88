"""Regenerate ``expected.json``: the answer of every instance any seed can produce.

    python3 bench/update_expected.py

Run it only when a change is meant to alter answers or instances, and
review the diff: the benchmark fails every answer that differs from this
file.  An instance whose witness does not replay is refused.
"""
from __future__ import annotations

import json
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH.parent / "src"))

import pipeline  # noqa: E402
import workloads  # noqa: E402
from tracing import NullTracer  # noqa: E402


def expected_for(workload: str) -> dict:
    runner = pipeline.RUNNERS[workload]
    entries = {}
    for inst in workloads.every_instance(workload):
        out = runner(inst, NullTracer())
        problems = pipeline.check_objects(out)
        if problems:
            raise SystemExit(f"{inst['id']}: {problems}")
        entries[inst["id"]] = {
            "input": pipeline.input_digest(inst),
            "answer": pipeline.digest(out.answer),
            "summary": pipeline.summary(out.answer),
        }
        print(inst["id"], entries[inst["id"]]["summary"], file=sys.stderr)
    return entries


def main() -> int:
    data = {workload: expected_for(workload) for workload in workloads.WORKLOADS}
    (BENCH / "expected.json").write_text(json.dumps(data, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
