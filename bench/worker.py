"""The workload process: one caller answering one instance at a time.

    python3 bench/worker.py --workload NAME --seed N --seconds S --trace 0|1 [--trace-out FILE]
    python3 bench/worker.py --workload NAME --seed N --setup-only

It imports omlab, builds the seeded inputs, and then answers the whole
batch over and over (a closed loop: each instance starts only after the
previous one has its answer) until ``--seconds`` have passed.  With
``--trace 1`` the passes alternate untraced and traced, so the tracing
overhead is measured in the same process.  The last line of standard
output is a JSON record of every pass; ``run.py`` turns it into metrics.
Before each instance it times a fixed piece of pure-Python work, the
calibration, which ``run.py`` uses to gauge how fast the host ran.
With ``--setup-only`` it prints the monotonic clock once the inputs are
built, then the median of a few calibrations, and stops; ``run.py`` times
set-up up to that stamp and scales it by that calibration.
"""
from __future__ import annotations

import argparse
import gc
import json
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import omlab.cli  # noqa: E402,F401  (set-up covers what the CLI imports)

import pipeline  # noqa: E402
import workloads  # noqa: E402
from tracing import NullTracer, Tracer  # noqa: E402


# Sized to take about a millisecond on an unloaded 2-vCPU x86 host.
CALIBRATION_SIZE = 3500
SETUP_CALIBRATIONS = 15


def calibrate() -> float:
    """Seconds taken by a fixed piece of work made of the operations omlab
    spends its time on: tuple-keyed dicts, sets and bit arithmetic."""
    start = time.perf_counter()
    table = {}
    for i in range(CALIBRATION_SIZE):
        table[(i * 7919) % 4099, i & 7] = i ^ (i >> 3)
    masks = {v & 255 for v in table.values()}
    total = sum(k[0] for k in table if k[1] & 1)
    del masks, total
    return time.perf_counter() - start


def run_pass(batch: list[dict], runner, tracer) -> dict:
    """Answer every instance once; time each from input to answer, and
    time the calibration just before it."""
    latencies, calibration, records = [], [], []
    traced = tracer.active
    first_span = len(tracer.spans) if traced else 0
    for inst in batch:
        # Start each instance from a collected heap, as a fresh CLI process would.
        gc.collect()
        calibration.append(calibrate())
        tracer.instance = inst["id"]
        start = time.perf_counter()
        try:
            with tracer.span("instance"):
                out = runner(inst, tracer)
        except Exception:
            latencies.append(time.perf_counter() - start)
            records.append({"id": inst["id"], "error": traceback.format_exc(limit=3)})
            continue
        latencies.append(time.perf_counter() - start)
        records.append({
            "id": inst["id"],
            "answer": pipeline.digest(out.answer),
            "summary": pipeline.summary(out.answer),
            "problems": pipeline.check_objects(out),
        })
        del out
    result = {"wall_s": sum(latencies), "latencies_s": latencies,
              "calibration_s": calibration, "records": records}
    if traced:
        result["layers"] = tracer.pass_report(first_span)
    return result


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--trace-out", help="file for the recorded spans")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    batch = workloads.instances(args.workload, args.seed)
    if args.setup_only:
        ready = time.monotonic()
        print(ready, statistics.median(calibrate() for _ in range(SETUP_CALIBRATIONS)))
        return 0
    runner = pipeline.RUNNERS[args.workload]
    # Inputs stay alive all run; keep them out of the collector's way.
    gc.collect()
    gc.freeze()

    tracer = Tracer()
    passes = []
    begin = time.perf_counter()
    min_passes = 2 if args.trace else 1
    while True:
        traced = bool(args.trace) and len(passes) % 2 == 1
        started = time.perf_counter()
        if traced:
            tracer.install()
            try:
                result = run_pass(batch, runner, tracer)
            finally:
                tracer.uninstall()
        else:
            result = run_pass(batch, runner, NullTracer())
        result["traced"] = traced
        passes.append(result)
        took = time.perf_counter() - started
        if len(passes) >= min_passes and time.perf_counter() - begin + took > args.seconds:
            break

    if args.trace_out:
        Path(args.trace_out).parent.mkdir(parents=True, exist_ok=True)
        with open(args.trace_out, "w") as fh:
            json.dump({"fields": ["name", "start_ns", "end_ns", "parent", "instance"],
                       "spans": tracer.spans}, fh)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    print(json.dumps({"instances": len(batch), "peak_rss_mb": rss_mb, "passes": passes}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
