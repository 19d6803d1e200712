"""Benchmark entry point: one workload, one seed, one run.

    python3 e2ebench/run.py --workload cold-fit --seed 1 --seconds 20 --trace 0

Run from the repository root.  ``--trace 0`` measures every end-to-end
metric with tracing off; ``--trace 1`` makes the traced pass that
reports every per-layer metric (the layers this workload times, and 0.0
for those the other workloads time; see ``e2e_spec``) and the tracing
overhead.  Operation times
are rescaled to a reference host speed by a probe loop run beside each
operation (``e2e_common`` explains why).  The last line of standard
output is the result object; the full run record (provenance,
workload size, check counts, raw samples) and the spans go to
``e2ebench/runs/``.  Any failure to measure exits non-zero without a
result line.
"""

from __future__ import annotations

import argparse
import json
import signal
import sys
import time
import traceback

from e2e_common import (
    ROOT,
    RUNS_DIR,
    BenchmarkError,
    Checks,
    build_result,
    load_declared_metrics,
    pin_blas_threads,
    provenance,
    remove_shm_segments,
    require_source_tree,
    shm_segments,
)
from e2e_spec import WORKLOADS, expected_metrics, per_layer_values


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def _workload_module(name: str):
    if name == "cold-fit":
        import e2e_cold_fit as module
    elif name == "stream-warm":
        import e2e_stream_warm as module
    else:
        import e2e_serve_mixed as module
    return module


def _raise_exit(signum, _frame):
    raise SystemExit(128 + signum)


def main(argv=None) -> int:
    args = _parse(argv)
    pin_blas_threads()  # before numpy is first imported, here or in any child
    signal.signal(signal.SIGTERM, _raise_exit)  # so cleanup in finally blocks runs
    started = time.perf_counter()
    try:
        require_source_tree()
        declared = load_declared_metrics(ROOT / "BENCHMARK.json")
        trace = bool(args.trace)
        checks = Checks()
        record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
                  "trace": args.trace, "provenance": provenance()}
        shm_before = shm_segments()
        try:
            values, spans = _workload_module(args.workload).run(
                args.seed, args.seconds, trace, checks, record
            )
        finally:
            leaked = remove_shm_segments(shm_segments() - shm_before)
        checks.check("no_shared_memory_left", not leaked, ", ".join(leaked))
        if trace:
            values = per_layer_values(args.workload, values)
        else:
            values["success_ratio"] = 1.0 - checks.failed / checks.attempted
        expected = expected_metrics(trace)
        result = build_result(
            values,
            expected,
            declared,
            correct=checks.failed == 0,
            attempted=checks.attempted,
            failed=checks.failed,
        )
    except BenchmarkError as error:
        traceback.print_exc()
        print(f"benchmark failed: {error}", file=sys.stderr)
        return 2
    record.update(
        checks=checks.as_dict(), result=result, duration_s=time.perf_counter() - started
    )
    stem = f"{args.workload}-s{args.seed}-t{args.trace}"
    RUNS_DIR.mkdir(parents=True, exist_ok=True)
    (RUNS_DIR / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    if spans:
        with open(RUNS_DIR / f"{stem}.spans.jsonl", "w", encoding="utf-8") as handle:
            for span in spans:
                handle.write(json.dumps(span) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
