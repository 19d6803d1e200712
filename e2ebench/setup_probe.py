"""Time what a library user pays before the first timed operation.

Run in a fresh interpreter by ``e2e_common.run_setup_probe``::

    python e2ebench/setup_probe.py cold-fit 1234
    python e2ebench/setup_probe.py stream-warm 1234

The clock starts inside the child, so interpreter start-up (which says
nothing about this package) is excluded.  ``setup_s`` is the package
import plus one warm-up operation at the workload's own size: one
500-object fit for ``cold-fit``, the first (cold) tick of a 200-asset
stream for ``stream-warm``.  Input generation is not timed.  Like every
operation time, ``setup_s`` is rescaled to the reference host's speed
(see ``e2e_common``); the raw figure is reported beside it.  The report is
one JSON line on stdout.
"""

from __future__ import annotations

import json
import sys
import time

from e2e_common import pin_to_one_cpu, probe_seconds, to_reference


def _cold_fit(seed: int) -> dict:
    import e2e_cold_fit as workload

    start = time.perf_counter()
    from repro.api import make_estimator
    from repro.datasets.synthetic import make_time_series_dataset

    imported = time.perf_counter()
    data = make_time_series_dataset(
        workload.NUM_OBJECTS, workload.LENGTH, workload.NUM_CLASSES, seed=seed
    ).data
    fit_start = time.perf_counter()
    make_estimator("tmfg-dbht", workload.config()).fit(data)
    done = time.perf_counter()
    return {"import_s": imported - start, "first_op_s": done - fit_start}


def _stream_warm(seed: int) -> dict:
    import e2e_stream_warm as workload

    start = time.perf_counter()
    from repro.datasets.stocks import generate_regime_switching_stream
    from repro.streaming.runner import StreamingPipeline

    imported = time.perf_counter()
    stream = generate_regime_switching_stream(
        num_stocks=workload.NUM_ASSETS, num_days=workload.WINDOW + 1, seed=seed
    )
    tick_start = time.perf_counter()
    pipeline = StreamingPipeline(
        stream.returns, window=workload.WINDOW, hop=workload.HOP, config=workload.config()
    )
    next(pipeline.iter_ticks())
    done = time.perf_counter()
    return {"import_s": imported - start, "first_op_s": done - tick_start}


PROBES = {"cold-fit": _cold_fit, "stream-warm": _stream_warm}


def main(argv) -> int:
    workload, seed = argv[1], int(argv[2])
    cpus = [pin_to_one_cpu()]
    before = probe_seconds(cpus)
    report = PROBES[workload](seed)
    after = probe_seconds(cpus)
    report["raw_setup_s"] = report["import_s"] + report["first_op_s"]
    report["setup_s"] = to_reference(report["raw_setup_s"], before, after)
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
