"""``serve-mixed``: a ``repro serve`` subprocess under a 9:1 hit/miss mix.

The server runs with default flags (memory cache, ``max_wait_ms=10``, two
fit workers).  Two closed-loop client threads each hold one keep-alive
connection and POST binary frames of 300-asset series (length 128) with
``{"num_clusters": 8, "prefix": 10}``.  The requests ask for prefix 10
rather than the server's default of 1: a prefix-1 miss costs about 0.8 s
at 300 assets, and the 100 misses a p99 needs would stretch one run to
about 90 s.  In every ten requests nine repeat
one of 8 pre-warmed matrices (cache reads) and one sends a fresh matrix
(cold fit plus cache write), so transport, fingerprint, batcher, cache
get/put and the full pipeline all run, and misses compete with hits for
the cores.

The request schedule, and with it the number of fresh matrices (which
sets how many entries the server's cache holds, and so its memory), is
fixed by the seed and the run length; it never depends on speed.
``op_p50_ms`` over all requests lands on the hit path; the misses take
most of a run's time, so the miss path moves ``ops_per_s``.  The run
record keeps the p99 over all requests (the miss path) and each class's
median.

The traced pass sends the second half of the schedule with
``x-repro-trace-id`` and ``x-repro-trace-echo`` set, reads the echoed
spans, and takes ``/metrics`` before and after it.
"""

from __future__ import annotations

import ctypes
import http.client
import os
import random
import re
import select
import signal
import subprocess
import sys
import threading
import time
from typing import Any, Dict, List, Optional

from repro.obs.tracer import TRACE_ECHO_HEADER, TRACE_ID_HEADER, new_trace_id
from repro.serve.client import ServeClient, ServerError
from repro.serve.wire import WIRE_CONTENT_TYPE, encode_request

from e2e_common import (
    ROOT,
    RUNS_DIR,
    BenchmarkError,
    Checks,
    child_env,
    derive_seed,
    median,
    probe_seconds,
    process_peak_rss_mb,
    ratio,
    result_dict_without_timings,
    self_time,
    sized_count,
    tail_percentile,
    to_reference,
)

NUM_ASSETS = 300
LENGTH = 128
NUM_CLASSES = 8
#: Per-request knobs overlaid on the server's default config.
REQUEST_CONFIG = {"num_clusters": NUM_CLASSES, "prefix": 10}
WARM_MATRICES = 8
HITS_PER_MISS = 9
CLIENTS = 2
#: Requests between host-speed probes (about two seconds of traffic).
SEGMENT_REQUESTS = 50
#: Nominal run seconds per fresh matrix on the reference host; sizes the run only.
NOMINAL_FRESH_S = 0.2
#: The recorded p99 over all requests needs ten beyond it: 1000 requests, 100 fresh.
MIN_FRESH = 100
SERVER_STARTS = 3
START_TIMEOUT_S = 60.0
STOP_TIMEOUT_S = 30.0

_BANNER = re.compile(r"listening on http://([^:]+):(\d+)")
_PR_SET_PDEATHSIG = 1


def _die_with_parent() -> None:
    """Runs in the server child before exec: the kernel kills it if the benchmark dies.

    Covers the one exit no ``finally`` block sees, a SIGKILL of the benchmark.
    """
    libc = ctypes.CDLL(None, use_errno=True)
    libc.prctl.argtypes = [ctypes.c_int, ctypes.c_ulong]
    libc.prctl.restype = ctypes.c_int
    libc.prctl(_PR_SET_PDEATHSIG, signal.SIGKILL)


class ServerProcess:
    """One ``python -m repro serve --port 0`` child in its own process group."""

    def __init__(self, log_path) -> None:
        self.log_path = log_path
        self.process: Optional[subprocess.Popen] = None
        self.port = 0

    def start(self) -> float:
        """Spawn and wait for the listening banner; returns the seconds it took."""
        self.log_path.parent.mkdir(parents=True, exist_ok=True)
        started = time.perf_counter()
        with open(self.log_path, "ab") as log:
            self.process = subprocess.Popen(
                [sys.executable, "-m", "repro", "serve", "--port", "0"],
                cwd=str(ROOT),
                env=child_env(),
                stdout=subprocess.PIPE,
                stderr=log,
                start_new_session=True,
                preexec_fn=_die_with_parent,
            )
        deadline = started + START_TIMEOUT_S
        line = b""
        while not line.endswith(b"\n"):
            remaining = deadline - time.perf_counter()
            readable, _, _ = select.select([self.process.stdout], [], [], max(0.0, remaining))
            if not readable:
                raise BenchmarkError("repro serve printed no banner in time")
            chunk = os.read(self.process.stdout.fileno(), 4096)
            if not chunk:
                raise BenchmarkError(f"repro serve exited early (code {self.process.poll()})")
            line += chunk
        match = _BANNER.search(line.decode("utf-8", "replace"))
        if match is None:
            raise BenchmarkError(f"unexpected serve banner {line!r}")
        self.port = int(match.group(2))
        return time.perf_counter() - started

    def peak_rss_mb(self) -> float:
        return process_peak_rss_mb(self.process.pid)

    def stop(self) -> None:
        """SIGTERM (graceful drain), then SIGKILL the group if it hangs; always reaps."""
        process = self.process
        if process is None:
            return
        self.process = None
        try:
            if process.poll() is None:
                process.send_signal(signal.SIGTERM)
                try:
                    process.wait(STOP_TIMEOUT_S)
                except subprocess.TimeoutExpired:
                    pass
            try:
                os.killpg(process.pid, signal.SIGKILL)  # stragglers in the group
            except ProcessLookupError:
                pass
            process.wait()
        finally:
            process.stdout.close()


def _matrix(seed: int, label: str, index: int):
    from repro.datasets.synthetic import make_time_series_dataset

    return make_time_series_dataset(
        NUM_ASSETS, LENGTH, NUM_CLASSES, seed=derive_seed(seed, "serve-mixed", label, index)
    ).data


def _schedule(seed: int, num_fresh: int) -> List[tuple]:
    """Blocks of ten: ``("fresh", i)`` then nine ``("hit", warm index)``.

    The fresh request leads its block so that a segment ends on hits and
    neither client idles long at the segment barrier.
    """
    picker = random.Random(derive_seed(seed, "serve-mixed", "schedule"))
    requests = []
    for fresh in range(num_fresh):
        requests.append(("fresh", fresh))
        requests.extend(("hit", picker.randrange(WARM_MATRICES)) for _ in range(HITS_PER_MISS))
    return requests


class _Phase:
    """Closed-loop clients working through one slice of the schedule.

    The slice runs in segments of ``SEGMENT_REQUESTS``: between segments
    both clients wait and, with the server idle, the host-speed probe runs
    on every CPU.  Each request's time is rescaled to the reference host
    with the segment's probes, except its batcher queue wait (the server
    reports it per request), which is a deadline rather than work.
    """

    def __init__(self, port: int, bodies: Dict[tuple, bytes], schedule, traced: bool,
                 cpus) -> None:
        self.bodies = bodies
        self.schedule = schedule
        self.traced = traced
        self.cpus = tuple(cpus)
        self.clients = [ServeClient(port=port, timeout=120.0) for _ in range(CLIENTS)]
        self.lock = threading.Lock()
        self.next_index = 0
        self.stop_index = 0
        self.outcomes: List[Dict[str, Any]] = [None] * len(schedule)
        self.errors: List[BaseException] = []
        self.factors: List[float] = []

    def _take(self) -> Optional[int]:
        with self.lock:
            index = self.next_index
            if index >= self.stop_index:
                return None
            self.next_index += 1
            return index

    def _client(self, client) -> None:
        try:
            while (index := self._take()) is not None:
                headers = {"Content-Type": WIRE_CONTENT_TYPE, "Accept": WIRE_CONTENT_TYPE}
                if self.traced:
                    headers[TRACE_ID_HEADER] = new_trace_id()
                    headers[TRACE_ECHO_HEADER] = "1"
                body = self.bodies[self.schedule[index]]
                start = time.perf_counter()
                try:
                    envelope = client.request("POST", "/cluster", body, headers)
                    status = 200
                except ServerError as error:
                    envelope, status = None, error.status
                except (OSError, http.client.HTTPException):
                    # Connection lost: counted as failed; the client reconnects.
                    envelope, status = None, 0
                rtt = time.perf_counter() - start
                self.outcomes[index] = {"status": status, "raw_ms": rtt * 1000.0, "envelope": envelope}
        except BaseException as error:  # surfaced by run() after the join
            self.errors.append(error)
            raise

    def _segment(self) -> float:
        threads = [threading.Thread(target=self._client, args=(client,), daemon=True)
                   for client in self.clients]
        start = time.perf_counter()
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        if self.errors:
            raise BenchmarkError(f"client thread failed: {self.errors[0]!r}")
        return time.perf_counter() - start

    def run(self) -> float:
        """Send the slice; returns its duration in reference-host seconds."""
        total = 0.0
        try:
            for first in range(0, len(self.schedule), SEGMENT_REQUESTS):
                self.stop_index = min(first + SEGMENT_REQUESTS, len(self.schedule))
                before = probe_seconds(self.cpus)
                wall = self._segment()
                scale = to_reference(1.0, before, probe_seconds(self.cpus))
                self.factors.append(1.0 / scale)
                total += wall * scale
                for outcome in self.outcomes[first : self.stop_index]:
                    envelope = outcome["envelope"]
                    queue_ms = envelope["serving"]["queue_seconds"] * 1000.0 if envelope else 0.0
                    outcome["rtt_ms"] = queue_ms + (outcome["raw_ms"] - queue_ms) * scale
        finally:
            for client in self.clients:
                client.close()
        return total

    def rtts(self, kind: Optional[str] = None) -> List[float]:
        return [
            outcome["rtt_ms"]
            for (request_kind, _), outcome in zip(self.schedule, self.outcomes)
            if kind is None or request_kind == kind
        ]


def _check_responses(phase: _Phase, checks: Checks, hit_labels: Dict[int, list]) -> None:
    """One check per request: 2xx with 300 labels, the same labels on every hit of a matrix."""
    for (kind, index), outcome in zip(phase.schedule, phase.outcomes):
        envelope = outcome["envelope"]
        ok = outcome["status"] == 200 and envelope is not None
        labels = envelope["result"]["labels"] if ok else None
        ok = ok and labels is not None and len(labels) == NUM_ASSETS
        if ok and kind == "hit":
            ok = labels == hit_labels.setdefault(index, labels)
        checks.check("request", ok, f"{kind} {index}: status {outcome['status']}")


def _direct_fit_check(phase: _Phase, matrices, seed: int, checks: Checks) -> None:
    """A sampled hit and a sampled miss answer equal a direct ``TMFGClusterer`` fit."""
    from repro.api import ClusteringConfig, TMFGClusterer

    picker = random.Random(derive_seed(seed, "serve-mixed", "direct-sample"))
    config = ClusteringConfig(cache=True, **REQUEST_CONFIG)
    schedule, outcomes = phase.schedule, phase.outcomes
    for wanted in ("hit", "fresh"):
        positions = [
            i
            for i, (kind, _) in enumerate(schedule)
            if kind == wanted and outcomes[i]["status"] == 200
        ]
        if not positions:
            checks.check("served_equals_direct_fit", False, f"no 2xx {wanted} answer")
            continue
        position = picker.choice(positions)
        served = outcomes[position]["envelope"]["result"]
        direct = TMFGClusterer(config).fit(matrices[schedule[position]]).result_.to_dict()
        checks.check(
            "served_equals_direct_fit",
            result_dict_without_timings(served) == result_dict_without_timings(direct),
            f"{wanted} request {position}",
        )


def _span_delta(before: dict, after: dict, kind: str) -> tuple:
    def read(document):
        entry = document.get("spans", {}).get(kind, {})
        return entry.get("count", 0), entry.get("sum_ms", 0.0)

    count_before, sum_before = read(before)
    count_after, sum_after = read(after)
    return count_after - count_before, sum_after - sum_before


def _layers(phase: _Phase, before: dict, after: dict) -> Dict[str, float]:
    """Per-layer figures from the echoed spans and the ``/metrics`` deltas."""
    by_class: Dict[str, Dict[str, List[float]]] = {"hit": {}, "fresh": {}}
    for (kind, _), outcome in zip(phase.schedule, phase.outcomes):
        envelope = outcome["envelope"]
        if outcome["status"] != 200 or not envelope or "trace" not in envelope:
            continue
        for span in envelope["trace"]["spans"]:
            by_class[kind].setdefault(span["kind"], []).append(span["duration_ms"])

    def class_median(kind: str, span_kind: str) -> float:
        samples = by_class[kind].get(span_kind)
        if not samples:
            raise BenchmarkError(f"no {span_kind} spans on {kind} requests")
        return median(samples)

    requests, request_ms = _span_delta(before, after, "server.request")
    _, queue_ms = _span_delta(before, after, "serve.queue")
    _, fit_ms = _span_delta(before, after, "serve.batch_fit")
    if requests < 1:
        raise BenchmarkError("the traced pass recorded no server.request spans")
    rtts = [outcome["raw_ms"] for outcome in phase.outcomes]  # raw, like the spans
    batching = {key: after["batching"][key] - before["batching"][key]
                for key in ("batches", "batched_requests", "deduped_requests")}
    hits = after["cache"]["hits"] - before["cache"]["hits"]
    lookups = hits + after["cache"]["misses"] - before["cache"]["misses"]
    return {
        "transport.self_ms": self_time(sum(rtts) / len(rtts), [request_ms / requests]),
        "server.self_ms": self_time(request_ms, [queue_ms, fit_ms]) / requests,
        "batcher.queue_wait_ms": class_median("hit", "serve.queue"),
        "batcher.mean_batch_size": ratio(batching["batched_requests"], batching["batches"]),
        "batch.deduped": batching["deduped_requests"],
        "cache.get_ms": class_median("hit", "cache.get"),
        "cache.hit_ratio": ratio(hits, lookups),
        "cache.hit_ratio.base": lookups,
        "serve.batch_fit_ms": class_median("fresh", "serve.batch_fit"),
        "cache.put_ms": class_median("fresh", "cache.put"),
        "apsp.busy_ms": class_median("fresh", "kernel.apsp"),
        "admission.rejected": after["rejected_total"] - before["rejected_total"],
    }


def run(seed: int, seconds: float, trace: bool, checks: Checks, record: dict):
    """Run the workload; returns ``(metric values, echoed spans)``."""
    num_fresh = sized_count(seconds, NOMINAL_FRESH_S, MIN_FRESH)
    schedule = _schedule(seed, num_fresh)
    record["workload_size"] = {
        "requests": len(schedule),
        "fresh_matrices": num_fresh,
        "warm_matrices": WARM_MATRICES,
        "assets": NUM_ASSETS,
    }
    matrices = {("hit", i): _matrix(seed, "warm", i) for i in range(WARM_MATRICES)}
    matrices.update({("fresh", i): _matrix(seed, "fresh", i) for i in range(num_fresh)})
    bodies = {key: encode_request(matrix, REQUEST_CONFIG) for key, matrix in matrices.items()}
    cpus = sorted(os.sched_getaffinity(0))
    log_path = RUNS_DIR / f"serve-mixed-s{seed}-t{int(trace)}.server.log"
    values: Dict[str, float] = {}
    spans: List[Dict[str, Any]] = []
    server = ServerProcess(log_path)
    try:
        startups = []
        for attempt in range(SERVER_STARTS if not trace else 1):
            if attempt:
                server.stop()
            before = probe_seconds(cpus)
            raw = server.start()
            startups.append(to_reference(raw, before, probe_seconds(cpus)))
        warm_phase = _Phase(
            server.port, bodies, [("hit", i) for i in range(WARM_MATRICES)], False, cpus
        )
        prewarm_s = warm_phase.run()
        record["setup"] = {"server_start_s": startups, "prewarm_s": prewarm_s}
        hit_labels: Dict[int, list] = {}
        _check_responses(warm_phase, checks, hit_labels)

        if not trace:
            phase = _Phase(server.port, bodies, schedule, False, cpus)
            phase_s = phase.run()
            _check_responses(phase, checks, hit_labels)
            _direct_fit_check(phase, matrices, seed, checks)
            values["setup_s"] = median(startups) + prewarm_s
            values["op_p50_ms"] = median(phase.rtts())
            values["ops_per_s"] = len(schedule) / phase_s
            values["peak_rss_mb"] = server.peak_rss_mb()
            record["samples"] = len(schedule)
            record["request_p99_ms"] = tail_percentile(phase.rtts(), 0.99)
            record["class_median_ms"] = {kind: median(phase.rtts(kind)) for kind in ("hit", "fresh")}
            record["host"] = {
                "raw_ms": [outcome["raw_ms"] for outcome in phase.outcomes],
                "host_factor_median": median(phase.factors),
            }
        else:
            half = len(schedule) // 2
            untraced = _Phase(server.port, bodies, schedule[:half], False, cpus)
            untraced.run()
            _check_responses(untraced, checks, hit_labels)
            with ServeClient(port=server.port) as scraper:
                before_metrics = scraper.metrics()
                traced = _Phase(server.port, bodies, schedule[half:], True, cpus)
                traced.run()
                after_metrics = scraper.metrics()
            _check_responses(traced, checks, hit_labels)
            _direct_fit_check(traced, matrices, seed, checks)
            values.update(_layers(traced, before_metrics, after_metrics))
            values["trace.overhead_ratio"] = median(traced.rtts()) / median(untraced.rtts())
            spans = [
                span
                for outcome in traced.outcomes
                if outcome["envelope"] and "trace" in outcome["envelope"]
                for span in outcome["envelope"]["trace"]["spans"]
            ]
    finally:
        server.stop()
    return values, spans
