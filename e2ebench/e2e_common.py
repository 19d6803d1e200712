"""Helpers shared by the three workloads: seeds, statistics, host speed, spans, checks.

Nothing here imports numpy or the ``repro`` package at module import, so
the self-tests run on a bare interpreter and ``run.py`` can pin the BLAS
thread variables before numpy is first imported.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import re
import resource
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Dict, Iterable, List, Optional, Sequence

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC_DIR = ROOT / "src"
RUNS_DIR = BENCH_DIR / "runs"

#: Thread-count variables pinned to 1 in this process and every child.
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

#: A tail percentile is reported only with at least this many samples beyond it.
MIN_SAMPLES_BEYOND = 10

_NAME_PATTERN = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
_UNIT_PATTERN = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


class BenchmarkError(RuntimeError):
    """The benchmark cannot produce a valid result (no result line is printed)."""


# -- environment -------------------------------------------------------------


def pin_blas_threads(env: Optional[Dict[str, str]] = None) -> Dict[str, str]:
    """Set every BLAS thread variable to 1 in ``env`` (default ``os.environ``)."""
    target = os.environ if env is None else env
    for name in BLAS_THREAD_VARS:
        target[name] = "1"
    return target


def child_env() -> Dict[str, str]:
    """Environment for a child process: the source tree importable, BLAS pinned."""
    env = pin_blas_threads(dict(os.environ))
    existing = env.get("PYTHONPATH")
    env["PYTHONPATH"] = str(SRC_DIR) + (os.pathsep + existing if existing else "")
    return env


def require_source_tree() -> None:
    """Fail unless the package sources the benchmark drives are present."""
    if not (SRC_DIR / "repro" / "__init__.py").is_file():
        raise BenchmarkError(f"package sources not found under {SRC_DIR}")
    if str(SRC_DIR) not in sys.path:
        sys.path.insert(0, str(SRC_DIR))


# -- seeds -------------------------------------------------------------------


def derive_seed(seed: int, *labels: Any) -> int:
    """A 32-bit seed for one input stream, a pure function of ``seed`` and labels.

    Hash-based (not Python's salted ``hash``), so it is stable across
    processes and interpreter versions, and distinct labels give
    independent streams: input ``i`` of a workload never depends on how
    many other inputs a run draws.
    """
    text = "/".join([str(int(seed))] + [str(label) for label in labels])
    return int.from_bytes(hashlib.sha256(text.encode("utf-8")).digest()[:4], "big")


def sized_count(seconds: float, nominal_op_seconds: float, floor: int) -> int:
    """Operations a run performs: about ``seconds`` of work, never below ``floor``.

    The count depends on the requested run length and the benchmark's
    fixed nominal cost per operation only, never on how fast the program
    runs, so two commits always process the same inputs.
    """
    if seconds <= 0 or nominal_op_seconds <= 0:
        raise ValueError("seconds and nominal_op_seconds must be positive")
    return max(int(floor), int(round(seconds / nominal_op_seconds)))


# -- statistics --------------------------------------------------------------


def percentile(samples: Sequence[float], q: float) -> float:
    """The ``q``-quantile (0..1) with linear interpolation between order statistics."""
    if not samples:
        raise ValueError("percentile of no samples")
    if not 0.0 <= q <= 1.0:
        raise ValueError("q must lie in [0, 1]")
    ordered = sorted(samples)
    rank = q * (len(ordered) - 1)
    low = math.floor(rank)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (rank - low)


def median(samples: Sequence[float]) -> float:
    return percentile(samples, 0.5)


def samples_beyond(count: int, q: float) -> int:
    """How many of ``count`` samples lie above the ``q``-quantile."""
    return count - math.ceil(q * count)


def tail_percentile(samples: Sequence[float], q: float) -> float:
    """The ``q``-quantile, refused unless ``MIN_SAMPLES_BEYOND`` samples lie beyond it."""
    beyond = samples_beyond(len(samples), q)
    if beyond < MIN_SAMPLES_BEYOND:
        raise BenchmarkError(
            f"p{q * 100:g} of {len(samples)} samples has only {beyond} beyond it; "
            f"need {MIN_SAMPLES_BEYOND}"
        )
    return percentile(samples, q)


def self_time(total: float, parts: Iterable[float]) -> float:
    """A layer's own time: its total minus the layers it calls.

    ``parts`` are the child layers timed within the same operation; they
    run one after another, so their sum is the time they cover.
    """
    return total - sum(parts)


def ratio(numerator: float, base: float) -> float:
    """``numerator / base``, 0.0 for an empty base (the base is reported beside it)."""
    return numerator / base if base else 0.0


# -- host speed --------------------------------------------------------------
#
# Shared cloud hosts change speed by up to 1.5x within seconds (other
# tenants' load on the physical cores): on a 2-vCPU Sapphire Rapids KVM
# guest the same fit measured back to back took 0.42 s or 0.72 s.
# Operation times are therefore reported in reference-host seconds: each
# raw time is scaled by the ratio of a fixed probe loop's reference time
# to its time measured right before and right after the operation, on the
# same CPU.  The probe runs only while the program is idle, so the program
# cannot change it.  Over runs of identical inputs this cut the spread of
# a run's fit rate from 15% to 3%, and of its median tick from 28% to
# 3.4%.  Raw times stay in the run record.

#: Iterations of the probe loop, and its time on the reference host: a
#: 2-vCPU Intel Xeon (Sapphire Rapids) KVM guest when its cores are uncontended.
PROBE_ITERATIONS = 20000
PROBE_REFERENCE_S = 0.002


def _probe_loop() -> float:
    start = time.perf_counter()
    total, table = 0, {}
    for i in range(PROBE_ITERATIONS):
        table[i & 1023] = total
        total += i
    return time.perf_counter() - start


def probe_seconds(cpus: Iterable[int]) -> float:
    """Mean probe-loop time over ``cpus``, run on each in turn by this thread."""
    original = os.sched_getaffinity(0)
    times = []
    try:
        for cpu in sorted(cpus):
            os.sched_setaffinity(0, {cpu})
            times.append(_probe_loop())
    finally:
        os.sched_setaffinity(0, original)
    return sum(times) / len(times)


def pin_to_one_cpu() -> int:
    """Pin this thread to one allowed CPU (ops and probes then share it)."""
    cpu = max(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    return cpu


def to_reference(raw_seconds: float, probe_before: float, probe_after: float) -> float:
    """``raw_seconds`` rescaled to the reference host's speed."""
    return raw_seconds * PROBE_REFERENCE_S * 2.0 / (probe_before + probe_after)


class HostClock:
    """Times calls in raw and reference-host seconds on a fixed set of CPUs."""

    def __init__(self, cpus: Iterable[int]) -> None:
        self.cpus = tuple(cpus)
        self.raw: List[float] = []
        self.factors: List[float] = []

    def probe(self) -> float:
        return probe_seconds(self.cpus)

    def call(self, function, *args):
        """``(result, reference seconds, scale)`` of ``function(*args)``.

        ``scale`` converts any raw time measured during the call (a span
        inside it, say) to reference-host time.
        """
        before = self.probe()
        start = time.perf_counter()
        result = function(*args)
        raw = time.perf_counter() - start
        after = self.probe()
        scale = to_reference(1.0, before, after)
        self.raw.append(raw)
        self.factors.append(1.0 / scale)
        return result, raw * scale, scale

    def summary(self) -> Dict[str, Any]:
        """Raw operation times and host slowness factors, for the run record."""
        return {
            "raw_ms": [seconds * 1000.0 for seconds in self.raw],
            "host_factor_median": median(self.factors) if self.factors else None,
        }


# -- spans -------------------------------------------------------------------


class SpanLog:
    """In-memory span recorder built on the package's own tracer.

    Root spans opened here become the ambient trace, so the library's
    built-in spans (``estimator.fit``, ``kernel.apsp``, ...) nest under
    the layer spans the benchmark opens around its calls.  Closed spans
    stay in memory and are written out once, at the end of the run.
    """

    def __init__(self) -> None:
        from repro.obs.tracer import Tracer

        self.tracer = Tracer()
        self.spans: List[Dict[str, Any]] = []
        self.tracer.add_sink(lambda span: self.spans.append(span.to_dict()))

    def root(self, kind: str, **attributes: Any):
        """A new trace's root span; enter it with ``with``."""
        return self.tracer.start_span(kind, **attributes)

    def trace(self, trace_id: str) -> List[Dict[str, Any]]:
        """The closed spans of one trace."""
        return [span for span in self.spans if span["trace_id"] == trace_id]


def layer_ms(spans: Sequence[Dict[str, Any]], kind: str) -> float:
    """Summed duration (ms) of the spans of one kind within one trace."""
    return sum(span["duration_ms"] for span in spans if span["kind"] == kind)


# -- result validation -------------------------------------------------------


def valid_name(name: str) -> bool:
    return isinstance(name, str) and _NAME_PATTERN.fullmatch(name) is not None


def valid_unit(unit: str) -> bool:
    return isinstance(unit, str) and _UNIT_PATTERN.fullmatch(unit) is not None


def load_declared_metrics(benchmark_json: Path) -> Dict[str, Dict[str, Any]]:
    """``name -> entry`` for every end-to-end and per-layer metric declared."""
    document = json.loads(benchmark_json.read_text(encoding="utf-8"))
    declared: Dict[str, Dict[str, Any]] = {}
    for section in ("end_to_end", "per_layer"):
        for entry in document[section]:
            name = entry["name"]
            if not valid_name(name) or not valid_unit(entry["unit"]):
                raise BenchmarkError(f"malformed metric declaration {entry!r}")
            if name in declared:
                raise BenchmarkError(f"metric {name!r} declared twice")
            declared[name] = entry
    return declared


def build_result(
    values: Dict[str, float],
    expected: Sequence[str],
    declared: Dict[str, Dict[str, Any]],
    *,
    correct: bool,
    attempted: int,
    failed: int,
) -> Dict[str, Any]:
    """The final result object, refusing anything the contract would reject."""
    if sorted(values) != sorted(expected):
        raise BenchmarkError(
            f"metric set mismatch: missing {sorted(set(expected) - set(values))}, "
            f"unexpected {sorted(set(values) - set(expected))}"
        )
    metrics = {}
    for name in expected:
        if name not in declared:
            raise BenchmarkError(f"metric {name!r} is not declared in BENCHMARK.json")
        value = float(values[name])
        if not math.isfinite(value):
            raise BenchmarkError(f"metric {name!r} is not finite: {value}")
        metrics[name] = {"value": value, "unit": declared[name]["unit"]}
    if int(attempted) < 1 or not 0 <= int(failed) <= int(attempted):
        raise BenchmarkError(f"bad counts attempted={attempted} failed={failed}")
    return {
        "correct": bool(correct),
        "attempted": int(attempted),
        "failed": int(failed),
        "metrics": metrics,
    }


class Checks:
    """Correctness checks of one run, counted per check name.

    Every check is one attempt; ``failed`` counts the ones that did not
    hold.  The first few failures keep their details for the run record.
    """

    MAX_DETAILS = 20

    def __init__(self) -> None:
        self.counts: Dict[str, List[int]] = {}
        self.failures: List[Dict[str, Any]] = []

    def check(self, name: str, ok: bool, detail: str = "") -> bool:
        entry = self.counts.setdefault(name, [0, 0])
        entry[0] += 1
        if not ok:
            entry[1] += 1
            if len(self.failures) < self.MAX_DETAILS:
                self.failures.append({"check": name, "detail": detail})
        return bool(ok)

    @property
    def attempted(self) -> int:
        return sum(attempted for attempted, _ in self.counts.values())

    @property
    def failed(self) -> int:
        return sum(failed for _, failed in self.counts.values())

    def as_dict(self) -> Dict[str, Any]:
        return {
            "counts": {name: {"attempted": a, "failed": f} for name, (a, f) in self.counts.items()},
            "failures": self.failures,
        }


def result_dict_without_timings(payload: Dict[str, Any]) -> str:
    """A ``ClusterResult.to_dict()`` payload as canonical JSON, wall-clock timings dropped.

    ``step_seconds`` holds the fit's measured phase times, which differ on
    every run by definition; every other byte must match.
    """
    return json.dumps({k: v for k, v in payload.items() if k != "step_seconds"}, sort_keys=True)


# -- resources and provenance -----------------------------------------------


def own_peak_rss_mb() -> float:
    """Peak resident set of this process, in MiB (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def process_peak_rss_mb(pid: int) -> float:
    """Peak resident set (``VmHWM``) of a live process, in MiB."""
    with open(f"/proc/{pid}/status", encoding="ascii") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise BenchmarkError(f"no VmHWM for pid {pid}")


def shm_segments() -> set:
    """Names of the POSIX shared-memory segments Python creates (``psm_*``)."""
    try:
        return {name for name in os.listdir("/dev/shm") if name.startswith("psm_")}
    except OSError:
        return set()


def remove_shm_segments(names: Iterable[str]) -> List[str]:
    removed = []
    for name in sorted(names):
        try:
            os.unlink(os.path.join("/dev/shm", name))
            removed.append(name)
        except FileNotFoundError:
            pass
    return removed


def provenance() -> Dict[str, Any]:
    """Git SHA, host and CPU count (the shared bench helper) plus BLAS and library versions."""
    benchmarks_dir = str(ROOT / "benchmarks")
    if benchmarks_dir not in sys.path:
        sys.path.insert(0, benchmarks_dir)
    import numpy
    import scipy

    import benchlib

    record = benchlib.provenance()
    record.update(
        {
            "blas_threads": {name: os.environ.get(name) for name in BLAS_THREAD_VARS},
            "numpy": numpy.__version__,
            "scipy": scipy.__version__,
            "python": sys.version.split()[0],
        }
    )
    return record


def run_setup_probe(workload: str, seed: int, timeout: float = 120.0) -> Dict[str, Any]:
    """Run ``setup_probe.py`` in a fresh interpreter and return its report.

    The probe times, from inside the child, what a library user pays
    before the first timed operation (package import plus one warm-up
    operation), so interpreter start-up is not part of the figure.
    """
    completed = subprocess.run(
        [sys.executable, str(BENCH_DIR / "setup_probe.py"), workload, str(seed)],
        capture_output=True,
        text=True,
        timeout=timeout,
        env=child_env(),
        cwd=str(ROOT),
    )
    if completed.returncode != 0:
        raise BenchmarkError(f"setup probe failed: {completed.stderr.strip()[-2000:]}")
    return json.loads(completed.stdout.strip().splitlines()[-1])
