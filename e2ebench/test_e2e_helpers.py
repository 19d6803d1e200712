"""Self-tests of the benchmark's helpers (stdlib only, a fraction of a second).

    python -m pytest e2ebench/test_e2e_helpers.py -q
"""

from __future__ import annotations

import hashlib
import json
import math
import os

import pytest

from e2e_common import (
    PROBE_REFERENCE_S,
    ROOT,
    BenchmarkError,
    Checks,
    HostClock,
    build_result,
    derive_seed,
    load_declared_metrics,
    percentile,
    probe_seconds,
    result_dict_without_timings,
    samples_beyond,
    self_time,
    sized_count,
    tail_percentile,
    to_reference,
    valid_name,
    valid_unit,
)
from e2e_spec import END_TO_END, LAYERS, PER_LAYER, WORKLOADS, expected_metrics, per_layer_values

BENCHMARK_JSON = ROOT / "BENCHMARK.json"


# -- tail-percentile rule ----------------------------------------------------


def test_samples_beyond_counts_the_tail():
    assert samples_beyond(1000, 0.99) == 10
    assert samples_beyond(999, 0.99) == 9
    assert samples_beyond(100, 0.90) == 10
    assert samples_beyond(99, 0.90) == 9


@pytest.mark.parametrize("count, q", [(1000, 0.99), (100, 0.90), (20, 0.50)])
def test_tail_percentile_reported_with_ten_beyond(count, q):
    samples = [float(i) for i in range(count)]
    assert tail_percentile(samples, q) == percentile(samples, q)


@pytest.mark.parametrize("count, q", [(999, 0.99), (99, 0.90), (19, 0.50)])
def test_tail_percentile_refused_with_fewer_than_ten_beyond(count, q):
    with pytest.raises(BenchmarkError):
        tail_percentile([float(i) for i in range(count)], q)


def test_percentile_interpolates_linearly():
    samples = [4.0, 1.0, 3.0, 2.0]
    assert percentile(samples, 0.0) == 1.0
    assert percentile(samples, 1.0) == 4.0
    assert percentile(samples, 0.5) == 2.5
    assert percentile([7.0], 0.99) == 7.0
    with pytest.raises(ValueError):
        percentile([], 0.5)


# -- self-time arithmetic ----------------------------------------------------


def test_self_time_subtracts_the_child_layers():
    assert self_time(10.0, [2.0, 3.0]) == pytest.approx(5.0)
    assert self_time(3.0, []) == 3.0


def test_self_time_per_request_from_histogram_sums():
    # server.self_ms: request span sum minus its queue and batch-fit children, per request.
    requests, request_ms, queue_ms, fit_ms = 4, 100.0, 40.0, 52.0
    assert self_time(request_ms, [queue_ms, fit_ms]) / requests == pytest.approx(2.0)


def test_self_time_can_expose_a_replay_slower_than_the_fit():
    # Cross-run differences are reported as measured, sign included.
    assert self_time(100.0, [60.0, 45.0]) == pytest.approx(-5.0)


# -- host-speed rescaling ----------------------------------------------------


def test_to_reference_scales_by_the_probe_slowdown():
    assert to_reference(1.0, PROBE_REFERENCE_S, PROBE_REFERENCE_S) == pytest.approx(1.0)
    # The probe ran twice as slow around the operation: the host was slow.
    assert to_reference(1.0, 2 * PROBE_REFERENCE_S, 2 * PROBE_REFERENCE_S) == pytest.approx(0.5)
    assert to_reference(3.0, PROBE_REFERENCE_S, 3 * PROBE_REFERENCE_S) == pytest.approx(1.5)


def test_probe_restores_the_thread_affinity():
    before = os.sched_getaffinity(0)
    assert probe_seconds(before) > 0
    assert os.sched_getaffinity(0) == before


def test_host_clock_reports_reference_time_and_scale():
    clock = HostClock(sorted(os.sched_getaffinity(0))[:1])
    result, seconds, scale = clock.call(sum, [1, 2, 3])
    assert result == 6
    assert seconds == pytest.approx(clock.raw[0] * scale)
    assert clock.factors[0] == pytest.approx(1.0 / scale)


# -- seed derivation ---------------------------------------------------------


def test_derive_seed_is_a_pinned_pure_function():
    expected = int.from_bytes(hashlib.sha256(b"7/cold-fit/input/3").digest()[:4], "big")
    assert derive_seed(7, "cold-fit", "input", 3) == expected
    assert derive_seed(7, "cold-fit", "input", 3) == derive_seed(7, "cold-fit", "input", 3)


def test_derive_seed_separates_seeds_and_labels():
    seeds = {derive_seed(seed, "w", label, i) for seed in range(5) for label in "ab" for i in range(20)}
    assert len(seeds) == 5 * 2 * 20
    assert all(0 <= value < 2**32 for value in seeds)


def test_sized_count_depends_only_on_run_length():
    assert sized_count(20, 0.85, 12) == 24
    assert sized_count(2, 0.85, 12) == 12
    assert sized_count(20, 0.12, 100) == 167
    with pytest.raises(ValueError):
        sized_count(0, 0.85, 12)


# -- metric-name validation --------------------------------------------------


@pytest.mark.parametrize("name", ["ops_per_s", "tmfg.busy_ms", "cache.hit_ratio.base", "0x-a", "a" * 64])
def test_valid_names(name):
    assert valid_name(name)


@pytest.mark.parametrize("name", ["", "_x", ".x", "a b", "a/b", "a" * 65, "ünï"])
def test_invalid_names(name):
    assert not valid_name(name)


@pytest.mark.parametrize("unit, ok", [("ms", True), ("1/s", True), ("%", True), ("count", True),
                                      ("", False), ("m s", False), ("x" * 17, False)])
def test_unit_validation(unit, ok):
    assert valid_unit(unit) is ok


DECLARED = {
    "a_ms": {"name": "a_ms", "unit": "ms"},
    "b.count": {"name": "b.count", "unit": "count"},
}


def test_build_result_has_exactly_the_contract_keys():
    result = build_result({"a_ms": 1.5, "b.count": 3}, ("a_ms", "b.count"), DECLARED,
                          correct=True, attempted=4, failed=0)
    assert list(result) == ["correct", "attempted", "failed", "metrics"]
    assert result["metrics"]["a_ms"] == {"value": 1.5, "unit": "ms"}
    assert json.loads(json.dumps(result)) == result


@pytest.mark.parametrize(
    "values, expected",
    [
        ({"a_ms": 1.0}, ("a_ms", "b.count")),  # missing
        ({"a_ms": 1.0, "b.count": 1, "c": 2}, ("a_ms", "b.count")),  # unexpected
        ({"a_ms": 1.0, "zz": 1.0}, ("a_ms", "zz")),  # not declared
        ({"a_ms": math.nan}, ("a_ms",)),  # not finite
    ],
)
def test_build_result_refuses_bad_metric_sets(values, expected):
    with pytest.raises(BenchmarkError):
        build_result(values, expected, DECLARED, correct=True, attempted=1, failed=0)


def test_build_result_refuses_bad_counts():
    with pytest.raises(BenchmarkError):
        build_result({"a_ms": 1.0}, ("a_ms",), DECLARED, correct=True, attempted=0, failed=0)
    with pytest.raises(BenchmarkError):
        build_result({"a_ms": 1.0}, ("a_ms",), DECLARED, correct=False, attempted=1, failed=2)


def test_checks_count_attempts_and_failures():
    checks = Checks()
    checks.check("x", True)
    checks.check("x", False, "boom")
    checks.check("y", True)
    assert (checks.attempted, checks.failed) == (3, 1)
    assert checks.as_dict()["failures"] == [{"check": "x", "detail": "boom"}]


def test_result_comparison_drops_only_timings():
    a = {"labels": [0, 1], "step_seconds": {"tmfg": 1.0}, "extras": {"rounds": 3}}
    b = {"labels": [0, 1], "step_seconds": {"tmfg": 2.0}, "extras": {"rounds": 3}}
    c = {"labels": [1, 0], "step_seconds": {"tmfg": 1.0}, "extras": {"rounds": 3}}
    assert result_dict_without_timings(a) == result_dict_without_timings(b)
    assert result_dict_without_timings(a) != result_dict_without_timings(c)


# -- BENCHMARK.json agrees with the spec -------------------------------------


def test_benchmark_json_declares_what_the_workloads_report():
    document = json.loads(BENCHMARK_JSON.read_text(encoding="utf-8"))
    declared = load_declared_metrics(BENCHMARK_JSON)
    assert [w["name"] for w in document["workloads"]] == list(WORKLOADS)
    assert [e["name"] for e in document["end_to_end"]] == list(END_TO_END)
    assert [e["name"] for e in document["per_layer"]] == list(PER_LAYER)
    for layers in LAYERS.values():
        assert set(layers.values()) <= set(END_TO_END)
    for trace in (False, True):
        assert set(expected_metrics(trace)) <= set(declared)


def test_every_workload_prints_every_per_layer_metric():
    for workload, layers in LAYERS.items():
        values = per_layer_values(workload, {layer: 1.5 for layer in layers})
        assert list(values) == list(PER_LAYER)
        measured = {name for name, value in values.items() if value == 1.5}
        assert measured == {f"{workload}.{layer}" for layer in layers}
        assert all(value == 0.0 for name, value in values.items() if name not in measured)


def test_per_layer_values_refuses_a_wrong_layer_set():
    with pytest.raises(ValueError):
        per_layer_values("cold-fit", {"tmfg.busy_ms": 1.0})


def test_benchmark_json_bounds_and_shape():
    document = json.loads(BENCHMARK_JSON.read_text(encoding="utf-8"))
    assert set(document) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    bounds = {e["name"]: e["bound"] for e in document["end_to_end"]}
    assert all(0 < bound <= 0.25 for bound in bounds.values())
    assert bounds["setup_s"] == max(bounds.values())
    assert all(len(w["why"]) <= 200 and "\n" not in w["why"] for w in document["workloads"])
    assert 1 <= document["run_seconds"] <= 60
    assert all(path.startswith("e2ebench") for path in document["paths"])
