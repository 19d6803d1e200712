"""Which metrics a run prints, and which end-to-end metric each per-layer metric should move.

``BENCHMARK.json`` at the repository root is the source of truth for metric
names, units, directions and bounds; this module adds what that file has no
field for: the layers each workload times and the layer -> end-to-end
pairing (also summarised in each workload's ``why``).  ``test_e2e_helpers``
checks that the two agree.

Every run prints every declared metric of its kind: all end-to-end
metrics with ``--trace 0``, all per-layer metrics with ``--trace 1``.  A
per-layer metric is named ``<workload>.<layer metric>`` after the one
workload that times it; the other workloads print it as 0.0, since that
layer is not timed there.
"""

from __future__ import annotations

from typing import Dict, Mapping

#: End-to-end metrics every workload reports with ``--trace 0``.
END_TO_END = ("ops_per_s", "op_p50_ms", "success_ratio", "setup_s", "peak_rss_mb")

#: Layer metrics each workload times with ``--trace 1``, mapped to the
#: end-to-end metric of the same workload that a change to the layer should
#: move.  ``*.base`` entries are the denominators of the ratios before them.
LAYERS = {
    "cold-fit": {
        "similarity.busy_ms": "ops_per_s",
        "tmfg.busy_ms": "ops_per_s",
        "tmfg.rounds": "ops_per_s",
        "apsp.busy_ms": "ops_per_s",
        "bubble_tree.busy_ms": "ops_per_s",
        "hierarchy.busy_ms": "ops_per_s",
        "cut.busy_ms": "ops_per_s",
        "estimator.self_ms": "ops_per_s",
        "trace.overhead_ratio": "ops_per_s",
    },
    "stream-warm": {
        "rolling.busy_ms": "op_p50_ms",
        "fingerprint.busy_ms": "op_p50_ms",
        "tmfg.busy_ms": "op_p50_ms",
        "tmfg.replayed_round_ratio": "op_p50_ms",
        "tmfg.replayed_round_ratio.base": "op_p50_ms",
        "apsp.busy_ms": "op_p50_ms",
        "apsp.row_reuse_ratio": "op_p50_ms",
        "apsp.row_reuse_ratio.base": "op_p50_ms",
        "apsp.full_rebuilds": "op_p50_ms",
        "bubble_tree.busy_ms": "op_p50_ms",
        "hierarchy.busy_ms": "op_p50_ms",
        "stream.self_ms": "op_p50_ms",
        "trace.overhead_ratio": "op_p50_ms",
    },
    # op_p50_ms lands on the hit path; the misses take most of a run's
    # time, so the miss path moves ops_per_s.
    "serve-mixed": {
        "transport.self_ms": "op_p50_ms",
        "server.self_ms": "op_p50_ms",
        "batcher.queue_wait_ms": "op_p50_ms",
        "batcher.mean_batch_size": "op_p50_ms",
        "batch.deduped": "op_p50_ms",
        "cache.get_ms": "op_p50_ms",
        "cache.hit_ratio": "op_p50_ms",
        "cache.hit_ratio.base": "op_p50_ms",
        "serve.batch_fit_ms": "ops_per_s",
        "cache.put_ms": "ops_per_s",
        "apsp.busy_ms": "ops_per_s",
        "admission.rejected": "success_ratio",
        "trace.overhead_ratio": "op_p50_ms",
    },
}

WORKLOADS = tuple(LAYERS)


def per_layer_name(workload: str, layer: str) -> str:
    """The declared name of one workload's layer metric."""
    return f"{workload}.{layer}"


#: Every per-layer metric name, in declaration order.
PER_LAYER = tuple(
    per_layer_name(workload, layer) for workload, layers in LAYERS.items() for layer in layers
)


def expected_metrics(trace: bool) -> tuple:
    """The metric names every run prints."""
    return PER_LAYER if trace else END_TO_END


def per_layer_values(workload: str, measured: Mapping[str, float]) -> Dict[str, float]:
    """All per-layer metrics: ``workload``'s measured layers, 0.0 for the others' layers."""
    if set(measured) != set(LAYERS[workload]):
        raise ValueError(
            f"{workload} measured {sorted(measured)}, expected {sorted(LAYERS[workload])}"
        )
    values = {name: 0.0 for name in PER_LAYER}
    values.update({per_layer_name(workload, layer): value for layer, value in measured.items()})
    return values
