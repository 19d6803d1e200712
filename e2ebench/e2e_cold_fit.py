"""``cold-fit``: one in-process caller fitting distinct 500-object inputs.

A closed loop of ``make_estimator("tmfg-dbht", config).fit(X)`` calls on
seeded ``make_time_series_dataset`` inputs (length 128, 8 classes) with
``prefix=10`` and every other field at its default (``dijkstra`` APSP,
cache off).  Only the numerical layers run; cache, batcher and transport
are bypassed.  The inputs a run fits are fixed by the seed and the run
length alone.  ``ops_per_s`` is fits per second of fitting time and
``op_p50_ms`` the median fit, each fit timed in reference-host seconds on
one pinned CPU (see ``e2e_common``).

The traced pass refits the same inputs twice: once through the estimator
under an active trace (for the overhead ratio and the estimator's wall
time), once by calling each layer's public function in turn inside a
span, and checks that both give the estimator's labels.
"""

from __future__ import annotations

import gc
import math

from e2e_common import (
    Checks,
    HostClock,
    SpanLog,
    derive_seed,
    layer_ms,
    median,
    own_peak_rss_mb,
    pin_to_one_cpu,
    result_dict_without_timings,
    run_setup_probe,
    self_time,
    sized_count,
)

NUM_OBJECTS = 500
LENGTH = 128
NUM_CLASSES = 8
PREFIX = 10
#: Nominal seconds per fit on the reference host; sizes the run, never read back.
NOMINAL_FIT_S = 0.6
MIN_FITS = 12
SETUP_PROBES = 5

LAYERS = ("similarity", "tmfg", "apsp", "bubble_tree", "hierarchy", "cut")


def config():
    from repro.api import ClusteringConfig

    return ClusteringConfig(num_clusters=NUM_CLASSES, prefix=PREFIX)


def _input(seed: int, label: str, index: int):
    from repro.datasets.synthetic import make_time_series_dataset

    return make_time_series_dataset(
        NUM_OBJECTS, LENGTH, NUM_CLASSES, seed=derive_seed(seed, "cold-fit", label, index)
    ).data


def _fit(data):
    from repro.api import make_estimator

    return make_estimator("tmfg-dbht", config()).fit(data)


def _labels_ok(labels) -> bool:
    import numpy as np

    return labels.shape == (NUM_OBJECTS,) and len(np.unique(labels)) == NUM_CLASSES


def _layer_by_layer(data, log: SpanLog):
    """The estimator's pipeline, one public call per layer, each inside a span."""
    from repro.core.assignment import assign_vertices
    from repro.core.direction import compute_directions
    from repro.core.hierarchy import build_hierarchy
    from repro.core.tmfg import construct_tmfg
    from repro.datasets.similarity import similarity_and_dissimilarity
    from repro.dendrogram.cut import cut_k
    from repro.graph.matrix import validate_dissimilarity_matrix, validate_similarity_matrix
    from repro.graph.shortest_paths import all_pairs_shortest_paths

    with log.root("bench.layers") as root:
        with root.child("similarity"):
            similarity, dissimilarity = similarity_and_dissimilarity(data)
        similarity = validate_similarity_matrix(similarity)
        with root.child("tmfg"):
            tmfg = construct_tmfg(similarity, prefix=PREFIX, build_bubble_tree=True)
        dissimilarity = validate_dissimilarity_matrix(dissimilarity, size=similarity.shape[0])
        with root.child("apsp"):
            distances = all_pairs_shortest_paths(
                tmfg.csr().reweighted(dissimilarity), method="dijkstra"
            )
        with root.child("bubble_tree"):
            directions = compute_directions(tmfg.bubble_tree, tmfg.graph)
            assignment = assign_vertices(tmfg.bubble_tree, directions, similarity, distances)
        with root.child("hierarchy"):
            dendrogram = build_hierarchy(assignment, distances)
        with root.child("cut"):
            labels = cut_k(dendrogram, NUM_CLASSES)
    return root.trace_id, labels, tmfg.rounds


def _timed_fits(inputs, clock: HostClock, checks: Checks):
    """Fit each input; returns the reference-host seconds of each fit and the first result."""
    seconds = []
    first = None
    for data in inputs:
        gc.collect()
        estimator, fit_s, _ = clock.call(_fit, data)
        seconds.append(fit_s)
        checks.check("fit_labels", _labels_ok(estimator.labels_))
        if first is None:
            first = estimator.result_.to_dict()
    return seconds, first


def _refit_check(data, first_payload, checks: Checks) -> None:
    again = _fit(data).result_.to_dict()
    checks.check(
        "refit_first_input_identical",
        result_dict_without_timings(again) == result_dict_without_timings(first_payload),
    )


def run(seed: int, seconds: float, trace: bool, checks: Checks, record: dict):
    """Run the workload; returns ``(metric values, closed spans)``."""
    import numpy as np

    num_fits = sized_count(seconds, NOMINAL_FIT_S, MIN_FITS)
    record["workload_size"] = {"fits": num_fits, "objects": NUM_OBJECTS, "prefix": PREFIX}
    values = {}
    if not trace:
        probes = [
            run_setup_probe("cold-fit", derive_seed(seed, "cold-fit", "warmup", j))
            for j in range(SETUP_PROBES)
        ]
        record["setup_probes"] = probes
        values["setup_s"] = median([probe["setup_s"] for probe in probes])
    clock = HostClock([pin_to_one_cpu()])
    # The parent pays its own import and warm-up outside every timed figure.
    _fit(_input(seed, "warmup", 0))

    if not trace:
        inputs = [_input(seed, "input", i) for i in range(num_fits)]
        fit_seconds, first = _timed_fits(inputs, clock, checks)
        _refit_check(inputs[0], first, checks)
        record["fit_ms"] = [s * 1000.0 for s in fit_seconds]
        record["host"] = clock.summary()
        values["ops_per_s"] = num_fits / sum(fit_seconds)
        values["op_p50_ms"] = median(fit_seconds) * 1000.0
        values["peak_rss_mb"] = own_peak_rss_mb()
        return values, []

    # Traced pass: a third of the fits untraced, then the same inputs traced.
    count = max(1, math.ceil(num_fits / 3))
    inputs = [_input(seed, "input", i) for i in range(count)]
    untraced, first = _timed_fits(inputs, clock, checks)
    log = SpanLog()
    traced, self_ms, rounds = [], [], []
    per_layer = {layer: [] for layer in LAYERS}
    for data in inputs:
        gc.collect()
        with log.root("bench.fit"):
            estimator, fit_s, _ = clock.call(_fit, data)
        traced.append(fit_s)
        gc.collect()
        (trace_id, labels, tmfg_rounds), _, scale = clock.call(_layer_by_layer, data, log)
        checks.check("layer_labels_equal_estimator", np.array_equal(labels, estimator.labels_))
        spans = log.trace(trace_id)
        busy = [layer_ms(spans, layer) * scale for layer in LAYERS]
        for layer, value in zip(LAYERS, busy):
            per_layer[layer].append(value)
        self_ms.append(self_time(fit_s * 1000.0, busy))
        rounds.append(tmfg_rounds)
    _refit_check(inputs[0], first, checks)
    for layer in LAYERS:
        values[f"{layer}.busy_ms"] = median(per_layer[layer])
    values["tmfg.rounds"] = median(rounds)
    values["estimator.self_ms"] = median(self_ms)
    values["trace.overhead_ratio"] = median(traced) / median(untraced)
    record["traced_fits"] = count
    record["host"] = clock.summary()
    return values, log.spans
