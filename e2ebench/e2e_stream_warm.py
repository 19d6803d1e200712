"""``stream-warm``: rolling-window clustering of a 200-asset return stream.

``StreamingPipeline`` over a seeded ``generate_regime_switching_stream``
with window 250 and hop 1, using the ``stream`` CLI defaults
(``warm_start=True``, ``cache=True``, prefix 1, 8 clusters) plus
``apsp_method="incremental"``.  It runs the TMFG and APSP layers of
``cold-fit`` on their warm paths (hint replay, incremental repair, the
per-tick window fingerprint) plus ``RollingCorrelation``.  Tick 0 is the
stream's cold start; the timed operations are ticks ``1..T``, each timed
from outside around the pipeline's ``next()``, in reference-host seconds
on one pinned CPU (see ``e2e_common``).  ``op_p50_ms`` is the median tick
and ``ops_per_s`` ticks per second of tick time.

The traced pass runs a fresh pipeline under an active trace and, tick by
tick beside it, a replay that calls each layer's public function inside a
span with its own warm-start and incremental-APSP state; the replay's
labels must equal the pipeline's on every tick.
"""

from __future__ import annotations

import dataclasses
import math
import random

from e2e_common import (
    Checks,
    HostClock,
    SpanLog,
    derive_seed,
    layer_ms,
    median,
    own_peak_rss_mb,
    pin_to_one_cpu,
    ratio,
    run_setup_probe,
    self_time,
    sized_count,
    tail_percentile,
)

NUM_ASSETS = 200
WINDOW = 250
HOP = 1
NUM_CLUSTERS = 8
#: Nominal seconds per warm tick on the reference host; sizes the run only.
NOMINAL_TICK_S = 0.1
#: The p90 kept in the run record needs ten ticks beyond it.
MIN_TICKS = 100
SETUP_PROBES = 5
WARM_COLD_SAMPLES = 3

LAYERS = ("rolling", "fingerprint", "tmfg", "apsp", "bubble_tree", "hierarchy")


def config():
    from repro.api import ClusteringConfig

    return ClusteringConfig(
        num_clusters=NUM_CLUSTERS,
        prefix=1,
        warm_start=True,
        cache=True,
        apsp_method="incremental",
    )


def _stream(seed: int, num_ticks: int):
    from repro.datasets.stocks import generate_regime_switching_stream

    return generate_regime_switching_stream(
        num_stocks=NUM_ASSETS,
        num_days=WINDOW + (num_ticks - 1) * HOP,
        seed=derive_seed(seed, "stream-warm", "stream"),
    ).returns


def _pipeline(returns, max_ticks=None):
    from repro.streaming.runner import StreamingPipeline

    return StreamingPipeline(
        returns, window=WINDOW, hop=HOP, max_ticks=max_ticks, config=config()
    )


def _timed_ticks(returns, num_ticks: int, clock: HostClock):
    """Run ``num_ticks`` ticks; returns the ticks and the reference-host seconds of each."""
    iterator = _pipeline(returns, max_ticks=num_ticks).iter_ticks()
    ticks, seconds = [], []
    for _ in range(num_ticks):
        tick, tick_s, _ = clock.call(next, iterator)
        ticks.append(tick)
        seconds.append(tick_s)
    iterator.close()
    return ticks, seconds


def _window_columns(returns, tick: int):
    """The columns the pipeline pushes on ``tick`` (the whole first window on tick 0)."""
    if tick == 0:
        return returns[:, :WINDOW]
    start = WINDOW + (tick - 1) * HOP
    return returns[:, start : start + HOP]


class _LayerReplay:
    """The pipeline's per-tick work, one public call per layer, each inside a span."""

    def __init__(self, log: SpanLog) -> None:
        from repro.graph.incremental_apsp import IncrementalAPSP
        from repro.streaming.rolling import RollingCorrelation
        from repro.streaming.warm_start import TMFGWarmStarter

        self.log = log
        self.rolling = RollingCorrelation(NUM_ASSETS, WINDOW)
        self.starter = TMFGWarmStarter(enabled=True)
        self.engine = IncrementalAPSP()

    def tick(self, columns):
        from repro.cache import matrix_fingerprint
        from repro.core.assignment import assign_vertices
        from repro.core.direction import compute_directions
        from repro.core.hierarchy import build_hierarchy
        from repro.core.tmfg import construct_tmfg
        from repro.datasets.similarity import default_dissimilarity
        from repro.dendrogram.cut import cut_k
        from repro.graph.matrix import validate_dissimilarity_matrix, validate_similarity_matrix
        from repro.graph.shortest_paths import all_pairs_shortest_paths

        with self.log.root("bench.layers") as root:
            with root.child("rolling"):
                self.rolling.push(columns)
            with root.child("fingerprint"):
                matrix_fingerprint(self.rolling.window_data())
            with root.child("rolling"):
                similarity = self.rolling.correlation()
            similarity = validate_similarity_matrix(similarity)
            dissimilarity = validate_dissimilarity_matrix(
                default_dissimilarity(similarity), size=similarity.shape[0]
            )
            with root.child("tmfg"):
                tmfg = construct_tmfg(
                    similarity,
                    prefix=1,
                    build_bubble_tree=True,
                    warm_start=self.starter.hints(),
                )
            with root.child("apsp"):
                distances = all_pairs_shortest_paths(
                    tmfg.csr().reweighted(dissimilarity),
                    method="incremental",
                    state=self.engine,
                )
            with root.child("bubble_tree"):
                directions = compute_directions(tmfg.bubble_tree, tmfg.graph)
                assignment = assign_vertices(tmfg.bubble_tree, directions, similarity, distances)
            with root.child("hierarchy"):
                dendrogram = build_hierarchy(assignment, distances)
            labels = cut_k(dendrogram, NUM_CLUSTERS)
        self.starter.update(tmfg)
        return root.trace_id, labels, tmfg.warm_rounds


def _warm_equals_cold(returns, ticks, seed: int, checks: Checks) -> None:
    """Refit seeded sample ticks cold (no hints, ``dijkstra``): labels must match."""
    import numpy as np

    from repro.api import ClusteringConfig, make_estimator
    from repro.streaming.rolling import RollingCorrelation

    picker = random.Random(derive_seed(seed, "stream-warm", "warm-cold-sample"))
    sampled = set(picker.sample(range(1, len(ticks)), WARM_COLD_SAMPLES))
    cold = ClusteringConfig(num_clusters=NUM_CLUSTERS, prefix=1, precomputed=True)
    rolling = RollingCorrelation(NUM_ASSETS, WINDOW)
    for index in range(max(sampled) + 1):
        rolling.push(_window_columns(returns, index))
        if index in sampled:
            labels = make_estimator("tmfg-dbht", cold).fit(rolling.correlation()).labels_
            checks.check(
                "warm_equals_cold", np.array_equal(labels, ticks[index].labels), f"tick {index}"
            )


def _tick_checks(ticks, checks: Checks) -> None:
    for tick in ticks:
        checks.check(
            "tick_labels", tick.labels.shape == (NUM_ASSETS,) and not tick.reused, f"tick {tick.tick}"
        )


def run(seed: int, seconds: float, trace: bool, checks: Checks, record: dict):
    """Run the workload; returns ``(metric values, closed spans)``."""
    import numpy as np

    timed = sized_count(seconds, NOMINAL_TICK_S, MIN_TICKS)
    record["workload_size"] = {"timed_ticks": timed, "assets": NUM_ASSETS, "window": WINDOW}
    returns = _stream(seed, timed + 1)
    values = {}
    if not trace:
        probes = [
            run_setup_probe("stream-warm", derive_seed(seed, "stream-warm", "warmup", j))
            for j in range(SETUP_PROBES)
        ]
        record["setup_probes"] = probes
        values["setup_s"] = median([probe["setup_s"] for probe in probes])
    clock = HostClock([pin_to_one_cpu()])
    # The parent's own import and warm-up: a short stream on another seed.
    _timed_ticks(_stream(derive_seed(seed, "stream-warm", "warmup"), 2), 2, HostClock(clock.cpus))

    if not trace:
        ticks, tick_seconds = _timed_ticks(returns, timed + 1, clock)
        _tick_checks(ticks, checks)
        _warm_equals_cold(returns, ticks, seed, checks)
        op_ms = [s * 1000.0 for s in tick_seconds[1:]]
        warm_rounds = sum(tick.warm_rounds for tick in ticks[1:])
        rounds = sum(tick.rounds for tick in ticks[1:])
        record["tick_ms"] = op_ms
        record["samples"] = len(op_ms)
        record["tick_p90_ms"] = tail_percentile(op_ms, 0.90)
        record["host"] = clock.summary()
        record["traffic"] = {"replayed_rounds": warm_rounds, "rounds": rounds}
        values["op_p50_ms"] = median(op_ms)
        values["ops_per_s"] = len(op_ms) * 1000.0 / sum(op_ms)
        values["peak_rss_mb"] = own_peak_rss_mb()
        return values, []

    # Traced pass: the first third of the ticks untraced, then the same
    # ticks traced, with the layer replay beside the traced pipeline.
    count = max(2, math.ceil(timed / 3) + 1)
    ticks, untraced = _timed_ticks(returns, count, clock)
    _tick_checks(ticks, checks)
    log = SpanLog()
    replay = _LayerReplay(log)
    iterator = _pipeline(returns, max_ticks=count).iter_ticks()
    traced, self_ms = [], []
    per_layer = {layer: [] for layer in LAYERS}
    for index in range(count):
        with log.root("stream.tick"):
            tick, tick_s, _ = clock.call(next, iterator)
        traced.append(tick_s)
        (trace_id, labels, warm_rounds), _, scale = clock.call(
            replay.tick, _window_columns(returns, index)
        )
        checks.check(
            "layer_replay_equals_pipeline",
            np.array_equal(labels, tick.labels) and warm_rounds == tick.warm_rounds,
            f"tick {index}",
        )
        if index == 0:
            continue  # the cold start is set-up, not a timed tick
        spans = log.trace(trace_id)
        busy = [layer_ms(spans, layer) * scale for layer in LAYERS]
        for layer, value in zip(LAYERS, busy):
            per_layer[layer].append(value)
        self_ms.append(self_time(traced[-1] * 1000.0, busy))
    iterator.close()
    warm = replay.starter.stats
    apsp = replay.engine.stats
    # The replay ratio covers the warm ticks (tick 0 has no hints); the
    # row-reuse ratio covers every APSP update, tick 0's full build included.
    for layer in LAYERS:
        values[f"{layer}.busy_ms"] = median(per_layer[layer])
    values["tmfg.replayed_round_ratio"] = ratio(warm.replayed_rounds, warm.total_rounds)
    values["tmfg.replayed_round_ratio.base"] = warm.total_rounds
    rows = apsp.reused_rows + apsp.recomputed_rows
    values["apsp.row_reuse_ratio"] = ratio(apsp.reused_rows, rows)
    values["apsp.row_reuse_ratio.base"] = rows
    values["apsp.full_rebuilds"] = apsp.full_rebuilds
    values["stream.self_ms"] = median(self_ms)
    values["trace.overhead_ratio"] = median(traced[1:]) / median(untraced[1:])
    record["traced_ticks"] = count - 1
    record["host"] = clock.summary()
    record["traffic"] = {"warm_start": dataclasses.asdict(warm), "apsp": apsp.as_dict()}
    return values, log.spans
