"""APSP scaling sweep: cold methods, warm-tick incremental repair, landmark quality.

Three sections, one JSON report (``benchmarks/results/scaling.json``):

* **cold** — per graph size, wall-clock of every APSP method on the TMFG
  distance graph (``dijkstra``, ``scipy`` with its byte identity to
  ``dijkstra`` asserted), plus ``landmark`` at the default count.
* **warm ticks** — the incremental engine against cold recomputes over a
  sequence of sparse weight perturbations.  Each tick jitters
  ``--delta-edges`` low-traffic edges (the edges tight for the fewest
  sources, measured on the first tick's matrix — the TMFG's redundant
  tail; hub edges barely move between real warm ticks).  Byte identity
  versus the cold recompute is asserted on every tick, and the per-tick
  affected-row counts are reported so the speedup's provenance is visible.
  The largest size's aggregate speedup gates on ``--min-warm-speedup``.
* **landmark quality** — the Fig-1-style quality-vs-time curve at the
  largest size: ARI of the DBHT cut under ``apsp_method="landmark"``
  against the exact cut, over the ``--landmark-grid``, with the APSP
  wall-clock per point.  The mean distance error must shrink monotonically
  in the landmark count (nested selection guarantees it pointwise).

Standalone::

    PYTHONPATH=src python benchmarks/bench_scaling.py --sizes 500,1000,2000,5000

CI smoke (see ``.github/workflows/ci.yml``) runs ``--sizes 200,500`` with a
relaxed gate.  The pytest entry point at the bottom keeps the original
Section VII-A figure benchmark.
"""

import argparse
import time

import numpy as np

from repro.core.dbht import dbht
from repro.core.tmfg import construct_tmfg
from repro.datasets.synthetic import make_time_series_dataset
from repro.datasets.similarity import similarity_and_dissimilarity
from repro.graph.csr import CSRGraph
from repro.graph.incremental_apsp import IncrementalAPSP
from repro.graph.shortest_paths import all_pairs_shortest_paths
from repro.metrics.ari import adjusted_rand_index

PREFIX = 10
NUM_CLUSTERS = 8


def _build(size: int, seed: int):
    """(similarity, dissimilarity, tmfg, distance CSR) for one sweep size."""
    dataset = make_time_series_dataset(
        num_objects=size, length=64, num_classes=NUM_CLUSTERS, noise=1.0, seed=seed
    )
    similarity, dissimilarity = similarity_and_dissimilarity(dataset.data)
    tmfg = construct_tmfg(similarity, prefix=PREFIX, build_bubble_tree=True)
    csr = tmfg.csr().reweighted(dissimilarity)
    return similarity, dissimilarity, tmfg, csr


def _timed(fn):
    start = time.perf_counter()
    result = fn()
    return result, time.perf_counter() - start


def cold_section(csr: CSRGraph) -> list:
    """Wall-clock of every cold APSP method on one graph."""
    rows = []
    reference, seconds = _timed(lambda: all_pairs_shortest_paths(csr))
    rows.append({"method": "dijkstra", "seconds": round(seconds, 4)})
    result, seconds = _timed(lambda: all_pairs_shortest_paths(csr, method="scipy"))
    identical = bool(np.array_equal(result, reference))
    rows.append({"method": "scipy", "seconds": round(seconds, 4), "identical": identical})
    # Every exact method must reproduce the reference bytes; a wrong kernel
    # fails the sweep (and the CI smoke step) here.
    assert identical, (
        f"scipy and dijkstra APSP differ at {csr.num_vertices} vertices"
    )
    result, seconds = _timed(lambda: all_pairs_shortest_paths(csr, method="landmark"))
    overestimate = result - reference
    rows.append(
        {
            "method": "landmark",
            "landmarks": 32,
            "seconds": round(seconds, 4),
            "mean_abs_error": float(np.mean(np.abs(overestimate))),
        }
    )
    return rows


def _undirected_edges(csr: CSRGraph):
    heads = np.repeat(np.arange(csr.num_vertices, dtype=np.int64), csr.degrees())
    upper = heads < csr.indices
    return heads, heads[upper], csr.indices[upper], csr.weights[upper]


def _tight_counts(distances: np.ndarray, uu, vv, ww) -> np.ndarray:
    """Per undirected edge: sources whose shortest-path forest uses it."""
    counts = np.zeros(uu.size, dtype=np.int64)
    chunk = 512
    for begin in range(0, uu.size, chunk):
        u = uu[begin : begin + chunk]
        v = vv[begin : begin + chunk]
        w = ww[begin : begin + chunk]
        du = distances[:, u]
        dv = distances[:, v]
        counts[begin : begin + chunk] = ((du + w == dv) | (dv + w == du)).sum(axis=0)
    return counts


def warm_tick_section(csr: CSRGraph, size: int, args, rng) -> dict:
    """Incremental repair vs cold recompute over sparse weight jitters."""
    n = csr.num_vertices
    engine = IncrementalAPSP()
    first, first_seconds = _timed(lambda: engine.update(csr))

    heads, uu, vv, ww = _undirected_edges(csr)
    counts = _tight_counts(first, uu, vv, ww)
    pool_size = min(max(10 * args.delta_edges, 50), uu.size)
    quiet_pool = np.argsort(counts, kind="stable")[:pool_size]
    # Arc -> undirected-edge id, so per-tick weights rebuild in one gather.
    keys = np.minimum(heads, csr.indices) * np.int64(n) + np.maximum(heads, csr.indices)
    arc_edge = np.searchsorted(uu * np.int64(n) + vv, keys)

    ticks = []
    incremental_total = cold_total = 0.0
    for tick in range(args.ticks):
        picked = rng.choice(quiet_pool, size=min(args.delta_edges, quiet_pool.size), replace=False)
        edge_weights = ww.copy()
        edge_weights[picked] *= rng.uniform(0.98, 1.02, size=picked.size)
        perturbed = CSRGraph(csr.indptr, csr.indices, edge_weights[arc_edge])
        repaired, inc_seconds = _timed(lambda: engine.update(perturbed))
        cold, cold_seconds = _timed(lambda: all_pairs_shortest_paths(perturbed))
        assert np.array_equal(repaired, cold), (
            f"incremental repair diverged from cold dijkstra at size {size}, tick {tick}"
        )
        incremental_total += inc_seconds
        cold_total += cold_seconds
        ticks.append(
            {
                "tick": tick,
                "incremental_seconds": round(inc_seconds, 4),
                "cold_seconds": round(cold_seconds, 4),
                "speedup": round(cold_seconds / inc_seconds, 2),
                "changed_edges": engine.stats.last_changed_edges,
                "affected_rows": engine.stats.last_recomputed_rows,
            }
        )
    return {
        "num_vertices": n,
        "delta_edges": args.delta_edges,
        "first_tick_seconds": round(first_seconds, 4),
        "ticks": ticks,
        "byte_identical_every_tick": True,
        "aggregate_speedup": round(cold_total / incremental_total, 2),
        "engine_stats": engine.stats.as_dict(),
    }


def landmark_quality_section(similarity, dissimilarity, tmfg, args) -> dict:
    """ARI-vs-time curve of the landmark mode against the exact DBHT cut."""
    exact = dbht(tmfg, similarity, dissimilarity, apsp_method="dijkstra")
    exact_labels = exact.cut(NUM_CLUSTERS)
    exact_distances = exact.shortest_paths
    exact_seconds = exact.step_seconds["apsp"]
    grid = sorted(args.landmark_grid)
    points = []
    previous_error = np.inf
    for count in grid:
        result = dbht(
            tmfg,
            similarity,
            dissimilarity,
            apsp_method="landmark",
            landmarks=count,
        )
        labels = result.cut(NUM_CLUSTERS)
        error = float(np.mean(np.abs(result.shortest_paths - exact_distances)))
        # Nested landmark prefixes tighten the bound pointwise, so the mean
        # error is monotone by construction; a violation is a bug.
        assert error <= previous_error + 1e-12, (
            f"landmark error increased from {previous_error} to {error} at L={count}"
        )
        previous_error = error
        points.append(
            {
                "landmarks": count,
                "apsp_seconds": round(result.step_seconds["apsp"], 4),
                "ari_vs_exact": round(float(adjusted_rand_index(labels, exact_labels)), 4),
                "mean_abs_distance_error": error,
            }
        )
    return {
        "num_vertices": tmfg.num_vertices,
        "num_clusters": NUM_CLUSTERS,
        "exact_apsp_seconds": round(exact_seconds, 4),
        "points": points,
    }


def main(argv=None) -> dict:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--sizes",
        default="500,1000,2000,5000",
        help="comma-separated vertex counts to sweep",
    )
    parser.add_argument("--ticks", type=int, default=5, help="warm ticks per size")
    parser.add_argument(
        "--delta-edges", type=int, default=20, help="edges perturbed per warm tick"
    )
    parser.add_argument(
        "--landmark-grid",
        default="4,8,16,32",
        help="landmark counts for the quality-vs-time curve (up to the "
        "default landmark count; single-cut ARI gets noisy past it)",
    )
    parser.add_argument(
        "--min-warm-speedup",
        type=float,
        default=3.0,
        help="required aggregate warm-tick speedup at the largest size",
    )
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--json", default=None, help="override the report path")
    args = parser.parse_args(argv)
    args.landmark_grid = [int(part) for part in str(args.landmark_grid).split(",")]
    sizes = [int(part) for part in str(args.sizes).split(",")]

    rng = np.random.default_rng(args.seed)
    report = {
        "benchmark": "apsp_scaling",
        "prefix": PREFIX,
        "sizes": sizes,
        "cold": [],
        "warm_ticks": [],
    }
    largest_artifacts = None
    for size in sizes:
        similarity, dissimilarity, tmfg, csr = _build(size, args.seed)
        print(f"-- size {size}: graph built ({csr.num_edges} edges)", flush=True)
        report["cold"].append({"num_vertices": size, "methods": cold_section(csr)})
        report["warm_ticks"].append(warm_tick_section(csr, size, args, rng))
        if size == max(sizes):
            largest_artifacts = (similarity, dissimilarity, tmfg)

    similarity, dissimilarity, tmfg = largest_artifacts
    report["landmark_quality"] = landmark_quality_section(
        similarity, dissimilarity, tmfg, args
    )

    import benchlib

    benchlib.write_report("scaling.json", report, override=args.json)
    gate = report["warm_ticks"][-1]
    assert gate["aggregate_speedup"] >= args.min_warm_speedup, (
        f"warm-tick incremental APSP is only {gate['aggregate_speedup']}x over cold "
        f"at {gate['num_vertices']} vertices (required {args.min_warm_speedup}x)"
    )
    return report


# -- pytest entry point (the original Section VII-A figure benchmark) --------


def test_scaling_with_data_size(benchmark, config, emit):
    from repro.experiments.figures import scaling_with_data_size

    result = benchmark.pedantic(
        scaling_with_data_size,
        kwargs={"config": config, "sizes": (80, 140, 220, 340), "prefix": 10},
        rounds=1,
        iterations=1,
    )
    emit("scaling_with_data_size", result)
    # Super-linear but clearly polynomial scaling (the paper reports ~n^2.2).
    assert 1.2 <= result["exponent"] <= 3.2


if __name__ == "__main__":
    main()
