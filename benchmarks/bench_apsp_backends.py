"""APSP engine comparison: exact APSP methods x serial/thread/process backends.

The acceptance bar for the CSR refactor is end-to-end: on a 500-vertex TMFG
the batched CSR relaxation must beat the seed implementation (per-source
Dijkstra over the adjacency-list graph) by at least 3x, with byte-identical
distances.  This module measures ``dijkstra`` on every backend and SciPy's
C Dijkstra (``scipy``, which runs in-process and ignores the backend), each
checked byte for byte against the adjacency-list baseline.

Run under pytest-benchmark like the other ``bench_*`` scripts (``pytest
benchmarks/bench_apsp_backends.py --benchmark-only --benchmark-json=out.json``
gives the standard pytest-benchmark JSON), or standalone::

    PYTHONPATH=src python benchmarks/bench_apsp_backends.py

which prints one JSON document with the per-configuration timings and
speedups over the seed baseline.
"""

import json
import time

import numpy as np
import pytest

from repro.core.tmfg import construct_tmfg
from repro.graph.shortest_paths import all_pairs_shortest_paths, dijkstra
from repro.graph.weighted_graph import WeightedGraph
from repro.parallel.scheduler import make_backend

NUM_VERTICES = 500
BACKENDS = ("serial", "thread", "process")
#: (method, backend) pairs measured; ``scipy`` does not use the backend.
COMBINATIONS = tuple(("dijkstra", backend) for backend in BACKENDS) + (("scipy", "serial"),)


def _build_distance_graph(n: int = NUM_VERTICES, seed: int = 3) -> WeightedGraph:
    rng = np.random.default_rng(seed)
    similarity = np.corrcoef(rng.normal(size=(n, 128)))
    tmfg = construct_tmfg(similarity, prefix=10, build_bubble_tree=False)
    dissimilarity = np.sqrt(np.maximum(2.0 * (1.0 - similarity), 0.0))
    np.fill_diagonal(dissimilarity, 0.0)
    graph = WeightedGraph(n)
    for u, v, _ in tmfg.graph.edges():
        graph.add_edge(u, v, float(dissimilarity[u, v]))
    return graph


def _seed_apsp(graph: WeightedGraph) -> np.ndarray:
    """The seed implementation: one adjacency-list Dijkstra per source."""
    return np.vstack([dijkstra(graph, source) for source in range(graph.num_vertices)])


@pytest.fixture(scope="module")
def distance_graph():
    return _build_distance_graph()


@pytest.fixture(scope="module")
def csr_graph(distance_graph):
    return distance_graph.to_csr()


def test_bench_apsp_seed_baseline(benchmark, distance_graph):
    distances = benchmark.pedantic(
        _seed_apsp, args=(distance_graph,), rounds=2, iterations=1
    )
    assert distances.shape == (NUM_VERTICES, NUM_VERTICES)


@pytest.mark.parametrize("method,backend_name", COMBINATIONS)
def test_bench_apsp_method_backend(benchmark, distance_graph, csr_graph, method, backend_name):
    backend = make_backend(backend_name, num_workers=2)
    try:
        distances = benchmark.pedantic(
            all_pairs_shortest_paths,
            args=(csr_graph,),
            kwargs={"backend": backend, "method": method},
            rounds=2,
            iterations=1,
        )
    finally:
        backend.close()
    reference = _seed_apsp(distance_graph)
    np.testing.assert_array_equal(distances, reference)


def main() -> dict:
    graph = _build_distance_graph()
    csr = graph.to_csr()

    start = time.perf_counter()
    reference = _seed_apsp(graph)
    seed_seconds = time.perf_counter() - start

    results = [
        {
            "name": "seed-adjacency-dijkstra",
            "method": "adjacency-list",
            "backend": "seed",
            "seconds": round(seed_seconds, 4),
            "speedup_vs_seed": 1.0,
            "identical": True,
        }
    ]
    for method, backend_name in COMBINATIONS:
        backend = make_backend(backend_name, num_workers=2)
        try:
            all_pairs_shortest_paths(csr, backend=backend, method=method)  # warm-up
            start = time.perf_counter()
            distances = all_pairs_shortest_paths(csr, backend=backend, method=method)
            seconds = time.perf_counter() - start
        finally:
            backend.close()
        results.append(
            {
                "name": f"csr-{method}-{backend_name}",
                "method": method,
                "backend": backend_name,
                "seconds": round(seconds, 4),
                "speedup_vs_seed": round(seed_seconds / seconds, 2),
                "identical": bool(np.array_equal(distances, reference)),
            }
        )
    report = {
        "benchmark": "apsp_backends",
        "num_vertices": NUM_VERTICES,
        "num_edges": graph.num_edges,
        "results": results,
    }
    import benchlib

    benchlib.write_report("apsp_backends.json", report)
    return report


if __name__ == "__main__":
    main()
