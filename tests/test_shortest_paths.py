"""Tests for Dijkstra SSSP and APSP against scipy.

The APSP equivalence tests are parametrized — through the shared
``backend`` fixture — over the serial and process execution paths, so the
picklable CSR chunk worker used by
:class:`~repro.parallel.scheduler.ProcessBackend` is exercised by the
tier-1 suite.  Byte-identity is asserted against the adjacency-list
reference :func:`~repro.graph.shortest_paths.dijkstra`.
"""

from __future__ import annotations

import numpy as np
import pytest
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import shortest_path

from repro.core.tmfg import construct_tmfg
from repro.datasets.similarity import similarity_and_dissimilarity
from repro.datasets.synthetic import make_time_series_dataset
from repro.graph.incremental_apsp import IncrementalAPSP
from repro.graph.shortest_paths import (
    all_pairs_shortest_paths,
    dijkstra,
    shortest_paths_from_sources,
)
from repro.graph.weighted_graph import WeightedGraph
from repro.parallel.scheduler import ThreadBackend
from tests.conftest import KERNEL_EDGE_CASES, kernel_edge_case_graph, reference_apsp


def _random_graph(n: int, density: float, seed: int) -> WeightedGraph:
    rng = np.random.default_rng(seed)
    graph = WeightedGraph(n)
    for u in range(n):
        for v in range(u + 1, n):
            if rng.random() < density:
                graph.add_edge(u, v, float(rng.uniform(0.1, 5.0)))
    return graph


def _scipy_apsp(graph: WeightedGraph) -> np.ndarray:
    dense = graph.to_dense(fill=0.0)
    sparse = csr_matrix(dense)
    return shortest_path(sparse, method="D", directed=False)


class TestDijkstra:
    def test_path_through_cheaper_route(self):
        graph = WeightedGraph(3)
        graph.add_edge(0, 1, 5.0)
        graph.add_edge(0, 2, 1.0)
        graph.add_edge(2, 1, 1.0)
        distances = dijkstra(graph, 0)
        assert distances[1] == pytest.approx(2.0)

    def test_unreachable_vertex_is_infinite(self):
        graph = WeightedGraph(3)
        graph.add_edge(0, 1, 1.0)
        assert np.isinf(dijkstra(graph, 0)[2])

    def test_source_distance_is_zero(self):
        graph = _random_graph(10, 0.5, 0)
        assert dijkstra(graph, 3)[3] == 0.0

    def test_invalid_source_rejected(self):
        graph = WeightedGraph(2)
        with pytest.raises(IndexError):
            dijkstra(graph, 5)

    def test_negative_weights_rejected(self):
        graph = WeightedGraph(2)
        graph.add_edge(0, 1, -1.0)
        with pytest.raises(ValueError):
            dijkstra(graph, 0)

    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_matches_scipy_on_random_graphs(self, seed):
        graph = _random_graph(25, 0.3, seed)
        expected = _scipy_apsp(graph)
        for source in range(0, 25, 5):
            np.testing.assert_allclose(dijkstra(graph, source), expected[source])


class TestAPSP:
    def test_matches_scipy(self, backend):
        graph = _random_graph(30, 0.25, 7)
        distances = all_pairs_shortest_paths(graph, backend=backend)
        np.testing.assert_allclose(distances, _scipy_apsp(graph))

    def test_backends_byte_identical_to_reference(self, backend):
        graph = _random_graph(26, 0.3, 21)
        distances = all_pairs_shortest_paths(graph, backend=backend)
        assert np.array_equal(distances, reference_apsp(graph))
        for name in KERNEL_EDGE_CASES:
            graph = kernel_edge_case_graph(name)
            distances = all_pairs_shortest_paths(graph, backend=backend)
            assert np.array_equal(distances, reference_apsp(graph)), name

    def test_subset_of_sources_on_backends(self, backend):
        graph = _random_graph(15, 0.4, 8)
        full = all_pairs_shortest_paths(graph)
        subset = shortest_paths_from_sources(graph, [1, 4, 9], backend=backend)
        np.testing.assert_allclose(subset, full[[1, 4, 9]])
        # Subsets on both sides of the 64-source block boundary, including
        # the degree-(n-1) hub itself as a source.
        graph = kernel_edge_case_graph("star_path", n=140)
        reference = reference_apsp(graph)
        rng = np.random.default_rng(3)
        for count in (1, 63, 64, 65, 129):
            sources = rng.permutation(140)[:count]
            sources[0] = 0
            subset = shortest_paths_from_sources(graph, sources, backend=backend)
            assert np.array_equal(subset, reference[sources]), count

    def test_symmetric_for_undirected_graph(self):
        graph = _random_graph(20, 0.4, 9)
        distances = all_pairs_shortest_paths(graph)
        np.testing.assert_allclose(distances, distances.T)

    def test_diagonal_is_zero(self):
        graph = _random_graph(15, 0.5, 2)
        assert np.all(np.diag(all_pairs_shortest_paths(graph)) == 0.0)

    def test_thread_backend_matches_serial(self):
        graph = _random_graph(20, 0.4, 4)
        serial = all_pairs_shortest_paths(graph)
        backend = ThreadBackend(num_workers=4)
        try:
            threaded = all_pairs_shortest_paths(graph, backend=backend)
        finally:
            backend.close()
        np.testing.assert_allclose(serial, threaded)

    def test_scipy_method_matches_dijkstra(self):
        graph = _random_graph(24, 0.3, 13)
        dijkstra_result = all_pairs_shortest_paths(graph, method="dijkstra")
        scipy_result = all_pairs_shortest_paths(graph, method="scipy")
        assert np.array_equal(scipy_result, dijkstra_result)

    def test_scipy_method_keeps_zero_weight_edges(self):
        graph = WeightedGraph(3)
        graph.add_edge(0, 1, 0.0)
        graph.add_edge(1, 2, 1.0)
        distances = all_pairs_shortest_paths(graph, method="scipy")
        assert distances[0, 1] == 0.0
        assert distances[0, 2] == 1.0

    def test_exact_methods_byte_identical_with_duplicated_object(self):
        # Two identical series have correlation 1, so their dissimilarity
        # edge has length exactly 0: every exact method must report 0.0
        # for that pair, not a clamped stand-in.
        data = make_time_series_dataset(40, 30, 4, noise=0.8, seed=7).data.copy()
        data[7] = data[3]
        similarity, dissimilarity = similarity_and_dissimilarity(data)
        tmfg = construct_tmfg(similarity, prefix=1, build_bubble_tree=False)
        graph = tmfg.graph.to_csr().reweighted(dissimilarity)
        assert graph.weights.min() == 0.0
        reference = reference_apsp(graph)
        assert reference[3, 7] == 0.0
        for method, options in (
            ("dijkstra", {}),
            ("scipy", {}),
            ("incremental", {"state": IncrementalAPSP()}),
        ):
            distances = all_pairs_shortest_paths(graph, method=method, **options)
            assert np.array_equal(distances, reference), method

    def test_unknown_method_rejected(self):
        graph = _random_graph(5, 0.5, 1)
        with pytest.raises(ValueError):
            all_pairs_shortest_paths(graph, method="bellman-ford-johnson")

    def test_subset_of_sources(self):
        graph = _random_graph(12, 0.5, 5)
        full = all_pairs_shortest_paths(graph)
        subset = shortest_paths_from_sources(graph, [2, 7])
        np.testing.assert_allclose(subset, full[[2, 7]])

    def test_triangle_inequality(self):
        graph = _random_graph(18, 0.5, 11)
        distances = all_pairs_shortest_paths(graph)
        finite = np.isfinite(distances)
        n = graph.num_vertices
        for i in range(n):
            for j in range(n):
                for k in range(0, n, 5):
                    if finite[i, k] and finite[k, j]:
                        assert distances[i, j] <= distances[i, k] + distances[k, j] + 1e-9
