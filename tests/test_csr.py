"""Property tests: the CSR engine is a drop-in for the adjacency-list path.

The refactor's contract is exact equivalence, not approximate: APSP
distances from the CSR relaxation (and every other exact APSP method) must
be *byte-identical* to the adjacency-list reference Dijkstra, TMFG
construction must insert exactly the pairs a brute-force replay of
Algorithm 1 selects, and the full ``tmfg_dbht`` pipeline must yield
identical labels and dendrogram heights on every exact APSP path.
"""

from __future__ import annotations

from itertools import combinations

import numpy as np
import pytest

from repro.core.pipeline import tmfg_dbht
from repro.core.tmfg import construct_tmfg
from repro.graph.csr import CSRGraph
from repro.graph.faces import child_faces, triangle_corners, triangle_key
from repro.graph.incremental_apsp import IncrementalAPSP
from repro.graph.shortest_paths import all_pairs_shortest_paths, dijkstra
from repro.graph.weighted_graph import WeightedGraph
from repro.parallel.scheduler import ProcessBackend, ThreadBackend
from tests.conftest import reference_apsp
from tests.test_gains import brute_force_best

SEEDS = [0, 1, 2, 3, 4]
EXACT_METHODS = ("dijkstra", "scipy", "incremental")


def _random_graph(n: int, density: float, seed: int) -> WeightedGraph:
    rng = np.random.default_rng(seed)
    graph = WeightedGraph(n)
    for u in range(n):
        for v in range(u + 1, n):
            if rng.random() < density:
                graph.add_edge(u, v, float(rng.uniform(0.1, 5.0)))
    return graph


def _random_similarity(n: int, seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    raw = rng.uniform(-1.0, 1.0, size=(n, n))
    similarity = (raw + raw.T) / 2.0
    np.fill_diagonal(similarity, 1.0)
    return similarity


class TestCSRStructure:
    def test_roundtrip_preserves_graph(self):
        graph = _random_graph(20, 0.3, 0)
        thawed = graph.to_csr().to_weighted_graph()
        assert set(graph.edges()) == set(thawed.edges())

    def test_neighbors_sorted_and_symmetric(self):
        graph = _random_graph(15, 0.4, 1)
        csr = graph.to_csr()
        assert csr.num_edges == graph.num_edges
        for u in range(15):
            neighbors, weights = csr.neighbors(u)
            assert list(neighbors) == sorted(graph.neighbor_ids(u))
            for v, w in zip(neighbors, weights):
                assert w == graph.weight(u, int(v))

    def test_weighted_degrees_match(self):
        graph = _random_graph(25, 0.3, 2)
        np.testing.assert_allclose(
            graph.to_csr().weighted_degrees(), graph.weighted_degrees()
        )

    def test_reweighted_swaps_weights_keeps_topology(self):
        graph = _random_graph(12, 0.5, 3)
        matrix = np.abs(_random_similarity(12, 4)) + 1.0
        reweighted = graph.to_csr().reweighted(matrix)
        assert {(u, v) for u, v, _ in reweighted.edges()} == {
            (u, v) for u, v, _ in graph.edges()
        }
        for u, v, weight in reweighted.edges():
            assert weight == matrix[u, v]

    def test_reweighted_symmetrizes_near_asymmetric_matrices(self):
        # Regression: matrix validators accept asymmetry within float
        # tolerance; both arc directions must still get the upper-triangle
        # entry so the graph stays undirected and kernels stay identical.
        graph = _random_graph(10, 0.5, 6)
        matrix = np.abs(_random_similarity(10, 7)) + 1.0
        matrix = np.triu(matrix) + np.triu(matrix, 1).T
        perturbed = matrix.copy()
        perturbed[np.tril_indices(10, -1)] += 5e-9
        csr = graph.to_csr().reweighted(perturbed)
        for u in range(10):
            neighbors, weights = csr.neighbors(u)
            for v, w in zip(neighbors, weights):
                assert w == matrix[min(u, int(v)), max(u, int(v))]
        np.testing.assert_array_equal(all_pairs_shortest_paths(csr), reference_apsp(csr))

    def test_reweighted_rejects_wrong_shape(self):
        csr = _random_graph(6, 0.5, 5).to_csr()
        with pytest.raises(ValueError):
            csr.reweighted(np.zeros((3, 3)))

    def test_empty_and_isolated_vertices(self):
        graph = WeightedGraph(4)
        graph.add_edge(0, 1, 2.0)
        csr = graph.to_csr()
        assert csr.degree(2) == 0
        assert csr.num_edges == 1
        empty = WeightedGraph(0).to_csr()
        assert empty.num_vertices == 0

    def test_negative_weights_caught_at_freeze(self):
        graph = WeightedGraph(3)
        graph.add_edge(0, 1, -1.0)
        csr = graph.to_csr()
        assert csr.has_negative_weights()
        with pytest.raises(ValueError):
            dijkstra(csr, 0)
        with pytest.raises(ValueError):
            all_pairs_shortest_paths(csr)


class TestAPSPEquivalence:
    """Every exact APSP method vs the adjacency-list reference: byte-identical."""

    @pytest.mark.parametrize("seed", SEEDS)
    @pytest.mark.parametrize("method", EXACT_METHODS)
    def test_methods_byte_identical_on_random_graphs(self, seed, method):
        graph = _random_graph(30, 0.2, seed)
        result = all_pairs_shortest_paths(graph.to_csr(), method=method)
        np.testing.assert_array_equal(result, reference_apsp(graph))

    @pytest.mark.parametrize("seed", SEEDS)
    def test_kernels_byte_identical_on_tmfg(self, seed):
        similarity = _random_similarity(40, seed)
        tmfg = construct_tmfg(similarity, prefix=5, build_bubble_tree=False)
        dissimilarity = similarity.max() - similarity
        np.fill_diagonal(dissimilarity, 0.0)
        csr = tmfg.graph.to_csr().reweighted(dissimilarity)
        reference = reference_apsp(csr)
        for method in EXACT_METHODS:
            np.testing.assert_array_equal(
                all_pairs_shortest_paths(csr, method=method), reference
            )

    def test_backends_byte_identical(self):
        graph = _random_graph(25, 0.3, 7)
        serial = all_pairs_shortest_paths(graph)
        thread_backend = ThreadBackend(num_workers=4)
        process_backend = ProcessBackend(num_workers=2)
        try:
            threaded = all_pairs_shortest_paths(graph, backend=thread_backend)
            processed = all_pairs_shortest_paths(graph, backend=process_backend)
        finally:
            thread_backend.close()
            process_backend.close()
        np.testing.assert_array_equal(serial, threaded)
        np.testing.assert_array_equal(serial, processed)

    def test_trailing_isolated_vertices(self):
        # Regression: an isolated *last* vertex must not truncate the
        # previous vertex's relaxation segment.
        graph = WeightedGraph(4)
        graph.add_edge(0, 2, 1.0)
        graph.add_edge(1, 2, 1.0)
        result = all_pairs_shortest_paths(graph.to_csr())
        np.testing.assert_array_equal(result, reference_apsp(graph))
        assert result[1, 0] == 2.0
        assert np.isinf(result[3, 0])

    def test_out_of_range_sources_rejected(self):
        from repro.graph.shortest_paths import shortest_paths_from_sources

        csr = _random_graph(5, 0.5, 0).to_csr()
        with pytest.raises(IndexError):
            shortest_paths_from_sources(csr, [-1])
        with pytest.raises(IndexError):
            shortest_paths_from_sources(csr, [5])

    def test_string_backend_accepted(self):
        graph = _random_graph(15, 0.4, 11)
        serial = all_pairs_shortest_paths(graph)
        named = all_pairs_shortest_paths(graph, backend="thread")
        np.testing.assert_array_equal(serial, named)


def _brute_force_tmfg_edges(similarity: np.ndarray, tmfg) -> list:
    """Replay Algorithm 1's rounds with brute-force gains; return the edge list.

    Every round recomputes each face's best remaining vertex from scratch
    (``brute_force_best``), takes the ``prefix`` largest pairs by gain, then
    smaller vertex, then smaller corners, keeps one face per vertex, and
    checks the result is exactly the round ``tmfg`` inserted.
    """
    clique = tmfg.initial_clique
    edges = [(clique[i], clique[j]) for i in range(4) for j in range(i + 1, 4)]
    faces = {triangle_key(*corners) for corners in combinations(clique, 3)}
    remaining = [v for v in range(similarity.shape[0]) if v not in clique]
    position = 0
    for size in tmfg.round_sizes:
        pairs = []
        for face in faces:
            corners = triangle_corners(face)
            gain, vertex = brute_force_best(similarity, corners, remaining)
            pairs.append(((gain, -vertex, tuple(-c for c in corners)), vertex, face))
        pairs.sort(key=lambda pair: pair[0], reverse=True)
        chosen = {}
        for _, vertex, face in pairs[: tmfg.prefix]:
            chosen.setdefault(vertex, face)
        batch = list(chosen.items())
        assert batch == list(tmfg.insertion_order[position : position + size])
        position += size
        for vertex, face in batch:
            edges.extend((vertex, corner) for corner in triangle_corners(face))
            faces.discard(face)
            faces.update(child_faces(face, vertex))
            remaining.remove(vertex)
    assert not remaining
    return edges


def _tie_heavy_similarity(n: int) -> np.ndarray:
    """Random similarities rounded to one decimal: many exactly tied gains."""
    similarity = np.round(_random_similarity(n, 0), 1)
    np.fill_diagonal(similarity, 1.0)
    return similarity


TMFG_INPUTS = [pytest.param(_random_similarity(30, seed), id=str(seed)) for seed in SEEDS]
TMFG_INPUTS.append(pytest.param(_tie_heavy_similarity(30), id="ties"))


class TestTMFGEquivalence:
    """Bulk gain updates: the TMFG equals a brute-force replay, pair for pair."""

    @pytest.mark.parametrize("similarity", TMFG_INPUTS)
    @pytest.mark.parametrize("prefix", [1, 4, 10])
    def test_edge_sets_identical(self, similarity, prefix):
        tmfg = construct_tmfg(similarity, prefix=prefix, build_bubble_tree=False)
        assert tmfg.edges == _brute_force_tmfg_edges(similarity, tmfg)
        assert tmfg.rounds == len(tmfg.round_sizes)


class TestPipelineEquivalence:
    """Full tmfg_dbht: labels and dendrogram heights identical on each exact APSP path."""

    @pytest.mark.parametrize("seed", SEEDS)
    def test_labels_and_heights_identical(self, seed):
        similarity = _random_similarity(24, seed)
        reference = tmfg_dbht(similarity, prefix=3)
        reference_heights = [node.height for node in reference.dendrogram.internal_nodes()]
        for method, options in (("scipy", {}), ("incremental", {"apsp_state": IncrementalAPSP()})):
            result = tmfg_dbht(similarity, prefix=3, apsp_method=method, **options)
            for k in (2, 3, 5):
                np.testing.assert_array_equal(reference.cut(k), result.cut(k))
            heights = [node.height for node in result.dendrogram.internal_nodes()]
            assert heights == reference_heights
