"""Shared fixtures for the test suite."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.tmfg import construct_tmfg
from repro.datasets.similarity import similarity_and_dissimilarity
from repro.datasets.synthetic import make_time_series_dataset
from repro.graph.csr import CSRGraph
from repro.graph.shortest_paths import dijkstra
from repro.graph.weighted_graph import WeightedGraph
from repro.parallel.scheduler import ProcessBackend


@pytest.fixture(scope="session")
def process_backend():
    """One process pool shared by every test that exercises ProcessBackend.

    Pool startup dominates the cost of process-backend tests, so the suite
    shares a single two-worker pool instead of spawning one per test.
    """
    backend = ProcessBackend(num_workers=2)
    yield backend
    backend.close()


@pytest.fixture(params=["serial", "process"])
def backend(request):
    """Parametrized backend: the serial default and the shared process pool."""
    if request.param == "process":
        return request.getfixturevalue("process_backend")
    return None


@pytest.fixture(scope="session")
def small_dataset():
    """A small but non-trivial labelled time-series data set."""
    return make_time_series_dataset(
        num_objects=60, length=48, num_classes=3, noise=1.0, seed=11
    )


@pytest.fixture(scope="session")
def small_matrices(small_dataset):
    """Similarity and dissimilarity matrices of the small data set."""
    return similarity_and_dissimilarity(small_dataset.data)


@pytest.fixture(scope="session")
def medium_dataset():
    """A slightly larger data set with outliers (harder clustering problem)."""
    return make_time_series_dataset(
        num_objects=150,
        length=64,
        num_classes=5,
        noise=1.2,
        seed=5,
        outlier_fraction=0.05,
    )


@pytest.fixture(scope="session")
def medium_matrices(medium_dataset):
    return similarity_and_dissimilarity(medium_dataset.data)


@pytest.fixture(scope="session")
def small_tmfg(small_matrices):
    """Exact (prefix 1) TMFG of the small data set, with its bubble tree."""
    similarity, _ = small_matrices
    return construct_tmfg(similarity, prefix=1, build_bubble_tree=True)


@pytest.fixture(scope="session")
def batched_tmfg(small_matrices):
    """Prefix-8 TMFG of the small data set."""
    similarity, _ = small_matrices
    return construct_tmfg(similarity, prefix=8, build_bubble_tree=True)


def random_similarity_matrix(n: int, seed: int = 0) -> np.ndarray:
    """A random symmetric similarity matrix with unit diagonal."""
    rng = np.random.default_rng(seed)
    raw = rng.uniform(-1.0, 1.0, size=(n, n))
    symmetric = (raw + raw.T) / 2.0
    np.fill_diagonal(symmetric, 1.0)
    return symmetric


#: Inputs that exercise every branch of the relaxation kernel's
#: degree-sorted layout: a hub of degree ``n - 1`` (its arcs beyond the
#: jagged-diagonal slots go through the segmented-min tail), isolated
#: vertices sorted after every slot, and zero-length edges.
KERNEL_EDGE_CASES = ("star_path", "trailing_isolated", "zero_weights")


def kernel_edge_case_graph(name: str, n: int = 140, seed: int = 0) -> WeightedGraph:
    """One of :data:`KERNEL_EDGE_CASES` as an ``n``-vertex graph."""
    rng = np.random.default_rng(seed)
    graph = WeightedGraph(n)
    if name == "star_path":
        for v in range(1, n):
            graph.add_edge(0, v, float(rng.uniform(0.5, 2.0)))
        for v in range(1, n - 1):
            graph.add_edge(v, v + 1, float(rng.uniform(0.1, 1.0)))
    elif name in ("trailing_isolated", "zero_weights"):
        # A sparse random graph on the leading vertices; the last ten stay
        # isolated in the "trailing_isolated" case.
        connected = n - 10 if name == "trailing_isolated" else n
        for u in range(connected):
            for v in rng.choice(connected, size=3, replace=False):
                if int(v) != u:
                    weight = float(rng.uniform(0.1, 3.0))
                    if name == "zero_weights" and rng.random() < 0.2:
                        weight = 0.0
                    graph.add_edge(u, int(v), weight)
    else:
        raise ValueError(f"unknown kernel edge case {name!r}")
    return graph


def reference_apsp(graph) -> np.ndarray:
    """APSP by the adjacency-list reference Dijkstra, one source at a time."""
    if isinstance(graph, CSRGraph):
        graph = graph.to_weighted_graph()
    return np.vstack([dijkstra(graph, s) for s in range(graph.num_vertices)])


@pytest.fixture
def similarity_factory():
    """Factory fixture building random similarity matrices."""
    return random_similarity_matrix
