"""Property tests for incremental APSP and the landmark-approximate mode.

The incremental engine's contract is the same as the TMFG warm starts':
the output is *byte-identical* to a cold ``dijkstra`` recompute and to the
adjacency-list reference Dijkstra after every update, on the serial and
process backends — only the cost may differ.  The landmark mode's contract is the opposite:
approximate, strictly opt-in, with a bound that tightens monotonically in
the landmark count and becomes exact at ``L >= n``.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.graph.incremental_apsp import IncrementalAPSP
from repro.graph.shortest_paths import (
    all_pairs_shortest_paths,
    available_apsp_methods,
    register_apsp_method,
    select_landmarks,
)
from repro.graph.weighted_graph import WeightedGraph
from tests.conftest import KERNEL_EDGE_CASES, kernel_edge_case_graph, reference_apsp


def _random_graph(n: int, density: float, seed: int) -> WeightedGraph:
    rng = np.random.default_rng(seed)
    graph = WeightedGraph(n)
    for u in range(n):
        for v in range(u + 1, n):
            if rng.random() < density:
                graph.add_edge(u, v, float(rng.uniform(0.1, 5.0)))
    return graph


def _random_absent_pair(graph: WeightedGraph, rng) -> tuple:
    n = graph.num_vertices
    while True:
        u, v = (int(x) for x in rng.integers(0, n, size=2))
        if u == v:
            continue
        u, v = min(u, v), max(u, v)
        neighbors = {int(w) for w, _ in graph.neighbors(u)}
        if v not in neighbors:
            return u, v


def _clone_with_edges(graph: WeightedGraph, edges: dict) -> WeightedGraph:
    clone = WeightedGraph(graph.num_vertices)
    for (u, v), w in edges.items():
        clone.add_edge(u, v, w)
    return clone


class TestIncrementalByteIdentity:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_random_insertion_sequences(self, seed, backend):
        """Byte identity after every insertion of a randomized sequence."""
        rng = np.random.default_rng(seed)
        graph = _random_graph(30, 0.12, seed)
        engine = IncrementalAPSP()
        for _ in range(10):
            got = engine.update(graph, backend=backend)
            cold = all_pairs_shortest_paths(graph, backend=backend, method="dijkstra")
            assert np.array_equal(got, cold)
            assert np.array_equal(got, reference_apsp(graph))
            u, v = _random_absent_pair(graph, rng)
            graph.add_edge(u, v, float(rng.uniform(0.05, 4.0)))

    def test_weight_changes_and_removals(self):
        """Increase, decrease, and drop edges; identity must hold throughout."""
        rng = np.random.default_rng(7)
        graph = _random_graph(28, 0.2, 7)
        edges = {
            (int(u), int(w)): float(weight)
            for u in range(graph.num_vertices)
            for w, weight in graph.neighbors(u)
            if u < int(w)
        }
        engine = IncrementalAPSP()
        for step in range(12):
            current = _clone_with_edges(graph, edges)
            got = engine.update(current)
            cold = all_pairs_shortest_paths(current, method="dijkstra")
            assert np.array_equal(got, cold)
            assert np.array_equal(got, reference_apsp(current))
            keys = sorted(edges)
            pick = keys[int(rng.integers(len(keys)))]
            action = step % 3
            if action == 0:
                edges[pick] = float(edges[pick] * rng.uniform(1.1, 2.0))
            elif action == 1:
                edges[pick] = float(edges[pick] * rng.uniform(0.3, 0.9))
            elif len(edges) > graph.num_vertices:
                del edges[pick]

    def test_unchanged_graph_reuses_everything(self):
        graph = _random_graph(20, 0.3, 3)
        engine = IncrementalAPSP()
        first = engine.update(graph)
        second = engine.update(graph)
        assert second is first
        assert engine.stats.unchanged_updates == 1
        assert engine.stats.reused_rows == graph.num_vertices

    def test_returned_matrices_never_mutate(self):
        """A kept reference must not change when later updates repair rows."""
        rng = np.random.default_rng(5)
        graph = _random_graph(22, 0.25, 5)
        engine = IncrementalAPSP()
        first = engine.update(graph)
        snapshot = first.copy()
        for _ in range(4):
            u, v = _random_absent_pair(graph, rng)
            graph.add_edge(u, v, 0.01)
            engine.update(graph)
        assert np.array_equal(first, snapshot)

    def test_size_change_triggers_cold_rebuild(self):
        engine = IncrementalAPSP()
        engine.update(_random_graph(12, 0.4, 1))
        bigger = _random_graph(15, 0.4, 2)
        got = engine.update(bigger)
        assert np.array_equal(got, all_pairs_shortest_paths(bigger))
        assert engine.stats.full_rebuilds == 2

    def test_reset_drops_state(self):
        graph = _random_graph(10, 0.5, 9)
        engine = IncrementalAPSP()
        engine.update(graph)
        engine.reset()
        assert engine.distances is None
        engine.update(graph)
        assert engine.stats.full_rebuilds == 2

    def test_threshold_validation(self):
        with pytest.raises(ValueError):
            IncrementalAPSP(rebuild_edge_fraction=1.5)
        with pytest.raises(ValueError):
            IncrementalAPSP(rebuild_row_fraction=0.0)

    def test_dispatcher_incremental_method(self, backend):
        """``method="incremental"`` + ``state=`` matches dijkstra exactly."""
        graph = _random_graph(18, 0.3, 11)
        engine = IncrementalAPSP()
        via_dispatch = all_pairs_shortest_paths(
            graph, backend=backend, method="incremental", state=engine
        )
        assert np.array_equal(via_dispatch, all_pairs_shortest_paths(graph))
        # Without state it is simply a cold dijkstra run.
        stateless = all_pairs_shortest_paths(graph, method="incremental")
        assert np.array_equal(stateless, all_pairs_shortest_paths(graph))
        with pytest.raises(TypeError):
            all_pairs_shortest_paths(graph, method="incremental", state=object())
        # The kernel's edge cases, cold and after a repair that re-runs a
        # subset of sources (one edge on the hub's shortest-path tree grows).
        for name in KERNEL_EDGE_CASES:
            graph = kernel_edge_case_graph(name)
            engine = IncrementalAPSP()
            cold = all_pairs_shortest_paths(
                graph, backend=backend, method="incremental", state=engine
            )
            assert np.array_equal(cold, reference_apsp(graph)), name
            neighbour, weight = min(graph.neighbors(0), key=lambda arc: arc[1])
            graph.add_edge(0, int(neighbour), weight + 0.75)
            repaired = all_pairs_shortest_paths(
                graph, backend=backend, method="incremental", state=engine
            )
            assert np.array_equal(repaired, reference_apsp(graph)), name


class TestLandmarkMode:
    def test_upper_bound_and_exact_at_full_count(self):
        graph = _random_graph(40, 0.15, 2)
        exact = all_pairs_shortest_paths(graph)
        approx = all_pairs_shortest_paths(graph, method="landmark", landmarks=8)
        assert np.all(approx >= exact - 1e-9)
        full = all_pairs_shortest_paths(graph, method="landmark", landmarks=40)
        assert np.array_equal(full, exact)

    def test_error_is_monotone_in_landmark_count(self):
        graph = _random_graph(45, 0.12, 6)
        exact = all_pairs_shortest_paths(graph)
        previous = np.inf
        for count in (2, 4, 8, 16, 32):
            approx = all_pairs_shortest_paths(graph, method="landmark", landmarks=count)
            error = float(np.mean(np.abs(approx - exact)))
            assert error <= previous + 1e-12
            previous = error

    def test_estimates_shrink_pointwise_with_more_landmarks(self):
        """Nested landmark prefixes can only tighten the bound, entrywise."""
        graph = _random_graph(35, 0.15, 4)
        coarse = all_pairs_shortest_paths(graph, method="landmark", landmarks=4)
        fine = all_pairs_shortest_paths(graph, method="landmark", landmarks=12)
        assert np.all(fine <= coarse + 1e-12)

    def test_deterministic(self):
        graph = _random_graph(30, 0.2, 8)
        a = all_pairs_shortest_paths(graph, method="landmark", landmarks=6)
        b = all_pairs_shortest_paths(graph, method="landmark", landmarks=6)
        assert np.array_equal(a, b)

    def test_diagonal_zero_symmetric_and_edges_exact(self):
        graph = _random_graph(25, 0.25, 10)
        approx = all_pairs_shortest_paths(graph, method="landmark", landmarks=4)
        exact = all_pairs_shortest_paths(graph)
        assert np.all(np.diag(approx) == 0.0)
        np.testing.assert_array_equal(approx, approx.T)
        csr = graph.to_csr()
        heads = np.repeat(np.arange(csr.num_vertices), csr.degrees())
        # The direct-edge clamp: adjacent pairs are never estimated above
        # their edge weight (the exact distance may be lower still, via a
        # multi-hop detour, but never above it).
        assert np.all(approx[heads, csr.indices] <= csr.weights + 1e-12)

    def test_selection_is_nested(self):
        graph = _random_graph(30, 0.2, 12)
        few, _ = select_landmarks(graph, 4)
        more, _ = select_landmarks(graph, 9)
        assert more[: len(few)] == few

    def test_invalid_counts_rejected(self):
        graph = _random_graph(10, 0.5, 1)
        with pytest.raises(ValueError):
            all_pairs_shortest_paths(graph, method="landmark", landmarks=0)
        with pytest.raises(ValueError):
            select_landmarks(graph, 0)


class TestMethodRegistry:
    def test_builtins_registered(self):
        assert available_apsp_methods() == ("dijkstra", "incremental", "landmark", "scipy")

    def test_duplicate_registration_rejected(self):
        with pytest.raises(ValueError):
            register_apsp_method("dijkstra", lambda *a, **k: None)

    def test_custom_method_dispatches_and_validates_in_config(self):
        from repro.api.config import ClusteringConfig
        from repro.graph.shortest_paths import _APSP_DISPATCH

        def constant(graph, backend=None):
            n = graph.num_vertices
            return np.zeros((n, n))

        register_apsp_method("test-constant", constant)
        try:
            graph = _random_graph(6, 0.5, 3)
            result = all_pairs_shortest_paths(graph, method="test-constant")
            assert np.array_equal(result, np.zeros((6, 6)))
            # The config layer resolves against the live registry, so the
            # custom id validates without touching APSP_METHODS.
            config = ClusteringConfig(apsp_method="test-constant")
            assert config.apsp_method == "test-constant"
        finally:
            _APSP_DISPATCH.pop("test-constant", None)

    def test_unknown_method_error_lists_ids(self):
        graph = _random_graph(5, 0.5, 1)
        with pytest.raises(ValueError, match="'dijkstra'"):
            all_pairs_shortest_paths(graph, method="bellman-ford-johnson")


class TestStreamingIncrementalEquivalence:
    def test_incremental_stream_matches_cold_stream(self):
        """The streaming warm==cold guarantee extends to apsp_method="incremental"."""
        from repro.api.config import ClusteringConfig
        from repro.datasets.stocks import generate_regime_switching_stream
        from repro.streaming import StreamingPipeline

        stream = generate_regime_switching_stream(
            num_stocks=44, num_days=150, num_regimes=2, regime_length=80, seed=13
        )
        config = ClusteringConfig(
            num_clusters=4, warm_start=True, apsp_method="incremental"
        )
        incremental = StreamingPipeline(
            stream.returns, window=90, hop=15, config=config
        ).run()
        cold = StreamingPipeline(
            stream.returns, window=90, hop=15, num_clusters=4, warm_start=False
        ).run()
        assert incremental.num_ticks == cold.num_ticks >= 4
        for warm_tick, cold_tick in zip(incremental.ticks, cold.ticks):
            np.testing.assert_array_equal(warm_tick.labels, cold_tick.labels)
        assert incremental.apsp_stats is not None
        assert incremental.apsp_stats["updates"] == incremental.num_ticks
        assert cold.apsp_stats is None
