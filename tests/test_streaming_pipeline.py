"""Tests for the streaming pipeline, TMFG warm starts, and drift metrics."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.pipeline import tmfg_dbht
from repro.core.tmfg import construct_tmfg
from repro.datasets.similarity import correlation_matrix
from repro.datasets.stocks import generate_regime_switching_stream
from repro.streaming import StreamingPipeline, TMFGWarmStarter
from tests.conftest import random_similarity_matrix


@pytest.fixture(scope="module")
def regime_stream():
    return generate_regime_switching_stream(
        num_stocks=48, num_days=260, num_regimes=3, regime_length=90, seed=17
    )


class TestWarmStartTMFG:
    def test_full_replay_on_identical_matrix(self):
        similarity = random_similarity_matrix(30, seed=4)
        cold = construct_tmfg(similarity, prefix=1)
        warm = construct_tmfg(similarity, prefix=1, warm_start=cold.warm_start_hints())
        assert warm.warm_started
        assert warm.warm_rounds == warm.rounds == cold.rounds
        assert warm.insertion_order == cold.insertion_order
        assert warm.edges == cold.edges

    @pytest.mark.parametrize("prefix", [1, 4])
    def test_warm_build_identical_to_cold_on_shifted_window(self, prefix):
        rng = np.random.default_rng(0)
        data = rng.normal(size=(40, 140))
        previous = construct_tmfg(np.corrcoef(data[:, :120]), prefix=prefix)
        shifted = np.corrcoef(data[:, 10:130])
        warm = construct_tmfg(shifted, prefix=prefix, warm_start=previous.warm_start_hints())
        cold = construct_tmfg(shifted, prefix=prefix)
        assert warm.insertion_order == cold.insertion_order
        assert warm.edges == cold.edges
        assert warm.initial_clique == cold.initial_clique
        assert sorted(warm.graph.edges()) == sorted(cold.graph.edges())

    def test_foreign_hints_fall_back_to_cold(self):
        hints = construct_tmfg(random_similarity_matrix(20, seed=1)).warm_start_hints()
        similarity = random_similarity_matrix(20, seed=2)
        warm = construct_tmfg(similarity, warm_start=hints)
        cold = construct_tmfg(similarity)
        assert not warm.warm_started
        assert warm.insertion_order == cold.insertion_order

    def test_hints_for_wrong_size_are_ignored(self):
        hints = construct_tmfg(random_similarity_matrix(12, seed=3)).warm_start_hints()
        similarity = random_similarity_matrix(18, seed=3)
        warm = construct_tmfg(similarity, warm_start=hints)
        cold = construct_tmfg(similarity)
        assert warm.warm_rounds == 0
        assert warm.insertion_order == cold.insertion_order

    def test_select_one_matches_brute_force_under_ties(self):
        from repro.core.gains import GainTable
        from repro.graph.faces import triangle_corners
        from tests.test_gains import brute_force_best

        # Reverse corner order, so registration order cannot stand in for
        # the corner tie-break.
        faces = [frozenset(corners) for corners in ((1, 2, 3), (0, 2, 3), (0, 1, 3), (0, 1, 2))]
        for seed in range(10):
            # Half-step similarities force exact ties between the best gains.
            similarity = np.round(random_similarity_matrix(14, seed=seed) * 2) / 2
            np.fill_diagonal(similarity, 1.0)
            table = GainTable(similarity, remaining=range(4, 14))
            table.add_faces(faces)
            best = {
                face: brute_force_best(similarity, triangle_corners(face), range(4, 14))
                for face in faces
            }
            top = max(
                faces,
                key=lambda f: (best[f][0], -best[f][1], tuple(-c for c in triangle_corners(f))),
            )
            assert table.select(1) == [(best[top][1], top)]
            assert table.best_for_face(top) == best[top]

    def test_warm_starter_aggregates_stats(self):
        starter = TMFGWarmStarter(enabled=True)
        similarity = random_similarity_matrix(16, seed=7)
        assert starter.hints() is None
        first = construct_tmfg(similarity, warm_start=starter.hints())
        starter.update(first)
        second = construct_tmfg(similarity, warm_start=starter.hints())
        starter.update(second)
        assert starter.stats.builds == 2
        assert starter.stats.warm_attempts == 1
        assert starter.stats.full_replays == 1
        assert starter.stats.full_replay_rate == 1.0
        assert starter.stats.round_replay_rate == 1.0
        disabled = TMFGWarmStarter(enabled=False)
        disabled.update(first)
        assert disabled.hints() is None


@pytest.mark.slow
class TestStreamingEquivalence:
    def test_warm_cut_identical_to_cold_recompute_over_20_ticks(self, regime_stream):
        """Acceptance: every warm tick's flat cut equals a cold from-scratch run."""
        pipeline = StreamingPipeline(
            regime_stream.returns,
            window=100,
            hop=8,
            num_clusters=5,
            warm_start=True,
        )
        ticks = list(pipeline.iter_ticks())
        assert len(ticks) >= 20
        for tick in ticks:
            window = regime_stream.returns[:, tick.start : tick.stop]
            cold = tmfg_dbht(correlation_matrix(window)).cut(5)
            np.testing.assert_array_equal(tick.labels, cold)

    def test_warm_and_cold_pipelines_emit_identical_cuts(self, regime_stream):
        kwargs = dict(window=90, hop=10, num_clusters=4)
        warm = StreamingPipeline(regime_stream.returns, warm_start=True, **kwargs).run()
        cold = StreamingPipeline(regime_stream.returns, warm_start=False, **kwargs).run()
        assert warm.num_ticks == cold.num_ticks >= 15
        for warm_tick, cold_tick in zip(warm.ticks, cold.ticks):
            np.testing.assert_array_equal(warm_tick.labels, cold_tick.labels)
        assert cold.warm_stats.warm_attempts == 0


class TestTickShortCircuit:
    """Ticks whose windowed correlation bytes are unchanged are reused."""

    @pytest.fixture()
    def tiled_returns(self):
        # Four consecutive windows with byte-identical content: window ==
        # hop == block width, and the stream is the block tiled 4 times.
        rng = np.random.default_rng(21)
        block = rng.normal(size=(16, 30))
        return np.tile(block, (1, 4))

    def _pipeline(self, returns, cache: bool):
        from repro.api.config import ClusteringConfig

        config = ClusteringConfig(
            num_clusters=3, warm_start=False, cache=cache
        )
        return StreamingPipeline(returns, window=30, hop=30, config=config)

    def test_unchanged_windows_are_reused(self, tiled_returns):
        from repro.cache import clear_result_caches

        clear_result_caches()
        pipeline = self._pipeline(tiled_returns, cache=True)
        result = pipeline.run()
        assert result.num_ticks == 4
        assert not result.ticks[0].reused
        assert all(tick.reused for tick in result.ticks[1:])
        assert result.reused_ticks == 3
        for tick in result.ticks[1:]:
            np.testing.assert_array_equal(tick.labels, result.ticks[0].labels)
            assert tick.drift_ari == pytest.approx(1.0)
            # Reused ticks skip the fit: only similarity + total are timed.
            assert set(tick.step_seconds) == {"similarity", "total"}
            assert tick.to_cluster_result(pipeline.config).extras["reused"] is True

    def test_warm_mode_short_circuits_identical_windows(self, tiled_returns):
        # Regression: the fingerprint used to be taken over the derived
        # correlation, which in warm mode is path-dependent (incremental
        # sums drift ~1e-12), so the short-circuit never fired in the
        # stream CLI's default warm configuration.  Keying on the window's
        # raw bytes makes identical windows reuse in both modes.
        from repro.api.config import ClusteringConfig
        from repro.cache import clear_result_caches

        clear_result_caches()
        config = ClusteringConfig(num_clusters=3, warm_start=True, cache=True)
        result = StreamingPipeline(
            tiled_returns, window=30, hop=30, config=config
        ).run()
        assert result.num_ticks == 4
        assert result.reused_ticks == 3
        for tick in result.ticks[1:]:
            np.testing.assert_array_equal(tick.labels, result.ticks[0].labels)

    def test_short_circuit_requires_cache_knob(self, tiled_returns):
        result = self._pipeline(tiled_returns, cache=False).run()
        assert result.reused_ticks == 0
        assert all(not tick.reused for tick in result.ticks)
        # Identical windows still cluster identically, just recomputed.
        for tick in result.ticks[1:]:
            np.testing.assert_array_equal(tick.labels, result.ticks[0].labels)

    def test_reused_labels_are_private_copies(self, tiled_returns):
        from repro.cache import clear_result_caches

        clear_result_caches()
        ticks = list(self._pipeline(tiled_returns, cache=True).iter_ticks())
        ticks[1].labels[:] = -1
        assert np.all(ticks[2].labels >= 0)


class TestStreamingPipeline:
    def test_tick_geometry_and_metadata(self, regime_stream):
        pipeline = StreamingPipeline(
            regime_stream.returns, window=120, hop=30, num_clusters=4
        )
        result = pipeline.run()
        assert result.num_ticks == pipeline.num_ticks == 1 + (260 - 120) // 30
        for index, tick in enumerate(result.ticks):
            assert tick.tick == index
            assert tick.stop - tick.start == 120
            assert tick.start == index * 30
            assert set(tick.step_seconds) == {
                "similarity",
                "tmfg",
                "apsp",
                "bubble-tree",
                "hierarchy",
                "total",
            }
            assert tick.labels.shape == (48,)
        assert result.ticks[0].drift_ari is None
        assert all(t.drift_ari is not None for t in result.ticks[1:])
        assert result.mean_tick_seconds() > 0.0

    def test_drift_metrics_detect_regime_change(self, regime_stream):
        """Drift ARI dips when the window crosses a regime boundary."""
        pipeline = StreamingPipeline(
            regime_stream.returns, window=60, hop=30, num_clusters=5
        )
        result = pipeline.run()
        drifts = [t.drift_ari for t in result.ticks[1:]]
        # Ticks fully inside one regime agree with each other more than
        # ticks straddling a boundary; the mean drift is therefore bounded
        # away from both 0 (no structure) and 1 (no drift at all).
        assert 0.0 < np.mean(drifts) < 1.0
        assert result.mean_drift_ari() == pytest.approx(np.mean(drifts))
        assert result.mean_drift_ami() is not None

    def test_max_ticks_caps_the_run(self, regime_stream):
        pipeline = StreamingPipeline(
            regime_stream.returns, window=100, hop=10, num_clusters=4, max_ticks=3
        )
        result = pipeline.run()
        assert result.num_ticks == pipeline.num_ticks == 3

    def test_labels_property_and_warm_stats(self, regime_stream):
        result = StreamingPipeline(
            regime_stream.returns, window=150, hop=50, num_clusters=4
        ).run()
        np.testing.assert_array_equal(result.labels, result.ticks[-1].labels)
        assert result.warm_stats.builds == result.num_ticks

    def test_apsp_method_choice_does_not_change_cuts(self, regime_stream):
        kwargs = dict(window=120, hop=60, num_clusters=4)
        dijkstra_run = StreamingPipeline(
            regime_stream.returns, apsp_method="dijkstra", **kwargs
        ).run()
        scipy_run = StreamingPipeline(
            regime_stream.returns, apsp_method="scipy", **kwargs
        ).run()
        assert dijkstra_run.num_ticks == scipy_run.num_ticks > 1
        for a, b in zip(dijkstra_run.ticks, scipy_run.ticks):
            np.testing.assert_array_equal(a.labels, b.labels)

    def test_invalid_parameters_rejected(self, regime_stream):
        returns = regime_stream.returns
        with pytest.raises(ValueError):
            StreamingPipeline(returns, window=1000)
        with pytest.raises(ValueError):
            StreamingPipeline(returns, window=50, hop=0)
        with pytest.raises(ValueError):
            StreamingPipeline(returns, window=1)
        with pytest.raises(ValueError):
            StreamingPipeline(returns[:2], window=50)
        with pytest.raises(ValueError):
            StreamingPipeline(returns, window=50, num_clusters=0)
        with pytest.raises(ValueError):
            StreamingPipeline(returns, window=50, max_ticks=0)
        with pytest.raises(ValueError):
            StreamingPipeline(np.zeros(5), window=2)
