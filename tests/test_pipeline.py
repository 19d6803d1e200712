"""Tests for the one-call public pipeline (tmfg_dbht)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.pipeline import tmfg_dbht
from repro.experiments.figures import APPENDIX_CORRELATION, APPENDIX_GROUND_TRUTH
from repro.metrics.ari import adjusted_rand_index
from repro.parallel.cost_model import WorkSpanTracker


class TestPipeline:
    def test_returns_all_artifacts(self, small_matrices):
        similarity, dissimilarity = small_matrices
        result = tmfg_dbht(similarity, dissimilarity, prefix=5)
        assert result.tmfg.graph.num_edges == 3 * similarity.shape[0] - 6
        assert result.dendrogram.is_complete
        assert set(result.step_seconds) == {"tmfg", "apsp", "bubble-tree", "hierarchy"}

    def test_derives_dissimilarity_from_correlation(self, small_matrices):
        similarity, _ = small_matrices
        result = tmfg_dbht(similarity, prefix=1)
        assert result.dendrogram.is_complete

    def test_derives_dissimilarity_from_generic_similarity(self):
        rng = np.random.default_rng(0)
        raw = rng.uniform(0.0, 5.0, size=(12, 12))
        similarity = (raw + raw.T) / 2
        result = tmfg_dbht(similarity, prefix=1)
        assert result.dendrogram.is_complete

    def test_custom_tracker_is_used(self, small_matrices):
        similarity, dissimilarity = small_matrices
        tracker = WorkSpanTracker()
        result = tmfg_dbht(similarity, dissimilarity, prefix=2, tracker=tracker)
        assert result.tracker is tracker
        assert tracker.total_work > 0

    def test_similarity_validated_once_per_fit(self, small_matrices, monkeypatch):
        from repro.core import pipeline, tmfg
        from repro.graph.matrix import validate_similarity_matrix

        calls = []

        def counting(matrix, *args, **kwargs):
            calls.append(1)
            return validate_similarity_matrix(matrix, *args, **kwargs)

        for module in (pipeline, tmfg):
            monkeypatch.setattr(module, "validate_similarity_matrix", counting, raising=False)
        similarity, dissimilarity = small_matrices
        tmfg_dbht(similarity, dissimilarity, prefix=4)
        assert len(calls) == 1
        tmfg_dbht(similarity, prefix=4)
        assert len(calls) == 2

    @pytest.mark.parametrize(
        "matrix",
        [
            np.array([[1.0, 0.2, 0.1, 0.3], [0.5, 1.0, 0.2, 0.1], [0.1, 0.2, 1.0, 0.4], [0.3, 0.1, 0.4, 1.0]]),
            np.full((5, 5), np.nan),
            np.eye(3),
            np.ones((4, 5)),
        ],
        ids=["asymmetric", "nan", "too-small", "not-square"],
    )
    def test_invalid_similarity_raises_validation_error(self, matrix):
        from repro.graph.matrix import MatrixValidationError

        with pytest.raises(MatrixValidationError):
            tmfg_dbht(matrix, prefix=2)

    def test_cut_shortcut_matches_dbht_cut(self, small_matrices):
        similarity, dissimilarity = small_matrices
        result = tmfg_dbht(similarity, dissimilarity, prefix=1)
        np.testing.assert_array_equal(result.cut(3), result.dbht.cut(3))


class TestAppendixExample:
    """The worked example of the appendix (Figs. 12 and 13)."""

    def test_prefix_one_insertion_order(self):
        result = tmfg_dbht(APPENDIX_CORRELATION, prefix=1)
        order = [(v, tuple(sorted(f))) for v, f in result.tmfg.insertion_order]
        assert result.tmfg.initial_clique == (0, 1, 3, 4)
        assert order == [(5, (0, 3, 4)), (2, (0, 4, 5))]

    def test_prefix_three_insertion_order(self):
        result = tmfg_dbht(APPENDIX_CORRELATION, prefix=3)
        order = dict(
            (v, tuple(sorted(f))) for v, f in result.tmfg.insertion_order
        )
        assert order[2] == (0, 1, 4)
        assert order[5] == (0, 3, 4)

    def test_prefix_three_recovers_ground_truth(self):
        result = tmfg_dbht(APPENDIX_CORRELATION, prefix=3)
        labels = result.cut(2)
        assert adjusted_rand_index(APPENDIX_GROUND_TRUTH, labels) == pytest.approx(1.0)

    def test_prefix_one_does_not_recover_ground_truth(self):
        result = tmfg_dbht(APPENDIX_CORRELATION, prefix=1)
        labels = result.cut(2)
        assert adjusted_rand_index(APPENDIX_GROUND_TRUTH, labels) < 1.0
