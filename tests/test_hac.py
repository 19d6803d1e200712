"""Tests for the nearest-neighbour-chain HAC, cross-checked against scipy."""

from __future__ import annotations

import math

import numpy as np
import pytest
from scipy.cluster.hierarchy import fcluster, linkage as scipy_linkage
from scipy.spatial.distance import squareform

from repro.baselines.hac import hac_dendrogram, hac_labels, linkage
from repro.dendrogram.cut import cut_k
from repro.metrics.ari import adjusted_rand_index


def random_distance_matrix(n, seed):
    rng = np.random.default_rng(seed)
    points = rng.normal(size=(n, 3))
    diff = points[:, None, :] - points[None, :, :]
    return np.sqrt((diff ** 2).sum(axis=-1))


class TestLinkageStructure:
    def test_number_of_merges(self):
        distances = random_distance_matrix(10, 0)
        merges = linkage(distances, "complete")
        assert merges.shape == (9, 4)

    def test_final_cluster_contains_everything(self):
        distances = random_distance_matrix(8, 1)
        merges = linkage(distances, "average")
        assert merges[-1, 3] == 8

    def test_single_point(self):
        assert linkage(np.zeros((1, 1)), "complete").shape == (0, 4)

    def test_two_points(self):
        distances = np.array([[0.0, 2.0], [2.0, 0.0]])
        merges = linkage(distances, "single")
        assert merges.shape == (1, 4)
        assert merges[0, 2] == pytest.approx(2.0)

    def test_unknown_linkage_rejected(self):
        with pytest.raises(ValueError):
            linkage(np.zeros((3, 3)), "ward")

    def test_asymmetric_matrix_rejected(self):
        matrix = np.array([[0.0, 1.0], [2.0, 0.0]])
        with pytest.raises(ValueError):
            linkage(matrix, "complete")

    def test_nan_matrix_rejected(self):
        matrix = np.full((3, 3), np.nan)
        with pytest.raises(ValueError):
            linkage(matrix, "complete")

    def test_merge_heights_monotone_for_reducible_linkages(self):
        for method in ("single", "complete", "average"):
            distances = random_distance_matrix(20, 4)
            dendrogram = hac_dendrogram(distances, method=method)
            assert dendrogram.heights_monotone(), method


class TestAgainstScipy:
    @pytest.mark.parametrize("method", ["single", "complete", "average"])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_flat_clusters_match_scipy(self, method, seed):
        distances = random_distance_matrix(25, seed)
        condensed = squareform(distances, checks=False)
        scipy_result = scipy_linkage(condensed, method=method)
        for k in (2, 3, 5):
            ours = hac_labels(distances, k, method=method)
            theirs = fcluster(scipy_result, k, criterion="maxclust")
            assert adjusted_rand_index(ours, theirs) == pytest.approx(1.0), (
                method,
                seed,
                k,
            )

    @pytest.mark.parametrize("method", ["single", "complete", "average"])
    def test_root_height_matches_scipy(self, method):
        distances = random_distance_matrix(18, 7)
        condensed = squareform(distances, checks=False)
        scipy_result = scipy_linkage(condensed, method=method)
        ours = linkage(distances, method=method)
        assert ours[:, 2].max() == pytest.approx(scipy_result[:, 2].max())

    def test_cophenetic_heights_match_scipy_complete(self):
        # For complete linkage the multiset of merge distances must agree.
        distances = random_distance_matrix(15, 9)
        condensed = squareform(distances, checks=False)
        scipy_result = scipy_linkage(condensed, method="complete")
        ours = linkage(distances, method="complete")
        np.testing.assert_allclose(
            np.sort(ours[:, 2]), np.sort(scipy_result[:, 2]), rtol=1e-10
        )


class TestQuality:
    def test_separated_blobs_are_recovered(self):
        rng = np.random.default_rng(3)
        points = np.vstack(
            [rng.normal(loc=center, scale=0.2, size=(10, 2)) for center in ((0, 0), (5, 5), (10, 0))]
        )
        labels_true = np.repeat([0, 1, 2], 10)
        diff = points[:, None, :] - points[None, :, :]
        distances = np.sqrt((diff ** 2).sum(axis=-1))
        for method in ("single", "complete", "average"):
            labels = hac_labels(distances, 3, method=method)
            assert adjusted_rand_index(labels_true, labels) == pytest.approx(1.0)

    def test_weighted_linkage_runs(self):
        distances = random_distance_matrix(12, 11)
        dendrogram = hac_dendrogram(distances, method="weighted")
        assert dendrogram.is_complete


def _reference_lance_williams(distances, method):
    """Pure-Python nearest-neighbour chain with scalar Lance-Williams updates."""
    n = len(distances)
    work = [[float(value) for value in row] for row in distances]
    active = [True] * n
    labels = list(range(n))
    sizes = [1] * n
    merges = []
    chain = []

    def nearest(slot):
        best, best_distance = -1, math.inf
        for other in range(n):
            if active[other] and other != slot and work[slot][other] < best_distance:
                best, best_distance = other, work[slot][other]
        return best

    for next_label in range(n, 2 * n - 1):
        if not chain:
            chain.append(active.index(True))
        while True:
            current = chain[-1]
            candidate = nearest(current)
            if len(chain) > 1 and candidate == chain[-2]:
                break
            if len(chain) > 1 and work[current][chain[-2]] <= work[current][candidate]:
                break
            chain.append(candidate)
        j, i = chain.pop(), chain.pop()
        size_i, size_j = sizes[i], sizes[j]
        merges.append((labels[i], labels[j], work[i][j], size_i + size_j))
        for k in range(n):
            if not active[k] or k in (i, j):
                continue
            d_ik, d_jk = work[i][k], work[j][k]
            if method == "single":
                value = min(d_ik, d_jk)
            elif method == "complete":
                value = max(d_ik, d_jk)
            elif method == "average":
                value = (size_i * d_ik + size_j * d_jk) / (size_i + size_j)
            else:
                value = 0.5 * (d_ik + d_jk)
            work[i][k] = work[k][i] = value
        active[j] = False
        labels[i] = next_label
        sizes[i] = size_i + size_j
        chain = [slot for slot in chain if slot not in (i, j)]
    return np.asarray(merges, dtype=float)


class TestLanceWilliamsUpdate:
    @pytest.mark.parametrize("method", ["single", "complete", "average", "weighted"])
    def test_matches_scalar_reference_on_ties(self, method):
        # Rounding to one decimal makes many pairwise distances tie, which
        # exercises the chain's tie-breaking as well as the update.
        distances = np.round(random_distance_matrix(40, seed=9), 1)
        expected = _reference_lance_williams(distances, method)
        assert linkage(distances, method=method).tobytes() == expected.tobytes()
