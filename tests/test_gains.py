"""Tests for the TMFG gain table."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.gains import GainTable
from repro.graph.faces import triangle_key


@pytest.fixture
def similarity():
    rng = np.random.default_rng(3)
    raw = rng.uniform(0.0, 1.0, size=(10, 10))
    matrix = (raw + raw.T) / 2.0
    np.fill_diagonal(matrix, 1.0)
    return matrix


def brute_force_best(similarity, face, remaining):
    best = None
    for vertex in remaining:
        gain = sum(similarity[corner, vertex] for corner in face)
        if best is None or gain > best[0]:
            best = (gain, vertex)
    return best


class TestGainTable:
    def test_best_matches_brute_force(self, similarity):
        remaining = [4, 5, 6, 7, 8, 9]
        table = GainTable(similarity, remaining)
        face = triangle_key(0, 1, 2)
        table.add_face(face)
        gain, vertex = table.best_for_face(face)
        expected_gain, expected_vertex = brute_force_best(similarity, face, remaining)
        assert gain == pytest.approx(expected_gain)
        assert vertex == expected_vertex

    def test_duplicate_face_rejected(self, similarity):
        table = GainTable(similarity, [4, 5])
        face = triangle_key(0, 1, 2)
        table.add_face(face)
        with pytest.raises(ValueError):
            table.add_face(face)

    def test_remove_vertices_refreshes_affected_faces(self, similarity):
        remaining = [4, 5, 6, 7]
        table = GainTable(similarity, remaining)
        faces = [triangle_key(0, 1, 2), triangle_key(1, 2, 3)]
        for face in faces:
            table.add_face(face)
        _, best_vertex = table.best_for_face(faces[0])
        table.remove_vertices([best_vertex])
        for face in faces:
            gain, vertex = table.best_for_face(face)
            expected = brute_force_best(
                similarity, face, [v for v in remaining if v != best_vertex]
            )
            assert vertex == expected[1]
            assert gain == pytest.approx(expected[0])

    def test_remove_unknown_vertex_rejected(self, similarity):
        table = GainTable(similarity, [4, 5])
        with pytest.raises(ValueError):
            table.remove_vertices([0])

    def test_exhausted_table_reports_none(self, similarity):
        table = GainTable(similarity, [4])
        face = triangle_key(0, 1, 2)
        table.add_face(face)
        table.remove_vertices([4])
        gain, vertex = table.best_for_face(face)
        assert vertex is None
        assert gain == float("-inf")
        assert table.select(1) == []

    def test_remove_face_then_vertex_does_not_refresh_it(self, similarity):
        table = GainTable(similarity, [4, 5])
        face = triangle_key(0, 1, 2)
        table.add_face(face)
        _, best_vertex = table.best_for_face(face)
        table.remove_face(face)
        table.remove_vertices([best_vertex])
        assert table.num_faces == 0
        assert table.select(1) == []
        with pytest.raises(KeyError):
            table.best_for_face(face)

    def test_select_keeps_one_pair_per_best_vertex(self, similarity):
        table = GainTable(similarity, [4, 5, 6])
        faces = [triangle_key(0, 1, 2), triangle_key(0, 1, 3), triangle_key(1, 2, 3)]
        for face in faces:
            table.add_face(face)
        batch = table.select(len(faces))
        best_vertices = {table.best_for_face(face)[1] for face in faces}
        assert sorted(vertex for vertex, _ in batch) == sorted(best_vertices)
        for vertex, face in batch:
            assert table.best_for_face(face)[1] == vertex

    def test_num_remaining_tracks_removals(self, similarity):
        table = GainTable(similarity, [4, 5, 6])
        assert table.num_remaining == 3
        table.add_face(triangle_key(0, 1, 2))
        table.remove_vertices([5])
        assert table.num_remaining == 2
        assert not table.is_remaining(5)
        assert table.is_remaining(6)



def _table_with(entries, faces, remaining=(4, 5)):
    """Gain table over a zero similarity matrix with the given entries set."""
    matrix = np.zeros((6, 6))
    np.fill_diagonal(matrix, 1.0)
    for (u, v), value in entries.items():
        matrix[u, v] = matrix[v, u] = value
    table = GainTable(matrix, list(remaining))
    table.add_faces(faces)
    return table


class TestSelect:
    """``select`` orders by gain, then smaller vertex, then smaller corners."""

    def test_orders_by_gain_first(self):
        low, high = triangle_key(0, 1, 2), triangle_key(0, 1, 3)
        table = _table_with({(2, 4): 0.5, (3, 5): 0.9}, [low, high])
        assert table.select(2) == [(5, high), (4, low)]
        assert table.select(1) == [(5, high)]

    def test_breaks_ties_by_smaller_vertex(self):
        # The larger vertex sits on the face with the smaller corners.
        small_corners, large_corners = triangle_key(0, 1, 2), triangle_key(0, 1, 3)
        table = _table_with({(2, 5): 0.5, (3, 4): 0.5}, [small_corners, large_corners])
        assert table.select(2) == [(4, large_corners), (5, small_corners)]

    def test_breaks_vertex_ties_by_smaller_corners(self):
        small_corners, large_corners = triangle_key(0, 1, 2), triangle_key(0, 1, 3)
        table = _table_with({(0, 4): 0.5, (1, 4): 0.5}, [large_corners, small_corners])
        assert table.best_for_face(large_corners) == table.best_for_face(small_corners)
        assert table.select(1) == [(4, small_corners)]

    def test_keeps_one_face_per_vertex_within_the_prefix(self):
        faces = [triangle_key(0, 1, 2), triangle_key(0, 1, 3), triangle_key(1, 2, 3)]
        entries = {(0, 4): 0.5, (1, 4): 0.5, (2, 5): 0.3, (3, 5): 0.3}
        # The prefix counts pairs before the per-vertex dedupe.
        assert _table_with(entries, faces).select(2) == [(4, faces[0])]
        assert _table_with(entries, faces).select(3) == [(4, faces[0]), (5, faces[2])]

    def test_prefix_larger_than_face_count(self):
        low, high = triangle_key(0, 1, 2), triangle_key(0, 1, 3)
        table = _table_with({(2, 4): 0.5, (3, 5): 0.9}, [low, high])
        assert table.select(10) == [(5, high), (4, low)]
        table.remove_vertices([4, 5])
        assert table.select(10) == []
