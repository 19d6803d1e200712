"""Tests for triangular-face helpers."""

from __future__ import annotations

import pytest

from repro.graph.faces import child_faces, triangle_corners, triangle_key


class TestTriangleKey:
    def test_order_invariant(self):
        assert triangle_key(1, 2, 3) == triangle_key(3, 1, 2)

    def test_duplicate_corners_rejected(self):
        with pytest.raises(ValueError):
            triangle_key(1, 1, 2)

    def test_corners_sorted(self):
        assert triangle_corners(triangle_key(5, 2, 9)) == (2, 5, 9)

    def test_corners_rejects_non_triangle(self):
        with pytest.raises(ValueError):
            triangle_corners(frozenset({1, 2}))


class TestChildFaces:
    def test_creates_three_faces_containing_vertex(self):
        faces = child_faces(triangle_key(0, 1, 2), 7)
        assert len(faces) == 3
        assert all(7 in face for face in faces)

    def test_children_cover_all_corner_pairs(self):
        faces = child_faces(triangle_key(0, 1, 2), 7)
        pairs = {frozenset(face - {7}) for face in faces}
        assert pairs == {frozenset({0, 1}), frozenset({1, 2}), frozenset({0, 2})}

    def test_vertex_already_in_face_rejected(self):
        with pytest.raises(ValueError):
            child_faces(triangle_key(0, 1, 2), 1)

