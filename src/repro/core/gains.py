"""Gain table for TMFG construction.

For each triangular face ``t`` of the graph under construction, the TMFG
algorithm needs the *best vertex*: the not-yet-inserted vertex ``v`` that
maximises the gain ``sum_{u in t} S[u, v]`` of inserting ``v`` into ``t``
(Line 5 and Lines 15–16 of Algorithm 1), and each round it inserts the
``prefix`` best vertex-face pairs (Lines 9–10).

The table is a struct of arrays with one row per face: the sorted corners,
the best gain and the best vertex (``-1`` once the face is split or no
remaining vertex exists).  Rows are append-only; a TMFG on ``n`` vertices
creates fewer than ``3n + 4`` faces.  When a batch of vertices is inserted,
the stale rows — live rows whose best vertex was just removed — are found
with one mask gather over all rows and refreshed together: their
``(rows, remaining)`` gain matrix is stacked and reduced with one argmax per
row, so a round costs a handful of numpy calls however many faces it
touched.  :meth:`GainTable.select` is the round's batch selection.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from repro.graph.faces import Triangle, triangle_corners


class GainTable:
    """Tracks the best remaining vertex for every active face."""

    def __init__(self, similarity: np.ndarray, remaining: Iterable[int]) -> None:
        self._similarity = np.asarray(similarity, dtype=float)
        n = self._similarity.shape[0]
        self._remaining_mask = np.zeros(n, dtype=bool)
        self._remaining_mask[np.fromiter(remaining, dtype=np.int64)] = True
        capacity = 3 * n + 4
        self._corners = np.zeros((capacity, 3), dtype=np.int64)
        self._gain = np.full(capacity, -np.inf)
        self._vertex = np.full(capacity, -1, dtype=np.int64)
        self._row_of: Dict[Triangle, int] = {}
        self._face_of: List[Triangle] = []

    # -- queries -----------------------------------------------------------

    @property
    def num_remaining(self) -> int:
        return int(self._remaining_mask.sum())

    def is_remaining(self, vertex: int) -> bool:
        return bool(self._remaining_mask[vertex])

    @property
    def num_faces(self) -> int:
        return len(self._row_of)

    def best_for_face(self, face: Triangle) -> Tuple[float, Optional[int]]:
        """Current ``(gain, vertex)`` for ``face`` (vertex None if exhausted)."""
        row = self._row_of[face]
        vertex = int(self._vertex[row])
        return float(self._gain[row]), (vertex if vertex >= 0 else None)

    def select(self, prefix: int) -> List[Tuple[int, Triangle]]:
        """The round's ``(vertex, face)`` batch — Lines 9–10 of Algorithm 1.

        Orders the faces' best pairs by gain descending, then vertex
        ascending, then sorted corners ascending; takes the first ``prefix``
        and keeps the first pair of each vertex, so every vertex goes into
        one face.  Faces without a candidate are skipped.
        """
        rows = np.flatnonzero(self._vertex[: len(self._face_of)] >= 0)
        if rows.size > prefix:
            # Every pair tied with the prefix-th largest gain stays in; the
            # exact order below decides between them.
            gains = self._gain[rows]
            threshold = np.partition(gains, rows.size - prefix)[rows.size - prefix]
            rows = rows[gains >= threshold]
        corners, vertices = self._corners[rows], self._vertex[rows]
        order = np.lexsort(
            (corners[:, 2], corners[:, 1], corners[:, 0], vertices, -self._gain[rows])
        )[:prefix]
        _, first = np.unique(vertices[order], return_index=True)
        chosen = order[np.sort(first)]
        return [
            (vertex, self._face_of[row])
            for vertex, row in zip(vertices[chosen].tolist(), rows[chosen].tolist())
        ]

    # -- updates -----------------------------------------------------------

    def add_face(self, face: Triangle) -> None:
        """Register a new face and compute its best vertex."""
        self.add_faces([face])

    def add_faces(self, faces: Sequence[Triangle]) -> None:
        """Register a batch of new faces with one bulk gain computation."""
        if not faces:
            return
        start, stop = len(self._face_of), len(self._face_of) + len(faces)
        if len(set(faces)) < len(faces) or any(face in self._row_of for face in faces):
            raise ValueError("face already registered")
        if stop > len(self._vertex):
            raise ValueError(f"more than {len(self._vertex)} faces registered")
        for row, face in enumerate(faces, start):
            self._row_of[face] = row
            self._face_of.append(face)
        self._corners[start:stop] = [triangle_corners(face) for face in faces]
        self._refresh(np.arange(start, stop))

    def remove_face(self, face: Triangle) -> None:
        """Remove a face (it has been split by a vertex insertion)."""
        self._vertex[self._row_of.pop(face)] = -1

    def remove_vertices(self, vertices: Sequence[int]) -> None:
        """Mark vertices as inserted and refresh the faces that pointed at them."""
        for vertex in vertices:
            if not self._remaining_mask[vertex]:
                raise ValueError(f"vertex {vertex} is not in the remaining set")
            self._remaining_mask[vertex] = False
        best = self._vertex[: len(self._face_of)]
        # Dead rows hold -1, which gathers the last mask entry; ``best >= 0``
        # masks them out.
        self._refresh(np.flatnonzero((best >= 0) & ~self._remaining_mask[best]))

    # -- internals ---------------------------------------------------------

    def _refresh(self, rows: np.ndarray) -> None:
        """Recompute the best vertex of ``rows``: one gain matrix, one argmax per row.

        Builds the ``(len(rows), len(remaining))`` gain matrix with three
        fancy gathers, ``(S[a] + S[b]) + S[c]``; ties go to the first
        (smallest) remaining vertex.
        """
        if rows.size == 0:
            return
        remaining = np.flatnonzero(self._remaining_mask)
        if remaining.size == 0:
            self._gain[rows] = -np.inf
            self._vertex[rows] = -1
            return
        corners = self._corners[rows]
        similarity = self._similarity
        gains = (
            similarity[np.ix_(corners[:, 0], remaining)]
            + similarity[np.ix_(corners[:, 1], remaining)]
            + similarity[np.ix_(corners[:, 2], remaining)]
        )
        best_columns = np.argmax(gains, axis=1)
        self._vertex[rows] = remaining[best_columns]
        self._gain[rows] = gains[np.arange(rows.size), best_columns]
